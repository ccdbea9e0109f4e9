"""Tests for the pluggable storage backends (Storage protocol)."""

import numpy as np
import pytest

from repro.core import BullionReader, BullionWriter, Table, WriterOptions
from repro.iosim import (
    FileStorage,
    ObjectStorage,
    SimulatedStorage,
    Storage,
    waits_per_request,
)


def _table(n=500):
    rng = np.random.default_rng(7)
    return Table(
        {
            "x": np.arange(n, dtype=np.int64),
            "f": rng.normal(size=n),
            "s": [f"row{i}".encode() for i in range(n)],
        }
    )


class TestProtocol:
    def test_backends_satisfy_protocol(self, tmp_path):
        assert isinstance(SimulatedStorage(), Storage)
        with FileStorage(tmp_path / "f.bullion") as fs:
            assert isinstance(fs, Storage)
        assert isinstance(ObjectStorage(SimulatedStorage()), Storage)


class TestFileStorage:
    def test_pread_pwrite_roundtrip(self, tmp_path):
        with FileStorage(tmp_path / "dev.bin") as dev:
            dev.pwrite(0, b"hello world")
            assert dev.pread(6, 5) == b"world"
            assert dev.size == 11

    def test_append_returns_offset(self, tmp_path):
        with FileStorage(tmp_path / "dev.bin") as dev:
            assert dev.append(b"abc") == 0
            assert dev.append(b"def") == 3
            assert dev.size == 6

    def test_write_past_end_zero_fills(self, tmp_path):
        with FileStorage(tmp_path / "dev.bin") as dev:
            dev.pwrite(10, b"x")
            assert dev.pread(0, 10) == b"\x00" * 10

    def test_read_past_end_raises(self, tmp_path):
        with FileStorage(tmp_path / "dev.bin") as dev:
            dev.append(b"ab")
            with pytest.raises(ValueError, match="beyond"):
                dev.pread(0, 3)

    def test_counters_match_simulator_semantics(self, tmp_path):
        with FileStorage(tmp_path / "dev.bin") as dev:
            dev.append(b"x" * 100)
            dev.pread(0, 40)
            dev.pread(40, 60)  # contiguous: no extra seek
            dev.pread(0, 10)  # back to start: seek
            assert dev.stats.reads == 3
            assert dev.stats.bytes_read == 110
            assert dev.stats.read_seeks == 2
            assert dev.stats.writes == 1

    def test_reopen_sees_existing_bytes(self, tmp_path):
        path = tmp_path / "dev.bin"
        with FileStorage(path) as dev:
            dev.append(b"persisted")
        with FileStorage(path) as dev:
            assert dev.size == 9
            assert dev.pread(0, 9) == b"persisted"

    def test_bullion_write_read_cycle_on_real_file(self, tmp_path):
        """The acceptance-criterion round trip on an actual temp file."""
        table = _table()
        path = tmp_path / "real.bullion"
        with FileStorage(path) as dev:
            BullionWriter(
                dev, options=WriterOptions(rows_per_page=64, rows_per_group=128)
            ).write(table)
        with FileStorage(path) as dev:
            reader = BullionReader(dev)
            assert reader.verify()
            out = reader.project(["x", "f", "s"])
            assert out.equals(table)

    def test_file_bytes_identical_to_simulated(self, tmp_path):
        table = _table(200)
        sim = SimulatedStorage()
        opts = WriterOptions(rows_per_page=50, rows_per_group=100)
        BullionWriter(sim, options=opts).write(table)
        with FileStorage(tmp_path / "same.bullion") as dev:
            BullionWriter(dev, options=opts).write(table)
            assert dev.raw_bytes() == sim.raw_bytes()


WRAPPERS = [ObjectStorage]


class TestStorageWrappers:
    """Wrappers share one forwarding base: lifecycle calls reach the
    backend through it (a wrapped ``FileStorage`` used to skip the
    pre-commit fsync and leak its fd)."""

    @pytest.mark.parametrize("wrapper", WRAPPERS)
    def test_sync_and_close_reach_the_file(self, tmp_path, monkeypatch, wrapper):
        import os

        inner = FileStorage(tmp_path / "dev.bin")
        dev = wrapper(inner)
        dev.append(b"durable")
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))
        )
        dev.sync()
        assert synced == [inner._fd]
        dev.close()
        with pytest.raises(OSError):
            os.fstat(inner._fd)  # the fd really went back

    @pytest.mark.parametrize("wrapper", WRAPPERS)
    def test_context_manager_closes(self, tmp_path, wrapper):
        with wrapper(FileStorage(tmp_path / "dev.bin")) as dev:
            dev.append(b"abc")
            assert (dev.name, dev.size, len(dev)) == ("dev.bin", 3, 3)
            assert dev.raw_bytes() == b"abc"
        assert dev.inner._closed

    @pytest.mark.parametrize("wrapper", WRAPPERS)
    def test_lifecycle_is_a_noop_over_a_simulator(self, wrapper):
        dev = wrapper(SimulatedStorage())
        dev.sync()
        dev.close()

    def test_waits_per_request_finds_a_sleeper_anywhere_in_the_stack(self):
        sim = SimulatedStorage()
        assert not waits_per_request(sim)
        assert not waits_per_request(ObjectStorage(sim))  # modelled only
        assert not waits_per_request(ObjectStorage(ObjectStorage(sim)))
        assert waits_per_request(ObjectStorage(sim, sleep=True))
        assert waits_per_request(ObjectStorage(ObjectStorage(sim, sleep=True)))

        class Foreign:  # a wrapper outside this package: only ``.inner``
            def __init__(self, inner):
                self.inner = inner

        assert waits_per_request(Foreign(ObjectStorage(sim, sleep=True)))
        assert not waits_per_request(Foreign(sim))


class TestReadOnlyFileStorage:
    def test_readonly_open_reads_unwritable_file(self, tmp_path):
        path = tmp_path / "ro.bin"
        with FileStorage(path) as dev:
            dev.append(b"locked down")
        path.chmod(0o444)
        with FileStorage(path, readonly=True) as dev:
            assert dev.pread(0, 6) == b"locked"
            with pytest.raises(ValueError, match="read-only"):
                dev.pwrite(0, b"x")
            with pytest.raises(ValueError, match="read-only"):
                dev.truncate(1)

    def test_missing_file_without_create_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            FileStorage(tmp_path / "absent.bin", create=False)
