"""A byte-accurate simulated storage device with I/O accounting.

``SimulatedStorage`` exposes the positional-read/write interface the
paper's design assumes (``pread()`` the footer, ``pread()`` the column
byte ranges, in-place page ``pwrite()``) while counting:

* read/write operation counts and byte totals,
* seeks — a read/write whose start offset is not where the previous
  operation ended,
* modelled elapsed time under a :class:`SeekModel` (seek latency +
  sequential bandwidth), so benchmarks can report device-time shapes
  rather than Python-interpreter noise.

The deletion-compliance bench (factor-50 rewrite-I/O reduction) and the
multimodal quality-aware-layout bench (Fig 7) are pure functions of
these counters.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.obs.families import Counters


@dataclass
class SeekModel:
    """Cost model: elapsed = seeks * seek_latency
    + requests * request_latency + bytes / bandwidth.

    ``request_latency_s`` is a fixed per-operation charge regardless of
    contiguity — zero for local devices (the historical model, so every
    existing benchmark number is unchanged) but the *dominant* term for
    object stores, where each ranged GET pays a round trip no matter
    how sequential the access pattern is.
    """

    seek_latency_s: float = 1e-4  # 100 µs — datacenter NVMe-ish
    bandwidth_bytes_per_s: float = 2e9  # 2 GB/s sequential
    request_latency_s: float = 0.0  # per-request fixed cost (RTT)

    def request_cost(self, nbytes: int, seeked: bool = True) -> float:
        """Modelled seconds for one request moving ``nbytes``.

        The charging formula of :class:`~repro.iosim.ObjectStorage`
        (``request_latency_s`` dominating, seeks free).
        """
        cost = self.request_latency_s + nbytes / self.bandwidth_bytes_per_s
        if seeked:
            cost += self.seek_latency_s
        return cost


@dataclass
class IOStats(Counters):
    """Mutable counters for one device: the one storage accounting
    (no registry families)."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    read_seeks: int = 0
    write_seeks: int = 0

    @property
    def seeks(self) -> int:
        return self.read_seeks + self.write_seeks

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written

    def modelled_time(self, model: SeekModel | None = None) -> float:
        model = model or SeekModel()
        return (
            self.seeks * model.seek_latency_s
            + (self.reads + self.writes) * model.request_latency_s
            + self.total_bytes / model.bandwidth_bytes_per_s
        )


@dataclass
class SimulatedStorage:
    """In-memory block device with positional reads/writes.

    The backing store grows on demand; all offsets are absolute. A
    ``name`` makes multi-device experiments (meta table vs media table)
    readable in reports.
    """

    name: str = "dev0"
    stats: IOStats = field(default_factory=IOStats)

    def __post_init__(self) -> None:
        self._buf = bytearray()
        self._read_cursor: int | None = None
        self._write_cursor: int | None = None
        # parallel scans issue preads from worker threads
        self._lock = threading.Lock()

    # -- geometry -----------------------------------------------------
    def __len__(self) -> int:
        return len(self._buf)

    @property
    def size(self) -> int:
        return len(self._buf)

    def truncate(self, size: int) -> None:
        """Shrink or grow (zero-filled) the device, uncounted."""
        if size < len(self._buf):
            del self._buf[size:]
        else:
            self._buf.extend(b"\x00" * (size - len(self._buf)))

    # -- I/O ----------------------------------------------------------
    def pread(self, offset: int, length: int) -> bytes:
        """Positional read; counts a seek when non-contiguous."""
        if offset < 0 or length < 0:
            raise ValueError("negative offset/length")
        with self._lock:
            if offset + length > len(self._buf):
                raise ValueError(
                    f"pread [{offset}, {offset + length}) beyond device "
                    f"size {len(self._buf)}"
                )
            seek = self._read_cursor != offset
            self.stats.bump(reads=1, bytes_read=length, read_seeks=seek)
            self._read_cursor = offset + length
            return bytes(self._buf[offset : offset + length])

    def pwrite(self, offset: int, data: bytes) -> None:
        """Positional write; extends the device when writing past end."""
        if offset < 0:
            raise ValueError("negative offset")
        with self._lock:
            end = offset + len(data)
            if end > len(self._buf):
                self._buf.extend(b"\x00" * (end - len(self._buf)))
            seek = self._write_cursor != offset
            self.stats.bump(writes=1, bytes_written=len(data), write_seeks=seek)
            self._write_cursor = end
            self._buf[offset:end] = data

    def append(self, data: bytes) -> int:
        """Sequential append; returns the offset the data landed at."""
        offset = len(self._buf)
        self.pwrite(offset, data)
        return offset

    def sync(self) -> None:
        pass  # memory has nothing to flush or give back

    def close(self) -> None:
        pass

    # -- escape hatches for tests -------------------------------------
    def raw_bytes(self) -> bytes:
        """Uncounted full snapshot (test assertions only)."""
        return bytes(self._buf)

    def corrupt(self, offset: int, data: bytes) -> None:
        """Uncounted direct mutation (failure-injection tests)."""
        self._buf[offset : offset + len(data)] = data
