"""The file-system seam: the ``Directory`` contract on both backends, the
catalog commit's step order and every crash point in it, and a guard
that keeps file-system calls inside ``repro.iosim``."""

import ast
import os
import pathlib
import threading

import numpy as np
import pytest

import repro
from repro.catalog import (
    CatalogStore,
    CatalogTable,
    CommitOutcomeUnknown,
    DirectoryCatalogStore,
    MemoryCatalogStore,
)
from repro.core import Table, WriterOptions
from repro.iosim import (
    FileStorage,
    MemoryDirectory,
    OSDirectory,
    StorageWrapper,
)


def _batch(start, n=100):
    return Table({"ts": np.arange(start, start + n, dtype=np.int64)})


def _opts():
    return WriterOptions(rows_per_page=32, rows_per_group=64)


def _rows(table):
    return sorted(np.asarray(table.read(["ts"]).column("ts")).tolist())


@pytest.fixture(params=["os", "memory"])
def backend(request, tmp_path):
    if request.param == "os":
        return OSDirectory(str(tmp_path / "d"), ("a", "b", "tmp"))
    return MemoryDirectory()


@pytest.fixture(params=["os", "memory"])
def store(request, tmp_path):
    if request.param == "os":
        return DirectoryCatalogStore(str(tmp_path / "tbl"))
    return MemoryCatalogStore()


# -- the Directory contract, on both backends ------------------------------

def test_create_is_exclusive(backend):
    backend.create("a/x").close()
    with pytest.raises(FileExistsError):
        backend.create("a/x")


def test_exactly_one_of_eight_threads_wins_a_link(backend):
    for i in range(8):
        s = backend.create(f"a/src{i}")
        s.append(b"%d" % i)
        s.close()
    barrier = threading.Barrier(8)
    won = [None] * 8

    def race(i):
        barrier.wait()
        won[i] = backend.link(f"a/src{i}", "b/target")

    threads = [threading.Thread(target=race, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
        assert not t.is_alive()
    assert won.count(True) == 1 and won.count(False) == 7
    winner = won.index(True)
    reader = backend.open("b/target")
    assert reader.pread(0, reader.size) == b"%d" % winner
    reader.close()


def test_unlinked_file_reads_through_an_open_storage(backend):
    s = backend.create("a/x")
    s.append(b"still here")
    s.close()
    reader = backend.open("a/x")
    backend.unlink("a/x")
    backend.unlink("a/x")  # a missing name is fine
    assert not backend.exists("a/x")
    assert reader.pread(0, reader.size) == b"still here"
    reader.close()
    with pytest.raises(FileNotFoundError):
        backend.open("a/x")


def test_list_names_one_directory_only(backend):
    for path in ("a/y", "a/x", "b/z", "tmp/t"):
        backend.create(path).close()
    assert backend.list("a") == ["x", "y"]
    assert backend.list("b") == ["z"]


def test_store_lists_no_staging_names(store):
    table = CatalogTable.create(store)
    table.append(_batch(0), options=_opts())
    assert store.list_metadata() == [
        "snap-0000000000.json", "snap-0000000001.json"
    ]
    assert store.backend.list("tmp") == []


class _FailingAppend:
    """A backend whose created files refuse their first append."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def create(self, path):
        storage = self.inner.create(path)

        def refuse(data):
            raise OSError("injected write failure")

        storage.append = refuse
        return storage


def test_failed_tmp_write_leaves_no_tmp_entry(store):
    failing = CatalogStore(_FailingAppend(store.backend))
    with pytest.raises(OSError, match="injected"):
        failing.put_metadata("snap-0000000000.json", b"{}")
    assert store.backend.list("tmp") == []
    assert store.list_metadata() == []


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc"
)
def test_os_backend_leaks_no_fds(tmp_path, monkeypatch):
    # without the finalizer's safety net, every missed close would
    # show up as an open descriptor
    monkeypatch.setattr(FileStorage, "__del__", lambda self: None)
    store = DirectoryCatalogStore(str(tmp_path / "tbl"))
    before = len(os.listdir("/proc/self/fd"))
    for i in range(200):
        name = f"snap-{i:010d}.json"
        assert store.put_metadata(name, b"x" * i)
        assert store.read_metadata(name) == b"x" * i
        created = store.create_data(f"f-{i}")
        created.append(b"y" * i)
        created.close()
        opened = store.open_data(f"f-{i}")
        assert opened.size == store.data_size(f"f-{i}") == i
        opened.close()
    assert len(os.listdir("/proc/self/fd")) == before


# -- commit order and crash points -----------------------------------------

class _RecordedStorage(StorageWrapper):
    def __init__(self, inner, dirname, step):
        super().__init__(inner)
        self._dir, self._step = dirname, step

    def pread(self, offset, length):
        return self.inner.pread(offset, length)

    def pwrite(self, offset, data):
        self.inner.pwrite(offset, data)

    def append(self, data):
        return self._step("append", self._dir, lambda: self.inner.append(data))

    def sync(self):
        self._step("sync", self._dir, self.inner.sync)

    def close(self):
        self._step("close", self._dir, self.inner.close)


class RecordingDirectory(MemoryDirectory):
    """Logs each step as ``(op, dirname)``; ``fail = (when, op,
    dirname)`` raises "before" or "after" that step takes effect."""

    def __init__(self):
        super().__init__()
        self.log, self.fail = [], None

    def _step(self, op, dirname, effect):
        if self.fail == ("before", op, dirname):
            raise OSError(f"injected before {op} {dirname}")
        out = effect()
        self.log.append((op, dirname))
        if self.fail == ("after", op, dirname):
            raise OSError(f"injected after {op} {dirname}")
        return out

    def create(self, path):
        d = path.rpartition("/")[0]
        inner = self._step(
            "create", d, lambda: MemoryDirectory.create(self, path)
        )
        return _RecordedStorage(inner, d, self._step)

    def open(self, path):
        inner = MemoryDirectory.open(self, path)
        return _RecordedStorage(inner, path.rpartition("/")[0], self._step)

    def link(self, src, dst):
        return self._step(
            "link",
            dst.rpartition("/")[0],
            lambda: MemoryDirectory.link(self, src, dst),
        )

    def unlink(self, path):
        self._step(
            "unlink",
            path.rpartition("/")[0],
            lambda: MemoryDirectory.unlink(self, path),
        )

    def sync_dir(self, dirname):
        self._step("sync_dir", dirname, lambda: None)


#: one append's durable steps, in the only safe order: the data file,
#: its directory entry, then the manifest written, fsynced and closed
#: under a staging name before the link publishes it
COMMIT_STEPS = [
    ("sync", "data"),
    ("sync_dir", "data"),
    ("create", "tmp"),
    ("append", "tmp"),
    ("sync", "tmp"),
    ("close", "tmp"),
    ("link", "snapshots"),
    ("sync_dir", "snapshots"),
    ("unlink", "tmp"),
]


def test_append_commits_in_durable_order():
    fs = RecordingDirectory()
    table = CatalogTable.create(CatalogStore(fs))
    fs.log.clear()
    table.append(_batch(0), options=_opts())
    log = fs.log[fs.log.index(("sync", "data")):]
    # the staged data file is closed once the commit is published
    assert log == COMMIT_STEPS + [("close", "data")]


#: every commit step, failing before or after it takes effect — except
#: an unlink that never happens, which by definition leaves its name
FAULTS = [
    (when, *step)
    for step in COMMIT_STEPS
    for when in ("before", "after")
    if (when, *step) != ("before", "unlink", "tmp")
]


@pytest.mark.parametrize("fault", FAULTS, ids=lambda f: "-".join(f))
def test_a_fault_at_any_commit_step_leaves_pre_or_post_head(fault):
    """Before the link, a fault is a plain ``OSError`` and nothing is
    published. Once the link took effect the snapshot is visible: a
    fault up to the directory sync raises ``CommitOutcomeUnknown``
    naming it (the handle has noted the commit, so a caller can check
    instead of appending the rows twice), and one removing the staging
    file is no failed commit at all."""
    fs = RecordingDirectory()
    table = CatalogTable.create(CatalogStore(fs))
    table.append(_batch(0), options=_opts())
    fs.fail = fault
    published = COMMIT_STEPS.index(fault[1:]) > COMMIT_STEPS.index(
        ("link", "snapshots")
    ) or fault == ("after", "link", "snapshots")
    if fault[1:] == ("unlink", "tmp"):
        assert table.append(_batch(100), options=_opts()).snapshot_id == 2
    elif published:
        with pytest.raises(CommitOutcomeUnknown, match="injected") as info:
            table.append(_batch(100), options=_opts())
        assert info.value.snapshot_id == 2
    else:
        with pytest.raises(OSError, match="injected") as info:
            table.append(_batch(100), options=_opts())
        assert not isinstance(info.value, CommitOutcomeUnknown)
    fs.fail = None
    assert fs.list("tmp") == []
    assert table.current_snapshot().snapshot_id == (2 if published else 1)
    assert table.stats.commits == (2 if published else 1)
    fresh = CatalogTable(CatalogStore(fs))
    assert _rows(fresh) == list(range(200 if published else 100))


# -- two handles on one directory ------------------------------------------

def test_two_handles_on_one_directory_both_append(tmp_path):
    """Both handles draw the same first file id: the one that creates
    second must move on to the next id, not fail or share the file."""
    root = str(tmp_path / "tbl")
    drew, appended = threading.Event(), threading.Event()

    class WaitingStore(DirectoryCatalogStore):
        def create_data(self, file_id):
            if not appended.is_set():
                drew.set()
                appended.wait(30)
            return super().create_data(file_id)

    CatalogTable.create(DirectoryCatalogStore(root))
    slow = CatalogTable(WaitingStore(root))
    fast = CatalogTable(DirectoryCatalogStore(root))
    errors = []

    def append_slowly():
        try:
            slow.append(_batch(0), options=_opts())
        except BaseException as exc:  # surfaced by the assert below
            errors.append(exc)

    thread = threading.Thread(target=append_slowly)
    thread.start()
    assert drew.wait(30)
    fast.append(_batch(100), options=_opts())
    appended.set()
    thread.join(30)
    assert not thread.is_alive() and errors == []
    fresh = CatalogTable(DirectoryCatalogStore(root))
    assert _rows(fresh) == list(range(200))
    assert len(fresh.current_snapshot().files) == 2


# -- guard: file-system calls stay inside repro.iosim ----------------------

FS_CALLS = {
    "open", "os.open", "os.write", "os.fsync", "os.link", "os.unlink",
    "os.listdir", "os.makedirs", "os.stat", "os.path.exists",
    "os.path.getsize",
}

#: user-requested exports and CLI input that write or read a named path
ALLOWED = {
    "obs/trace.py": {"open"},
    "obs/metrics.py": {"open"},
    "tools/inspect.py": {"open"},
}


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def fs_calls(source):
    """``(line, name)`` of every file-system call ``source`` makes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _dotted(node.func) in FS_CALLS:
            found.append((node.lineno, _dotted(node.func)))
        elif isinstance(node, ast.ImportFrom) and node.module in (
            "os", "os.path"
        ):
            for alias in node.names:
                if f"{node.module}.{alias.name}" in FS_CALLS:
                    found.append((node.lineno, f"os.{alias.name}"))
    return found


def test_guard_sees_file_system_calls():
    source = (
        "import os\nfrom os import unlink\nos.path.exists(p)\n"
        "with open(p) as f:\n    pass\nwriter.open()\n"
    )
    assert sorted(fs_calls(source)) == [
        (2, "os.unlink"), (3, "os.path.exists"), (4, "open")
    ]


def test_no_file_system_calls_outside_iosim():
    root = pathlib.Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel.startswith("iosim/"):
            continue
        allowed = ALLOWED.get(rel, set())
        offenders += [
            f"{rel}:{line}: {name}"
            for line, name in fs_calls(path.read_text(encoding="utf-8"))
            if name not in allowed
        ]
    assert offenders == []
