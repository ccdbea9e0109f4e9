"""The file-system seam: every name operation behind one interface.

A :class:`Directory` creates files (exclusively: ``FileExistsError``
if the name exists), opens them read-only, links (``False`` if the
target exists — the put-if-absent a catalog commit is built on),
replaces a name atomically (a snapshot's tombstone), unlinks (a
missing name is fine; a ``Storage`` opened before keeps reading),
lists one directory's names and fsyncs a directory. File
bytes are written and fsynced through the :class:`~repro.iosim.Storage`
``create`` returns. Paths are ``/``-separated, relative to the root.
Catalog commits, data files and the disk-tier spill all cross this
seam, so a wrapper around a backend sees — and can record, cut or
reorder — every durable step.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Protocol

from repro.iosim.blockdev import SimulatedStorage
from repro.iosim.storage import FileStorage, Storage


class Directory(Protocol):
    """Name operations on one directory tree; semantics above."""
    def create(self, path: str) -> Storage: ...
    def open(self, path: str) -> Storage: ...
    def link(self, src: str, dst: str) -> bool: ...
    def replace(self, src: str, dst: str) -> None: ...
    def unlink(self, path: str) -> None: ...
    def list(self, dirname: str) -> list[str]: ...
    def sync_dir(self, dirname: str) -> None: ...
    def exists(self, path: str) -> bool: ...
    def mtime_ms(self, path: str) -> int: ...


def read_file(fs: Directory, path: str) -> bytes:
    storage = fs.open(path)
    try:
        return storage.pread(0, storage.size)
    finally:
        storage.close()


def write_file(fs: Directory, path: str, data: bytes, *, sync=False) -> None:
    storage = fs.create(path)
    try:
        storage.append(data)
        if sync:
            storage.sync()
    finally:
        storage.close()


class OSDirectory:
    """A real directory tree at ``root``, created with ``subdirs``."""

    def __init__(self, root: str, subdirs: tuple[str, ...] = ()) -> None:
        self.root = os.fspath(root)
        for d in ("", *subdirs):
            os.makedirs(os.path.join(self.root, d), exist_ok=True)

    def _path(self, path: str) -> str:
        return os.path.join(self.root, path)

    def create(self, path: str) -> Storage:
        full = self._path(path)
        os.close(os.open(full, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644))
        return FileStorage(full, create=False)

    def open(self, path: str) -> Storage:
        return FileStorage(self._path(path), create=False, readonly=True)

    def link(self, src: str, dst: str) -> bool:
        try:
            os.link(self._path(src), self._path(dst))
        except FileExistsError:
            return False
        return True

    def replace(self, src: str, dst: str) -> None:
        os.replace(self._path(src), self._path(dst))

    def unlink(self, path: str) -> None:
        try:
            os.unlink(self._path(path))
        except FileNotFoundError:
            pass

    def list(self, dirname: str) -> list[str]:
        return sorted(os.listdir(self._path(dirname)))

    def sync_dir(self, dirname: str) -> None:
        # best effort: not every platform opens or fsyncs directories
        try:
            fd = os.open(self._path(dirname), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        except OSError:
            pass

    def exists(self, path: str) -> bool:
        return os.path.exists(self._path(path))

    def mtime_ms(self, path: str) -> int:
        return int(os.stat(self._path(path)).st_mtime * 1000)


class MemoryDirectory:
    """In-memory files: ``open`` hands back the very object ``create``
    made (stable ``IOStats`` and chunk-cache ``mem:`` identity), a link
    shares it, and an unlink drops only the name."""

    def __init__(self) -> None:
        #: dirname -> name -> (storage, creation time in ms)
        self._dirs: dict[str, dict[str, tuple[SimulatedStorage, int]]] = {}
        self._lock = threading.Lock()

    def _slot(self, path: str) -> tuple[dict, str]:
        dirname, _, name = path.rpartition("/")
        return self._dirs.setdefault(dirname, {}), name

    def _entry(self, path: str) -> tuple[SimulatedStorage, int]:
        entries, name = self._slot(path)
        if name not in entries:
            raise FileNotFoundError(f"no file {path!r}")
        return entries[name]

    def create(self, path: str) -> Storage:
        with self._lock:
            entries, name = self._slot(path)
            if name in entries:
                raise FileExistsError(f"file {path!r} exists")
            storage = SimulatedStorage(name)
            entries[name] = (storage, time.time_ns() // 1_000_000)
            return storage

    def open(self, path: str) -> Storage:
        with self._lock:
            return self._entry(path)[0]

    def link(self, src: str, dst: str) -> bool:
        with self._lock:
            entry = self._entry(src)
            entries, name = self._slot(dst)
            if name in entries:
                return False
            entries[name] = entry
            return True

    def replace(self, src: str, dst: str) -> None:
        with self._lock:
            entry = self._entry(src)
            entries, name = self._slot(dst)
            entries[name] = entry
            src_entries, src_name = self._slot(src)
            del src_entries[src_name]

    def unlink(self, path: str) -> None:
        with self._lock:
            entries, name = self._slot(path)
            entries.pop(name, None)

    def list(self, dirname: str) -> list[str]:
        with self._lock:
            return sorted(self._dirs.get(dirname, ()))

    def sync_dir(self, dirname: str) -> None:
        pass  # memory is as durable as it gets

    def exists(self, path: str) -> bool:
        with self._lock:
            entries, name = self._slot(path)
            return name in entries

    def mtime_ms(self, path: str) -> int:
        with self._lock:
            return self._entry(path)[1]
