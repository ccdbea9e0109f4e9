"""Where a catalog table lives: one :class:`CatalogStore` over a
:class:`~repro.iosim.Directory`::

    snapshots/   snap-0000000001.json ...    the metadata objects
    data/        f-<pid>-<seq>.bullion ...   immutable Bullion files
    tmp/         staging for the atomic metadata commit

``put_metadata`` is the commit CAS — the "atomic rename" commit of
Iceberg's Hadoop catalog / Delta's log store: write the snapshot to
``tmp/``, fsync, link it to its final name (which fails when a racing
committer claimed it first), fsync ``snapshots/``. The two stores
differ only in their backend: ``MemoryCatalogStore`` (for tests and
simulation) and ``DirectoryCatalogStore`` (a local directory).
"""

from __future__ import annotations

import itertools
import os
import threading

from repro.iosim import Directory, MemoryDirectory, OSDirectory, Storage
from repro.iosim.directory import read_file, write_file


class CommitOutcomeUnknown(OSError):
    """A commit published its snapshot (or may have), then a file-system
    step failed: the link raised after taking effect, or ``snapshots/``
    could not be synced. The snapshot is visible but maybe not durable.
    ``snapshot_id`` names it, so a caller can check instead of retrying
    (a retry would append the rows twice)."""

    def __init__(self, message: str, snapshot_id: "int | None" = None):
        super().__init__(message)
        self.snapshot_id = snapshot_id


class CatalogStore:
    """Metadata CAS + data files of one table, over ``backend``."""

    def __init__(self, backend: Directory) -> None:
        self.backend = backend
        self._ids = itertools.count()  # for file ids and tmp names

    # -- metadata (CAS) -------------------------------------------------
    def put_metadata(self, name: str, data: bytes) -> bool:
        """Publish ``data`` as ``name`` unless the name is taken: True
        when this call published it. A fault once the link has taken
        effect raises :class:`CommitOutcomeUnknown`; one before it, a
        plain ``OSError`` (nothing was published). The staging file goes
        on any exit; failing to remove it once the snapshot is published
        is not a failed commit."""
        tmp = f"tmp/{os.getpid()}-{threading.get_ident()}-{next(self._ids)}"
        final = f"snapshots/{name}"
        published = False
        try:
            write_file(self.backend, tmp, data, sync=True)
            try:
                if not self.backend.link(tmp, final):
                    return False
            except OSError as exc:
                if not self._holds(final, data):
                    raise
                published = True
                raise CommitOutcomeUnknown(
                    f"{name} is published but not synced: {exc}"
                ) from exc
            published = True
            try:
                # the new directory entry must survive a crash too
                self.backend.sync_dir("snapshots")
            except OSError as exc:
                raise CommitOutcomeUnknown(
                    f"{name} is published but not synced: {exc}"
                ) from exc
            return True
        finally:
            try:
                self.backend.unlink(tmp)
            except OSError:
                if not published:
                    raise

    def _holds(self, path: str, data: bytes) -> bool:
        """Does ``path`` exist with exactly ``data`` (our link, after a
        fault that hid whether it happened)?"""
        try:
            return read_file(self.backend, path) == data
        except OSError:
            return False

    def read_metadata(self, name: str) -> bytes:
        return read_file(self.backend, f"snapshots/{name}")

    def list_metadata(self) -> list[str]:
        return self.backend.list("snapshots")

    def delete_metadata(self, name: str) -> None:
        self.backend.unlink(f"snapshots/{name}")

    # -- data files -----------------------------------------------------
    @staticmethod
    def _data_path(file_id: str) -> str:
        return f"data/{file_id}.bullion"

    def new_file_id(self) -> str:
        # the pid keeps processes apart; the sequence restarts on reopen
        # (and pids recycle), so skip ids taken — a racing handle on the
        # same directory may still win one: create_data then raises
        while True:
            fid = f"f-{os.getpid():05d}-{next(self._ids):06d}"
            if not self.backend.exists(self._data_path(fid)):
                return fid

    def create_data(self, file_id: str) -> Storage:
        return self.backend.create(self._data_path(file_id))

    def open_data(self, file_id: str) -> Storage:
        # data files are immutable once committed; readers keep the
        # bytes even if GC unlinks the file while they hold it
        return self.backend.open(self._data_path(file_id))

    def data_size(self, file_id: str) -> int:
        storage = self.backend.open(self._data_path(file_id))
        size = storage.size
        storage.close()
        return size

    def data_mtime_ms(self, file_id: str) -> int:
        return self.backend.mtime_ms(self._data_path(file_id))

    def sync_data(self) -> None:
        self.backend.sync_dir("data")

    def delete_data(self, file_id: str) -> None:
        self.backend.unlink(self._data_path(file_id))

    def list_data(self) -> list[str]:
        return [
            n[: -len(".bullion")]
            for n in self.backend.list("data")
            if n.endswith(".bullion")
        ]


class MemoryCatalogStore(CatalogStore):
    """A table in memory, for tests and simulation."""

    def __init__(self, name: str = "catalog") -> None:
        super().__init__(MemoryDirectory())
        self.name = name


class DirectoryCatalogStore(CatalogStore):
    """A table in a local directory (created if missing)."""

    def __init__(self, root: str) -> None:
        super().__init__(OSDirectory(root, ("snapshots", "data", "tmp")))
        self.root = self.backend.root
