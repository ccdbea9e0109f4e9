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

A snapshot id once published is never free again: a transaction's
first commit attempt claims ``base + 1``, so expiring a snapshot above
the lowest base an open transaction holds (:meth:`CatalogStore.base_floor`,
over every store object of the table's directory in this process)
replaces its document with :data:`TOMBSTONE` instead of unlinking it,
and the put fails as a conflict. A tombstone goes once no open
transaction can claim its id.
"""

from __future__ import annotations

import itertools
import os
import threading
import weakref
from collections import Counter

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


#: an expired snapshot's document while its id may still be claimed
TOMBSTONE = b'{"expired":true}'


class _Bases:
    """Base snapshot id -> transactions open on it, for one table."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.lock = threading.Lock()


_REGISTRY_LOCK = threading.Lock()
#: one registry per table in this process: by real path for a
#: directory on disk, by backend object for one in memory
_BASES_BY_ROOT: dict = {}
_BASES_BY_BACKEND: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _bases_of(backend) -> _Bases:
    root = getattr(backend, "root", None)
    with _REGISTRY_LOCK:
        if root is not None:
            return _BASES_BY_ROOT.setdefault(os.path.realpath(root), _Bases())
        return _BASES_BY_BACKEND.setdefault(backend, _Bases())


class CatalogStore:
    """Metadata CAS + data files of one table, over ``backend``."""

    def __init__(self, backend: Directory) -> None:
        self.backend = backend
        self._ids = itertools.count()  # for file ids and tmp names
        self._bases = _bases_of(backend)

    # -- open transactions ----------------------------------------------
    def hold_base(self, snapshot_id: int) -> None:
        """A transaction opens on ``snapshot_id``: until it ends, its
        first commit attempt may claim ``snapshot_id + 1``."""
        with self._bases.lock:
            self._bases.counts[snapshot_id] += 1

    def release_base(self, snapshot_id: int) -> None:
        with self._bases.lock:
            counts = self._bases.counts
            counts[snapshot_id] -= 1
            if counts[snapshot_id] <= 0:
                del counts[snapshot_id]

    def base_floor(self) -> "int | None":
        """The lowest base an open transaction on this table holds, in
        this process (None: none is open). Ids at or below it can no
        longer be claimed."""
        with self._bases.lock:
            return min(self._bases.counts, default=None)

    # -- metadata (CAS) -------------------------------------------------
    def put_metadata(self, name: str, data: bytes) -> bool:
        """Publish ``data`` as ``name`` unless the name is taken: True
        when this call published it. A fault once the link has taken
        effect raises :class:`CommitOutcomeUnknown`; one before it, a
        plain ``OSError`` (nothing was published). The staging file goes
        on any exit; failing to remove it once the snapshot is published
        is not a failed commit."""
        tmp = self._tmp_name()
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

    def _tmp_name(self) -> str:
        return f"tmp/{os.getpid()}-{threading.get_ident()}-{next(self._ids)}"

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

    def put_tombstone(self, name: str) -> None:
        """Replace ``name``'s document with :data:`TOMBSTONE` in one
        step: the name never stops existing, so no put can take it."""
        tmp = self._tmp_name()
        write_file(self.backend, tmp, TOMBSTONE, sync=True)
        try:
            self.backend.replace(tmp, f"snapshots/{name}")
        except BaseException:
            self.backend.unlink(tmp)
            raise
        self.backend.sync_dir("snapshots")

    def metadata_mtime_ms(self, name: str) -> int:
        return self.backend.mtime_ms(f"snapshots/{name}")

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
