"""Batch-oriented training reads over Bullion files and shard sets.

The access pattern §2.3 describes — "reading all training data within a
specific time period in a batch-oriented manner, without requiring
complex indexing or filtering" — as a data-loader:

* a feature projection (the ~10% of columns a job trains on),
* row-group-granular iteration so memory stays bounded on wide files,
* optional row-group shuffling per epoch (the standard approximation of
  global shuffling for columnar training data),
* optional §2.4 widening of quantized features,
* deleted rows filtered via the deletion vector, like every read path.

Datasets larger than one file live in a :class:`ShardedDataset` — N
Bullion shard files behind one scan/loader surface. The loader walks
shards in sequence (each shard's chunks fetched ahead by the scan
layer when the device waits per request) and can prefetch decoded
batches on a background thread so the trainer never waits on I/O.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass

import numpy as np

from repro.core.reader import BullionReader
from repro.core.table import Table, rebatch
from repro.core.writer import BullionWriter, WriterOptions
from repro.core.schema import Schema
from repro.expr import Expr, coerce_where
from repro.iosim import SimulatedStorage, Storage


@dataclass
class LoaderOptions:
    batch_size: int = 256
    shuffle_row_groups: bool = False
    widen_quantized: bool = False
    drop_last: bool = False
    seed: int = 0
    #: batches decoded ahead by a background thread (0 = synchronous)
    prefetch_batches: int = 0
    #: bound on each shard scan's fetch look-ahead (``max_workers``)
    scan_workers: int = 4
    #: optional row filter (:class:`repro.expr.Expr` or its text form,
    #: parsed on construction) applied with the full pushdown: zone-map
    #: group pruning + exact decode-time filtering, so a
    #: curriculum/quality filter skips I/O, not just rows (batches
    #: still come out exactly ``batch_size`` long)
    where: "Expr | str | None" = None

    def __post_init__(self) -> None:
        self.where = coerce_where(self.where)


class ShardedDataset:
    """A logical dataset stored as N Bullion shard files.

    One table too big for a single file is written as consecutive row
    slices, one Bullion file per shard. Reads present the shard set as
    a single stream: :meth:`scan` chains per-shard scans, and
    :class:`TrainingDataLoader` accepts the dataset wherever a single
    storage is accepted.
    """

    def __init__(self, shards: list[Storage]) -> None:
        if not shards:
            raise ValueError("a sharded dataset needs at least one shard")
        self.shards = list(shards)
        self._readers: list[BullionReader] | None = None

    @classmethod
    def write(
        cls,
        table: Table,
        num_shards: int | None = None,
        rows_per_shard: int | None = None,
        storage_factory=None,
        schema: Schema | None = None,
        options: WriterOptions | None = None,
    ) -> "ShardedDataset":
        """Split ``table`` row-wise into shard files.

        Exactly one of ``num_shards`` / ``rows_per_shard`` selects the
        split; ``storage_factory(i)`` supplies each shard's backend
        (default: in-memory ``SimulatedStorage``). Each shard goes
        through the incremental writer, so peak memory per shard stays
        at one row group of encoded pages.
        """
        if (num_shards is None) == (rows_per_shard is None):
            raise ValueError("specify exactly one of num_shards/rows_per_shard")
        n = table.num_rows
        if num_shards is not None:
            if num_shards <= 0:
                raise ValueError("num_shards must be positive")
            rows_per_shard = max(1, -(-n // num_shards))
        elif rows_per_shard is not None and rows_per_shard <= 0:
            raise ValueError("rows_per_shard must be positive")
        if storage_factory is None:
            storage_factory = lambda i: SimulatedStorage(f"shard{i}")
        starts = list(range(0, max(n, 1), rows_per_shard))
        if num_shards is not None:
            # a fixed shard count is honoured even when rounding would
            # produce fewer non-empty slices
            starts = starts[:num_shards]
            while len(starts) < num_shards:
                starts.append(n)
        shards: list[Storage] = []
        for i, start in enumerate(starts):
            storage = storage_factory(i)
            writer = BullionWriter(storage, schema=schema, options=options)
            writer.open()
            writer.write_batch(table.slice(start, min(start + rows_per_shard, n)))
            writer.finish()
            shards.append(storage)
        return cls(shards)

    # -- metadata -------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def readers(self) -> list[BullionReader]:
        if self._readers is None:
            self._readers = [BullionReader(s) for s in self.shards]
        return self._readers

    @property
    def num_rows(self) -> int:
        return sum(r.num_rows for r in self.readers())

    def column_names(self) -> list[str]:
        return self.readers()[0].column_names()

    # -- data -----------------------------------------------------------
    def scan(self, columns: list[str], **scan_kwargs):
        """Chained lazy scan across all shards (one batch stream).

        ``batch_size`` is honoured across shard boundaries: batches are
        exactly that size with only the final one short, the same
        contract a single-file scan gives.
        """
        batch_size = scan_kwargs.pop("batch_size", None)
        chunks = (
            batch
            for reader in self.readers()
            for batch in reader.scan(columns, **scan_kwargs)
        )
        if batch_size is not None:
            chunks = rebatch(chunks, batch_size)
        yield from chunks


class TrainingDataLoader:
    """Iterate mini-batches of a feature projection over a Bullion
    file, a list of shard storages, a :class:`ShardedDataset`, or any
    snapshot-like source exposing ``readers()`` (e.g. a pinned catalog
    snapshot, so epochs stay reproducible while ingest continues)."""

    def __init__(
        self,
        source: "Storage | ShardedDataset | list[Storage] | object",
        columns: list[str],
        options: LoaderOptions | None = None,
    ) -> None:
        if isinstance(source, (list, tuple)):
            self._readers = [BullionReader(s) for s in source]
        elif hasattr(source, "readers"):
            # ShardedDataset or a pinned catalog snapshot: a fixed,
            # immutable reader set
            self._readers = list(source.readers())
        else:
            self._readers = [BullionReader(source)]
        for reader in self._readers:
            missing = [
                c for c in columns if not _column_exists(reader, c)
            ]
            if missing:
                raise KeyError(f"columns not in file: {missing}")
        self._columns = list(columns)
        self._options = options or LoaderOptions()
        self._epoch = 0

    @property
    def num_rows(self) -> int:
        return sum(r.num_rows for r in self._readers)

    @property
    def num_shards(self) -> int:
        return len(self._readers)

    def __iter__(self):
        opts = self._options
        rng = (
            np.random.default_rng(opts.seed + self._epoch)
            if opts.shuffle_row_groups
            else None
        )
        self._epoch += 1
        batches = self._epoch_batches(rng)
        if opts.prefetch_batches > 0:
            batches = _prefetch(batches, opts.prefetch_batches)
        return batches

    def _epoch_batches(self, rng):
        """Group-tables across shards, re-sliced into exact batches."""
        opts = self._options

        def chunks():
            shard_order = list(range(len(self._readers)))
            if rng is not None and len(shard_order) > 1:
                rng.shuffle(shard_order)
            for s in shard_order:
                reader = self._readers[s]
                groups = list(range(len(reader.file_index.rows)))
                if rng is not None:
                    rng.shuffle(groups)
                yield from reader.scan(
                    self._columns,
                    row_groups=groups,
                    where=opts.where,
                    widen_quantized=opts.widen_quantized,
                    max_workers=opts.scan_workers,
                )

        yield from rebatch(
            chunks(), opts.batch_size, drop_last=opts.drop_last
        )


_SENTINEL = object()


def _prefetch(gen, depth: int):
    """Run ``gen`` on a daemon thread, buffering up to ``depth`` items.

    Exceptions raised by the producer re-raise at the consumer's next
    pull, so error behaviour matches synchronous iteration. When the
    consumer stops early (break, exception), the producer is signalled
    to stop instead of blocking forever on the bounded queue.
    """
    q: queue.Queue = queue.Queue(maxsize=depth)
    stop = threading.Event()

    def _put(item) -> bool:
        while not stop.is_set():
            try:
                q.put(item, timeout=0.05)
                return True
            except queue.Full:
                continue
        return False

    def produce() -> None:
        try:
            for item in gen:
                if not _put(item):
                    return
            _put(_SENTINEL)
        except BaseException as exc:  # relayed, not swallowed
            _put(exc)

    thread = threading.Thread(
        target=produce, name="loader-prefetch", daemon=True
    )
    thread.start()
    try:
        while True:
            item = q.get()
            if item is _SENTINEL:
                break
            if isinstance(item, BaseException):
                raise item
            yield item
    finally:
        stop.set()


def _column_exists(reader: BullionReader, name: str) -> bool:
    try:
        reader.layout.locate(name)
        return True
    except KeyError:
        return False
