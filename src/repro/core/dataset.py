"""Batch-oriented training reads over a pinned snapshot's files.

The access pattern §2.3 describes — "reading all training data within a
specific time period in a batch-oriented manner, without requiring
complex indexing or filtering" — as a data-loader:

* a feature projection (the ~10% of columns a job trains on),
* row-group-granular iteration so memory stays bounded on wide files,
* optional row-group shuffling per epoch (the standard approximation of
  global shuffling for columnar training data),
* optional §2.4 widening of quantized features,
* deleted rows filtered via the deletion vector, like every read path.

A loader reads the fixed reader list of one pinned catalog snapshot
(:meth:`repro.catalog.PinnedSnapshot.loader`), so epochs stay
reproducible while ingest continues. It walks the files in sequence;
each file's chunks are fetched ahead by the scan layer when the device
waits per request.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.reader import BullionReader
from repro.core.table import rebatch
from repro.expr import Expr, coerce_where


@dataclass
class LoaderOptions:
    batch_size: int = 256
    shuffle_row_groups: bool = False
    widen_quantized: bool = False
    drop_last: bool = False
    seed: int = 0
    #: bound on each file scan's fetch look-ahead (``max_workers``)
    scan_workers: int = 4
    #: optional row filter (:class:`repro.expr.Expr` or its text form,
    #: parsed on construction) applied with the full pushdown: zone-map
    #: group pruning + exact decode-time filtering, so a
    #: curriculum/quality filter skips I/O, not just rows (batches
    #: still come out exactly ``batch_size`` long)
    where: "Expr | str | None" = None

    def __post_init__(self) -> None:
        self.where = coerce_where(self.where)


class TrainingDataLoader:
    """Iterate mini-batches of a feature projection over a fixed list
    of file readers (a pinned snapshot's; see
    :meth:`repro.catalog.PinnedSnapshot.loader`)."""

    def __init__(
        self,
        readers: list[BullionReader],
        columns: list[str],
        options: LoaderOptions | None = None,
    ) -> None:
        self._readers = list(readers)
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
        """Live rows of the files the loader reads: what an epoch
        yields without ``where`` (with it, an upper bound)."""
        return sum(r.live_rows for r in self._readers)

    @property
    def num_shards(self) -> int:
        return len(self._readers)

    def __iter__(self):
        """One epoch: group tables across files, re-sliced into exact
        batches."""
        opts = self._options
        rng = (
            np.random.default_rng(opts.seed + self._epoch)
            if opts.shuffle_row_groups
            else None
        )
        self._epoch += 1

        def chunks():
            order = list(range(len(self._readers)))
            if rng is not None and len(order) > 1:
                rng.shuffle(order)
            for s in order:
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

        return rebatch(chunks(), opts.batch_size, drop_last=opts.drop_last)


def _column_exists(reader: BullionReader, name: str) -> bool:
    try:
        reader.layout.locate(name)
        return True
    except KeyError:
        return False
