"""Batch-oriented training reads over a pinned snapshot.

The access pattern §2.3 describes — "reading all training data within a
specific time period in a batch-oriented manner, without requiring
complex indexing or filtering" — as a data-loader:

* a feature projection (the ~10% of columns a job trains on),
* row-group-granular iteration so memory stays bounded on wide files,
* optional row-group shuffling per epoch (the standard approximation of
  global shuffling for columnar training data),
* optional §2.4 widening of quantized features,
* deleted rows filtered via the deletion vector, like every read path.

A loader is bound to one pinned catalog snapshot
(:meth:`repro.catalog.PinnedSnapshot.loader`), so epochs stay
reproducible while ingest continues. Each epoch is one read of the
pin's snapshot index, the same read a snapshot scan makes: batched
across files, with the next batch's chunks in flight on a device that
waits per request.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.table import check_int, rebatch
from repro.expr import Expr, coerce_where


@dataclass
class LoaderOptions:
    batch_size: int = 256
    shuffle_row_groups: bool = False
    widen_quantized: bool = False
    drop_last: bool = False
    seed: int = 0
    #: optional row filter (:class:`repro.expr.Expr` or its text form,
    #: parsed on construction) applied with the full pushdown: zone-map
    #: group pruning + exact decode-time filtering, so a
    #: curriculum/quality filter skips I/O, not just rows (batches
    #: still come out exactly ``batch_size`` long)
    where: "Expr | str | None" = None

    def __post_init__(self) -> None:
        check_int(self.batch_size, "batch_size", positive=True)
        check_int(self.seed, "seed")
        self.where = coerce_where(self.where)


class TrainingDataLoader:
    """Iterate mini-batches of a feature projection over the files
    ``files`` (ordinals, the ones the manifest did not prune) of a
    pinned snapshot; see :meth:`repro.catalog.PinnedSnapshot.loader`."""

    def __init__(
        self, pin, columns: list[str], files: np.ndarray,
        options: LoaderOptions,
    ) -> None:
        self._pin = pin
        self._columns = list(columns)
        self._files = files
        self._options = options
        self._epoch = 0

    @property
    def num_rows(self) -> int:
        """Live rows of the files the loader reads: what an epoch
        yields without ``where`` (with it, an upper bound)."""
        manifest = self._pin.index().manifest
        live = manifest.row_count - manifest.deleted_count
        return int(live[self._files].sum())

    @property
    def num_shards(self) -> int:
        return len(self._files)

    def __iter__(self):
        """One epoch: the files' row groups, each file's in turn (the
        files, then each file's groups, shuffled per epoch with
        ``shuffle_row_groups``), re-sliced into exact batches."""
        opts = self._options
        files, shuffle = self._files, None
        if opts.shuffle_row_groups:
            rng = np.random.default_rng(opts.seed + self._epoch)
            if len(files) > 1:
                files = files.copy()
                rng.shuffle(files)
            shuffle = rng.shuffle
        self._epoch += 1
        tables = self._pin._read(
            self._columns, opts.where, None, files=files,
            shuffle=shuffle, widen_quantized=opts.widen_quantized,
        )
        return rebatch(tables, opts.batch_size, drop_last=opts.drop_last)
