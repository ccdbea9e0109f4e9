"""``train_wide_scan``: a training job pulls a narrow projection of a
very wide sparse-feature table, epoch after epoch.

The codecs, quantization widening, the reader and the footer do nearly
all of the work; the server, the query engine, catalog commits and the
deletion path do none. This is the paper's §2.2/§2.3/§2.4 read path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import datagen
from common import Context, Deadline, ScenarioResult, end_to_end, ratio
from wrappers import live_bytes, make_store


@dataclass(frozen=True)
class Scale:
    files: int
    rows: int
    n_features: int
    n_seq: int
    #: epochs to run when the phase is not time-boxed
    epochs: int | None
    min_epochs: int


# Three files, not the issue's four: a 16,384-row x 2,010-column file
# takes ~5 s to build and the driver's budget is ~37 s per run. The
# per-file shape (columns, groups, pages) is the issue's.
FULL = Scale(files=3, rows=16384, n_features=2000, n_seq=8,
             epochs=None, min_epochs=4)
MINI = Scale(files=1, rows=4096, n_features=240, n_seq=8,
             epochs=16, min_epochs=16)

ROWS_PER_GROUP = 8192
ROWS_PER_PAGE = 1024
BATCH_SIZE = 1024


def projection(names: dict) -> list[str]:
    """The 29 columns a job trains on: label, ts, 12 float features
    (BF16 and FP8 storage), 13 int features across bit widths, and two
    sliding-window sequences."""
    ints = names["int"]
    stride = max(1, len(ints) // 13)
    return (
        ["label", "ts"]
        + names["float"][:12]
        + ints[::stride][:13]
        + names["seq"][:2]
    )


def writer_options(names: dict):
    from repro.core import WriterOptions
    from repro.encodings import SparseListDelta
    from repro.quantization import FloatFormat, QuantizationPolicy

    # BF16 by default, every fourth float feature down to FP8
    fp8 = {name: FloatFormat.FP8_E4M3 for name in names["float"][::4]}
    return WriterOptions(
        rows_per_page=ROWS_PER_PAGE,
        rows_per_group=ROWS_PER_GROUP,
        encodings={name: SparseListDelta() for name in names["seq"]},
        quantization=QuantizationPolicy(
            assignments=fp8, default=FloatFormat.BF16
        ),
    )


def _u64_sum(values: np.ndarray) -> int:
    """Order-independent checksum: sum modulo 2**64."""
    return int(np.add.reduce(values.astype(np.uint64, copy=False)))


def _seq_checksum(rows: list) -> int:
    return _u64_sum(np.concatenate(rows)) if rows else 0


def run(ctx: Context) -> ScenarioResult:
    from repro.catalog import CatalogTable
    from repro.core import LoaderOptions, Table

    scale = FULL if ctx.full else MINI
    res = ScenarioResult()
    names = datagen.wide_column_names(scale.n_features, scale.n_seq)
    columns = projection(names)
    options = writer_options(names)
    seq_check = names["seq"][0]

    # -- set-up: generate and build -------------------------------------
    t0 = time.perf_counter()
    rng = np.random.default_rng([ctx.seed, 1])
    store = make_store(ctx.subdir("train"), ctx.recorder)
    table = CatalogTable.create(store)
    raw_bytes = 0
    want_rows = 0
    want_label = 0
    want_seq = 0
    sample = None
    for k in range(scale.files):
        batch = datagen.wide_batch(
            rng, scale.rows, k * scale.rows, scale.n_features, scale.n_seq
        )
        raw_bytes += datagen.raw_nbytes(batch)
        want_rows += scale.rows
        want_label += int(batch["label"].sum())
        want_seq = (want_seq + _seq_checksum(batch[seq_check])) % (1 << 64)
        with ctx.span("train.append", op=f"build-{k}"):
            table.append(Table(batch), options=options)
        if ctx.traced and sample is None:
            # one row group of real values for the codec probes
            sample = {
                name: batch[name][:ROWS_PER_GROUP]
                for name in (
                    names["float"][0], names["float"][1],
                    names["int"][20], seq_check,
                )
            }
        del batch
    res.setup_s = time.perf_counter() - t0
    space_ratio = ratio(
        live_bytes(table.current_snapshot()), raw_bytes
    )
    write_amp = ratio(store.bytes_written(), raw_bytes)

    # -- timed phase: epochs over one pin -------------------------------
    epoch_s: list[float] = []
    deadline = Deadline(ctx.seconds, scale.min_epochs, scale.epochs)
    with table.pin() as snap:
        loader = snap.loader(
            columns,
            LoaderOptions(
                batch_size=BATCH_SIZE,
                shuffle_row_groups=True,
                widen_quantized=True,
            ),
        )
        with ctx.timed_phase():
            t_phase = time.perf_counter()
            deadline.start()
            while not deadline.done(len(epoch_s)):
                with ctx.span("train.epoch", op=f"epoch-{len(epoch_s)}"):
                    t1 = time.perf_counter()
                    rows = 0
                    label = 0
                    for batch in loader:
                        rows += batch.num_rows
                        label += int(batch.columns["label"].sum())
                    epoch_s.append(time.perf_counter() - t1)
                res.op(
                    rows == want_rows and label == want_label,
                    f"train epoch {len(epoch_s) - 1}: rows "
                    f"{rows}/{want_rows}, label sum {label}/{want_label}",
                )
            res.timed_s = time.perf_counter() - t_phase
        if ctx.traced:
            res.io = store.tally.snapshot()

        # -- verification epoch, outside the timed window ---------------
        rows = 0
        label = 0
        seq = 0
        for batch in loader:
            rows += batch.num_rows
            label += int(batch.columns["label"].sum())
            seq = (seq + _seq_checksum(batch.columns[seq_check])) % (1 << 64)
        res.verify(
            (rows, label, seq) == (want_rows, want_label, want_seq),
            f"train verification epoch: rows {rows}/{want_rows}, label "
            f"{label}/{want_label}, {seq_check} checksum {seq}/{want_seq}",
        )

    # epoch 1 opens the readers and parses the footers; users wait for
    # it once per job, so throughput is taken over the epochs after it
    steady = epoch_s[1:]
    res.detail["train.rows_per_s"] = ratio(
        want_rows * len(steady), sum(steady)
    )
    res.samples["train.rows_per_s"] = len(steady)
    res.timed_s = sum(steady)
    end_to_end(
        res, op_s=steady,
        space_ratio=space_ratio, write_amp=write_amp,
    )

    if ctx.traced:
        import probes

        res.layers.update(
            probes.train_layers(store, table, columns, names, sample)
        )
    return res
