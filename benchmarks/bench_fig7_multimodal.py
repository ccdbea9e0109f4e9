"""Fig 7 / §2.5 — multimodal data layout and quality-aware organization.

Paper: (a) inlining reduced-resolution highlight frames in the columnar
meta table removes the per-sample bounce to the row-oriented media
table; (b) presorting rows by quality score makes the high-quality
training subset contiguous, cutting seeks and read amplification.
Reproduction: run a training epoch over the dual-table layout in all
four configurations and compare I/O counters and modelled device time.
"""

import pytest
from reporting import report

from repro.multimodal import MultimodalDataset
from repro.workloads.multimodal_gen import MultimodalConfig, generate_samples

CONFIG = MultimodalConfig(n_samples=1500, seed=4)
THRESHOLD = 0.55


def _dataset(presort: bool) -> MultimodalDataset:
    ds = MultimodalDataset(
        presort_by_quality=presort, rows_per_page=64, rows_per_group=64
    )
    ds.ingest(generate_samples(CONFIG))
    return ds


@pytest.fixture(scope="module")
def sorted_ds():
    return _dataset(True)


@pytest.fixture(scope="module")
def unsorted_ds():
    return _dataset(False)


def test_bench_epoch_inline_presorted(benchmark, sorted_ds):
    rep = benchmark(sorted_ds.train_epoch, THRESHOLD)
    assert rep.samples_read > 0


def test_bench_epoch_media_bounce(benchmark, sorted_ds):
    rep = benchmark(
        sorted_ds.train_epoch, THRESHOLD, use_inline_highlights=False
    )
    assert rep.media.reads > 0


def test_bench_fig7_comparison(benchmark, sorted_ds, unsorted_ds):
    inline_sorted = sorted_ds.train_epoch(THRESHOLD)
    inline_unsorted = unsorted_ds.train_epoch(THRESHOLD)
    bounce_sorted = sorted_ds.train_epoch(
        THRESHOLD, use_inline_highlights=False
    )
    benchmark(sorted_ds.train_epoch, THRESHOLD)

    def row(name, rep):
        return (
            f"{name:26s}  {rep.samples_read:6d}  {rep.meta.bytes_read:>11,}  "
            f"{rep.media.bytes_read:>11,}  {rep.meta.seeks + rep.media.seeks:5d}  "
            f"{rep.selected_runs:5d}"
        )

    lines = [
        f"{len(generate_samples(CONFIG))} samples, quality >= {THRESHOLD}",
        "layout                      picked   meta_bytes  media_bytes  seeks"
        "   runs",
        row("inline + quality presort", inline_sorted),
        row("inline + unsorted", inline_unsorted),
        row("media bounce + presort", bounce_sorted),
        "paper: inline highlights 'eliminate the latency overhead associated"
        " with external, fragmented I/O'; presorting 'improves contiguous"
        " access to high-quality video frames'",
    ]
    report("fig7_multimodal", lines, data={
        name: {
            "meta_bytes": rep.meta.bytes_read,
            "media_bytes": rep.media.bytes_read,
            "runs": rep.selected_runs,
            "modelled_ms": rep.modelled_time() * 1e3,
        }
        for name, rep in (
            ("inline_presorted", inline_sorted),
            ("inline_unsorted", inline_unsorted),
            ("bounce_presorted", bounce_sorted),
        )
    })

    # shape checks: both Bullion techniques must win on their axis
    assert inline_sorted.media.bytes_read == 0
    assert bounce_sorted.media.bytes_read > 0
    assert inline_sorted.selected_runs < inline_unsorted.selected_runs
    assert inline_sorted.meta.bytes_read < inline_unsorted.meta.bytes_read
    assert inline_sorted.modelled_time() < bounce_sorted.modelled_time()
