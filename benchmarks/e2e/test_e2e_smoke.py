"""Smoke test of the end-to-end benchmark: ``pytest benchmarks/e2e``.

Runs ``run.py --smoke`` (every scenario in miniature: same code paths,
a few seconds) untraced and traced, and checks the contract the driver
relies on. Not under ``testpaths``, so the tier-1 suite never runs it.
"""

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402

RUN = os.path.join(HERE, "run.py")
SPEC = common.load_spec()


def run_smoke(workload: str, trace: int, out_dir) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "2", "--trace", str(trace), "--smoke",
         "--out", str(out_dir)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "workload,trace,section",
    [("serve_mixed", 0, "end_to_end"), ("ingest_churn", 1, "per_layer")],
)
def test_every_declared_metric_is_emitted(tmp_path, workload, trace, section):
    result = run_smoke(workload, trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == declared[name]
        assert math.isfinite(metric["value"]), name
    if trace:
        assert (tmp_path / f"{workload}.trace.jsonl").stat().st_size > 0
    else:
        # end-to-end metrics are what later changes are held to: none
        # may read zero
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_spec_is_self_consistent():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(common.WORKLOADS)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_wrappers_leave_cache_keys_unchanged(tmp_path):
    """One cold and one warm epoch through a shared chunk cache give
    the same hit/miss counts with and without the timed wrappers."""
    common.require_program()
    import numpy as np

    import datagen
    import tracing
    import wrappers
    from repro.catalog import CatalogTable
    from repro.core import Table, TieredChunkCache, WriterOptions
    from repro.expr import parse

    def tier_stats(recorder, root):
        store = wrappers.make_store(str(root), recorder, object_store=True)
        store.object_sleep = False
        rng = np.random.default_rng(3)
        writer = CatalogTable.create(store)
        for k in range(2):
            writer.append(
                Table(datagen.narrow_batch(rng, 4096, k * 4096)),
                options=WriterOptions(rows_per_page=512, rows_per_group=1024),
            )
        cache = TieredChunkCache(
            64 << 10, disk_bytes=8 << 20, disk_dir=str(root / "spill")
        )
        table = CatalogTable(store, chunk_cache=cache)
        for _epoch in range(2):
            with table.pin() as snap:
                snap.read(["ts", "v", "clicks"], where=parse("clicks < 50"))
        # which tier serves a hit depends on eviction order under the
        # reader's parallel fetch; hits and misses depend on keys only
        return (cache.stats.hits, cache.stats.misses)

    plain = tier_stats(None, tmp_path / "plain")
    timed = tier_stats(tracing.SpanRecorder(), tmp_path / "timed")
    assert plain == timed
    assert plain[0] > 0 and plain[1] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files there is nothing to measure: no result, non-zero exit."""
    import shutil

    bare = tmp_path / "bare"
    shutil.copytree(
        HERE, bare / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    shutil.copy(common.BENCHMARK_JSON, bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "serve_mixed", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
