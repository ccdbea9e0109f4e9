"""Shared reporting helper for the benches outside ``e2e/``.

The paper benches, the codec scoreboard and the fixed-work probe each
record their series here: printed to stdout (visible with ``-s``) and
persisted under ``benchmarks/results/<experiment>.txt``. Apart from the
codec scoreboard and the cascade's timed winners, a tracked results
file holds deterministic lines only (counts, bytes), so CI can check
that a run leaves it unchanged; timings go to the JSON artifact.

Each ``report()`` call additionally writes a machine-readable
``BENCH_<experiment>.json`` at the repo root (schema
``bench_report/v1``): the human-readable lines, any structured ``data``
the bench passes, and a full :mod:`repro.obs` metrics-registry snapshot
taken at report time. ``repro-inspect metrics BENCH_<experiment>.json``
renders the embedded snapshot; ``bench_codecs.py`` overwrites the
generic file with its richer ``bench_codecs/v1`` schema and embeds the
same ``"metrics"`` key itself. System performance is measured by the
e2e ledger (``BENCHMARK.json``, ``benchmarks/e2e/``), not here.
"""

from __future__ import annotations

import json
import os

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def registry_snapshot_dict() -> dict:
    """The process-wide metrics registry as an ``export_dict`` payload."""
    from repro.obs.metrics import default_registry

    return default_registry().export_dict()


def report(experiment: str, lines: list[str], data: dict | None = None) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    text = "\n".join(lines)
    banner = f"\n=== {experiment} ===\n{text}\n"
    print(banner)
    with open(os.path.join(RESULTS_DIR, f"{experiment}.txt"), "w") as f:
        f.write(text + "\n")
    payload = {
        "schema": "bench_report/v1",
        "experiment": experiment,
        "lines": lines,
        "data": data or {},
        "metrics": registry_snapshot_dict(),
    }
    json_path = os.path.join(REPO_ROOT, f"BENCH_{experiment}.json")
    with open(json_path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
