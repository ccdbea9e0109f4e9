"""Compare two result files written by ``run.py``::

    python3 benchmarks/e2e/compare.py A/results.json B/results.json

One row per (end-to-end metric, workload): both medians, B's change
relative to A, the regression bound from ``BENCHMARK.json`` and a
verdict:

``worse``       B's median is worse than A's by more than the bound, and
                either side's run-to-run range is within the bound or
                every run of B is worse than every run of A
``better``      B's median is better by more than the bound (ranges
                within it), or ranges are wider than the bound but
                every run of B is better than every run of A
``unresolved``  a run-to-run range is wider than the bound and the two
                sides' runs interleave: more runs are needed, the
                metric is not "unchanged"
``within``      anything else

The exit code is 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys

import common


def collect(runs, trace: int = 0) -> dict:
    """``(metric, workload) -> [value per run]`` from a runs list."""
    out: dict = {}
    for run in runs:
        if run["trace"] != trace:
            continue
        for name, m in run["result"]["metrics"].items():
            out.setdefault((name, run["workload"]), []).append(m["value"])
    return out


def relative_range(values) -> float:
    mid = statistics.median(values)
    return (max(values) - min(values)) / abs(mid) if mid else 0.0


def verdict(a, b, better: str, bound: float) -> tuple[float, str]:
    """(B's relative change in the *worse* direction, verdict)."""
    # as costs, so that smaller is better whatever the metric
    sign = 1.0 if better == "lower" else -1.0
    cost_a = [sign * x for x in a]
    cost_b = [sign * x for x in b]
    med_a = statistics.median(a)
    worse = (
        (statistics.median(cost_b) - statistics.median(cost_a)) / abs(med_a)
        if med_a else 0.0
    )
    # a range wider than the bound cannot show "unchanged": the row is
    # unresolved unless the two sides' runs do not interleave at all
    noisy = max(relative_range(a), relative_range(b)) > bound
    if worse > bound:
        every_run_worse = min(cost_b) > max(cost_a)
        return worse, "worse" if every_run_worse or not noisy else "unresolved"
    if noisy:
        every_run_better = max(cost_b) < min(cost_a)
        return worse, "better" if every_run_better else "unresolved"
    return worse, "better" if -worse > bound else "within"


def compare(a_runs, b_runs, spec) -> list[tuple]:
    a, b = collect(a_runs), collect(b_runs)
    rows = []
    for m in spec["end_to_end"]:
        for workload in common.WORKLOADS:
            key = (m["name"], workload)
            if key not in a or key not in b:
                continue
            change, word = verdict(a[key], b[key], m["better"], m["bound"])
            rows.append((
                m["name"], workload, statistics.median(a[key]),
                statistics.median(b[key]), m["unit"], change, m["bound"],
                word,
            ))
    return rows


def print_ranges(runs, spec) -> None:
    """For ``run.py --repeat K``: each end-to-end metric's relative
    range over the K sets, beside its bound."""
    values = collect(runs)
    print(f"{'metric':<22} {'workload':<16} {'median':>12} "
          f"{'range':>8} {'bound':>6}")
    for m in spec["end_to_end"]:
        for workload in common.WORKLOADS:
            xs = values.get((m["name"], workload))
            if not xs:
                continue
            rng = relative_range(xs)
            flag = "" if rng <= m["bound"] else "  wider than bound"
            print(f"{m['name']:<22} {workload:<16} "
                  f"{statistics.median(xs):>12.5g} {100 * rng:>7.1f}% "
                  f"{100 * m['bound']:>5.0f}%{flag}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    with open(argv[0], encoding="utf-8") as f:
        a = json.load(f)
    with open(argv[1], encoding="utf-8") as f:
        b = json.load(f)
    rows = compare(a["runs"], b["runs"], common.load_spec())
    print(f"{'metric':<22} {'workload':<16} {'A':>12} {'B':>12} "
          f"{'unit':<7} {'worse by':>9} {'bound':>6}  verdict")
    for name, workload, med_a, med_b, unit, change, bound, word in rows:
        print(f"{name:<22} {workload:<16} {med_a:>12.5g} {med_b:>12.5g} "
              f"{unit:<7} {100 * change:>8.1f}% {100 * bound:>5.0f}%  {word}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
