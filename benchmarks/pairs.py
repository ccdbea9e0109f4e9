"""Paired parent/change runs of e2e workloads, and the verdicts::

    python3 benchmarks/pairs.py --parent REV --workload W[,W...]|all \\
        --pairs N [--seconds S] [--series NAME] [--out runs.jsonl]

``--parent`` is a revision (checked out with ``git worktree add`` under
a temp dir, removed at exit) or a directory that already holds one.
Per workload, seeds 1..N run ``benchmarks/e2e/run.py --trace 0`` on both
sides, order alternating per seed; each run is appended to ``--out`` as
it finishes, tagged with ``--series``, so an interrupted series resumes
instead of restarting. One report per workload follows the last run,
and ``--out`` gets one verdict row per (workload, metric) —
``"kind": "verdict"``, each side's median and quartiles, pairs won and
the verdict — so the file is the ledger of the series. Verdicts:
``gain`` only when the change wins >= 9/10 of the pairs (ties count for
neither) and the medians differ by more than the parent's inter-quartile
range; ``worse`` beyond the ``BENCHMARK.json`` bound; ``unresolved``
when a side's spread exceeds that bound and the sides' runs interleave.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from statistics import median, quantiles

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(root, workload, seed, seconds) -> dict:
    cmd = [sys.executable, os.path.join(root, "benchmarks", "e2e", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    return json.loads(out.stdout.strip().splitlines()[-1])


def verdict(a, b, won, bound) -> str:
    """``a``/``b``: parent/change runs as costs (smaller is better)."""
    q1, _, q3 = quantiles(a, n=4)
    spread = max((max(x) - min(x)) / abs(median(x) or 1.0) for x in (a, b))
    if spread > bound and not (max(b) < min(a) or min(b) > max(a)):
        return "unresolved"
    if median(b) - median(a) > bound * abs(median(a)):
        return "worse"
    if won >= 0.9 * len(a) and median(a) - median(b) > q3 - q1:
        return "gain"
    return "within"


def report(rows, spec) -> list[dict]:
    """Print the workload's report; return its verdict rows."""
    by = {(r["side"], r["seed"]): r["result"] for r in rows}
    seeds = sorted(s for side, s in by if side == "change" and ("parent", s) in by)
    if len(seeds) < 2:
        return []
    for side in ("parent", "change"):
        print(side, len(seeds), "runs, operations failed/attempted:",
              sum(by[side, s]["failed"] for s in seeds), "/",
              sum(by[side, s]["attempted"] for s in seeds))
    verdicts = []
    for m in spec["end_to_end"]:
        raw = [[by[side, s]["metrics"][m["name"]]["value"] for s in seeds]
               for side in ("parent", "change")]
        sign = 1.0 if m["better"] == "lower" else -1.0
        a, b = ([sign * x for x in xs] for xs in raw)
        won = sum(y < x for x, y in zip(a, b))
        sides = [dict(zip(("q1", "median", "q3"), quantiles(xs, n=4)),
                      median=median(xs)) for xs in raw]
        cells = "  ".join(
            "{median:.5g} [{q1:.5g}, {q3:.5g}]".format(**side) for side in sides)
        word = verdict(a, b, won, m["bound"])
        print(f"{m['name']:<12} parent | change median [q1, q3]: {cells}  "
              f"won {won}/{len(seeds)}  {word}")
        verdicts.append({"kind": "verdict", "metric": m["name"],
                         "parent": sides[0], "change": sides[1], "won": won,
                         "pairs": len(seeds), "verdict": word})
    return verdicts


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--workload", required=True,
                   help="a BENCHMARK.json workload, several joined by "
                        "commas, or 'all'")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float)
    p.add_argument("--series", default="",
                   help="name stored on every run and verdict row")
    p.add_argument("--out", default="pairs.jsonl")
    args = p.parse_args(argv)
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    known = [w["name"] for w in spec["workloads"]]
    workloads = known if args.workload == "all" else args.workload.split(",")
    if set(workloads) - set(known):
        p.error(f"--workload: choose from {', '.join(known)}")
    seconds = args.seconds or float(spec["run_seconds"])
    rows = []
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as f:
            rows = [r for r in map(json.loads, f)
                    if "side" in r and r["seconds"] == seconds
                    and r.get("series", "") == args.series
                    and r["workload"] in workloads]
    done = {(r["workload"], r["side"], r["seed"]) for r in rows}
    roots = {"change": REPO, "parent": args.parent}
    tmp = None if os.path.isdir(args.parent) else tempfile.mkdtemp(prefix="pairs-")
    if tmp:
        roots["parent"] = os.path.join(tmp, "parent")
        subprocess.run(["git", "-C", REPO, "worktree", "add", "--detach",
                        roots["parent"], args.parent], check=True)
    try:
        for workload in workloads:
            key = {"workload": workload, "seconds": seconds}
            for seed in range(1, args.pairs + 1):
                for side in ("parent", "change")[:: 1 if seed % 2 else -1]:
                    if (workload, side, seed) in done:
                        continue
                    row = dict(key, series=args.series, side=side, seed=seed,
                               result=run_once(roots[side], **key, seed=seed))
                    rows.append(row)
                    with open(args.out, "a", encoding="utf-8") as f:
                        f.write(json.dumps(row) + "\n")
                    print(workload, seed, side,
                          {k: round(v["value"], 4) for k, v in
                           row["result"]["metrics"].items()}, flush=True)
    finally:
        if tmp:
            subprocess.run(["git", "-C", REPO, "worktree", "remove", "--force",
                            roots["parent"]], check=False)
            os.rmdir(tmp)
    ledger = []
    for workload in workloads:
        print(f"== {workload}")
        verdicts = report([r for r in rows if r["workload"] == workload], spec)
        ledger += [dict(v, series=args.series, workload=workload,
                        seconds=seconds) for v in verdicts]
    with open(args.out, "a", encoding="utf-8") as f:
        f.writelines(json.dumps(row) + "\n" for row in ledger)
    return 0


if __name__ == "__main__":
    sys.exit(main())
