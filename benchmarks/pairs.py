"""Paired parent/change runs of e2e workloads, and the verdicts::

    python3 benchmarks/pairs.py --parent REV --workload W[,W...]|all \\
        --pairs N [--seconds S] [--series NAME] [--out runs.jsonl]
    python3 benchmarks/pairs.py --judge LEDGER.jsonl [...] [--out FILE]

``--parent`` is a revision (checked out with ``git worktree add`` under
a temp dir, removed at exit) or a directory that already holds one.
Per workload, seeds 1..N run ``benchmarks/e2e/run.py --trace 0`` on both
sides, order alternating per seed; each run is appended to ``--out`` as
it finishes, tagged with ``--series``, so an interrupted series resumes
instead of restarting. One report per workload follows the last run,
and ``--out`` gets one verdict row per (workload, metric) —
``"kind": "verdict"``, each side's median and quartiles, pairs won and
the verdict — so the file is the ledger of the series.

Verdicts are judged on the pairs, which alternate to cancel the box's
drift: per pair, the change's relative cost against its parent run.
``worse`` (``gain``) when the median of those clears the
``BENCHMARK.json`` bound the wrong (right) way and >= 9/10 of the pairs
agree on the side (ties count for neither); ``unresolved`` when the
median clears the bound but the pairs split; ``within`` otherwise.
``--judge`` re-judges the runs of committed ledgers under this rule and
prints each verdict row whose verdict it changes (appended to ``--out``,
when given, as ``"kind": "rejudge"`` rows).
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


def verdict(a, b, bound) -> str:
    """``a``/``b``: paired parent/change runs as costs (smaller is
    better), pair ``i`` being ``(a[i], b[i])``."""
    rel = [(y - x) / (abs(x) or 1.0) for x, y in zip(a, b)]
    agree = 0.9 * len(rel)
    if median(rel) > bound:
        return "worse" if sum(r > 0 for r in rel) >= agree else "unresolved"
    if median(rel) < -bound:
        return "gain" if sum(r < 0 for r in rel) >= agree else "unresolved"
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
        word = verdict(a, b, m["bound"])
        print(f"{m['name']:<12} parent | change median [q1, q3]: {cells}  "
              f"won {won}/{len(seeds)}  {word}")
        verdicts.append({"kind": "verdict", "metric": m["name"],
                         "parent": sides[0], "change": sides[1], "won": won,
                         "pairs": len(seeds), "verdict": word})
    return verdicts


def judge(paths, spec) -> list[dict]:
    """Re-judge each ledger's run rows; print and return every verdict
    row that changes."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    changed = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            rows = [json.loads(line) for line in f if line.strip()]
        runs: dict = {}
        for r in rows:
            if "side" in r:
                key = (r.get("series", ""), r["workload"], r["seconds"])
                runs.setdefault(key, {})[r["side"], r["seed"]] = r["result"]
        for v in (r for r in rows if r.get("kind") == "verdict"):
            by = runs.get((v.get("series", ""), v["workload"], v["seconds"]), {})
            seeds = sorted(s for side, s in by if side == "change"
                           and ("parent", s) in by)
            m = bounds[v["metric"]]
            sign = 1.0 if m["better"] == "lower" else -1.0
            a, b = ([sign * by[side, s]["metrics"][m["name"]]["value"]
                     for s in seeds] for side in ("parent", "change"))
            word = verdict(a, b, m["bound"])
            if word != v["verdict"]:
                changed.append({
                    "kind": "rejudge", "ledger": os.path.basename(path),
                    "series": v.get("series", ""), "workload": v["workload"],
                    "metric": v["metric"], "was": v["verdict"], "now": word,
                    "won": v["won"], "pairs": len(seeds),
                })
                print("{ledger} {series} {workload} {metric}: {was} -> {now} "
                      "(won {won}/{pairs})".format(**changed[-1]))
    return changed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--judge", nargs="+", metavar="LEDGER",
                   help="re-judge committed ledgers instead of running")
    p.add_argument("--parent")
    p.add_argument("--workload",
                   help="a BENCHMARK.json workload, several joined by "
                        "commas, or 'all'")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float)
    p.add_argument("--series", default="",
                   help="name stored on every run and verdict row")
    p.add_argument("--out", help="the ledger to append to "
                   "(running pairs: default pairs.jsonl)")
    args = p.parse_args(argv)
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    if args.judge:
        changed = judge(args.judge, spec)
        print(len(changed), "verdict rows change")
        if args.out:
            with open(args.out, "a", encoding="utf-8") as f:
                f.writelines(json.dumps(row) + "\n" for row in changed)
        return 0
    if not (args.parent and args.workload):
        p.error("--parent and --workload are required to run pairs")
    args.out = args.out or "pairs.jsonl"
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
