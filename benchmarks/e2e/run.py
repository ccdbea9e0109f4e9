"""End-to-end wall-clock benchmark of the Bullion reproduction.

One workload, as the driver runs it::

    python3 benchmarks/e2e/run.py --workload serve_mixed --seed 1 \\
        --seconds 12 --trace 0

prints every metric by name with its unit and sample count, then one
JSON object on the last line of standard output
(``correct/attempted/failed/metrics``). ``--trace 0`` gives the
end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` the per-layer
ones. The exit code is non-zero when a verification failed.

All four workloads, each in its own subprocess::

    python3 benchmarks/e2e/run.py [--seed N] [--trace] [--repeat K] \\
        [--out DIR] [--smoke]

See README.md beside this file for what is measured and why.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import subprocess
import sys
import time

import common
from common import WORKLOADS, Context, ScenarioResult

#: workload name -> scenario module. An untraced run executes its own
#: scenario at full size; a traced run adds the other three in miniature
SCENARIOS = {
    "train_wide_scan": "scenario_train",
    "serve_mixed": "scenario_serve",
    "ingest_churn": "scenario_ingest",
    "object_epochs": "scenario_object",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="length of the timed phase (default: run_seconds "
                        "of BENCHMARK.json)")
    p.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                   choices=(0, 1))
    p.add_argument("--out", default=os.path.join(common.WORK_ROOT, "out"))
    p.add_argument("--repeat", type=int, default=1,
                   help="run the whole set K times (all-workloads mode)")
    p.add_argument("--smoke", action="store_true",
                   help="every scenario in miniature: same code, seconds")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# one workload, in this process
# ---------------------------------------------------------------------------

def _execute(name: str, args, workdir: str, *, full: bool, traced: bool,
             sample: bool = False):
    """Run one scenario; returns ``(result, recorder, sampler)``."""
    import tracing

    recorder = tracing.SpanRecorder() if traced else None
    sampler = tracing.StackSampler() if sample else None
    ctx = Context(
        seed=args.seed,
        seconds=args.seconds,
        full=full,
        workdir=os.path.join(workdir, f"{name}-{int(full)}{int(traced)}"),
        recorder=recorder,
        sampler=sampler,
    )
    os.makedirs(ctx.workdir)
    if traced:
        from repro.obs import trace

        trace.enable()
    try:
        result = importlib.import_module(SCENARIOS[name]).run(ctx)
    finally:
        if traced:
            trace.disable()
            trace.reset()
        common.remove_tree(ctx.workdir)
    return result, recorder, sampler


def run_workload(args) -> int:
    common.require_program()
    spec = common.load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    traced = bool(args.trace)
    own = args.workload
    os.makedirs(args.out, exist_ok=True)
    workdir = common.make_workdir()
    t_start = time.perf_counter()
    try:
        results: dict[str, ScenarioResult] = {}
        layers: dict[str, float] = {}
        results[own], recorder, sampler = _execute(
            own, args, workdir, full=not args.smoke, traced=traced,
            sample=traced,
        )
        if traced:
            # the other scenarios in miniature, so that every per-layer
            # metric has a reading in every workload's traced run
            for name in WORKLOADS:
                if name != own:
                    results[name], _rec, _s = _execute(
                        name, args, workdir, full=False, traced=True
                    )
            layers.update(_workload_layers(results[own], sampler))
            layers.update(_trace_overhead(args, workdir, own, results))
            recorder.write_jsonl(
                os.path.join(args.out, f"{own}.trace.jsonl")
            )
    finally:
        common.remove_workdir(workdir)

    attempted = sum(r.attempted for r in results.values())
    failed = sum(r.failed for r in results.values())
    if traced:
        for r in results.values():
            layers.update(r.detail)
            layers.update(r.layers)
        values, section = layers, "per_layer"
    else:
        values = dict(results[own].metrics)
        values["setup_s"] = results[own].setup_s
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        section = "end_to_end"

    metrics, problems = _shape(values, spec[section])
    samples = {}
    for r in results.values():
        samples.update(r.samples)
        problems.extend(r.problems)
    _print_table(own, section, metrics, samples, spec[section])
    if traced:
        _print_attribution(own, recorder, layers)
    else:
        _print_detail(own, results[own], samples, spec["per_layer"])
    for what in problems:
        print(f"PROBLEM: {what}")
    print(f"ops_attempted {attempted}  ops_failed {failed}  "
          f"wall {time.perf_counter() - t_start:.1f} s")

    correct = failed == 0 and not problems
    doc = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    detail = dict(doc, workload=own, seed=args.seed, seconds=args.seconds,
                  trace=int(traced), samples=samples, problems=problems)
    with open(os.path.join(args.out, f"{own}.trace{int(traced)}.json"),
              "w", encoding="utf-8") as f:
        json.dump(detail, f, indent=1)
    print(json.dumps(doc))
    return 0 if correct else 1


def _shape(values: dict, declared: list) -> tuple[dict, list]:
    """Attach units from BENCHMARK.json; every declared metric must have
    been measured, finite, and nothing undeclared may slip out."""
    metrics = {}
    problems = []
    for m in declared:
        value = values.get(m["name"])
        if value is None or not math.isfinite(value):
            problems.append(f"metric {m['name']} not measured ({value})")
            continue
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
    for name in sorted(set(values) - {m["name"] for m in declared}):
        problems.append(f"metric {name} measured but not in BENCHMARK.json")
    return metrics, problems


def _workload_layers(result: ScenarioResult, sampler) -> dict:
    """Per-layer numbers scoped to the workload's own scenario: what
    went through its storage wrappers, and where its threads were."""
    io = result.io
    out = {
        "iosim.preads": io["count"]["pread"],
        "iosim.bytes_read": io["bytes_read"],
        "iosim.pwrites": io["count"]["pwrite"] + io["count"]["append"],
        "iosim.bytes_written": io["bytes_written"],
        "iosim.syncs": io["count"]["sync"],
        "iosim.pread_s": io["seconds"]["pread"],
        "iosim.pwrite_sync_s": (
            io["seconds"]["pwrite"] + io["seconds"]["append"]
            + io["seconds"]["sync"]
        ),
    }
    for layer, share in sampler.shares().items():
        out[f"share.{layer}"] = share
    return out


def _trace_overhead(args, workdir, own, results) -> dict:
    """Traced over untraced median operation time of each scenario's
    miniature (fixed work, so the two are comparable): the cost of the
    benchmark's spans and wrappers plus ``repro.obs.trace.enable()`` as
    it is today."""
    out = {}
    for name in WORKLOADS:
        traced = results[name]
        if name == own and not args.smoke:
            traced = _execute(name, args, workdir, full=False, traced=True)[0]
        plain = _execute(name, args, workdir, full=False, traced=False)[0]
        out[f"obs.trace_overhead_ratio.{name}"] = common.ratio(
            traced.metrics["op_p50_ms"], plain.metrics["op_p50_ms"]
        )
    return out


def _print_table(workload, section, metrics, samples, declared) -> None:
    print(f"== {workload}: {section} metrics ==")
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            continue
        n = samples.get(m["name"])
        tail = f"  (n={n})" if n is not None else ""
        print(f"{m['name']:<44} {got['value']:>16.6g} {m['unit']}{tail}")


def _print_detail(workload, result, samples, declared) -> None:
    """What this workload's users wait for, by class: reported with the
    per-layer metrics (only a traced run puts them in the result), shown
    here because these readings are the untraced ones."""
    units = {m["name"]: m["unit"] for m in declared}
    print(f"== {workload}: by class (untraced; not in the result) ==")
    for name, value in result.detail.items():
        print(f"{name:<44} {value:>16.6g} {units[name]}"
              f"  (n={samples.get(name)})")


def _print_attribution(workload, recorder, layers) -> None:
    """Where the own scenario's wall-clock went, from the benchmark's
    spans (self time) and the stack sampler (share per layer)."""
    print(f"== {workload}: span self time (s) ==")
    for name, seconds in sorted(
        recorder.self_times().items(), key=lambda kv: -kv[1]
    ):
        print(f"{name:<44} {seconds:>12.4f}")
    print(f"== {workload}: sampled share of busy time per layer ==")
    for name, share in sorted(layers.items()):
        if name.startswith("share.") and share > 0:
            print(f"{name[6:]:<44} {100 * share:>11.1f}%")


# ---------------------------------------------------------------------------
# all workloads, one subprocess each
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    common.require_program()
    spec = common.load_spec()
    seconds = args.seconds or float(spec["run_seconds"])
    os.makedirs(args.out, exist_ok=True)
    runs = []
    status = 0
    for repeat in range(args.repeat):
        for workload in WORKLOADS:
            for trace in ((0, 1) if args.trace else (0,)):
                cmd = [
                    sys.executable, os.path.abspath(__file__),
                    "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(seconds), "--trace", str(trace),
                    "--out", args.out,
                ] + (["--smoke"] if args.smoke else [])
                proc = subprocess.run(
                    cmd, stdout=subprocess.PIPE, text=True, check=False
                )
                sys.stdout.write(proc.stdout)
                sys.stdout.flush()
                if proc.returncode != 0:
                    status = 1
                lines = proc.stdout.strip().splitlines()
                try:
                    result = json.loads(lines[-1])
                except (IndexError, ValueError):
                    print(f"{workload}: no result (exit {proc.returncode})")
                    status = 1
                    continue
                runs.append({"workload": workload, "trace": trace,
                             "repeat": repeat, "result": result})
    path = os.path.join(args.out, "results.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"schema": "e2e/v1", "seed": args.seed,
                   "seconds": seconds, "smoke": args.smoke, "runs": runs},
                  f, indent=1)
    print(f"wrote {path}")
    if args.repeat > 1:
        import compare

        compare.print_ranges(runs, spec)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is not None:
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
