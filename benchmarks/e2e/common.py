"""Shared plumbing of the end-to-end benchmark: paths, the per-run
context handed to every scenario, and small statistics helpers."""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC_DIR = os.path.join(REPO_ROOT, "src")
BENCHMARK_JSON = os.path.join(REPO_ROOT, "BENCHMARK.json")

#: everything the benchmark writes lives here, inside the checkout
WORK_ROOT = os.path.join(REPO_ROOT, ".bench_e2e")

WORKLOADS = ("train_wide_scan", "serve_mixed", "ingest_churn", "object_epochs")


def require_program() -> None:
    """Exit non-zero, printing no result, when the checkout holds only
    the benchmark (no ``src/repro`` to measure)."""
    if not os.path.isfile(os.path.join(SRC_DIR, "repro", "__init__.py")):
        sys.stderr.write(
            f"benchmark needs the program under {SRC_DIR}; not found\n"
        )
        raise SystemExit(2)
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)


def load_spec() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as f:
        return json.load(f)


def median(samples) -> float:
    return percentile(samples, 50)


def percentile(samples, q: float) -> float:
    """Linear-interpolated percentile; ``nan`` for no samples."""
    xs = sorted(samples)
    if not xs:
        return float("nan")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _NullSpan:
    """Shared no-op context manager: what ``Context.span`` hands out
    when tracing is off, so untraced runs pay one attribute lookup."""

    def __enter__(self):
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


@dataclass
class Context:
    """One scenario execution's inputs.

    ``full`` selects the workload's own shape (its timed phase then
    runs until ``seconds`` have elapsed); otherwise the miniature
    fixed-work shape is used. ``recorder`` is a
    :class:`tracing.SpanRecorder` in the traced run and ``None`` in the
    untraced one.
    """

    seed: int
    seconds: float
    full: bool
    workdir: str
    recorder: object | None = None
    #: a :class:`tracing.StackSampler` to run over the timed phase
    sampler: object | None = None

    @property
    def traced(self) -> bool:
        return self.recorder is not None

    def span(self, name: str, op=None):
        if self.recorder is None:
            return _NULL_SPAN
        return self.recorder.span(name, op)

    def timed_phase(self):
        """Context manager around a scenario's timed phase: runs the
        stack sampler over exactly that window when one is attached."""
        return self.sampler if self.sampler is not None else _NULL_SPAN

    def subdir(self, name: str) -> str:
        path = os.path.join(self.workdir, name)
        os.makedirs(path, exist_ok=True)
        return path


@dataclass
class ScenarioResult:
    """What one scenario execution measured."""

    #: end-to-end metric name -> value, measured on this scenario's
    #: own operations (every scenario fills every name; see
    #: :func:`end_to_end`)
    metrics: dict = field(default_factory=dict)
    #: what this scenario's users wait for, by class: scenario-prefixed
    #: names reported with the per-layer metrics
    detail: dict = field(default_factory=dict)
    #: per-layer probe name -> value (traced run only)
    layers: dict = field(default_factory=dict)
    #: metric name -> sample count behind a median
    samples: dict = field(default_factory=dict)
    setup_s: float = 0.0
    #: wall seconds of the timed phase
    timed_s: float = 0.0
    #: storage tally (wrappers.IOTally.snapshot) at the end of the
    #: timed phase, before any probe touches the store; traced run only
    io: dict | None = None
    attempted: int = 0
    failed: int = 0
    #: human-readable verification failures
    problems: list = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        """Count one operation whose outcome was checked on the spot."""
        self.attempted += 1
        self.verify(ok, what)

    def verify(self, ok: bool, what: str) -> None:
        """A failed verification counts as a failed operation."""
        if not ok:
            self.failed += 1
            self.problems.append(what)


def end_to_end(
    res: ScenarioResult, *, op_s, space_ratio, write_amp
) -> None:
    """Fill the end-to-end metrics every workload reports. ``op_s``
    are the seconds of each timed operation (what an operation is, is
    the scenario's to say)."""
    res.metrics.update({
        "ops_per_s": ratio(len(op_s), res.timed_s),
        "op_p50_ms": 1e3 * median(op_s),
        "space_ratio": space_ratio,
        "write_amp": write_amp,
    })
    res.samples.update({
        "ops_per_s": len(op_s),
        "op_p50_ms": len(op_s),
    })


class Deadline:
    """The timed phase's stop rule: at least ``min_ops`` operations,
    then stop at the first operation boundary past ``seconds``.
    Miniature runs pass ``fixed_ops`` and ignore the clock, so their
    work (and every count derived from it) repeats exactly. The clock
    starts at :meth:`start`."""

    def __init__(self, seconds: float, min_ops: int, fixed_ops: int | None):
        self._seconds = seconds
        self._min = min_ops
        self._fixed = fixed_ops
        self._end = float("inf")

    def start(self) -> None:
        self._end = time.perf_counter() + self._seconds

    def done(self, ops: int) -> bool:
        if self._fixed is not None:
            return ops >= self._fixed
        return ops >= self._min and time.perf_counter() >= self._end


def make_workdir() -> str:
    os.makedirs(WORK_ROOT, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)


def remove_tree(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def remove_workdir(path: str) -> None:
    remove_tree(path)
    try:
        os.rmdir(WORK_ROOT)  # only succeeds when no other run is live
    except OSError:
        pass
