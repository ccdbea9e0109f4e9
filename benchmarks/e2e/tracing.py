"""The benchmark's own tracing: a span recorder and a stack sampler.

Both observe the program from outside. Spans are opened by benchmark
code around calls into the program's public functions and by the
storage/catalog wrappers in :mod:`wrappers`; the sampler attributes
wall-clock to layers by the *module* of the innermost ``repro`` frame
on each thread's stack. Neither depends on span names inside
``repro.obs``, so the per-layer numbers stay defined when those change.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import Counter


class _Span:
    __slots__ = ("_rec", "_name", "_op", "_id", "_parent", "_t0", "_root")

    def __init__(self, rec: "SpanRecorder", name: str, op) -> None:
        self._rec = rec
        self._name = name
        self._op = op

    def __enter__(self) -> "_Span":
        rec = self._rec
        stack = rec._stack()
        self._id = next(rec._ids)
        if stack:
            self._parent, self._op = stack[-1]
            self._root = False
        else:
            # a span opened on a thread with no open span (the
            # program's fetch pool, a server worker) belongs to the
            # operation most recently started anywhere
            self._root = self._op is not None
            current = rec._current_root
            if self._root or current is None:
                self._parent = None
            else:
                self._parent, self._op = current
        stack.append((self._id, self._op))
        if self._root:
            rec._current_root = (self._id, self._op)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        t1 = time.perf_counter()
        rec = self._rec
        rec._stack().pop()
        rec.spans.append(
            (self._id, self._parent, self._name, self._op, self._t0, t1)
        )
        if self._root and rec._current_root == (self._id, self._op):
            rec._current_root = None
        return False


class SpanRecorder:
    """In-memory spans: ``(id, parent, name, op, start, end)``.

    A span opened with an ``op`` and no enclosing span is the root of
    that operation; children inherit the op id. Spans nest per thread;
    a thread without an open span parents to the most recent root (with
    two concurrent clients that is a best-effort guess, which is why
    storage self time on ``serve_mixed`` is reported in aggregate only).
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._current_root: tuple | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, op=None) -> _Span:
        return _Span(self, name, op)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for sid, parent, name, op, t0, t1 in self.spans:
                f.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "op": op, "start": t0, "end": t1,
                }) + "\n")

    # -- analysis -------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Span name -> summed self time: each span's duration minus
        the part of it its child spans cover (overlapping children,
        e.g. parallel fetches, are merged before subtracting)."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _sid, parent, _name, _op, t0, t1 in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((t0, t1))
        out: dict[str, float] = {}
        for sid, _parent, name, _op, t0, t1 in self.spans:
            covered = _covered(children.get(sid, ()), t0, t1)
            out[name] = out.get(name, 0.0) + (t1 - t0) - covered
        return out


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


#: module prefix -> layer name, most specific first
_LAYERS = (
    ("repro.server", "server"),
    ("repro.query", "query"),
    ("repro.expr", "expr"),
    ("repro.catalog", "catalog"),
    ("repro.core.writer", "core.writer"),
    ("repro.core.footer", "core.footer"),
    ("repro.core.reader", "core.reader"),
    ("repro.core.chunk_cache", "core.chunk_cache"),
    ("repro.core.deletion", "core.deletion"),
    ("repro.core.checksum", "core.deletion"),
    ("repro.encodings", "encodings"),
    ("repro.util", "encodings"),  # bit packing / varint kernels
    ("repro.cascading", "cascading"),
    ("repro.quantization", "quantization"),
    ("repro.iosim", "iosim"),
    ("repro.obs", "obs"),
    ("repro", "other"),
)

LAYER_NAMES = tuple(dict.fromkeys(layer for _prefix, layer in _LAYERS))


def _layer_of(module: str) -> str | None:
    for prefix, layer in _LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


#: innermost ``repro`` functions that only wait on a socket: a client
#: blocked on its reply (the server's work, counted on the server's
#: thread), a connection thread waiting for the next request, the
#: accept loop
_IDLE_FUNCTIONS = frozenset({"_recv_exact", "_accept_loop"})


class StackSampler:
    """Sample every thread's stack; count the innermost ``repro`` frame.

    Threads with no ``repro`` frame (the sampler, a joining main
    thread, idle pool workers) and threads idling on a socket are
    skipped, so shares are of time the program spent working or
    sleeping on modelled storage.
    """

    def __init__(self, interval_s: float = 0.005) -> None:
        self.interval_s = interval_s
        self.counts: Counter = Counter()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def __enter__(self) -> "StackSampler":
        self._thread = threading.Thread(
            target=self._loop, name="e2e-sampler", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc) -> bool:
        self._stop.set()
        self._thread.join()
        return False

    def _loop(self) -> None:
        me = threading.get_ident()
        while not self._stop.wait(self.interval_s):
            for tid, frame in sys._current_frames().items():
                if tid != me:
                    layer = self._classify(frame)
                    if layer is not None:
                        self.counts[layer] += 1

    @staticmethod
    def _classify(frame) -> str | None:
        while frame is not None:
            module = frame.f_globals.get("__name__", "")
            if module.startswith("repro"):
                if frame.f_code.co_name in _IDLE_FUNCTIONS:
                    return None
                return _layer_of(module)
            frame = frame.f_back
        return None

    def shares(self) -> dict[str, float]:
        total = sum(self.counts.values())
        return {
            layer: (self.counts[layer] / total if total else 0.0)
            for layer in LAYER_NAMES
        }
