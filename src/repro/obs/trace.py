"""Span tracer: nested wall-clock spans with flame-chart exporters.

Usage::

    from repro.obs import trace

    trace.enable()
    with trace.span("query.snapshot", table="events"):
        with trace.span("query.file", file="f-0001.bln"):
            ...
    tracer = trace.default_tracer()
    tracer.export_chrome("out.trace.json")  # chrome://tracing / Perfetto
    tracer.export_jsonl("out.spans.jsonl")

Tracing is **disabled by default**.  When disabled, :func:`span`
returns a shared no-op context manager — no :class:`Span` object is
constructed at all, which the ``Span.constructed`` class counter makes
testable (the overhead guardrail asserts a full scan allocates zero
spans).

Nesting is per-thread (a thread-local stack records the parent), so
spans opened on scan worker threads nest correctly on their own
timeline row.  Spans measure wall time between enter and exit; a span
held open across a generator ``yield`` will include the consumer's
time — prefer spans around synchronous regions.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "SpanRecord",
    "Tracer",
    "default_tracer",
    "span",
    "enable",
    "disable",
    "enabled",
    "reset",
    "load_trace",
    "summarize_events",
]


@dataclass(slots=True)
class SpanRecord:
    """One finished span."""

    sid: int
    parent: int | None
    name: str
    tid: int
    start: float  # seconds relative to tracer epoch
    dur: float    # seconds
    attrs: dict = field(default_factory=dict)


class Span:
    """A live span; context manager. Constructed only while tracing is on."""

    __slots__ = ("_tracer", "name", "attrs", "sid", "parent", "_t0")

    #: Total Span constructions in this process — the zero-allocation
    #: guardrail for disabled tracing reads this.
    constructed = 0

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        Span.constructed += 1
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.sid = next(tracer._ids)
        self.parent = None
        self._t0 = 0.0

    def set(self, **attrs: object) -> None:
        """Attach attributes to the span while it is open."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        stack = self._tracer._stack()
        if stack:
            self.parent = stack[-1]
        stack.append(self.sid)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = time.perf_counter()
        tracer = self._tracer
        stack = tracer._stack()
        if stack and stack[-1] == self.sid:
            stack.pop()
        rec = SpanRecord(
            sid=self.sid,
            parent=self.parent,
            name=self.name,
            tid=threading.get_ident(),
            start=self._t0 - tracer._epoch,
            dur=t1 - self._t0,
            attrs=self.attrs,
        )
        with tracer._lock:
            tracer._records.append(rec)
        return False


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **attrs: object) -> None:
        pass


_NOOP = _NoopSpan()


class Tracer:
    """Collects finished spans; one process-wide instance by default."""

    def __init__(self):
        self.enabled = False
        self._lock = threading.Lock()
        self._records: list[SpanRecord] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._epoch = time.perf_counter()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        with self._lock:
            self._records.clear()
        self._epoch = time.perf_counter()

    def span(self, name: str, **attrs: object):
        if not self.enabled:
            return _NOOP
        return Span(self, name, attrs)

    def records(self) -> list[SpanRecord]:
        with self._lock:
            return list(self._records)

    # Exporters --------------------------------------------------------------
    def _events(self) -> list[dict]:
        """Normalized event dicts (µs timestamps), sorted by start."""
        evs = [
            {
                "name": r.name,
                "sid": r.sid,
                "parent": r.parent,
                "tid": r.tid,
                "ts_us": r.start * 1e6,
                "dur_us": r.dur * 1e6,
                "attrs": r.attrs,
            }
            for r in self.records()
        ]
        evs.sort(key=lambda e: e["ts_us"])
        return evs

    def export_jsonl(self, path) -> None:
        """One JSON object per line, µs timestamps, parent span ids."""
        with open(path, "w", encoding="utf-8") as fh:
            for ev in self._events():
                fh.write(json.dumps(ev, default=str) + "\n")

    def export_chrome(self, path) -> None:
        """Chrome trace-event format: load in chrome://tracing or Perfetto."""
        events = [
            {
                "name": ev["name"],
                "cat": "repro",
                "ph": "X",
                "ts": ev["ts_us"],
                "dur": ev["dur_us"],
                "pid": 1,
                "tid": ev["tid"],
                "args": {k: str(v) for k, v in ev["attrs"].items()},
            }
            for ev in self._events()
        ]
        payload = {"traceEvents": events, "displayTimeUnit": "ms"}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def summarize_events(events: list[dict]) -> list[dict]:
    """Per-name totals with self-time, sorted by self-time descending.

    Self-time is a span's duration minus its direct children's
    durations.  Parentage uses explicit ``parent`` ids when present
    (JSONL exports) and falls back to per-thread interval containment
    (Chrome exports carry no parent ids).
    """
    child_time: dict[object, float] = {}
    have_parents = any(e.get("parent") is not None for e in events)
    if have_parents:
        for e in events:
            p = e.get("parent")
            if p is not None:
                child_time[p] = child_time.get(p, 0.0) + e["dur_us"]
        keyed = [(e.get("sid"), e) for e in events]
    else:
        # Containment nesting per tid: a span's parent is the innermost
        # earlier span on the same thread that still covers it.
        keyed = []
        by_tid: dict[object, list[dict]] = {}
        for i, e in enumerate(events):
            by_tid.setdefault(e.get("tid", 0), []).append(dict(e, _k=i))
            keyed.append((i, e))
        for evs in by_tid.values():
            evs.sort(key=lambda e: (e["ts_us"], -e["dur_us"]))
            stack: list[dict] = []
            for e in evs:
                end = e["ts_us"] + e["dur_us"]
                while stack and (
                    stack[-1]["ts_us"] + stack[-1]["dur_us"] < end
                    or stack[-1]["ts_us"] > e["ts_us"]
                ):
                    stack.pop()
                if stack:
                    k = stack[-1]["_k"]
                    child_time[k] = child_time.get(k, 0.0) + e["dur_us"]
                stack.append(e)
    agg: dict[str, dict] = {}
    for key, e in keyed:
        row = agg.setdefault(
            e["name"], {"name": e["name"], "count": 0, "total_us": 0.0, "self_us": 0.0}
        )
        row["count"] += 1
        row["total_us"] += e["dur_us"]
        row["self_us"] += max(0.0, e["dur_us"] - child_time.get(key, 0.0))
    return sorted(agg.values(), key=lambda r: -r["self_us"])


def load_trace(path) -> list[dict]:
    """Load a JSONL or Chrome trace file into normalized event dicts."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            payload = None
        if isinstance(payload, dict) and "traceEvents" in payload:
            return [
                {
                    "name": e.get("name", "?"),
                    "tid": e.get("tid", 0),
                    "ts_us": float(e.get("ts", 0.0)),
                    "dur_us": float(e.get("dur", 0.0)),
                    "attrs": e.get("args", {}),
                }
                for e in payload["traceEvents"]
                if e.get("ph") == "X"
            ]
        if isinstance(payload, list):
            return [
                {
                    "name": e.get("name", "?"),
                    "tid": e.get("tid", 0),
                    "ts_us": float(e.get("ts", 0.0)),
                    "dur_us": float(e.get("dur", 0.0)),
                    "attrs": e.get("args", {}),
                }
                for e in payload
                if e.get("ph") == "X"
            ]
    events = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        e = json.loads(line)
        if not isinstance(e, dict) or "name" not in e:
            raise ValueError(
                "not a trace export (expected JSONL span records or a "
                "Chrome traceEvents file)"
            )
        events.append(
            {
                "name": e.get("name", "?"),
                "sid": e.get("sid"),
                "parent": e.get("parent"),
                "tid": e.get("tid", 0),
                "ts_us": float(e.get("ts_us", 0.0)),
                "dur_us": float(e.get("dur_us", 0.0)),
                "attrs": e.get("attrs", {}),
            }
        )
    return events


_DEFAULT = Tracer()


def default_tracer() -> Tracer:
    return _DEFAULT


def span(name: str, **attrs: object):
    """Open a span on the default tracer (no-op while tracing is off)."""
    if not _DEFAULT.enabled:
        return _NOOP
    return Span(_DEFAULT, name, attrs)


def enable() -> None:
    _DEFAULT.enable()


def disable() -> None:
    _DEFAULT.disable()


def enabled() -> bool:
    return _DEFAULT.enabled


def reset() -> None:
    _DEFAULT.reset()
