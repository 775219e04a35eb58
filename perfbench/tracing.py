"""Spans recorded by the benchmark's own wrappers around layer calls.

:func:`instrument` swaps a timing wrapper in for each public call named
in :data:`TARGETS` and restores the originals on exit, so untraced runs
execute the program unchanged.  Spans stay in memory
(:class:`SpanRecorder`) and are written once, at the end of the run, as
chrome://tracing JSON (:func:`write_chrome_trace`).

A span's self time is its duration minus the time its child spans
cover.  Children nest strictly inside their parent on one thread, so
that is the duration minus the sum of the children's durations.

Only calls made in this process are seen.  Scan shards running in pool
worker processes show up as the parent's wait, which is why the scan
workloads also replay each scan sequentially under tracing.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    pid: int
    tid: int
    args: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class SpanRecorder:
    """Thread-aware in-memory span log."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        # ids stay unique when spans from worker processes are merged
        self._ids = itertools.count((os.getpid() << 24) + 1)
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, **args):
        """Record ``name`` around the body; yields the span's ``args``
        dict so the body can attach results such as counts."""
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield args
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            span = Span(span_id, name, start, end, parent, os.getpid(),
                        threading.get_ident(), args)
            with self._lock:
                self.spans.append(span)

    def named(self, name: str, since: int = 0) -> list[Span]:
        """Spans called ``name`` among those recorded after the first
        ``since``."""
        with self._lock:
            spans = self.spans[since:]
        return [s for s in spans if s.name == name]

    def mark(self) -> int:
        """Position to pass as ``since`` to look at later spans only."""
        with self._lock:
            return len(self.spans)

    def outer_ms(self, names, since: int = 0,
                 until: int | None = None) -> float:
        """Total duration of spans called any of ``names``, recorded
        between marks ``since`` and ``until``, that do not sit inside
        another such span (so nested calls count once)."""
        with self._lock:
            spans = self.spans[since:until]
        ids = {s.id for s in spans if s.name in names}
        return sum(s.ms for s in spans
                   if s.name in names and s.parent not in ids)

    def ms_per_chip(self, since: int = 0, batch=None) -> float:
        """Mean ``engine.predict`` milliseconds per chip over calls of
        ``batch`` chips (``"multi"``: more than one chip); 0.0 when no
        such call ran."""
        spans = [s for s in self.named("engine.predict", since)
                 if (s.args["batch"] > 1 if batch == "multi"
                     else s.args["batch"] == batch)]
        chips = sum(s.args["batch"] for s in spans)
        return sum(s.ms for s in spans) / chips if chips else 0.0

    def self_ms(self) -> dict[int, float]:
        """Self time of every span, by id."""
        with self._lock:
            spans = list(self.spans)
        own = {s.id: s.ms for s in spans}
        for s in spans:
            if s.parent in own:
                own[s.parent] -= s.ms
        return own


def maybe_span(recorder: SpanRecorder | None, name: str):
    """``recorder.span(name)``, or a no-op block when not tracing."""
    return recorder.span(name) if recorder is not None else nullcontext({})


def _batch_of(args, kwargs) -> int:
    images = args[1] if len(args) > 1 else kwargs.get("images")
    return len(images) if images is not None else 0


# (module, class or None, attribute, span name).  Module-level functions
# are patched where their callers look them up at call time.
TARGETS = (
    ("repro.engine", None, "compiled_for", "engine.compiled_for"),
    ("repro.engine.compiled", "CompiledModel", "warmup", "engine.warmup"),
    ("repro.engine.compiled", "CompiledModel", "predict", "engine.predict"),
    ("repro.robust.guard", "GuardedEngine", "predict_batch", "robust.guard"),
    ("repro.robust.sanitize", None, "sanitize_chip", "robust.sanitize"),
    ("repro.robust.journal", "ScanJournal", "append",
     "robust.journal_append"),
    ("repro.detect.scan", None, "non_max_suppression", "detect.nms"),
    ("repro.scanpar.parallel", None, "non_max_suppression", "detect.nms"),
    ("repro.nas.journal", "TrialJournal", "append", "nas.journal_append"),
)


def _wrap(recorder: SpanRecorder, name: str, fn, count_solves: bool):
    if name == "engine.predict":
        from repro.engine import autotune_choices, sched

        def solves() -> int:
            return sched.stats()["solves"] + len(autotune_choices())

        @functools.wraps(fn)
        def predict(*args, **kwargs):
            with recorder.span(name, batch=_batch_of(args, kwargs)) as info:
                before = solves() if count_solves else 0
                result = fn(*args, **kwargs)
                if count_solves:
                    info["solves"] = solves() - before
                return result
        return predict

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            return fn(*args, **kwargs)
    return wrapper


@contextmanager
def instrument(recorder: SpanRecorder | None, count_solves: bool = False):
    """Record spans around every call in :data:`TARGETS` for the
    duration of the block.  ``count_solves`` also stores, on each
    ``engine.predict`` span, the autotune decisions plus IOS solves
    that ran inside the call.  With no recorder the block runs
    untraced."""
    if recorder is None:
        yield None
        return
    restore = []
    try:
        for module_name, cls_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, cls_name) if cls_name else module
            original = owner.__dict__[attr]
            restore.append((owner, attr, original))
            setattr(owner, attr,
                    _wrap(recorder, name, getattr(owner, attr), count_solves))
        yield recorder
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def write_chrome_trace(path: Path, recorder: SpanRecorder,
                       metadata: dict) -> None:
    """Write every span as a chrome://tracing complete event."""
    spans = recorder.spans
    origin = min((s.start_ns for s in spans), default=0)
    events = [{
        "name": s.name, "ph": "X", "pid": s.pid, "tid": s.tid,
        "ts": (s.start_ns - origin) / 1e3, "dur": (s.end_ns - s.start_ns) / 1e3,
        "args": {"id": s.id, "parent": s.parent, **s.args},
    } for s in spans]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "metadata": metadata}, fh)
