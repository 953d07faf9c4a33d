"""In-memory spans around d2lie's public functions.

A span records its name, start, end, parent and run id.  Spans stay in
memory until the run ends; self times are derived from them afterwards.
Spans are opened only here, around calls into the library: d2lie itself
carries no tracing code.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    run_id: str
    note: dict = field(default_factory=dict)  # inputs a count is derived from; not written


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        span = Span(name, 0.0, 0.0, parent, self.run_id)
        self.spans.append(span)
        self._open.append(idx)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "run_id": s.run_id}
            for s in self.spans
        ]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest properly, so the children of a
    span are disjoint and their durations add up.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        totals[s.name] = totals.get(s.name, 0.0) + t
    return totals


def _spanned(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
        span.note["args"] = args
        span.note["result"] = result
        return result

    return wrapper


@contextmanager
def instrument(tracer: Tracer, targets: dict[str, list[tuple[str, str]]]):
    """Span every call of the target functions while the block runs.

    targets maps a span name to (module, function) pairs.  Every loaded
    d2lie module that binds a target under any name gets the wrapper, so
    calls the library makes internally are spanned too.  Yields the
    targets that do not exist, which then simply record no spans.
    """
    missing = []
    wrappers = {}  # id of an original function -> its spanned wrapper
    for name, calls in targets.items():
        for module, func in calls:
            fn = getattr(importlib.import_module(module), func, None)
            if fn is None:
                missing.append(f"{module}.{func}")
            else:
                wrappers[id(fn)] = _spanned(tracer, name, fn)
    patched = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "d2lie" and not mod_name.startswith("d2lie."):
            continue
        for attr, value in list(vars(mod).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(mod, attr, wrapper)
                patched.append((mod, attr, value))
    try:
        yield missing
    finally:
        for mod, attr, value in patched:
            setattr(mod, attr, value)
