"""Spans recorded from outside the program under test.

A Tracer rebinds public functions, in the module namespace their callers
look them up in, to wrappers that record one span per call: name, start,
end, parent span and thread. The originals are restored when the
`patched` block exits, also on error. A name that no longer exists is
recorded in `Tracer.missing` instead of failing the run, so the benchmark
keeps working across refactors that rename or delete a function.

Spans started on a pool thread have no open span on that thread; their
parent is the root span (the first span opened while nothing else is
open), so sibling spans from different threads can overlap in time.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """A function to wrap: `module.attr`, recorded under span `name`.

    `annotate(result, args, kwargs)` returns extra fields for the span.
    """

    module: object
    attr: str
    name: str
    annotate: object = None


def union_length(intervals) -> float:
    """Total length covered by (start, end) intervals, overlaps counted once."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: int | None = None

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span_id = next(self._ids)
            is_root = self._root is None and not stack
            if is_root:
                self._root = span_id
            parent = stack[-1] if stack else (None if is_root else self._root)
        sp = Span(span_id, name, time.perf_counter(), 0.0, parent, threading.get_ident())
        stack.append(span_id)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(sp)
                if is_root:
                    self._root = None

    def wrap(self, fn, name: str, annotate=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if annotate is not None:
                sp.info.update(annotate(result, args, kwargs))
            return result

        return wrapper

    @contextmanager
    def patched(self, targets):
        saved = []
        try:
            for t in targets:
                original = getattr(t.module, t.attr, None)
                if original is None:
                    self.missing.append(f"{t.module.__name__}.{t.attr}")
                    continue
                saved.append((t.module, t.attr, original))
                setattr(t.module, t.attr, self.wrap(original, t.name, t.annotate))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def busy(self, name: str) -> float:
        """Seconds spent in `name`, summed over calls (overlaps count twice)."""
        return sum(s.duration for s in self.named(name))

    def self_time(self, span: Span) -> float:
        """The span's duration minus the part of it its children cover."""
        children = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in self.spans
            if c.parent == span.id
        ]
        return span.duration - union_length(c for c in children if c[1] > c[0])

    def info_values(self, name: str, key: str) -> list:
        return [s.info[key] for s in self.named(name) if key in s.info]
