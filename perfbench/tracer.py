"""Spans recorded from outside hhr.

Each traced entry point is replaced, at the name its callers look up (a
module attribute or a class attribute), by a wrapper that records a span
around the call; `restore` puts every original back.  Spans stay in memory
and are written out when the run ends.  Standard library only, so importing
this module does not disturb the timing of `import hhr`.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def row(self) -> list:
        return [self.sid, self.name, self.start, self.end, self.parent, self.op]


class Tracer:
    """Span recorder; `op` is the id stamped on every span opened next."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self.missing: list[str] = []
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(len(self.spans), name, 0.0, 0.0, stack[-1] if stack else None, self.op)
        self.spans.append(span)
        stack.append(span.sid)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, target: str, name, note=None) -> None:
        """Record a span around every call of `target`, 'module:attr' or
        'module:Class.attr'.  `name` is a string or a function of the call's
        positional arguments; `note(span, args, kwargs, result)` runs after
        the span has ended.  A target that does not exist is listed in
        `missing` and left alone."""
        modname, _, path = target.partition(":")
        owner = importlib.import_module(modname)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            if target not in self.missing:
                self.missing.append(target)
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer._open(name(args) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if note is not None:
                note(span, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._saved.append((owner, attr, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Children that overlap each other (calls from several threads) are
    counted once, and a child reaching past its parent is clipped."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        out[s.sid] = s.duration - covered
    return out
