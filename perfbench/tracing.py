"""Span tracing from outside the program.

The benchmark never edits tollgate.  It replaces module and class attributes
with thin wrappers instead: every call through a wrapped attribute records
one span (name, start, end, parent span, cell id) while the tracer is
active.  Spans stay in memory and are written out once the run ends.

A function that several modules import by name (``from .x import f``) is
replaced in every ``tollgate`` module that holds it, so a call is recorded
whichever module makes it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    cell: Optional[str]
    result: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the attributes it wraps while ``active`` is set."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self.cell: Optional[str] = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrapper(
        self, original: Callable, name: str, keep: Optional[Callable[[Any], Any]]
    ) -> Callable:
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, tracer.cell)
            tracer.spans.append(span)
            tracer._stack.append(sid)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if keep is not None:
                span.result = keep(result)
            return result

        return traced

    def _replace(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_function(
        self,
        owner: object,
        attr: str,
        name: str,
        keep: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        """Wrap ``owner.attr`` and every ``tollgate`` module's alias of it.

        ``keep`` maps the call's result to what the span keeps of it.
        """
        original = getattr(owner, attr)
        wrapper = self._wrapper(original, name, keep)
        holders = [owner] + [
            module
            for key, module in sorted(sys.modules.items())
            if (key == "tollgate" or key.startswith("tollgate."))
            and module is not owner
            and getattr(module, attr, None) is original
        ]
        for holder in holders:
            self._replace(holder, attr, wrapper)

    def wrap_method(self, cls: type, attr: str, name: str) -> None:
        self._replace(cls, attr, self._wrapper(getattr(cls, attr), name, None))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def span(self, name: str) -> "_Open":
        """A span opened by the benchmark itself, such as one cell."""
        return _Open(self, name)

    def write(self, path) -> None:
        with open(path, "w") as out:
            for sid, s in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "cell": s.cell,
                        }
                    )
                    + "\n"
                )

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]


class _Open:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> Span:
        t = self.tracer
        parent = t._stack[-1] if t._stack else None
        self.sid = len(t.spans)
        self.span = Span(self.name, time.perf_counter(), 0.0, parent, t.cell)
        t.spans.append(self.span)
        t._stack.append(self.sid)
        return self.span

    def __exit__(self, *exc) -> None:
        self.span.end = time.perf_counter()
        self.tracer._stack.pop()
