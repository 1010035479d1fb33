"""In-memory span recording for the traced benchmark run.

A span is one call across a layer boundary: its name, start and end on the
``perf_counter`` clock, the index of the span that was open when it began
(its parent), the operation it belongs to, and any counts computed from the
call's arguments.  Recorders are interposed from the benchmark's own files
by swapping a module-level name and restoring it afterwards, so the program
under test is not modified.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    counts: dict[str, int] | None


class Tracer:
    """Records nested spans of one single-threaded caller."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None  # operation id stamped on every new span
        self._open: list[int] = []

    def open(self, name: str, counts: dict[str, int] | None = None) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op, counts))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, index: int) -> None:
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {index} closed out of order")
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    def wrap(self, fn, name, counts=None):
        """Return ``fn`` recording a span per call.

        ``name`` is a string or a function of the call's arguments; ``counts``
        maps the arguments to counts, and runs before the span opens so its
        cost is charged to the caller.
        """

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            extra = counts(*args, **kwargs) if counts is not None else None
            index = self.open(label, extra)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return recorded

    @contextlib.contextmanager
    def interpose(self, boundaries):
        """Swap each ``(module, attribute, name, counts)`` for a recorder, then restore."""
        saved = []
        try:
            for module, attr, name, counts in boundaries:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, counts))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children[index]):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out
