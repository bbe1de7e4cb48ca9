"""Spans recorded from outside the program, self time, and the layer
breakdown of one run.

A span is ``(name, start, end, parent, run)``.  Spans are kept in memory
and written out when the benchmark ends.  A layer's self time is its
span's length minus the part of it that child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Iterator, Optional

#: the rows of a run's breakdown, in report order (ROADMAP's layer names)
LAYER_ROWS = (
    "assembly",
    "factor",
    "solve",
    "rhs_control",
    "transport",
    "combine",
    "dispatch",
    "backoff",
    "spawn",
    "unattributed",
)
KERNEL_ROWS = ("assembly", "factor", "solve", "rhs_control")


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


def covered_seconds(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    cursor = start
    for a, b in clipped:
        a = max(a, cursor)
        if b > a:
            total += b - a
            cursor = b
    return total


class SpanRecorder:
    """In-memory span store with a per-thread-of-control parent stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 1
        self.run = 0

    def add(
        self, name: str, start: float, end: float, parent: Optional[int] = None
    ) -> Span:
        """Record an interval timed elsewhere; the parent defaults to the
        innermost open span."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        span = Span(self._next_id, name, start, end, parent, self.run)
        self._next_id += 1
        self.spans.append(span)
        return span

    def add_counted(self, parent: Span, parts: dict[str, float]) -> list[Span]:
        """Children whose lengths come from the program's own counters
        (e.g. summed factor seconds).  Only their lengths are measured, so
        they are laid end to end from the parent's start."""
        cursor = parent.start
        children = []
        for name, seconds in parts.items():
            children.append(self.add(name, cursor, cursor + seconds, parent.id))
            cursor += seconds
        return children

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        """Time a block; the yielded dict receives the closed span."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        holder: dict = {}
        start = self.clock()
        try:
            yield holder
        finally:
            end = self.clock()
            self._stack.pop()
            span = Span(span_id, name, start, end, parent, self.run)
            self.spans.append(span)
            holder["span"] = span

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def self_seconds(self, span: Span) -> float:
        """The span's length minus what its children cover."""
        covered = covered_seconds(
            span.start, span.end, [(c.start, c.end) for c in self.children(span)]
        )
        return span.seconds - covered

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def layer_rows(
    *,
    wall: float,
    critical_compute: float,
    kernel: dict[str, float],
    transport: float,
    combine: float,
    backoff: float,
    spawn: float,
) -> dict[str, float]:
    """Split one run's wall time into :data:`LAYER_ROWS`.

    ``critical_compute`` is the compute of the job chain that finished
    last; the kernel rows estimate it, and what they miss is
    ``unattributed``.  The rest of the wall is combine, backoff, spawn
    and the coordination gap, from which transport is carved out and the
    remainder is dispatch.  The rows add up to ``wall`` by construction;
    a negative row means an estimate overshot.
    """
    gap = wall - critical_compute - combine - backoff - spawn
    rows = {name: kernel.get(name, 0.0) for name in KERNEL_ROWS}
    rows.update(
        transport=transport,
        combine=combine,
        dispatch=gap - transport,
        backoff=backoff,
        spawn=spawn,
        unattributed=critical_compute - sum(kernel.get(n, 0.0) for n in KERNEL_ROWS),
    )
    return {name: rows[name] for name in LAYER_ROWS}
