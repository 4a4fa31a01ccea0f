"""In-memory spans around the benchmark's calls into treematch layers.

A span records its name, start, end and the span that caused it; spans
under one root belong to one op, one set-up, one check or one probe. A
span's self time is its duration minus the time its direct children cover;
the benchmark is single-threaded, so children never overlap.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    id: int
    parent: int | None
    root: int
    name: str
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        sid = len(self.spans)
        record = Span(sid, parent.id if parent else None,
                      parent.root if parent else sid, name, perf_counter())
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._open.pop()

    def self_times(self, root: str | None = None) -> dict[str, list[float]]:
        """Self seconds of every span, grouped by span name.

        With ``root``, only spans under a root span of that name count.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.seconds
        out: dict[str, list[float]] = {}
        for s in self.spans:
            if root is None or self.spans[s.root].name == root:
                out.setdefault(s.name, []).append(s.seconds - covered[s.id])
        return out

    def root_seconds(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.parent is None and s.name == name]


def no_span(name: str):
    """Stand-in for ``Tracer.span`` on the untraced path."""
    return nullcontext()
