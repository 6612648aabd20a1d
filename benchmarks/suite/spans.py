"""In-memory span recorder for the traced pass.

Spans are opened from the suite's own files around calls into each layer's
public functions (no edits inside the program), kept in memory, and written
once at the end of the run. The end-to-end pass uses :data:`OFF`, whose
``span()`` hands back one shared no-op context manager.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional


class Span:
    __slots__ = ("tracer", "name", "id", "parent", "repeat", "start", "end")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.end = 0.0

    def __enter__(self) -> "Span":
        tracer = self.tracer
        self.id = len(tracer.spans)
        self.parent: Optional[int] = tracer._stack[-1] if tracer._stack else None
        self.repeat = tracer.repeat
        tracer.spans.append(self)
        tracer._stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.end = time.perf_counter()
        self.tracer._stack.pop()

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``repeat`` tags the spans opened while it is set."""

    enabled = True

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.repeat = 0
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def span(self, name: str) -> Span:
        return Span(self, name)

    def durations(self, name: str) -> List[float]:
        return [s.duration for s in self.spans if s.name == name]

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the time its child spans cover.

        Children of one parent never overlap (one thread, strictly nested),
        so the covered time is the sum of their durations.
        """
        own = {s.id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def write(self, path: str) -> None:
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                row = {
                    "workload": self.workload,
                    "repeat": s.repeat,
                    "id": s.id,
                    "parent": s.parent,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "self_s": own[s.id],
                }
                handle.write(json.dumps(row) + "\n")


class _NoSpan:
    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


class _Off:
    """Tracing off: every ``span()`` is the same inert context manager."""

    enabled = False
    _span = _NoSpan()

    def span(self, name: str) -> _NoSpan:
        return self._span


OFF = _Off()
