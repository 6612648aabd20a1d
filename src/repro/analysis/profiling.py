"""Lightweight wall-clock profiling of the query-processing pipeline.

The paper reports that *"the subgraph isomorphism operation (for 1 or
2-edge subgraphs) dominates the processing time … more than 95% of the
total query processing time"* (§6.4.1). To reproduce that split we bucket
time into the two phases of every algorithm:

* ``iso``  — anchored / VF2 subgraph isomorphism around new edges;
* ``join`` — SJ-Tree maintenance (hash probes, joins, inserts, expiry).

Timers are context managers around the hot loops; overhead is two
``perf_counter`` calls per section, negligible next to the work measured.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator
from contextlib import contextmanager


@dataclass
class PhaseTimer:
    """Accumulated wall-clock seconds and entry count for one phase."""

    seconds: float = 0.0
    calls: int = 0

    def add(self, elapsed: float) -> None:
        self.seconds += elapsed
        self.calls += 1


@dataclass
class ProfileCounters:
    """Per-algorithm profile: named phase timers plus scalar counters.

    Phases measure **exclusive** (self) time: when a phase opens inside
    another — Lazy Search's retrospective isomorphism runs inside the
    SJ-Tree update — the outer phase is paused, so phase seconds sum to
    wall-clock without double counting.

    ``enabled`` is an advisory gate honoured by the per-edge hot loops:
    when False they skip the ``phase_enter``/``phase_exit``/``bump``
    calls entirely (two ``perf_counter`` reads per section are negligible
    next to a retrospective search, but not next to a single hash-table
    insert). The engine disables phase profiling by default and the
    figure-reproduction experiments re-enable it — see
    ``ContinuousQueryEngine(profile_phases=...)``.
    """

    phases: Dict[str, PhaseTimer] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    enabled: bool = True
    _stack: list = field(default_factory=list, repr=False)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a section under ``name`` (nested sections pause the outer)."""
        self.phase_enter(name)
        try:
            yield
        finally:
            self.phase_exit()

    # Explicit enter/exit pair — same stack semantics as :meth:`phase`
    # without the contextlib generator machinery; used by the per-edge hot
    # loops where the context-manager overhead is measurable. Callers must
    # guarantee balanced calls (no user code runs between them that could
    # raise without aborting the whole run).

    def phase_enter(self, name: str) -> None:
        """Open a phase (pausing the enclosing one, if any)."""
        now = time.perf_counter()
        stack = self._stack
        if stack:
            outer = stack[-1]
            self.phases.setdefault(outer[0], PhaseTimer()).seconds += now - outer[1]
        stack.append([name, now])

    def phase_exit(self) -> None:
        """Close the innermost phase (resuming the enclosing one, if any)."""
        end = time.perf_counter()
        entry = self._stack.pop()
        timer = self.phases.setdefault(entry[0], PhaseTimer())
        timer.add(end - entry[1])
        if self._stack:
            self._stack[-1][1] = end

    def phase_add(self, name: str, seconds: float, calls: int = 1) -> None:
        """Credit already-measured time to a phase.

        The engine's profiled per-event path times its consecutive stages
        (evict / ingest / dispatch) with one shared ``perf_counter`` read
        per stage boundary and credits each here; ``calls`` lets a caller
        that timed a batch credit every element of it at once. Does not
        interact with the enter/exit stack: the time was measured outside
        any open phase.
        """
        timer = self.phases.setdefault(name, PhaseTimer())
        timer.seconds += seconds
        timer.calls += calls

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment a scalar counter."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def seconds(self, name: str) -> float:
        """Accumulated seconds for one phase (0.0 if never entered)."""
        timer = self.phases.get(name)
        return timer.seconds if timer else 0.0

    @property
    def total_seconds(self) -> float:
        return sum(t.seconds for t in self.phases.values())

    def fraction(self, name: str) -> float:
        """Share of total profiled time spent in one phase."""
        total = self.total_seconds
        return self.seconds(name) / total if total > 0 else 0.0

    def merge(self, other: "ProfileCounters") -> None:
        """Fold another profile into this one (for aggregating sweeps)."""
        for name, timer in other.phases.items():
            mine = self.phases.setdefault(name, PhaseTimer())
            mine.seconds += timer.seconds
            mine.calls += timer.calls
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value

    def report(self) -> str:
        """Human-readable summary."""
        lines = []
        total = self.total_seconds
        for name in sorted(self.phases):
            timer = self.phases[name]
            share = (timer.seconds / total * 100.0) if total > 0 else 0.0
            lines.append(
                f"{name:12s} {timer.seconds:10.4f}s {share:5.1f}% "
                f"({timer.calls} calls)"
            )
        for name in sorted(self.counters):
            lines.append(f"{name:12s} {self.counters[name]}")
        return "\n".join(lines) if lines else "(no profile data)"
