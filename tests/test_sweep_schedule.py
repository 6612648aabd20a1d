"""The housekeeping sweep runs on stream time, not edge count.

The engine sweeps at the first edge whose window cutoff crosses the next
multiple of a quarter window, before it matches that edge. These tests
pin what follows from that rule: no table ever holds an entry that
expired more than a quarter window ago, every ingest path sweeps at the
same edges, a restored engine sweeps where one that never stopped does,
and an infinite window never sweeps.
"""

from __future__ import annotations

import math

import pytest

from repro import ContinuousQueryEngine
from repro.analysis.experiments import mixed_etype_workload
from repro.persistence.snapshot import engine_from_bytes, engine_to_bytes
from repro.search.engine import SWEEPS_PER_WINDOW

WINDOW = 15.0


@pytest.fixture(scope="module")
def workload():
    events, queries = mixed_etype_workload(
        1200, num_queries=4, num_etypes=6, seed=11, population=40
    )
    for i, query in enumerate(queries):
        query.name = f"q{i}"
    return events, queries


def _engine(workload, strategy="Single", window=WINDOW, **settings):
    events, queries = workload
    engine = ContinuousQueryEngine(window=window, **settings)
    engine.warmup(events)
    for query in queries:
        engine.register(query, strategy=strategy, name=query.name)
    return engine


def _record_sweeps(engine) -> list:
    """The window cutoff at every sweep (it names the sweeping edge: the
    first edge at a timestamp is the one that crosses a grid line)."""
    cutoffs: list = []
    sweep = engine.sweep

    def recording():
        cutoffs.append(engine.graph.window.cutoff)
        sweep()

    engine.sweep = recording
    return cutoffs


def _as_rows(events):
    return [
        (i, e.src, e.dst, e.etype, e.timestamp, e.src_type, e.dst_type)
        for i, e in enumerate(events)
    ]


def _oldest_entry(engine) -> float:
    return min(
        (
            match.min_time
            for registered in engine.queries.values()
            for node in registered.tree.nodes
            for match in node.table
        ),
        default=math.inf,
    )


@pytest.mark.parametrize("strategy", ["Single", "SingleLazy"])
def test_no_entry_outlives_its_window_by_a_quarter(workload, strategy):
    events, _ = workload
    quarter = WINDOW / SWEEPS_PER_WINDOW
    engine = _engine(workload, strategy)
    for event in events:
        engine.process_event(event)
        assert _oldest_entry(engine) > engine.graph.window.cutoff - quarter
    chunked = _engine(workload, strategy, chunk_size=64)
    for start in range(0, len(events), 64):
        chunked.process_events(events[start : start + 64])
        assert _oldest_entry(chunked) > chunked.graph.window.cutoff - quarter
    span = events[-1].timestamp - events[0].timestamp
    assert engine._sweeps >= SWEEPS_PER_WINDOW * span / WINDOW - 1


@pytest.mark.parametrize("strategy", ["Single", "SingleLazy"])
def test_every_ingest_path_sweeps_at_the_same_edges(workload, strategy):
    events, _ = workload
    per_event = _engine(workload, strategy)
    expected = _record_sweeps(per_event)
    for event in events:
        per_event.process_event(event)
    chunked = _engine(workload, strategy, chunk_size=100)
    rows = _engine(workload, strategy, chunk_size=100)
    profiled = _engine(workload, strategy, profile_phases=True)
    recorded = [_record_sweeps(engine) for engine in (chunked, rows, profiled)]
    chunked.process_events(events)
    rows.process_rows(_as_rows(events))
    profiled.process_events(events)
    assert len(expected) == len(set(expected)) > 10
    assert recorded == [expected] * 3


@pytest.mark.parametrize("strategy", ["Single", "SingleLazy"])
def test_restored_engine_sweeps_where_an_unstopped_one_does(workload, strategy):
    events, queries = workload
    cut = 700
    full = _engine(workload, strategy)
    cutoffs = _record_sweeps(full)
    full.process_events(events[:cut])
    before = len(cutoffs)
    full.process_events(events[cut:])

    first = _engine(workload, strategy)
    first.process_events(events[:cut])
    restored, _ = engine_from_bytes(engine_to_bytes(first, cursor=cut), queries)
    after = _record_sweeps(restored)
    restored.process_events(events[cut:])
    assert after == cutoffs[before:]


def test_an_infinite_window_never_sweeps(workload):
    events, _ = workload
    chunked = _engine(workload, window=math.inf)
    chunked.process_events(events)
    per_event = _engine(workload, window=math.inf)
    for event in events:
        per_event.process_event(event)
    assert chunked._sweeps == per_event._sweeps == 0
