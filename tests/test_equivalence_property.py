"""Property-based ground-truth equivalence (the reproduction's keystone).

For any stream, connected query and time window, the cumulative match set
of every incremental strategy — eager/lazy × single/path decompositions,
plus both baselines — must equal the set of isomorphisms with ``τ < tW``
found by batch VF2 over the whole (un-evicted) stream, with no duplicate
emissions. This is the formal statement of §2.1's incremental-match
function, and it pins down every moving part at once: anchored search,
hash joins, cut keys, window expiry, bitmap gating and the retrospective
pass.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro import ContinuousQueryEngine
from repro.graph import EdgeEvent, StreamingGraph, TimeWindow
from repro.isomorphism import find_isomorphisms
from repro.query import QueryGraph

from .util import install_checking_tables

ETYPES = ["A", "B", "C"]

STRATEGIES = ("Single", "SingleLazy", "Path", "PathLazy", "VF2", "IncIso")


@st.composite
def streams(draw):
    """A monotone-timestamp stream over a small vertex population."""
    n_vertices = draw(st.integers(min_value=3, max_value=6))
    n_edges = draw(st.integers(min_value=5, max_value=28))
    events = []
    t = 0.0
    for _ in range(n_edges):
        t += draw(st.integers(min_value=1, max_value=4))
        src = draw(st.integers(min_value=0, max_value=n_vertices - 1))
        dst = draw(st.integers(min_value=0, max_value=n_vertices - 1))
        if src == dst:
            continue
        etype = draw(st.sampled_from(ETYPES))
        events.append(EdgeEvent(f"n{src}", f"n{dst}", etype, float(t)))
    return events


@st.composite
def queries(draw):
    """A small connected query: path, star or fork."""
    shape = draw(st.sampled_from(["path", "star-out", "star-in", "fork"]))
    size = draw(st.integers(min_value=1, max_value=3))
    types = [draw(st.sampled_from(ETYPES)) for _ in range(size)]
    if shape == "path":
        return QueryGraph.path(types, name="q")
    query = QueryGraph(name="q")
    if shape == "star-out":
        for i, etype in enumerate(types):
            query.add_edge(0, i + 1, etype)
    elif shape == "star-in":
        for i, etype in enumerate(types):
            query.add_edge(i + 1, 0, etype)
    else:  # fork: one in, rest out
        query.add_edge(1, 0, types[0])
        for i, etype in enumerate(types[1:], start=2):
            query.add_edge(0, i, etype)
    return query


def ground_truth(events, query, window_width):
    graph = StreamingGraph()  # keep everything: the oracle sees all history
    for event in events:
        graph.add_event(event)
    window = TimeWindow(window_width)
    return {m.fingerprint for m in find_isomorphisms(graph, query, window=window)}


@settings(max_examples=40, deadline=None)
@given(
    events=streams(),
    query=queries(),
    window_choice=st.sampled_from(["inf", "wide", "tight"]),
)
def test_all_strategies_match_batch_vf2(events, query, window_choice):
    if not events:
        return
    duration = events[-1].timestamp - events[0].timestamp
    width = {
        "inf": math.inf,
        "wide": max(duration * 0.7, 2.0),
        "tight": max(duration * 0.25, 1.0),
    }[window_choice]

    truth = ground_truth(events, query, width)

    for strategy in STRATEGIES:
        engine = ContinuousQueryEngine(window=width)
        engine.warmup(events)  # statistics from the same stream
        engine.register(query, strategy=strategy, name=f"q-{strategy}")
        got = []
        for event in events:
            got.extend(engine.process_event(event))
        prints = [record.match.fingerprint for record in got]
        assert len(prints) == len(set(prints)), f"{strategy} emitted duplicates"
        assert set(prints) == truth, (
            f"{strategy}: {len(set(prints))} matches vs {len(truth)} expected "
            f"(window={width})"
        )
        for record in got:
            assert record.match.span < width or math.isinf(width)


@settings(max_examples=25, deadline=None)
@given(events=streams(), query=queries())
def test_lazy_without_retrospective_is_a_subset(events, query):
    """Disabling the §4 retrospective pass may lose matches but must never
    invent or duplicate them."""
    if not events:
        return
    truth = ground_truth(events, query, math.inf)
    engine = ContinuousQueryEngine(window=math.inf)
    engine.warmup(events)
    engine.register(query, strategy="SingleLazy", name="q", retrospective=False)
    got = []
    for event in events:
        got.extend(engine.process_event(event))
    prints = [record.match.fingerprint for record in got]
    assert len(prints) == len(set(prints))
    assert set(prints) <= truth


@settings(max_examples=20, deadline=None)
@given(
    events=streams(),
    query=queries(),
    split=st.floats(min_value=0.2, max_value=0.8),
    pair=st.sampled_from(
        [("Single", "SingleLazy"), ("SingleLazy", "Path"), ("PathLazy", "Single")]
    ),
)
def test_mid_stream_refresh_stays_exact(events, query, split, pair):
    """Swapping strategies mid-stream (window-replay migration) must not
    lose, duplicate or invent matches."""
    if not events:
        return
    truth = ground_truth(events, query, math.inf)
    first, second = pair
    engine = ContinuousQueryEngine(window=math.inf)
    engine.warmup(events)
    engine.register(query, strategy=first, name="q")
    cut = max(int(len(events) * split), 1)
    got = []
    for event in events[:cut]:
        got.extend(engine.process_event(event))
    engine.refresh_query("q", strategy=second)
    for event in events[cut:]:
        got.extend(engine.process_event(event))
    prints = [record.match.fingerprint for record in got]
    assert len(prints) == len(set(prints)), "refresh caused duplicates"
    assert set(prints) == truth


@settings(max_examples=25, deadline=None)
@given(
    events=streams(),
    query_list=st.lists(queries(), min_size=2, max_size=5),
    window_choice=st.sampled_from(["inf", "wide", "tight"]),
    strategy=st.sampled_from(("Single", "SingleLazy", "Path", "PathLazy")),
)
def test_dispatch_engine_is_record_identical(
    events, query_list, window_choice, strategy
):
    """The type-indexed multi-query dispatch plus compiled leaf plans must
    emit exactly the same MatchRecords — fingerprints, timestamps and
    emission order — as the seed path (dispatch force-disabled, every edge
    offered to every leaf through the interpretive backtracker). Both
    runs use checking tables: no bucket is mutated under a probe of it,
    and no dedup-free (eager) table is ever offered a duplicate."""
    if not events:
        return
    duration = events[-1].timestamp - events[0].timestamp
    width = {
        "inf": math.inf,
        "wide": max(duration * 0.7, 2.0),
        "tight": max(duration * 0.25, 1.0),
    }[window_choice]

    def run(dispatch: bool):
        engine = ContinuousQueryEngine(window=width, dispatch=dispatch)
        engine.warmup(events)
        options = {} if dispatch else {"compiled_plans": False}
        for i, query in enumerate(query_list):
            engine.register(query, strategy=strategy, name=f"q{i}", **options)
        install_checking_tables(engine)
        records = []
        for event in events:
            records.extend(engine.process_event(event))
        return [(r.query_name, r.match.fingerprint, r.completed_at) for r in records]

    assert run(dispatch=True) == run(dispatch=False)


@settings(max_examples=15, deadline=None)
@given(events=streams(), query_list=st.lists(queries(), min_size=2, max_size=4))
def test_dispatch_exact_for_baselines_too(events, query_list):
    """The engine-level etype prefilter on the VF2/IncIso baselines must
    not change their output either."""
    if not events:
        return

    def run(dispatch: bool):
        engine = ContinuousQueryEngine(window=math.inf, dispatch=dispatch)
        engine.warmup(events)
        for i, query in enumerate(query_list):
            strategy = "VF2" if i % 2 == 0 else "IncIso"
            engine.register(query, strategy=strategy, name=f"q{i}")
        records = []
        for event in events:
            records.extend(engine.process_event(event))
        return [(r.query_name, r.match.fingerprint, r.completed_at) for r in records]

    assert run(dispatch=True) == run(dispatch=False)


@settings(max_examples=25, deadline=None)
@given(events=streams(), query=queries())
def test_auto_strategy_is_also_exact(events, query):
    if not events:
        return
    truth = ground_truth(events, query, math.inf)
    engine = ContinuousQueryEngine(window=math.inf)
    engine.warmup(events)
    engine.register(query, strategy="auto", name="q")
    got = []
    for event in events:
        got.extend(engine.process_event(event))
    assert {record.match.fingerprint for record in got} == truth
