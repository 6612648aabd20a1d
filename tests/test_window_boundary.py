"""Window-boundary consistency across every layer that applies the cutoff.

The paper's rule is one predicate — an item whose timestamp ``t``
satisfies ``t >= t_last - tW`` is inside the window — but three
independent layers apply it: graph eviction
(:meth:`StreamingGraph.evict_expired`), match-table expiry
(:meth:`MatchTable.expire` plus the probe-time filter), and the snapshot
save rule (entries below the cutoff are dropped at checkpoint time).
These properties pin the boundary case: an edge (or partial match)
timestamped *exactly* at the cutoff is live in all three layers, and one
step past the cutoff is dropped by all three — no layer may disagree, or
a checkpoint/restore (or a shard migration) would diverge from the
uninterrupted run at the boundary.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ContinuousQueryEngine, QueryGraph
from repro.graph.streaming_graph import StreamingGraph
from repro.graph.types import EdgeEvent
from repro.graph.window import TimeWindow
from repro.isomorphism.match import Match
from repro.persistence.snapshot import engine_from_bytes, engine_to_bytes
from repro.search import DynamicGraphSearch, LazySearch
from repro.sjtree import SJTree
from repro.sjtree.node import MatchTable

# Integer-valued floats keep ``(t0 + width) - width == t0`` exact, so
# "the cutoff lands exactly on the edge's timestamp" is constructible.
widths = st.integers(min_value=1, max_value=60).map(float)
starts = st.integers(min_value=0, max_value=500).map(float)


@settings(max_examples=40, deadline=None)
@given(width=widths, t0=starts)
def test_timestamp_at_cutoff_is_live_in_every_layer(width, t0):
    boundary = t0 + width  # advancing the clock here puts the cutoff at t0

    window = TimeWindow(width)
    window.advance(t0)
    assert window.advance(boundary) == t0
    assert window.is_live(t0)

    graph = StreamingGraph(window=width)
    edge = graph.add_event(EdgeEvent("a", "b", "T", t0))
    graph.add_event(EdgeEvent("b", "c", "U", boundary))
    assert graph.has_edge_id(edge.edge_id), "eviction dropped a live edge"

    table = MatchTable()
    match = Match((0,), (edge,), t0, t0)
    table.insert(("a",), match)
    assert table.expire(t0) == 0, "expiry dropped a min_time == cutoff entry"
    assert list(table) == [match]


@settings(max_examples=40, deadline=None)
@given(width=widths, t0=starts)
def test_one_step_past_cutoff_expires_in_every_layer(width, t0):
    past = t0 + width + 1.0  # cutoff lands at t0 + 1.0 > t0, exactly

    window = TimeWindow(width)
    window.advance(t0)
    assert window.advance(past) == t0 + 1.0
    assert not window.is_live(t0)

    graph = StreamingGraph(window=width)
    edge = graph.add_event(EdgeEvent("a", "b", "T", t0))
    graph.add_event(EdgeEvent("b", "c", "U", past))
    assert not graph.has_edge_id(edge.edge_id)

    table = MatchTable()
    table.insert(("a",), Match((0,), (edge,), t0, t0))
    assert table.expire(t0 + 1.0) == 1
    assert list(table) == []


@settings(max_examples=40, deadline=None)
@given(
    width=st.floats(min_value=0.5, max_value=100.0, allow_nan=False),
    t_old=st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
    gap=st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
)
def test_graph_and_table_agree_with_window_for_arbitrary_floats(width, t_old, gap):
    """For *any* float timestamps the three layers share one verdict."""
    t_new = t_old + gap
    window = TimeWindow(width)
    window.advance(t_old)
    cutoff = window.advance(t_new)
    live = window.is_live(t_old)
    assert live == (t_old >= cutoff)

    graph = StreamingGraph(window=width)
    edge = graph.add_event(EdgeEvent("a", "b", "T", t_old))
    graph.add_event(EdgeEvent("b", "c", "U", t_new))
    assert graph.has_edge_id(edge.edge_id) == live

    table = MatchTable()
    table.insert(("a",), Match((0,), (edge,), t_old, t_old))
    table.expire(cutoff)
    assert (len(table) == 1) == live


@settings(max_examples=25, deadline=None)
@given(width=widths, t0=starts)
def test_snapshot_restore_preserves_boundary_partials(width, t0):
    """Checkpoint + restore at a cutoff-exact cut keeps boundary state.

    The snapshot save rule drops entries with ``min_time < cutoff``; an
    entry *at* the cutoff must survive the round trip, and one step past
    it must be gone — mirroring what eviction and expiry do to the live
    engine, so the restored engine's partial state never diverges.
    """
    boundary = t0 + width
    query = QueryGraph.path(["T", "U"], name="q")
    engine = ContinuousQueryEngine(window=width)
    engine.warmup(
        [
            EdgeEvent("w1", "w2", "T", 0.0),
            EdgeEvent("w2", "w3", "U", 0.0),
        ]
    )
    engine.register(query, strategy="Single", name="q")
    engine.process_event(EdgeEvent("a", "b", "T", t0))
    engine.process_event(EdgeEvent("x", "y", "U", boundary))
    assert engine.graph.window.cutoff == t0

    restored, _ = engine_from_bytes(engine_to_bytes(engine), [query])
    tree = engine.queries["q"].tree
    twin = restored.queries["q"].tree
    for node, twin_node in zip(tree.nodes, twin.nodes):
        kept = sorted(m.min_time for m in node.table if m.min_time >= t0)
        assert sorted(m.min_time for m in twin_node.table) == kept
    # the T-leaf anchor at exactly the cutoff is still present...
    assert restored.partial_match_count() == engine.partial_match_count()
    assert any(
        m.min_time == t0 for node in twin.nodes for m in node.table
    ), "restore lost the min_time == cutoff entry"

    # ...and one step past the cutoff all layers drop it together.
    for target in (engine, restored):
        target.process_event(EdgeEvent("p", "q", "U", boundary + 1.0))
        target.sweep()
    assert not engine.graph.has_edge_id(0)  # the t0 edge left the graph
    again, _ = engine_from_bytes(engine_to_bytes(engine), [query])
    for node, twin_node in zip(
        engine.queries["q"].tree.nodes, again.queries["q"].tree.nodes
    ):
        cutoff = engine.graph.window.cutoff
        kept = sorted(m.min_time for m in node.table if m.min_time >= cutoff)
        assert sorted(m.min_time for m in twin_node.table) == kept
    assert not any(
        m.min_time == t0
        for node in again.queries["q"].tree.nodes
        for m in node.table
    )
    assert restored.partial_match_count() == engine.partial_match_count()


@pytest.mark.parametrize("algorithm_class", [DynamicGraphSearch, LazySearch])
def test_live_counts_are_exact_after_a_sweep(algorithm_class):
    """After ``partial_match_count()`` / ``tree.expire(cutoff)`` every node
    holds exactly its matches with ``min_time >= cutoff`` — also when a
    stale match was stored *after* a still-live one, which interior
    tables (``min_time`` of a join is its oldest side's) produce freely."""
    query = QueryGraph.path(["A", "B", "C"], name="abc")
    tree = SJTree.from_leaf_partition(query, [(0,), (1,), (2,)])
    graph = StreamingGraph(window=8.0)
    search = algorithm_class(graph, tree)
    for src, dst, etype, ts in [
        ("a", "b", "A", 0.0),
        ("a2", "b", "A", 5.0),
        ("b", "c", "B", 6.0),  # joins both A edges: min_time 0, then 5
        ("b", "d", "B", 7.0),  # again: 0, then 5 — 0 now sits behind a 5
        ("x", "y", "A", 9.0),  # cutoff moves to 1: every min_time 0 is stale
    ]:
        search.process_edge(graph.add_edge(src, dst, etype, ts))
    cutoff = graph.window.cutoff
    assert cutoff == 1.0
    interior = tree.node(tree.node(tree.leaf_ids[0]).parent)
    assert sorted(m.min_time for m in interior.table) == [0.0, 0.0, 5.0, 5.0]

    assert search.partial_match_count() == 6  # A×2, B×2, (A,B)×2
    for node in tree.nodes:
        stored = list(node.table)
        assert all(match.min_time >= cutoff for match in stored)
        assert len(node.table) == len(stored)
    assert len(interior.table) == 2
    assert tree.expire(cutoff) == 0  # the count already swept everything
