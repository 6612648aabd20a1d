"""The window's indexes against a brute-force recomputation, after every event.

``StreamingGraph`` keeps no per-edge store besides its arrival ring and
the per-(vertex, type) buckets, and a vertex lives exactly while it has
a bucket. Every accessor is therefore derived state that must agree with
what the live edges alone imply. These properties check that after each
ingested event, on every ingest path — the reference ``process_event``
and the fused chunk loop behind ``process_events`` / ``process_rows`` at
several chunk widths — including a type-filtered graph with pinned,
non-contiguous edge ids (a sharded worker's view). The streams hold
self-loops, vertices that leave the window and come back, and a hub
bucket that outgrows the list-to-deque promotion point, drains to empty
and is created again.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import ContinuousQueryEngine
from repro.graph import EdgeEvent
from repro.graph.streaming_graph import PROMOTE_AT
from repro.graph.types import VOCABULARY

ETYPES = ("A", "B", "C")
#: the type-filtered graph keeps these (a worker whose queries use them)
KEPT = ("A", "B")
WINDOW = 10.0
HUB_EDGES = PROMOTE_AT + 16


@st.composite
def streams(draw):
    """A random prefix, then a hub phase: one (vertex, type) bucket grows
    past the promotion point, drains over several events, and reappears."""
    n_vertices = draw(st.integers(min_value=2, max_value=6))
    events = []
    t = 0.0
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        t += draw(st.sampled_from([0.0, 0.5, 1.0, 3.0, 12.0]))
        src = f"n{draw(st.integers(0, n_vertices - 1))}"
        dst = f"n{draw(st.integers(0, n_vertices - 1))}"  # loops allowed
        events.append(
            EdgeEvent(
                src,
                dst,
                draw(st.sampled_from(ETYPES)),
                t,
                draw(st.sampled_from(["ip", "host"])),
                draw(st.sampled_from(["ip", "host"])),
            )
        )
    t += WINDOW + 1  # the prefix leaves the window: its vertices go
    events.append(EdgeEvent("hub", "hub", "B", t))  # a self-loop on the hub
    for i in range(HUB_EDGES):
        events.append(EdgeEvent("hub", f"n{i % n_vertices}", "A", t + i * 0.05))
    for step in range(1, 6):  # each event evicts a slice of the hub bucket
        events.append(EdgeEvent("n0", "n1", "B", t + WINDOW + step * 0.9))
    t += 3 * WINDOW  # the hub left the window entirely; now it comes back
    events.append(EdgeEvent("hub", "n0", "A", t, "host", "ip"))
    events.append(EdgeEvent("n0", "hub", "A", t + 1))
    return events


class Model:
    """What the live edges imply, plus λV's first-sight order and types."""

    def __init__(self, events_by_id):
        self.events_by_id = events_by_id
        self.types: dict = {}  # live vertex -> type, in first-sight order

    def check(self, graph, edge) -> None:
        live = list(graph.edges())
        assert live[-1] is edge  # the hook runs right after the insert
        ids = [e.edge_id for e in live]
        assert ids == sorted(ids)
        # λV: vertices left behind by eviction go, the new edge's endpoints
        # are typed on first sight, src before dst
        endpoints = {v for e in live[:-1] for v in (e.src, e.dst)}
        self.types = {v: t for v, t in self.types.items() if v in endpoints}
        event = self.events_by_id[edge.edge_id]
        self.types.setdefault(event.src, event.src_type)
        self.types.setdefault(event.dst, event.dst_type)
        assert list(graph.vertices()) == list(self.types)
        assert graph.num_vertices == len(self.types)
        for vertex, vtype in self.types.items():
            assert vertex in graph
            assert graph.vertex_type(vertex) == vtype

        assert len(graph) == graph.num_edges == len(live)
        out: dict = {}
        into: dict = {}
        for e in live:
            out.setdefault(e.src, {}).setdefault(e.etype_code, []).append(e)
            into.setdefault(e.dst, {}).setdefault(e.etype_code, []).append(e)
        assert _buckets(graph._out) == out  # no empty bucket or dict either
        assert _buckets(graph._in) == into

        for etype in (*ETYPES, "missing"):
            typed = [e for e in live if e.etype == etype]
            assert graph.count_of_type(etype) == len(typed)
            code = VOCABULARY.etype_code_if_known(etype)
            if code is not None:
                non_loops = sum(e.src != e.dst for e in typed)
                assert graph.non_loop_count_code(code) == non_loops

        degrees = {v: sum(v in (e.src, e.dst) for e in live) for v in self.types}
        for vertex, degree in degrees.items():
            assert graph.degree(vertex) == degree
        assert graph.degree("ghost") == 0
        expected_avg = sum(degrees.values()) / len(degrees)
        assert graph.average_degree() == pytest.approx(expected_avg)

        for e in live:
            assert graph.edge_by_id(e.edge_id) is e
        live_ids = set(ids)
        for edge_id in range(ids[0] - 2, ids[-1] + 3):
            assert graph.has_edge_id(edge_id) == (edge_id in live_ids)


def _buckets(index) -> dict:
    return {v: {c: list(b) for c, b in by_code.items()} for v, by_code in index.items()}


def _run(events, feed: str, chunk_size: int, filtered: bool) -> int:
    """Ingest through one path, checking the graph after every event;
    return how many events were checked."""
    # rows keep their global stream positions as ids, so a filtered
    # stream's ids have gaps; an event list always numbers from 0
    rows = [
        (i, e.src, e.dst, e.etype, e.timestamp, e.src_type, e.dst_type)
        for i, e in enumerate(events)
        if not filtered or e.etype in KEPT
    ]
    kept = [EdgeEvent(*row[1:]) for row in rows]
    pinned = feed == "process_rows" or (feed == "process_event" and filtered)
    by_id = {row[0]: e for row, e in zip(rows, kept)}
    model = Model(by_id if pinned else dict(enumerate(kept)))
    engine = ContinuousQueryEngine(window=WINDOW, chunk_size=chunk_size)
    checked = []

    def observe(edge):  # the engine's per-edge statistics hook
        model.check(engine.graph, edge)
        checked.append(edge.edge_id)

    engine.update_statistics = True
    engine.estimator.observe = observe
    if feed == "process_event":
        for row, event in zip(rows, kept):
            engine.process_event(event, edge_id=row[0] if pinned else None)
    elif feed == "process_events":
        engine.process_events(kept)
    else:
        engine.process_rows(rows)
    assert len(checked) == len(kept)
    return len(checked)


FEEDS = [("process_event", 1)] + [
    (feed, size) for feed in ("process_events", "process_rows") for size in (1, 7, 1024)
]


@pytest.mark.parametrize("filtered", [False, True], ids=["full", "filtered"])
@pytest.mark.parametrize(("feed", "chunk_size"), FEEDS)
@settings(max_examples=12, deadline=None)
@given(events=streams())
def test_indexes_match_the_live_edges(events, feed, chunk_size, filtered):
    assert _run(events, feed, chunk_size, filtered) > HUB_EDGES
