"""Property-based tests: streaming path counter ≡ Algorithm 5, under
arbitrary interleavings of insertions and window evictions."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.experiments import mixed_etype_stream
from repro.graph import Edge, EdgeEvent, StreamingGraph, columnar
from repro.stats import (
    SelectivityEstimator,
    TwoEdgePathCounter,
    count_two_edge_paths,
    estimator as estimator_module,
    paths as paths_module,
)


@st.composite
def windowed_streams(draw):
    n_vertices = draw(st.integers(min_value=2, max_value=6))
    n_edges = draw(st.integers(min_value=1, max_value=40))
    window = draw(st.sampled_from([3.0, 8.0, 1e9]))
    events = []
    t = 0.0
    for _ in range(n_edges):
        t += draw(st.integers(min_value=0, max_value=3))
        src = draw(st.integers(min_value=0, max_value=n_vertices - 1))
        dst = draw(st.integers(min_value=0, max_value=n_vertices - 1))
        etype = draw(st.sampled_from(["A", "B"]))
        events.append(EdgeEvent(src, dst, etype, float(t)))
    return events, window


@settings(max_examples=60, deadline=None)
@given(data=windowed_streams())
def test_streaming_counter_tracks_live_graph(data):
    events, window = data
    graph = StreamingGraph(window)
    counter = TwoEdgePathCounter()
    live = {}
    for event in events:
        edge = graph.add_event(event)  # may evict older edges
        # mirror the graph's evictions into the counter
        still_live = {e.edge_id for e in graph.edges()}
        for known_id in list(live):
            if known_id not in still_live:
                counter.remove_edge(live.pop(known_id))
        counter.add_edge(edge)
        live[edge.edge_id] = edge
    assert counter.as_counter() == count_two_edge_paths(graph)
    assert counter.total == sum(count_two_edge_paths(graph).values())


@settings(max_examples=40, deadline=None)
@given(data=windowed_streams())
def test_full_teardown_reaches_zero(data):
    events, _ = data
    graph = StreamingGraph()
    counter = TwoEdgePathCounter()
    edges = []
    for event in events:
        edge = graph.add_event(event)
        counter.add_edge(edge)
        edges.append(edge)
    for edge in reversed(edges):
        counter.remove_edge(edge)
    assert counter.total == 0
    assert len(counter) == 0
    assert counter.as_counter() == {}


@settings(max_examples=40, deadline=None)
@given(data=windowed_streams())
def test_counts_are_non_negative_and_consistent(data):
    events, _ = data
    graph = StreamingGraph()
    counter = TwoEdgePathCounter()
    for event in events:
        counter.add_edge(graph.add_event(event))
    assert all(c > 0 for _, c in counter.distribution())
    assert counter.total == sum(c for _, c in counter.distribution())
    for signature, _ in counter.distribution():
        assert counter.seen(signature)
        assert 0.0 < counter.selectivity(signature) <= 1.0


# ---------------------------------------------------------------------------
# the maintained state is the per-vertex token counts; every read of the
# derived table must equal Algorithm 5 over the live multigraph, however
# the edges got in (per edge, in chunks of any size) and out
# ---------------------------------------------------------------------------

BACKENDS = ["python"] + (["numpy"] if columnar._NUMPY is not None else [])
VERTICES = [0, 1, 2, "0", "1", "x"]  # ints and strs that must not collide


@pytest.fixture(params=BACKENDS)
def backend(request):
    columnar.set_backend(request.param)
    yield request.param
    columnar.set_backend("auto")


def fold_ports(edge, centre):
    """A non-identity ``Map()``: the label depends on the centre too."""
    return f"{edge.etype}@{'even' if hash(centre) % 2 == 0 else 'odd'}"


def as_edge(event):
    return Edge(-1, event.src, event.dst, event.etype, event.timestamp)


def live_graph(live):
    graph = StreamingGraph()
    for at, event in enumerate(live):
        graph.add_event(EdgeEvent(event.src, event.dst, event.etype, float(at)))
    return graph


events_st = st.builds(
    EdgeEvent,
    st.sampled_from(VERTICES),
    st.sampled_from(VERTICES),  # src == dst: self-loops; repeats: parallel edges
    st.sampled_from(["A", "B", "C"]),
    st.just(0.0),
)
operations_st = st.lists(
    st.one_of(
        st.tuples(st.just("add"), events_st),
        st.tuples(st.just("remove"), st.integers(0, 10**6)),
        st.tuples(st.just("observe"), st.lists(events_st, max_size=12)),
        st.tuples(st.just("read"), st.none()),
    ),
    max_size=30,
)


@pytest.mark.parametrize("chunk", [1, 7, 4096])
@pytest.mark.parametrize("map_edge", [None, fold_ports])
@settings(
    max_examples=40,
    deadline=None,
    # backend and chunk size are fixed for the whole test, not per example
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(operations=operations_st)
def test_any_interleaving_reads_algorithm_5(
    backend, monkeypatch, chunk, map_edge, operations
):
    monkeypatch.setattr(estimator_module, "OBSERVE_CHUNK", chunk)
    kwargs = {} if map_edge is None else {"map_edge": map_edge}
    estimator = SelectivityEstimator(**kwargs)
    counter = estimator.path_counter
    live = []

    def check():
        expected = count_two_edge_paths(live_graph(live), **kwargs)
        total = sum(expected.values())
        assert counter.as_counter() == expected
        assert counter.total == total
        assert len(counter) == len(expected)
        assert list(counter.signatures()) == sorted(expected)
        for signature, count in expected.items():
            assert counter.seen(signature)
            assert counter.count(signature) == count
            assert counter.selectivity(signature) == count / total
        histogram = {}
        for event in live:
            histogram[event.etype] = histogram.get(event.etype, 0) + 1
        assert estimator.edge_histogram.as_dict() == histogram

    for kind, payload in operations:
        if kind == "add":
            estimator.observe(as_edge(payload))
            live.append(payload)
        elif kind == "remove" and live:
            gone = live.pop(payload % len(live))
            counter.remove_edge(as_edge(gone))
            estimator.edge_histogram.remove(gone.etype)
        elif kind == "observe":
            assert estimator.observe_events(iter(payload)) == len(payload)
            live.extend(payload)
        elif kind == "read":
            check()
    check()
    # removal down to empty vertices: the table empties with the graph
    for event in live:
        counter.remove_edge(as_edge(event))
    assert counter.total == 0 and len(counter) == 0
    assert counter.export_state() == ([], [])


@pytest.mark.parametrize("chunk", [1, 7, 4096])
def test_observe_events_pulls_exactly_what_it_counts(backend, monkeypatch, chunk):
    """``ShardedTarget`` hands ``warmup()`` an ``islice`` of the iterator
    ``run()`` continues: not one event more may be taken from it."""
    monkeypatch.setattr(estimator_module, "OBSERVE_CHUNK", chunk)
    events = [EdgeEvent(i % 5, (i * 3) % 7, "AB"[i % 2], float(i)) for i in range(40)]
    shared = iter(events)
    estimator = SelectivityEstimator()
    assert estimator.observe_events(itertools.islice(shared, 15)) == 15
    assert estimator.events_observed == 15
    assert next(shared) is events[15]
    whole = SelectivityEstimator()
    for event in events[:15]:
        whole.observe_event(event)
    assert estimator.path_counter.export_state() == whole.path_counter.export_state()
    assert estimator.edge_histogram.as_dict() == whole.edge_histogram.as_dict()


def test_warmup_derives_the_table_once_per_batch(backend, monkeypatch):
    """Operation count, not a timer: the signature table is built
    O(#signatures) per derive, never O(events x tokens at the endpoint)."""
    calls = [0]
    real = paths_module.make_signature

    def counting(token_a, token_b):
        calls[0] += 1
        return real(token_a, token_b)

    monkeypatch.setattr(paths_module, "make_signature", counting)
    events = mixed_etype_stream(5000, num_etypes=24, seed=5)
    estimator = SelectivityEstimator()
    estimator.observe_events(events)
    signatures = len(estimator.path_counter)
    assert signatures > 24
    assert 0 < calls[0] <= 10 * signatures
    assert estimator.path_counter.total == sum(
        count_two_edge_paths(live_graph(events)).values()
    )
