"""Tests for the window-exact selectivity estimator."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import EdgeEvent, StreamingGraph
from repro.stats import (
    SelectivityEstimator,
    WindowedSelectivityEstimator,
    count_two_edge_paths,
    estimator as estimator_module,
    estimator_from_graph,
)


def ev(src, dst, etype, ts):
    return EdgeEvent(src, dst, etype, ts)


class TestWindowedEstimator:
    def test_behaves_like_base_with_infinite_window(self):
        events = [ev("a", "b", "T", 0.0), ev("b", "c", "U", 1.0)]
        windowed = WindowedSelectivityEstimator(window=float("inf"))
        plain = SelectivityEstimator()
        windowed.observe_events(events)
        plain.observe_events(events)
        assert windowed.edge_histogram.as_dict() == plain.edge_histogram.as_dict()
        assert windowed.path_counter.as_counter() == plain.path_counter.as_counter()

    def test_eviction_retracts_statistics(self):
        est = WindowedSelectivityEstimator(window=10.0)
        est.observe_event(ev("a", "b", "TCP", 0.0))
        est.observe_event(ev("b", "c", "UDP", 20.0))
        assert est.edge_selectivity("TCP") == 0.0
        assert est.edge_selectivity("UDP") == 1.0
        assert est.live_edges == 1

    def test_path_statistics_follow_the_window(self):
        est = WindowedSelectivityEstimator(window=5.0)
        est.observe_event(ev("a", "b", "T", 0.0))
        est.observe_event(ev("b", "c", "U", 1.0))
        assert est.path_counter.total == 1
        est.observe_event(ev("x", "y", "T", 100.0))
        assert est.path_counter.total == 0

    def test_boundary_matches_graph_eviction_rule(self):
        est = WindowedSelectivityEstimator(window=10.0)
        est.observe_event(ev("a", "b", "T", 0.0))
        est.observe_event(ev("c", "d", "U", 10.0))  # cutoff 0.0: ts 0.0 lives
        assert est.live_edges == 2

    def test_retract_all(self):
        est = WindowedSelectivityEstimator(window=100.0)
        est.observe_events([ev("a", "b", "T", 0.0), ev("b", "c", "T", 1.0)])
        est.retract_all()
        assert est.live_edges == 0
        assert est.edge_histogram.total == 0
        assert est.path_counter.total == 0

    def test_doctest_example(self):
        import doctest

        import repro.stats.windowed as module

        assert doctest.testmod(module).failed == 0


class TestAgainstLiveGraph:
    @settings(max_examples=40, deadline=None)
    @given(
        width=st.sampled_from([3.0, 8.0, 1e9]),
        raw=st.lists(
            st.tuples(
                st.integers(0, 4),
                st.integers(0, 4),
                st.sampled_from(["A", "B"]),
                st.integers(0, 3),
            ),
            min_size=1,
            max_size=35,
        ),
    )
    def test_windowed_stats_equal_graph_recomputation(self, width, raw):
        """The windowed estimator must equal batch recomputation over the
        live graph after every prefix of any stream."""
        est = WindowedSelectivityEstimator(window=width)
        graph = StreamingGraph(window=width)
        t = 0.0
        for src, dst, etype, dt in raw:
            t += dt
            event = EdgeEvent(f"n{src}", f"n{dst}", etype, t)
            graph.add_event(event)
            est.observe_event(event)
        assert est.live_edges == graph.num_edges
        assert est.edge_histogram.as_dict() == graph.snapshot_counts()
        assert est.path_counter.as_counter() == count_two_edge_paths(graph)
        fresh = estimator_from_graph(graph)
        for etype in ("A", "B"):
            assert est.edge_selectivity(etype) == pytest.approx(
                fresh.edge_selectivity(etype)
            )


class TestChunkedObserve:
    """``observe_events`` folds whole chunks in and retracts once per
    chunk; the window it ends in is the per-event one."""

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    @settings(max_examples=30, deadline=None)
    @given(
        width=st.sampled_from([3.0, 8.0, 1e9]),
        raw=st.lists(
            st.tuples(
                st.sampled_from([0, 1, 2, "0", "a"]),
                st.sampled_from([0, 1, 2, "0", "a"]),
                st.sampled_from(["A", "B"]),
                st.integers(0, 3),
            ),
            min_size=1,
            max_size=35,
        ),
        cut=st.integers(0, 35),
    )
    def test_chunked_equals_per_event_and_live_graph(self, chunk, width, raw, cut):
        events, t = [], 0.0
        for src, dst, etype, dt in raw:
            t += dt
            events.append(EdgeEvent(src, dst, etype, t))
        per_event = WindowedSelectivityEstimator(window=width)
        graph = StreamingGraph(window=width)
        for event in events:
            per_event.observe_event(event)
            graph.add_event(event)
        chunked = WindowedSelectivityEstimator(window=width)
        saved = estimator_module.OBSERVE_CHUNK
        estimator_module.OBSERVE_CHUNK = chunk
        try:
            # two calls, the second through a shared iterator
            shared = iter(events)
            consumed = chunked.observe_events(itertools.islice(shared, cut))
            consumed += chunked.observe_events(shared)
        finally:
            estimator_module.OBSERVE_CHUNK = saved
        assert consumed == len(events) == chunked.events_observed
        assert chunked.live_edges == per_event.live_edges == graph.num_edges
        assert chunked.window.cutoff == per_event.window.cutoff
        assert chunked.edge_histogram.as_dict() == graph.snapshot_counts()
        # same counts; vertex order may differ (a chunk adds before it
        # retracts, so a vertex emptied per event can survive in place)
        ours, theirs = (
            est.path_counter.export_state() for est in (chunked, per_event)
        )
        assert dict(ours[0]) == dict(theirs[0]) and ours[1] == theirs[1]
        assert chunked.path_counter.as_counter() == count_two_edge_paths(graph)
        chunked.retract_all()
        assert chunked.path_counter.export_state() == ([], [])

    def test_custom_map_keeps_the_window(self):
        est = WindowedSelectivityEstimator(
            window=5.0, map_edge=lambda edge, centre: edge.etype.lower()
        )
        est.observe_events(
            [ev("a", "b", "T", 0.0), ev("b", "c", "U", 1.0), ev("x", "b", "T", 6.5)]
        )
        assert est.live_edges == 1
        assert est.path_counter.export_state() == (
            [("x", [(("out", "t"), 1)]), ("b", [(("in", "t"), 1)])],
            [],
        )
