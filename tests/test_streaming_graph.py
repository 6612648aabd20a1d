"""Unit tests for the streaming graph store."""

import math
from collections import deque

import pytest

from repro import ContinuousQueryEngine
from repro.errors import EdgeNotFoundError, GraphError, VertexNotFoundError
from repro.graph import EdgeEvent, StreamingGraph, streaming_graph
from repro.query import QueryGraph
from repro.search import engine as engine_module

from .util import graph_from_tuples


class TestInsertion:
    def test_add_edge_returns_stored_edge(self):
        graph = StreamingGraph()
        edge = graph.add_edge("a", "b", "TCP", 1.0, "ip", "ip")
        assert edge.edge_id == 0
        assert edge.src == "a" and edge.dst == "b"
        assert graph.num_edges == 1
        assert graph.num_vertices == 2

    def test_edge_ids_are_sequential(self):
        graph = graph_from_tuples([("a", "b", "T"), ("b", "c", "T")])
        assert [e.edge_id for e in graph.edges()] == [0, 1]

    def test_multi_edges_are_kept(self):
        graph = graph_from_tuples([("a", "b", "T"), ("a", "b", "T")])
        assert graph.num_edges == 2
        assert len(list(graph.out_edges("a", "T"))) == 2

    def test_out_of_order_events_rejected(self):
        graph = StreamingGraph()
        graph.add_edge("a", "b", "T", 5.0)
        with pytest.raises(GraphError, match="out-of-order"):
            graph.add_edge("b", "c", "T", 4.0)

    def test_vertex_type_first_sight_wins(self):
        graph = StreamingGraph()
        graph.add_event(EdgeEvent("a", "b", "T", 0.0, "ip", "ip"))
        graph.add_event(EdgeEvent("a", "c", "T", 1.0, "host", "host"))
        assert graph.vertex_type("a") == "ip"
        assert graph.vertex_type("c") == "host"

    def test_self_loop(self):
        graph = graph_from_tuples([("a", "a", "T")])
        assert graph.degree("a") == 1
        assert len(list(graph.incident_edges("a"))) == 1


class TestAccessors:
    def test_unknown_vertex_raises(self):
        with pytest.raises(VertexNotFoundError):
            StreamingGraph().vertex_type("nope")

    def test_unknown_edge_raises(self):
        with pytest.raises(EdgeNotFoundError):
            StreamingGraph().edge_by_id(3)

    def test_edge_by_id(self):
        graph = graph_from_tuples([("a", "b", "T")])
        assert graph.edge_by_id(0).src == "a"
        assert graph.has_edge_id(0)
        assert not graph.has_edge_id(1)

    def test_typed_adjacency(self):
        graph = graph_from_tuples([("a", "b", "T"), ("a", "c", "U"), ("d", "a", "T")])
        assert {e.dst for e in graph.out_edges("a")} == {"b", "c"}
        assert {e.dst for e in graph.out_edges("a", "T")} == {"b"}
        assert {e.src for e in graph.in_edges("a", "T")} == {"d"}
        assert set(graph.out_types("a")) == {"T", "U"}
        assert set(graph.in_types("a")) == {"T"}

    def test_incident_edges_reports_self_loop_once(self):
        graph = graph_from_tuples([("a", "a", "T"), ("a", "b", "T")])
        assert len(list(graph.incident_edges("a"))) == 2

    def test_edges_of_type_and_counts(self):
        graph = graph_from_tuples([("a", "b", "T"), ("b", "c", "U"), ("c", "d", "T")])
        assert graph.count_of_type("T") == 2
        assert graph.count_of_type("missing") == 0
        assert {e.etype for e in graph.edges_of_type("T")} == {"T"}
        assert set(graph.edge_types()) == {"T", "U"}

    def test_degree_and_average(self):
        graph = graph_from_tuples([("a", "b", "T"), ("a", "c", "T")])
        assert graph.degree("a") == 2
        assert graph.degree("b") == 1
        assert graph.degree("ghost") == 0
        assert graph.average_degree() == pytest.approx(4 / 3)

    def test_average_degree_empty(self):
        assert StreamingGraph().average_degree() == 0.0

    def test_contains_and_len(self):
        graph = graph_from_tuples([("a", "b", "T")])
        assert "a" in graph and "z" not in graph
        assert len(graph) == 1

    def test_snapshot_counts(self):
        graph = graph_from_tuples([("a", "b", "T"), ("b", "c", "T"), ("c", "d", "U")])
        assert graph.snapshot_counts() == {"T": 2, "U": 1}


class TestEviction:
    def test_expired_edges_are_dropped(self):
        graph = StreamingGraph(window=10.0)
        graph.add_edge("a", "b", "T", 0.0)
        graph.add_edge("b", "c", "T", 5.0)
        graph.add_edge("c", "d", "T", 11.0)  # cutoff becomes 1.0
        assert graph.num_edges == 2
        assert not graph.has_edge_id(0)
        assert graph.evicted_edges == 1
        assert graph.total_edges_seen == 3

    def test_vertex_removed_when_disconnected(self):
        graph = StreamingGraph(window=5.0)
        graph.add_edge("a", "b", "T", 0.0)
        graph.add_edge("c", "d", "T", 10.0)
        assert "a" not in graph and "b" not in graph
        assert graph.num_vertices == 2

    def test_edge_exactly_at_cutoff_survives(self):
        graph = StreamingGraph(window=10.0)
        graph.add_edge("a", "b", "T", 0.0)
        graph.add_edge("b", "c", "T", 10.0)  # cutoff = 0.0; ts 0.0 >= cutoff
        assert graph.num_edges == 2

    def test_adjacency_cleaned_after_eviction(self):
        graph = StreamingGraph(window=1.0)
        graph.add_edge("a", "b", "T", 0.0)
        graph.add_edge("x", "y", "T", 10.0)
        assert list(graph.out_edges("a")) == []
        assert graph.count_of_type("T") == 1

    def test_infinite_window_never_evicts(self):
        graph = StreamingGraph()
        for i in range(50):
            graph.add_edge(i, i + 1, "T", float(i))
        assert graph.num_edges == 50
        assert graph.evicted_edges == 0


class TestNeighborhood:
    def test_hops(self):
        graph = graph_from_tuples(
            [("a", "b", "T"), ("b", "c", "T"), ("c", "d", "T"), ("x", "y", "T")]
        )
        assert graph.neighborhood("a", 1) == {"a", "b"}
        assert graph.neighborhood("a", 2) == {"a", "b", "c"}
        assert graph.neighborhood("a", 9) == {"a", "b", "c", "d"}

    def test_direction_ignored(self):
        graph = graph_from_tuples([("b", "a", "T")])
        assert graph.neighborhood("a", 1) == {"a", "b"}

    def test_missing_vertex(self):
        assert StreamingGraph().neighborhood("a", 3) == set()


class TestInducedCopy:
    def test_preserves_edge_ids(self):
        graph = graph_from_tuples([("a", "b", "T"), ("b", "c", "T"), ("c", "d", "T")])
        sub = graph.induced_copy({"a", "b", "c"})
        assert sorted(e.edge_id for e in sub.edges()) == [0, 1]
        assert sub.num_vertices == 3
        assert sub.vertex_type("a") == "node"

    def test_excludes_boundary_edges(self):
        graph = graph_from_tuples([("a", "b", "T"), ("b", "c", "T")])
        sub = graph.induced_copy({"a", "b"})
        assert sub.num_edges == 1

    def test_copy_is_unwindowed(self):
        graph = graph_from_tuples([("a", "b", "T", 0.0)], window=5.0)
        sub = graph.induced_copy({"a", "b"})
        assert math.isinf(sub.window.width)

    def test_adjacency_in_copy_works(self):
        graph = graph_from_tuples([("a", "b", "T"), ("b", "c", "U")])
        sub = graph.induced_copy({"a", "b", "c"})
        assert {e.dst for e in sub.out_edges("b", "U")} == {"c"}


class TestHubBucket:
    """An eviction that finds a list bucket longer than ``PROMOTE_AT``
    turns it into a deque, so a hub vertex keeps O(1) eviction; nothing a
    caller can observe depends on which kind a bucket is."""

    WINDOW = 100.0

    def _hub_stream(self) -> list:
        """``hub -A-> v_i`` every tick, ``w_i -B-> hub`` every tenth: the
        hub's A bucket holds ~100 edges once the window is full."""
        events = []
        for i in range(400):
            events.append(EdgeEvent("hub", f"v{i}", "A", float(i)))
            if i % 10 == 0:
                events.append(EdgeEvent(f"w{i}", "hub", "B", float(i)))
        return events

    def test_bucket_is_a_deque_once_promoted(self):
        at = streaming_graph.PROMOTE_AT
        graph = StreamingGraph(window=self.WINDOW)
        for i in range(at + 1):
            graph.add_edge("hub", f"v{i}", "A", float(i))
        assert type(graph.out_edges("hub", "A")) is list
        graph.add_edge("x", "y", "B", self.WINDOW + 0.5)  # evicts the t=0 edge
        bucket = graph.out_edges("hub", "A")
        assert type(bucket) is deque
        assert [e.edge_id for e in bucket] == list(range(1, at + 1))

    @pytest.mark.parametrize("per_event", [False, True], ids=["chunk", "event"])
    def test_records_identical_across_the_promotion(self, per_event, monkeypatch):
        def run():
            events = self._hub_stream()
            engine = ContinuousQueryEngine(window=self.WINDOW, chunk_size=64)
            engine.warmup(events)
            # joined on the hub: the A leaf reads the hub's out-bucket
            engine.register(QueryGraph.path(["B", "A"]), strategy="Single", name="q")
            if per_event:
                records = [r for e in events for r in engine.process_event(e)]
            else:
                records = engine.process_events(events)
            bucket = engine.graph.out_edges("hub", "A")
            projected = [(r.match.fingerprint, r.completed_at) for r in records]
            return projected, type(bucket)

        promoted, kind = run()
        assert kind is deque
        for module in (streaming_graph, engine_module):
            monkeypatch.setattr(module, "PROMOTE_AT", math.inf)
        unpromoted, kind = run()
        assert kind is list
        assert len(promoted) > 1000
        assert promoted == unpromoted
