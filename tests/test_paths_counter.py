"""Unit tests for Algorithm 5 and the streaming 2-edge path counter."""

from collections import Counter

import pytest

from repro.graph import IN, OUT
from repro.query import QueryGraph
from repro.stats import (
    TwoEdgePathCounter,
    count_two_edge_paths,
    fragment_signature,
    make_signature,
    make_token,
    query_path_signatures,
)

from .util import graph_from_tuples


def sig(d1, t1, d2, t2):
    return make_signature(make_token(d1, t1), make_token(d2, t2))


class TestTokens:
    def test_make_token_validates_direction(self):
        with pytest.raises(ValueError):
            make_token("sideways", "T")

    def test_signature_is_order_independent(self):
        a = make_token(OUT, "T")
        b = make_token(IN, "U")
        assert make_signature(a, b) == make_signature(b, a)


class TestBatchAlgorithm5:
    def test_single_path(self):
        graph = graph_from_tuples([("a", "b", "T"), ("b", "c", "U")])
        counts = count_two_edge_paths(graph)
        assert counts == Counter({sig(IN, "T", OUT, "U"): 1})

    def test_same_type_pairs_use_binomial(self):
        # three U edges leaving b: C(3,2) = 3 paths centred at b
        graph = graph_from_tuples([("b", "c", "U"), ("b", "d", "U"), ("b", "e", "U")])
        counts = count_two_edge_paths(graph)
        assert counts[sig(OUT, "U", OUT, "U")] == 3

    def test_cross_type_pairs_multiply(self):
        graph = graph_from_tuples(
            [("b", "c", "U"), ("b", "d", "U"), ("a", "b", "T"), ("x", "b", "T")]
        )
        counts = count_two_edge_paths(graph)
        assert counts[sig(IN, "T", OUT, "U")] == 4
        assert counts[sig(IN, "T", IN, "T")] == 1
        assert counts[sig(OUT, "U", OUT, "U")] == 1

    def test_both_endpoints_contribute(self):
        # parallel edges a->b: a 2-edge path at centre a AND at centre b
        graph = graph_from_tuples([("a", "b", "T"), ("a", "b", "T")])
        counts = count_two_edge_paths(graph)
        assert counts[sig(OUT, "T", OUT, "T")] == 1
        assert counts[sig(IN, "T", IN, "T")] == 1

    def test_custom_map_function(self):
        graph = graph_from_tuples([("a", "b", "T"), ("b", "c", "U")])
        counts = count_two_edge_paths(graph, map_edge=lambda e, c: "any")
        assert counts == Counter({sig(IN, "any", OUT, "any"): 1})

    def test_empty_graph(self):
        graph = graph_from_tuples([])
        assert count_two_edge_paths(graph) == Counter()


class TestStreamingCounter:
    def test_matches_batch_on_growth(self):
        rows = [
            ("a", "b", "T"),
            ("b", "c", "U"),
            ("c", "a", "T"),
            ("b", "d", "U"),
            ("a", "b", "T"),
        ]
        graph = graph_from_tuples([])
        counter = TwoEdgePathCounter()
        streamed = graph_from_tuples(rows)
        for edge in streamed.edges():
            counter.add_edge(edge)
        assert counter.as_counter() == count_two_edge_paths(streamed)
        assert counter.total == sum(count_two_edge_paths(streamed).values())

    def test_removal_reverses_addition(self):
        rows = [("a", "b", "T"), ("b", "c", "U"), ("c", "a", "T")]
        graph = graph_from_tuples(rows)
        counter = TwoEdgePathCounter()
        edges = list(graph.edges())
        for edge in edges:
            counter.add_edge(edge)
        for edge in edges:
            counter.remove_edge(edge)
        assert counter.total == 0
        assert len(counter) == 0

    def test_partial_removal_stays_consistent(self):
        rows = [("a", "b", "T"), ("b", "c", "U"), ("a", "c", "T"), ("c", "d", "U")]
        full = graph_from_tuples(rows)
        counter = TwoEdgePathCounter()
        edges = list(full.edges())
        for edge in edges:
            counter.add_edge(edge)
        counter.remove_edge(edges[1])
        remaining = graph_from_tuples([rows[0], rows[2], rows[3]])
        assert counter.as_counter() == count_two_edge_paths(remaining)

    def test_remove_unknown_token_raises(self):
        counter = TwoEdgePathCounter()
        graph = graph_from_tuples([("a", "b", "T")])
        with pytest.raises(ValueError):
            counter.remove_edge(next(graph.edges()))

    def test_selectivity_and_seen(self):
        counter = TwoEdgePathCounter()
        graph = graph_from_tuples([("a", "b", "T"), ("b", "c", "U"), ("b", "d", "U")])
        for edge in graph.edges():
            counter.add_edge(edge)
        s = sig(IN, "T", OUT, "U")
        assert counter.seen(s)
        assert counter.count(s) == 2
        assert counter.selectivity(s) == pytest.approx(2 / 3)
        assert not counter.seen(sig(IN, "X", OUT, "X"))
        assert counter.selectivity(sig(IN, "X", OUT, "X")) == 0.0

    def test_distribution_ascending(self):
        counter = TwoEdgePathCounter()
        graph = graph_from_tuples(
            [("a", "b", "T"), ("b", "c", "U"), ("b", "d", "U"), ("b", "e", "U")]
        )
        for edge in graph.edges():
            counter.add_edge(edge)
        dist = counter.distribution()
        counts = [c for _, c in dist]
        assert counts == sorted(counts)

    def test_self_loop_single_token(self):
        graph = graph_from_tuples([("a", "a", "T"), ("a", "b", "U")])
        counter = TwoEdgePathCounter()
        for edge in graph.edges():
            counter.add_edge(edge)
        assert counter.as_counter() == count_two_edge_paths(graph)


class TestMaintainedState:
    """The counter keeps per-vertex token counts; the table is derived."""

    ROWS = [
        ("a", "b", "T"),
        ("b", "c", "U"),
        ("b", "b", "T"),  # self-loop
        ("a", "b", "T"),  # parallel edge
        (1, "b", "U"),  # int id among strs
    ]

    def filled(self):
        counter = TwoEdgePathCounter()
        graph = graph_from_tuples(self.ROWS)
        for edge in graph.edges():
            counter.add_edge(edge)
        return counter, graph

    def test_add_columns_equals_add_edge(self):
        counter, graph = self.filled()
        columns = TwoEdgePathCounter()
        edges = list(graph.edges())
        columns.add_columns(
            [e.src for e in edges],
            [e.dst for e in edges],
            [((OUT, e.etype), (IN, e.etype)) for e in edges],
        )
        assert columns.export_state() == counter.export_state()
        assert columns.as_counter() == count_two_edge_paths(graph)

    def test_export_is_canonical_and_round_trips(self):
        counter, graph = self.filled()
        per_vertex, table = counter.export_state()
        assert [vertex for vertex, _ in per_vertex] == ["a", "b", "c", 1]
        assert all(tokens == sorted(tokens) for _, tokens in per_vertex)
        assert table == sorted(count_two_edge_paths(graph).items())
        restored = TwoEdgePathCounter()
        restored.load_state(per_vertex, table)
        assert restored.export_state() == (per_vertex, table)
        assert restored.total == counter.total
        # the restored counter keeps streaming
        edge = next(graph.edges())
        restored.remove_edge(edge)
        counter.remove_edge(edge)
        assert restored.export_state() == counter.export_state()

    def test_emptied_vertex_leaves_no_trace(self):
        counter, graph = self.filled()
        for edge in graph.edges():
            counter.remove_edge(edge)
        assert counter.export_state() == ([], [])
        with pytest.raises(ValueError):
            counter.remove_edge(next(graph.edges()))

    @pytest.mark.parametrize(
        "per_vertex, table, message",
        [
            ([("a", [((OUT, "T"), 2)])], [], "disagrees"),
            ([("a", [((OUT, "T"), 2)])], [(sig(OUT, "T", OUT, "T"), 2)], "disagrees"),
            (
                [("a", [((OUT, "T"), 2)])],
                [(sig(OUT, "T", OUT, "T"), 1), (sig(OUT, "T", OUT, "U"), 0)],
                "disagrees",
            ),
            ([("a", [((OUT, "T"), 1), ((OUT, "T"), 1)])], [], "repeated"),
            ([("a", [((OUT, "T"), 0)])], [], "below 1"),
            ([("a", [((OUT, "T"), 2), ((IN, "T"), -1)])], [], "below 1"),
            ([("a", [])], [], "below 1"),
            ([("a", [((OUT, "T"), 1)]), ("a", [((IN, "T"), 1)])], [], "repeated"),
            ([("a", [(("up", "T"), 1)])], [], "direction"),
        ],
    )
    def test_load_state_rejects_inconsistent_state(self, per_vertex, table, message):
        with pytest.raises(ValueError, match=message):
            TwoEdgePathCounter().load_state(per_vertex, table)


class TestQuerySignatures:
    def test_path_query_signatures(self):
        query = QueryGraph.path(["T", "U"])
        assert query_path_signatures(query) == [sig(IN, "T", OUT, "U")]

    def test_star_query_signatures(self):
        query = QueryGraph.from_triples([(0, "T", 1), (0, "U", 2), (0, "V", 3)])
        found = set(query_path_signatures(query))
        assert found == {
            sig(OUT, "T", OUT, "U"),
            sig(OUT, "T", OUT, "V"),
            sig(OUT, "U", OUT, "V"),
        }

    def test_single_edge_has_none(self):
        assert query_path_signatures(QueryGraph.path(["T"])) == []


class TestFragmentSignature:
    def test_two_edge_path_fragment(self):
        query = QueryGraph.path(["T", "U"])
        assert fragment_signature(query) == sig(IN, "T", OUT, "U")

    def test_one_edge_fragment_is_none(self):
        assert fragment_signature(QueryGraph.path(["T"])) is None

    def test_disjoint_edges_is_none(self):
        query = QueryGraph()
        query.add_edge(0, 1, "T")
        query.add_edge(2, 3, "U")
        assert fragment_signature(query) is None
