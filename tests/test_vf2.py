"""Unit tests for the VF2 matcher."""

import random

import pytest

from repro.graph import TimeWindow
from repro.isomorphism import count_isomorphisms, find_isomorphisms
from repro.query import QueryGraph

from .util import brute_force_matches, fingerprints, graph_from_tuples


class TestBasics:
    def test_single_edge(self):
        graph = graph_from_tuples([("a", "b", "T"), ("c", "d", "U")])
        query = QueryGraph.path(["T"])
        assert fingerprints(find_isomorphisms(graph, query)) == {((0, 0),)}

    def test_empty_query_has_no_matches(self):
        graph = graph_from_tuples([("a", "b", "T")])
        assert find_isomorphisms(graph, QueryGraph()) == []

    def test_path_query(self):
        graph = graph_from_tuples([("a", "b", "T"), ("b", "c", "U"), ("b", "d", "U")])
        query = QueryGraph.path(["T", "U"])
        assert count_isomorphisms(graph, query) == 2

    def test_vertex_types_respected(self):
        graph = graph_from_tuples(
            [("a", "b", "T", 0.0, "ip", "ip"), ("c", "d", "T", 1.0, "ip", "host")]
        )
        query = QueryGraph.path(["T"], vtype="ip")
        assert fingerprints(find_isomorphisms(graph, query)) == {((0, 0),)}

    def test_binding_restricts_candidates(self):
        graph = graph_from_tuples([("a", "b", "T"), ("c", "b", "T")])
        query = QueryGraph()
        query.add_vertex(0, binding="c")
        query.add_edge(0, 1, "T")
        assert fingerprints(find_isomorphisms(graph, query)) == {((0, 1),)}

    def test_limit(self):
        graph = graph_from_tuples([("a", f"b{i}", "T") for i in range(20)])
        query = QueryGraph.path(["T"])
        assert len(find_isomorphisms(graph, query, limit=5)) == 5


class TestMultigraphSemantics:
    def test_parallel_data_edges_enumerate(self):
        graph = graph_from_tuples([("a", "b", "T"), ("a", "b", "T")])
        query = QueryGraph.path(["T"])
        assert count_isomorphisms(graph, query) == 2

    def test_parallel_query_edges_need_distinct_data_edges(self):
        query = QueryGraph()
        query.add_edge(0, 1, "T")
        query.add_edge(0, 1, "T")
        one = graph_from_tuples([("a", "b", "T")])
        two = graph_from_tuples([("a", "b", "T"), ("a", "b", "T")])
        assert count_isomorphisms(one, query) == 0
        assert count_isomorphisms(two, query) == 2  # both orderings

    def test_triangle(self):
        graph = graph_from_tuples(
            [("a", "b", "T"), ("b", "c", "T"), ("c", "a", "T"), ("a", "c", "T")]
        )
        triangle = QueryGraph.from_triples([(0, "T", 1), (1, "T", 2), (2, "T", 0)])
        got = fingerprints(find_isomorphisms(graph, triangle))
        assert got == brute_force_matches(graph, triangle)

    def test_self_loops(self):
        graph = graph_from_tuples([("a", "a", "T"), ("a", "b", "U")])
        query = QueryGraph()
        query.add_edge(0, 0, "T")
        query.add_edge(0, 1, "U")
        got = fingerprints(find_isomorphisms(graph, query))
        assert got == brute_force_matches(graph, query)
        assert got == {((0, 0), (1, 1))}


class TestWindowFilter:
    def test_span_filter(self):
        graph = graph_from_tuples(
            [("a", "b", "T", 0.0), ("b", "d", "U", 5.0), ("b", "c", "U", 100.0)]
        )
        query = QueryGraph.path(["T", "U"])
        tight = TimeWindow(10.0)
        got = fingerprints(find_isomorphisms(graph, query, window=tight))
        assert got == {((0, 0), (1, 1))}

    def test_strictness(self):
        graph = graph_from_tuples([("a", "b", "T", 0.0), ("b", "c", "U", 10.0)])
        query = QueryGraph.path(["T", "U"])
        assert count_isomorphisms(graph, query, window=TimeWindow(10.0)) == 0
        assert count_isomorphisms(graph, query, window=TimeWindow(10.0001)) == 1


class TestRequireEdge:
    def test_only_matches_containing_edge(self):
        graph = graph_from_tuples(
            [("a", "b", "T"), ("b", "c", "U"), ("x", "y", "T"), ("y", "z", "U")]
        )
        query = QueryGraph.path(["T", "U"])
        got = fingerprints(
            find_isomorphisms(graph, query, require_edge=graph.edge_by_id(3))
        )
        assert got == {((0, 2), (1, 3))}

    def test_each_match_found_once(self):
        # anchor can seed at several query edges of the same type
        graph = graph_from_tuples([("a", "b", "T"), ("b", "c", "T")])
        query = QueryGraph.path(["T", "T"])
        matches = find_isomorphisms(graph, query, require_edge=graph.edge_by_id(0))
        assert len(matches) == len(set(fingerprints(matches))) == 1

    def test_incompatible_anchor(self):
        graph = graph_from_tuples([("a", "b", "T"), ("b", "c", "U")])
        query = QueryGraph.path(["T", "U"])
        wrong_type = graph.edge_by_id(1)
        got = find_isomorphisms(graph, QueryGraph.path(["X"]), require_edge=wrong_type)
        assert got == []


class TestRandomizedAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs(self, seed):
        rng = random.Random(seed)
        rows = []
        for i in range(rng.randint(6, 14)):
            u = f"n{rng.randrange(5)}"
            v = f"n{rng.randrange(5)}"
            if u == v:
                continue
            rows.append((u, v, rng.choice("AB"), float(i)))
        graph = graph_from_tuples(rows)
        shapes = [
            QueryGraph.path([rng.choice("AB") for _ in range(rng.randint(1, 3))]),
            QueryGraph.from_triples([(0, "A", 1), (0, "B", 2)]),
        ]
        for query in shapes:
            assert fingerprints(find_isomorphisms(graph, query)) == (
                brute_force_matches(graph, query)
            )


class TestLifetime:
    @pytest.mark.parametrize("seeded", [False, True], ids=["whole", "require_edge"])
    def test_matcher_is_freed_without_the_cyclic_collector(self, monkeypatch, seeded):
        """Edge assignment used to recurse through a nested closure, which
        holds itself through its own cell: a cycle that kept the matcher,
        its candidates and its results alive until a cyclic collection."""
        import gc
        import weakref

        from repro.isomorphism import vf2

        matchers = []

        class Tracked(vf2._VF2Matcher):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                matchers.append(weakref.ref(self))

        monkeypatch.setattr(vf2, "_VF2Matcher", Tracked)
        graph = graph_from_tuples(
            [("a", "b", "T"), ("b", "c", "U"), ("b", "d", "U"), ("a", "b", "T")]
        )
        require_edge = graph.edge_by_id(2) if seeded else None
        gc.collect()
        gc.disable()
        try:
            matches = find_isomorphisms(
                graph, QueryGraph.path(["T", "U"]), require_edge=require_edge
            )
            assert len(matches) == (2 if seeded else 4)
            assert len(matchers) == 1 and matchers[0]() is None
        finally:
            gc.enable()
