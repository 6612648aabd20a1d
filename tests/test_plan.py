"""Unit tests for the compiled anchored-match plans (repro.isomorphism.plan).

The executor must be an exact drop-in for ``find_anchored_matches`` — same
matches, same emission order — because the SJ-Tree leaf hot path switched
to it wholesale. The compiler tests pin the static replay of
``_pick_next``'s edge-selection policy.
"""

from __future__ import annotations

import random

from repro.isomorphism import find_anchored_matches, find_vertex_anchored_matches
from repro.isomorphism.plan import (
    CLOSE,
    EXTEND_IN,
    EXTEND_OUT,
    GLOBAL,
    compile_fragment_plans,
    compile_plan,
    compile_vertex_plan,
    execute_plans,
    execute_vertex_plan,
)
from repro.query import QueryGraph
from repro.sjtree import SJTree

from .util import graph_from_tuples


class TestCompile:
    def test_path_anchor_first_edge(self):
        query = QueryGraph.path(["A", "B", "C"])
        plan = compile_plan(query, 0)
        assert plan.anchor_edge_id == 0
        assert plan.etype == "A"
        assert [s.kind for s in plan.steps] == [EXTEND_OUT, EXTEND_OUT]
        assert [s.edge_id for s in plan.steps] == [1, 2]
        # step 1 extends from v1 binding v2; step 2 from v2 binding v3
        assert plan.steps[0].anchor_role == 1
        assert plan.steps[0].other_role == 2
        assert plan.steps[1].anchor_role == 2
        assert plan.steps[1].other_role == 3

    def test_path_anchor_middle_edge_extends_both_ways(self):
        query = QueryGraph.path(["A", "B", "C"])
        plan = compile_plan(query, 1)
        # edge 0 enters the bound v1 (EXTEND_IN), edge 2 leaves bound v2
        assert [s.kind for s in plan.steps] == [EXTEND_IN, EXTEND_OUT]
        assert [s.edge_id for s in plan.steps] == [0, 2]

    def test_triangle_closes_last_edge(self):
        query = QueryGraph.from_triples([(0, "A", 1), (1, "B", 2), (2, "C", 0)])
        plan = compile_plan(query, 0)
        kinds = [s.kind for s in plan.steps]
        # after anchoring 0->1, edge 1 extends; edge 2 then has both
        # endpoints bound and becomes a CLOSE existence check
        assert kinds == [EXTEND_OUT, CLOSE]

    def test_both_endpoints_bound_preferred_over_extension(self):
        # anchor = parallel edge pair: second parallel edge must CLOSE
        # before the dangling extension, mirroring _pick_next's priority
        query = QueryGraph.from_triples([(0, "A", 1), (0, "B", 1), (1, "C", 2)])
        plan = compile_plan(query, 0)
        assert [(s.kind, s.edge_id) for s in plan.steps] == [
            (CLOSE, 1),
            (EXTEND_OUT, 2),
        ]

    def test_disconnected_fragment_gets_global_step(self):
        query = QueryGraph.from_triples([(0, "A", 1), (2, "B", 3)])
        plan = compile_plan(query, 0)
        assert [s.kind for s in plan.steps] == [GLOBAL]

    def test_emit_order_covers_all_edges_sorted(self):
        query = QueryGraph.path(["A", "B", "C"])
        for anchor in range(3):
            plan = compile_plan(query, anchor)
            assert [eid for eid, _ in plan.emit_order] == [0, 1, 2]
            slots = sorted(slot for _, slot in plan.emit_order)
            assert slots == [0, 1, 2]

    def test_one_plan_per_anchor_role_in_edge_order(self):
        query = QueryGraph.path(["A", "A", "A"])
        plans = compile_fragment_plans(query)
        assert [p.anchor_edge_id for p in plans] == [0, 1, 2]

    def test_vertex_constraints_compiled_into_checks(self):
        query = QueryGraph()
        query.add_vertex(0, "ip")
        query.add_vertex(1, "host", binding="h1")
        query.add_edge(0, 1, "T")
        plan = compile_plan(query, 0)
        assert plan.src_check.vtype == "ip"
        assert plan.dst_check.vtype == "host"
        assert plan.dst_check.binding == "h1"

    def test_tree_build_populates_leaf_plans(self):
        query = QueryGraph.path(["A", "B"])
        tree = SJTree.from_leaf_partition(query, [(0,), (1,)])
        for leaf in tree.leaves():
            assert leaf.plans is not None
            assert len(leaf.plans) == len(leaf.fragment.edges)


def random_graph(rng, n_vertices=8, n_edges=40, etypes=("A", "B", "C")):
    rows = []
    for t in range(n_edges):
        src = f"v{rng.randrange(n_vertices)}"
        dst = f"v{rng.randrange(n_vertices)}"
        rows.append((src, dst, rng.choice(etypes), float(t)))
    return graph_from_tuples(rows)


FRAGMENTS = [
    QueryGraph.path(["A"]),
    QueryGraph.path(["A", "B"]),
    QueryGraph.path(["A", "B", "C"]),
    QueryGraph.path(["A", "A"]),
    QueryGraph.from_triples([(0, "A", 1), (0, "B", 2)]),  # out-star
    QueryGraph.from_triples([(1, "A", 0), (2, "B", 0)]),  # in-star
    QueryGraph.from_triples([(0, "A", 1), (1, "B", 2), (2, "C", 0)]),  # triangle
    QueryGraph.from_triples([(0, "A", 1), (0, "B", 1)]),  # parallel pair
    QueryGraph.from_triples([(0, "A", 0)]),  # self-loop
    QueryGraph.from_triples([(0, "A", 1), (2, "B", 3)]),  # disconnected
]


class TestExecutorParity:
    def test_matches_interpretive_backtracker_exactly(self):
        """Same matches, same order, across fragments and random graphs."""
        rng = random.Random(2024)
        for trial in range(8):
            graph = random_graph(rng)
            edges = list(graph.edges())
            for fragment in FRAGMENTS:
                plans = compile_fragment_plans(fragment)
                for anchor in edges[:: max(len(edges) // 10, 1)]:
                    expected = find_anchored_matches(graph, fragment, anchor)
                    got = execute_plans(graph, plans, anchor)
                    assert [m.fingerprint for m in got] == [
                        m.fingerprint for m in expected
                    ], f"fragment {fragment!r} anchor {anchor!r}"
                    for g, e in zip(got, expected):
                        assert g.vertex_map == e.vertex_map
                        assert g.min_time == e.min_time
                        assert g.max_time == e.max_time

    def test_self_loop_parity(self):
        graph = graph_from_tuples(
            [("x", "x", "A", 0.0), ("x", "y", "A", 1.0), ("y", "y", "A", 2.0)]
        )
        fragment = QueryGraph.from_triples([(0, "A", 0)])
        plans = compile_fragment_plans(fragment)
        for anchor in graph.edges():
            expected = find_anchored_matches(graph, fragment, anchor)
            got = execute_plans(graph, plans, anchor)
            assert [m.fingerprint for m in got] == [m.fingerprint for m in expected]

    def test_two_disconnected_same_type_edges_backtrack(self):
        """Regression: the non-loop GLOBAL step must release its edge on
        backtrack, or the second same-type disconnected step silently
        loses the swapped assignment (e1->Y, e2->X)."""
        graph = graph_from_tuples(
            [
                ("a", "b", "S", 0.0),
                ("p", "q", "T", 1.0),
                ("r", "s", "T", 2.0),
            ]
        )
        fragment = QueryGraph.from_triples([(0, "S", 1), (2, "T", 3), (4, "T", 5)])
        plans = compile_fragment_plans(fragment)
        anchor = next(iter(graph.edges_of_type("S")))
        expected = find_anchored_matches(graph, fragment, anchor)
        got = execute_plans(graph, plans, anchor)
        assert len(expected) == 2  # both T-edge assignments, both orders
        assert [m.fingerprint for m in got] == [m.fingerprint for m in expected]

    def test_limit_truncates_identically(self):
        graph = random_graph(random.Random(7), n_vertices=4, n_edges=30)
        fragment = QueryGraph.path(["A", "B"])
        plans = compile_fragment_plans(fragment)
        for anchor in graph.edges():
            for limit in (1, 2, 5):
                expected = find_anchored_matches(graph, fragment, anchor, limit=limit)
                got = execute_plans(graph, plans, anchor, limit=limit)
                assert [m.fingerprint for m in got] == [m.fingerprint for m in expected]

    def test_typed_and_bound_vertices(self):
        rows = [
            ("a", "b", "T", 0.0, "ip", "host"),
            ("a", "c", "T", 1.0, "ip", "host"),
            ("x", "b", "T", 2.0, "other", "host"),
        ]
        graph = graph_from_tuples(rows)
        query = QueryGraph()
        query.add_vertex(0, "ip")
        query.add_vertex(1, "host", binding="b")
        query.add_edge(0, 1, "T")
        plans = compile_fragment_plans(query)
        for anchor in graph.edges():
            expected = find_anchored_matches(graph, query, anchor)
            got = execute_plans(graph, plans, anchor)
            assert [m.fingerprint for m in got] == [m.fingerprint for m in expected]
        all_found = [
            m
            for anchor in graph.edges()
            for m in execute_plans(graph, plans, anchor)
        ]
        assert len(all_found) == 1  # only a->b satisfies type + binding


def _fork():
    query = QueryGraph()
    query.add_edge(1, 0, "A")  # src role above dst role
    query.add_edge(0, 2, "B")
    query.add_edge(0, 3, "C")
    return query


def _dst_role_first():
    query = QueryGraph()
    query.add_vertex(1)
    query.add_vertex(0)
    query.add_edge(0, 1, "A")
    return query


VERTEX_FRAGMENTS = FRAGMENTS + [
    _fork(),
    QueryGraph.from_triples([(3, "A", 2), (2, "B", 1), (1, "C", 0)]),  # reversed path
    QueryGraph.from_triples([(1, "A", 0)]),
    QueryGraph.from_triples([(0, "A", 0), (0, "B", 1)]),  # loop + extension
    QueryGraph.from_triples([(0, "A", 1), (1, "A", 0)]),  # 2-cycle, one type
    _dst_role_first(),
]


def assert_same_vertex_matches(graph, fragment, vertex, plan=None):
    if plan is None:
        plan = compile_vertex_plan(fragment)
    expected = find_vertex_anchored_matches(graph, fragment, vertex)
    got = execute_vertex_plan(graph, plan, vertex)
    assert [m.fingerprint for m in got] == [
        m.fingerprint for m in expected
    ], f"fragment {fragment!r} vertex {vertex!r}"
    for g, e in zip(got, expected):
        # before ``vertex_map``, which caches a map on the shape-backed match
        assert g.data_vertices_ordered() == e.data_vertices_ordered()
        assert g.vertex_map == e.vertex_map
        assert (g.min_time, g.max_time) == (e.min_time, e.max_time)
    return got


class TestVertexPlanParity:
    """The compiled vertex-anchored search (Lazy Search's backfill) must
    equal ``find_vertex_anchored_matches``: same matches, same order."""

    def test_matches_interpretive_search_exactly(self):
        rng = random.Random(26)
        found = 0
        for _ in range(8):
            graph = random_graph(rng, n_vertices=6, n_edges=36)
            for fragment in VERTEX_FRAGMENTS:
                plan = compile_vertex_plan(fragment)
                for vertex in sorted(graph.vertices()):
                    found += len(
                        assert_same_vertex_matches(graph, fragment, vertex, plan)
                    )
        assert found > 1000  # the comparison is not vacuous

    def test_vertex_absent_from_graph(self):
        graph = random_graph(random.Random(1))
        for fragment in VERTEX_FRAGMENTS:
            assert assert_same_vertex_matches(graph, fragment, "absent") == []

    def test_typed_and_bound_roles(self):
        rows = [
            ("a", "b", "T", 0.0, "ip", "host"),
            ("a", "c", "T", 1.0, "ip", "host"),
            ("x", "b", "T", 2.0, "other", "host"),
            ("b", "a", "U", 3.0, "host", "ip"),
            ("b", "x", "U", 4.0, "host", "other"),
        ]
        graph = graph_from_tuples(rows)
        typed = QueryGraph()
        typed.add_vertex(0, "ip")
        typed.add_vertex(1, "host", binding="b")
        typed.add_edge(0, 1, "T")
        path = QueryGraph()
        path.add_vertex(0, "ip")
        path.add_vertex(1, "host")
        path.add_edge(0, 1, "T")
        path.add_edge(1, 2, "U")
        for fragment in (typed, path):
            plan = compile_vertex_plan(fragment)
            assert plan.single is None
            for vertex in ("a", "b", "c", "x", "absent"):
                assert_same_vertex_matches(graph, fragment, vertex, plan)
        assert len(execute_vertex_plan(graph, compile_vertex_plan(typed), "b")) == 1

    def test_two_edge_path_lazy_leaves(self):
        """The leaves a PathLazy decomposition holds, compiled at tree
        build through ``SJTreeNode.match_plans``."""
        tree = SJTree.from_leaf_partition(_fork(), [(0, 1), (2,)])
        graph = random_graph(random.Random(5), n_vertices=5, n_edges=40)
        for leaf in tree.leaves():
            assert leaf.vertex_plan is not None
            for vertex in sorted(graph.vertices()):
                assert_same_vertex_matches(
                    graph, leaf.fragment, vertex, leaf.vertex_plan
                )

    def test_single_body_only_for_one_nonloop_wildcard_edge(self):
        assert compile_vertex_plan(QueryGraph.path(["A"])).single is not None
        assert compile_vertex_plan(QueryGraph.path(["A"], vtype="ip")).single is None
        assert compile_vertex_plan(QueryGraph.from_triples([(0, "A", 0)])).single is None
        assert compile_vertex_plan(QueryGraph.path(["A", "B"])).single is None
        # out-edges first, unless the fragment declares the dst role first
        assert compile_vertex_plan(QueryGraph.path(["A"])).single[2] is True
        assert compile_vertex_plan(_dst_role_first()).single[2] is False

    def test_dedup_only_where_a_role_has_two_incident_edges(self):
        plan = compile_vertex_plan(QueryGraph.path(["A", "B"]))
        assert [dedup for _, _, dedup in plan.roles] == [False, True, False]
