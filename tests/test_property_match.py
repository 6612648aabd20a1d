"""Property-based tests for Match algebra and the decomposition builder."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.graph import Edge
from repro.isomorphism import Match
from repro.isomorphism.match import JoinPlan, MatchShape
from repro.query import QueryGraph
from repro.sjtree import build_sj_tree, leaf_partition_of
from repro.stats import SelectivityEstimator

from .util import events_from_tuples


@st.composite
def path_matches(draw):
    """A path query plus two disjoint partial matches over it."""
    length = draw(st.integers(min_value=2, max_value=5))
    query = QueryGraph.path(["T"] * length)
    cut = draw(st.integers(min_value=1, max_value=length - 1))
    vertices = [f"d{i}" for i in range(length + 1)]
    edges = [
        Edge(
            edge_id=i,
            src=vertices[i],
            dst=vertices[i + 1],
            etype="T",
            timestamp=float(draw(st.integers(0, 20))),
        )
        for i in range(length)
    ]
    left = Match.build(query.edges_by_id(), {i: edges[i] for i in range(cut)})
    right = Match.build(query.edges_by_id(), {i: edges[i] for i in range(cut, length)})
    return query, left, right


class TestJoinAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(data=path_matches())
    def test_join_commutes(self, data):
        _, left, right = data
        assert left is not None and right is not None
        assert left.join(right) == right.join(left)

    @settings(max_examples=60, deadline=None)
    @given(data=path_matches())
    def test_join_preserves_times_and_edges(self, data):
        query, left, right = data
        joined = left.join(right)
        assert joined is not None
        assert joined.min_time == min(left.min_time, right.min_time)
        assert joined.max_time == max(left.max_time, right.max_time)
        assert joined.query_edge_ids() == (
            left.query_edge_ids() | right.query_edge_ids()
        )
        assert joined.vertex_map.keys() == set(query.vertices())

    @settings(max_examples=60, deadline=None)
    @given(data=path_matches())
    def test_self_join_is_rejected(self, data):
        _, left, _ = data
        assert left.join(left) is None

    @settings(max_examples=60, deadline=None)
    @given(data=path_matches())
    def test_fingerprint_identity(self, data):
        query, left, right = data
        joined = left.join(right)
        rebuilt = Match.build(query.edges_by_id(), dict(joined.pairs))
        assert rebuilt == joined
        assert hash(rebuilt) == hash(joined)


def _query(*edges):
    query = QueryGraph(name="jp")
    for src, dst, etype in edges:
        query.add_edge(src, dst, etype)
    return query


#: (query, left edge ids, right edge ids): the child pairs of left-deep
#: SJ-Tree joins, one per compiled-join feature.
JOIN_SHAPES = {
    "path": (_query((0, 1, "A"), (1, 2, "B"), (2, 3, "A")), (0,), (1,)),
    "repeated-etypes": (_query((0, 1, "A"), (1, 2, "A"), (2, 3, "A")), (0, 1), (2,)),
    "cycle-closing-right": (_query((0, 1, "A"), (1, 2, "B"), (2, 0, "A")), (0, 1), (2,)),
    "two-edge-right-leaf": (
        _query((0, 1, "A"), (1, 2, "B"), (2, 3, "A"), (3, 4, "B")),
        (0, 1),
        (2, 3),
    ),
    "non-contiguous-take": (
        _query((0, 1, "A"), (1, 2, "A"), (2, 3, "B"), (3, 4, "A")),
        (0, 2),
        (1, 3),
    ),
    "right-then-left": (_query((0, 1, "A"), (1, 2, "B"), (2, 3, "A")), (1, 2), (0,)),
    "parallel-query-edges": (_query((0, 1, "A"), (0, 1, "A")), (0,), (1,)),
    "same-etype-star": (_query((0, 1, "A"), (0, 2, "A"), (0, 3, "B")), (0, 2), (1,)),
}


@st.composite
def join_cases(draw):
    """A shape pair plus one binding of every query vertex to a small
    data-vertex pool (shared vertices agree by construction — the
    bucket-key precondition; exclusive ones may collide) and of every
    query edge to one of two parallel data edges between its endpoints
    (so two same-etype query edges can land on one data edge)."""
    query, left_ids, right_ids = JOIN_SHAPES[draw(st.sampled_from(sorted(JOIN_SHAPES)))]
    binding = {v: draw(st.integers(0, 4)) for v in sorted(query.vertices())}
    data_edges = {}
    sides = []
    for ids in (left_ids, right_ids):
        assignment = {}
        for qeid in ids:
            qedge = query.edges_by_id()[qeid]
            identity = (binding[qedge.src], binding[qedge.dst], qedge.etype, draw(st.booleans()))
            if identity not in data_edges:
                data_edges[identity] = Edge(
                    len(data_edges),
                    f"d{identity[0]}",
                    f"d{identity[1]}",
                    qedge.etype,
                    float(draw(st.integers(0, 9))),
                )
            assignment[qeid] = data_edges[identity]
        sides.append(Match.build(query.edges_by_id(), assignment))
    return query, left_ids, right_ids, sides[0], sides[1]


class TestCompiledJoinPlan:
    @settings(max_examples=400, deadline=None)
    @given(case=join_cases())
    def test_join_plan_equals_validating_join(self, case):
        """``JoinPlan.join`` — pruned checks, concatenated tuples — agrees
        with the validating ``Match.join`` on every pair of internally
        valid matches that agree on the cut."""
        query, left_ids, right_ids, left, right = case
        if left is None or right is None:
            return  # a side that is not itself a match is never stored
        by_id = query.edges_by_id()
        plan = JoinPlan(
            MatchShape([by_id[i] for i in left_ids]),
            MatchShape([by_id[i] for i in right_ids]),
            MatchShape([by_id[i] for i in left_ids + right_ids]),
        )
        got = plan.join(left, right)
        want = left.join(right)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.qeids == want.qeids
            assert got.edges == want.edges
            assert (got.min_time, got.max_time) == (want.min_time, want.max_time)
            assert got.vertex_map == want.vertex_map


@st.composite
def random_queries(draw):
    """Connected random query built by progressive attachment."""
    n_edges = draw(st.integers(min_value=1, max_value=6))
    query = QueryGraph(name="rq")
    etypes = ["A", "B", "C"]
    query.add_edge(0, 1, draw(st.sampled_from(etypes)))
    next_vertex = 2
    for _ in range(n_edges - 1):
        anchor = draw(st.integers(min_value=0, max_value=next_vertex - 1))
        outward = draw(st.booleans())
        if outward:
            query.add_edge(anchor, next_vertex, draw(st.sampled_from(etypes)))
        else:
            query.add_edge(next_vertex, anchor, draw(st.sampled_from(etypes)))
        next_vertex += 1
    return query


def rich_estimator():
    rows = []
    node = 0
    for block in range(6):
        for etype in ("A", "B", "C", "A", "C", "B"):
            rows.append((f"n{node}", f"n{node + 1}", etype))
            node += 1
    # star mixes for out-out / in-in signatures
    for i in range(6):
        rows.append((f"hub", f"s{i}", ["A", "B", "C"][i % 3]))
        rows.append((f"t{i}", f"hub2", ["A", "B", "C"][i % 3]))
    est = SelectivityEstimator()
    est.observe_events(events_from_tuples(rows))
    return est


ESTIMATOR = rich_estimator()


class TestBuilderProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        query=random_queries(),
        strategy=st.sampled_from(["single", "path", "mixed"]),
    )
    def test_leaves_partition_the_query(self, query, strategy):
        tree = build_sj_tree(query, ESTIMATOR, strategy)
        covered = sorted(q for leaf in leaf_partition_of(tree) for q in leaf)
        assert covered == sorted(e.edge_id for e in query.edges)

    @settings(max_examples=60, deadline=None)
    @given(query=random_queries(), strategy=st.sampled_from(["single", "path"]))
    def test_internal_cuts_are_nonempty_for_connected_queries(self, query, strategy):
        tree = build_sj_tree(query, ESTIMATOR, strategy)
        for node in tree.nodes:
            if not node.is_leaf:
                assert node.cut_vertices, (f"empty cut in {tree.describe()}")

    @settings(max_examples=60, deadline=None)
    @given(query=random_queries())
    def test_leaf_sizes_bounded_by_primitives(self, query):
        tree = build_sj_tree(query, ESTIMATOR, "path")
        for leaf in tree.leaves():
            assert len(leaf.edge_ids) in (1, 2)

    @settings(max_examples=60, deadline=None)
    @given(query=random_queries())
    def test_expected_selectivity_in_unit_interval(self, query):
        tree = build_sj_tree(query, ESTIMATOR, "path")
        assert 0.0 <= tree.expected_selectivity() <= 1.0
