"""Unit tests for SJ-Tree structure and UPDATE-SJ-TREE mechanics."""

import math

import pytest

from repro.errors import DecompositionError
from repro.graph import Edge, TimeWindow
from repro.isomorphism import Match
from repro.query import QueryGraph
from repro.sjtree import MatchTable, SJTree, leaf_partition_of
from repro.sjtree.node import SJTreeNode
from repro.stats import LeafSelectivity


def edge(eid, src, dst, etype="T", ts=0.0):
    return Edge(edge_id=eid, src=src, dst=dst, etype=etype, timestamp=ts)


def match_for(query, assignment):
    match = Match.build(query.edges_by_id(), assignment)
    assert match is not None
    return match


@pytest.fixture
def query():
    return QueryGraph.path(["T", "T", "T"], name="p3")  # v0->v1->v2->v3


@pytest.fixture
def tree(query):
    meta = [
        LeafSelectivity("l0", 0.01, 1),
        LeafSelectivity("l1", 0.10, 1),
        LeafSelectivity("l2", 0.50, 1),
    ]
    return SJTree.from_leaf_partition(query, [(0,), (1,), (2,)], meta)


class TestMatchTable:
    def test_insert_probe(self):
        table = MatchTable()
        query = QueryGraph.path(["T"])
        m = match_for(query, {0: edge(1, "a", "b")})
        assert table.insert(("b",), m)
        assert table.probe(("b",)) == [m]
        assert table.probe(("zzz",)) == []
        assert len(table) == 1
        assert table.num_buckets() == 1

    def test_duplicate_suppressed(self):
        table = MatchTable()
        query = QueryGraph.path(["T"])
        m = match_for(query, {0: edge(1, "a", "b")})
        assert table.insert(("b",), m)
        assert not table.insert(("b",), m)
        assert table.inserted_total == 1

    def test_expire_drops_old_matches(self):
        table = MatchTable()
        query = QueryGraph.path(["T"])
        old = match_for(query, {0: edge(1, "a", "b", ts=0.0)})
        new = match_for(query, {0: edge(2, "a", "c", ts=10.0)})
        table.insert(("a",), old)
        table.insert(("a",), new)
        assert table.expire(5.0) == 1
        assert len(table) == 1
        assert table.probe(("a",)) == [new]

    def test_expire_boundary_is_strict(self):
        table = MatchTable()
        query = QueryGraph.path(["T"])
        m = match_for(query, {0: edge(1, "a", "b", ts=5.0)})
        table.insert((), m)
        assert table.expire(5.0) == 0  # min_time == cutoff stays (like edges)
        assert table.expire(5.0001) == 1

    def test_reinsertion_allowed_after_expiry(self):
        table = MatchTable()
        query = QueryGraph.path(["T"])
        m = match_for(query, {0: edge(1, "a", "b", ts=0.0)})
        table.insert((), m)
        table.expire(1.0)
        assert table.insert((), m)  # fingerprint was forgotten with the entry

    def test_iteration(self):
        table = MatchTable()
        query = QueryGraph.path(["T"])
        m1 = match_for(query, {0: edge(1, "a", "b")})
        m2 = match_for(query, {0: edge(2, "a", "c")})
        table.insert((), m1)
        table.insert((), m2)
        assert set(table) == {m1, m2}


class TestTreeStructure:
    def test_left_deep_shape(self, tree):
        assert tree.num_leaves == 3
        leaves = tree.leaves()
        assert [leaf.leaf_index for leaf in leaves] == [0, 1, 2]
        root = tree.root
        assert root.edge_ids == frozenset({0, 1, 2})
        right = tree.node(root.right)
        assert right.is_leaf and right.leaf_index == 2
        internal = tree.node(root.left)
        assert internal.edge_ids == frozenset({0, 1})

    def test_cut_vertices(self, tree, query):
        # leaf0 {e0: v0->v1}, leaf1 {e1: v1->v2} share v1
        internal = tree.node(tree.root.left)
        assert internal.cut_vertices == (1,)
        # internal {v0,v1,v2} and leaf2 {v2,v3} share v2
        assert tree.root.cut_vertices == (2,)
        # key_vertices of a node is its parent's cut
        leaf0, leaf1, leaf2 = tree.leaves()
        assert leaf0.key_vertices == (1,)
        assert leaf1.key_vertices == (1,)
        assert leaf2.key_vertices == (2,)
        assert internal.key_vertices == (2,)

    def test_siblings_and_parents(self, tree):
        leaf0, leaf1, leaf2 = tree.leaves()
        assert leaf0.sibling == leaf1.node_id
        assert leaf1.sibling == leaf0.node_id
        internal = tree.node(tree.root.left)
        assert leaf2.sibling == internal.node_id
        assert internal.sibling == leaf2.node_id
        assert internal.parent == tree.root.node_id

    def test_single_leaf_tree(self, query):
        single = QueryGraph.path(["T"])
        tree = SJTree.from_leaf_partition(single, [(0,)])
        assert tree.root.is_leaf and tree.root.is_root

    def test_partition_validation(self, query):
        with pytest.raises(DecompositionError, match="partition"):
            SJTree.from_leaf_partition(query, [(0,), (1,)])
        with pytest.raises(DecompositionError, match="overlap"):
            SJTree.from_leaf_partition(query, [(0, 1), (1, 2)])
        with pytest.raises(DecompositionError, match="empty"):
            SJTree.from_leaf_partition(query, [(0,), (), (1, 2)])
        with pytest.raises(DecompositionError, match="at least one"):
            SJTree.from_leaf_partition(query, [])
        with pytest.raises(DecompositionError, match="length"):
            SJTree.from_leaf_partition(query, [(0,), (1,), (2,)], [])

    def test_expected_selectivity(self, tree):
        assert tree.expected_selectivity() == pytest.approx(0.01 * 0.10 * 0.50)

    def test_leaf_partition_round_trip(self, tree):
        assert leaf_partition_of(tree) == [(0,), (1,), (2,)]

    def test_describe(self, tree):
        text = tree.describe()
        assert "3 leaves" in text
        assert "leaf 0" in text
        assert "cut=(2,)" in text


class TestInsertAndJoin:
    def test_two_leaf_join_emits_at_root(self, query):
        two = QueryGraph.path(["T", "T"])
        tree = SJTree.from_leaf_partition(two, [(0,), (1,)])
        window = TimeWindow()
        sink = []
        m0 = match_for(two, {0: edge(1, "a", "b", ts=0.0)})
        m1 = match_for(two, {1: edge(2, "b", "c", ts=1.0)})
        tree.insert_match(tree.leaf_ids[0], m0, window, sink.append)
        assert sink == []
        tree.insert_match(tree.leaf_ids[1], m1, window, sink.append)
        assert len(sink) == 1
        assert sink[0].query_edge_ids() == frozenset({0, 1})
        assert tree.complete_matches == 1

    def test_join_works_from_either_side(self, query):
        two = QueryGraph.path(["T", "T"])
        window = TimeWindow()
        for order in ((0, 1), (1, 0)):
            tree = SJTree.from_leaf_partition(two, [(0,), (1,)])
            sink = []
            parts = {
                0: match_for(two, {0: edge(1, "a", "b")}),
                1: match_for(two, {1: edge(2, "b", "c")}),
            }
            for leaf_index in order:
                tree.insert_match(
                    tree.leaf_ids[leaf_index], parts[leaf_index], window, sink.append
                )
            assert len(sink) == 1, order

    def test_three_level_propagation(self, tree, query):
        window = TimeWindow()
        sink = []
        parts = [
            match_for(query, {0: edge(1, "a", "b", ts=0.0)}),
            match_for(query, {1: edge(2, "b", "c", ts=1.0)}),
            match_for(query, {2: edge(3, "c", "d", ts=2.0)}),
        ]
        for leaf_id, part in zip(tree.leaf_ids, parts):
            tree.insert_match(leaf_id, part, window, sink.append)
        assert len(sink) == 1
        assert sink[0].vertex_map == {0: "a", 1: "b", 2: "c", 3: "d"}

    def test_duplicate_insert_is_noop(self, tree, query):
        window = TimeWindow()
        sink = []
        m0 = match_for(query, {0: edge(1, "a", "b")})
        assert tree.insert_match(tree.leaf_ids[0], m0, window, sink.append)
        assert not tree.insert_match(tree.leaf_ids[0], m0, window, sink.append)

    def test_window_blocks_wide_joins(self, query):
        two = QueryGraph.path(["T", "T"])
        tree = SJTree.from_leaf_partition(two, [(0,), (1,)])
        window = TimeWindow(5.0)
        window.advance(100.0)
        sink = []
        m0 = match_for(two, {0: edge(1, "a", "b", ts=97.0)})
        m1 = match_for(two, {1: edge(2, "b", "c", ts=100.0)})
        tree.insert_match(tree.leaf_ids[0], m0, window, sink.append)
        tree.insert_match(tree.leaf_ids[1], m1, window, sink.append)
        assert len(sink) == 1  # span 3 < 5
        # now a partner further back than the window
        sink.clear()
        tree2 = SJTree.from_leaf_partition(two, [(0,), (1,)])
        old = match_for(two, {0: edge(3, "x", "y", ts=90.0)})
        new = match_for(two, {1: edge(4, "y", "z", ts=100.0)})
        tree2.insert_match(tree2.leaf_ids[0], old, window, sink.append)
        tree2.insert_match(tree2.leaf_ids[1], new, window, sink.append)
        assert sink == []

    def test_stale_match_rejected_on_insert(self, query):
        two = QueryGraph.path(["T", "T"])
        tree = SJTree.from_leaf_partition(two, [(0,), (1,)])
        window = TimeWindow(5.0)
        window.advance(100.0)  # cutoff 95
        stale = match_for(two, {0: edge(1, "a", "b", ts=90.0)})
        assert not tree.insert_match(tree.leaf_ids[0], stale, window, lambda m: None)

    def test_on_insert_hook_fires_per_node(self, tree, query):
        window = TimeWindow()
        events = []

        def hook(node, match):
            events.append(node.node_id)

        parts = [
            match_for(query, {0: edge(1, "a", "b")}),
            match_for(query, {1: edge(2, "b", "c")}),
        ]
        tree.insert_match(tree.leaf_ids[0], parts[0], window, lambda m: None, hook)
        tree.insert_match(tree.leaf_ids[1], parts[1], window, lambda m: None, hook)
        internal = tree.root.left
        # the hook fires after sibling probing, so the join at the internal
        # node is observed before leaf 1's own insertion hook
        assert events == [tree.leaf_ids[0], internal, tree.leaf_ids[1]]

    def test_accounting(self, tree, query):
        window = TimeWindow()
        m0 = match_for(query, {0: edge(1, "a", "b")})
        tree.insert_match(tree.leaf_ids[0], m0, window, lambda m: None)
        assert tree.total_partial_matches() == 1
        assert tree.space_estimate() == 1  # 1 edge × 1 match
        assert tree.lifetime_inserts() == 1
        tree.reset_state()
        assert tree.total_partial_matches() == 0

    def test_expire_sweep(self, tree, query):
        window = TimeWindow(10.0)
        window.advance(0.0)
        m0 = match_for(query, {0: edge(1, "a", "b", ts=0.0)})
        tree.insert_match(tree.leaf_ids[0], m0, window, lambda m: None)
        window.advance(100.0)
        dropped = tree.expire(window.cutoff)
        assert dropped == 1
        assert tree.total_partial_matches() == 0

    def test_expire_infinite_window_noop(self, tree):
        assert tree.expire(-math.inf) == 0


def hand_built_two_leaf_tree(two):
    """The tree ``from_leaf_partition(two, [(0,), (1,)])`` would build,
    assembled by hand: no shapes, key plans or join plans pre-compiled."""
    leaf0 = SJTreeNode(0, two.subgraph({0}), frozenset({0}), leaf_index=0)
    leaf1 = SJTreeNode(1, two.subgraph({1}), frozenset({1}), leaf_index=1)
    root = SJTreeNode(2, two.subgraph({0, 1}), frozenset({0, 1}), left=0, right=1)
    cut = tuple(sorted(leaf0.vertices() & leaf1.vertices()))
    root.cut_vertices = cut
    for leaf, other in ((leaf0, leaf1), (leaf1, leaf0)):
        leaf.parent, leaf.sibling, leaf.key_vertices = 2, other.node_id, cut
    return SJTree(two, [leaf0, leaf1, root], root_id=2, leaf_ids=[0, 1])


class TestInsertMatchIsTheCompiledChain:
    def test_hand_built_tree_compiles_on_first_use(self):
        two = QueryGraph.path(["T", "T"])
        tree = hand_built_two_leaf_tree(two)
        assert tree.root.join_plan is None
        assert all(node.key_plan is None for node in tree.nodes)
        sink = []
        m0 = match_for(two, {0: edge(1, "a", "b", ts=0.0)})
        m1 = match_for(two, {1: edge(2, "b", "c", ts=1.0)})
        # a fresh TimeWindow object per call, as direct callers may pass
        assert tree.insert_match(0, m0, TimeWindow(), sink.append)
        assert tree.insert_match(1, m1, TimeWindow(), sink.append)
        assert [m.fingerprint for m in sink] == [((0, 1), (1, 2))]
        assert tree.root.join_plan is not None
        # ... and what it ran is the closure compile_insert hands out
        compiled = tree.compile_insert(0, TimeWindow())
        assert compiled is tree.compile_insert(0, TimeWindow())
        assert not compiled(m0, -math.inf, sink.append)  # the stored duplicate

    def test_windows_of_different_width_do_not_share_a_closure(self):
        two = QueryGraph.path(["T", "T"])
        tree = SJTree.from_leaf_partition(two, [(0,), (1,)])
        narrow, wide = TimeWindow(2.0), TimeWindow(50.0)
        for leaf_id in tree.leaf_ids:
            assert tree.compile_insert(leaf_id, narrow) is not tree.compile_insert(
                leaf_id, wide
            )
        assert tree.compile_insert(0, narrow) is tree.compile_insert(0, TimeWindow(2.0))
        sink = []
        m0 = match_for(two, {0: edge(1, "a", "b", ts=0.0)})
        m1 = match_for(two, {1: edge(2, "b", "c", ts=3.0)})
        tree.insert_match(0, m0, narrow, sink.append)
        tree.insert_match(1, m1, narrow, sink.append)
        assert sink == []  # span 3 >= 2: the narrow chain blocks the join
        m2 = match_for(two, {1: edge(3, "b", "d", ts=3.0)})
        tree.insert_match(1, m2, wide, sink.append)
        assert len(sink) == 1  # the same tables through the wide chain

    def test_compiled_closures_do_not_tie_the_tree_into_a_cycle(self):
        """The chain is cached on the tree; were a closure to capture the
        tree, every stored match would wait for the cyclic GC."""
        import gc
        import weakref

        two = QueryGraph.path(["T", "T"])
        tree = SJTree.from_leaf_partition(two, [(0,), (1,)])
        sink = []
        tree.insert_match(0, match_for(two, {0: edge(1, "a", "b")}), TimeWindow(), sink.append)
        tree.insert_match(1, match_for(two, {1: edge(2, "b", "c")}), TimeWindow(), sink.append)
        assert tree.complete_matches == 1
        ref = weakref.ref(tree)
        gc.collect()
        gc.disable()
        try:
            del tree
            assert ref() is None
        finally:
            gc.enable()
