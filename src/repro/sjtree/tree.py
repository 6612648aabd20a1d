"""The Subgraph Join Tree (SJ-Tree, §3.1) and its update algorithm (§3.2).

An SJ-Tree is a left-deep binary tree over an ordered partition of the
query's edges. Leaf ``k`` holds matches of primitive ``g_k``; internal
node ``k`` holds matches of ``g_1 ⋈ … ⋈ g_k``; the root corresponds to the
whole query. ``compile_insert`` implements ``UPDATE-SJ-TREE`` (Algorithm 2)
with symmetric sibling probing, as one closure per node: whichever child
receives a match probes the other child's hash table on the shared cut
projection, and successful joins climb the chain of parent closures until
the root emits a complete match. ``insert_match`` is the same chain,
looked up per call. A leaf whose table is a graph-backed
:class:`~repro.sjtree.node.GraphLeafView` is offered bare data edges
instead (``compile_edge_insert``), and its sibling
reads it straight off the graph's vertex index.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import DecompositionError
from ..graph.window import TimeWindow
from ..isomorphism.match import JoinPlan, Match
from ..query.query_graph import QueryGraph
from ..stats.selectivity import LeafSelectivity, expected_selectivity
from .node import GraphLeafView, SJTreeNode

#: Callback invoked with every complete (root-level) match.
MatchSink = Callable[[Match], None]
#: Hook invoked after every successful non-root insertion (Lazy Search
#: uses it to drive leaf enablement).
InsertHook = Callable[[SJTreeNode, Match], None]


class SJTree:
    """A built decomposition, owning per-node partial-match state."""

    def __init__(
        self,
        query: QueryGraph,
        nodes: List[SJTreeNode],
        root_id: int,
        leaf_ids: List[int],
    ) -> None:
        self.query = query
        self.nodes = nodes
        self.root_id = root_id
        self.leaf_ids = leaf_ids
        # One-slot cell the compiled root closure bumps: a closure over
        # ``self`` (held by ``_inserts``) would tie the tree, and every
        # match in its tables, into a cycle only the cyclic GC frees.
        self._complete = [0]
        #: compiled UPDATE-SJ-TREE closures, by (node id, window width[,
        #: "edge" for a graph-backed leaf's edge insert])
        self._inserts: Dict[tuple, Callable] = {}
        #: replay horizon: while set to an edge id, graph-backed leaves
        #: show their sibling only the edges up to it (``replay_edge``)
        self.horizon: List[Optional[int]] = [None]

    @property
    def complete_matches(self) -> int:
        """Complete (root-level) matches emitted so far."""
        return self._complete[0]

    @complete_matches.setter
    def complete_matches(self, value: int) -> None:
        self._complete[0] = value

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_leaf_partition(
        cls,
        query: QueryGraph,
        leaf_edge_sets: Sequence[Sequence[int]],
        leaf_meta: Optional[Sequence[LeafSelectivity]] = None,
    ) -> "SJTree":
        """Build the left-deep tree for an ordered edge partition.

        ``leaf_edge_sets[k]`` lists the query edge ids of leaf ``k`` (the
        join order — index 0 is the most selective subgraph). The sets must
        partition the query's edges.
        """
        cls._validate_partition(query, leaf_edge_sets)
        if leaf_meta is not None and len(leaf_meta) != len(leaf_edge_sets):
            raise DecompositionError("leaf_meta length must match leaf count")

        nodes: List[SJTreeNode] = []

        def new_node(edge_ids: frozenset[int]) -> SJTreeNode:
            node = SJTreeNode(
                node_id=len(nodes),
                fragment=query.subgraph(edge_ids),
                edge_ids=edge_ids,
            )
            nodes.append(node)
            return node

        leaves: List[SJTreeNode] = []
        for index, edge_ids in enumerate(leaf_edge_sets):
            leaf = new_node(frozenset(edge_ids))
            leaf.leaf_index = index
            if leaf_meta is not None:
                leaf.leaf_label = leaf_meta[index].description
                leaf.leaf_selectivity = leaf_meta[index].selectivity
            # Compile the anchored-match plans now, while we are off the
            # streaming hot path: every per-edge leaf search replays them.
            leaf.match_plans()
            leaves.append(leaf)

        current = leaves[0]
        for leaf in leaves[1:]:
            parent = new_node(current.edge_ids | leaf.edge_ids)
            parent.left = current.node_id
            parent.right = leaf.node_id
            cut = tuple(sorted(current.vertices() & leaf.vertices()))
            parent.cut_vertices = cut
            current.parent = parent.node_id
            current.sibling = leaf.node_id
            current.key_vertices = cut
            leaf.parent = parent.node_id
            leaf.sibling = current.node_id
            leaf.key_vertices = cut
            current = parent

        # Compile the positional hot-path artefacts now, off the streaming
        # path: per-node match shapes and key extractors, and per internal
        # node the sibling join against the children's shapes.
        for node in nodes:
            node.match_shape()
            node.compiled_key_plan()
        tree = cls(
            query,
            nodes,
            root_id=current.node_id,
            leaf_ids=[leaf.node_id for leaf in leaves],
        )
        for node in nodes:
            if node.left is not None:
                tree._join_plan(node)
        return tree

    @staticmethod
    def _validate_partition(
        query: QueryGraph, leaf_edge_sets: Sequence[Sequence[int]]
    ) -> None:
        if not leaf_edge_sets:
            raise DecompositionError("decomposition needs at least one leaf")
        all_ids: set[int] = set()
        for edge_ids in leaf_edge_sets:
            ids = set(edge_ids)
            if not ids:
                raise DecompositionError("empty leaf in decomposition")
            if ids & all_ids:
                raise DecompositionError(
                    f"leaves overlap on query edges {sorted(ids & all_ids)}"
                )
            all_ids |= ids
        expected = {edge.edge_id for edge in query.edges}
        if all_ids != expected:
            raise DecompositionError(
                "leaves do not partition the query edges: "
                f"missing {sorted(expected - all_ids)}, "
                f"extra {sorted(all_ids - expected)}"
            )

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    @property
    def root(self) -> SJTreeNode:
        return self.nodes[self.root_id]

    def node(self, node_id: int) -> SJTreeNode:
        return self.nodes[node_id]

    def leaves(self) -> List[SJTreeNode]:
        """Leaf nodes in join order (``GET-LEAF-NODES``)."""
        return [self.nodes[i] for i in self.leaf_ids]

    @property
    def num_leaves(self) -> int:
        return len(self.leaf_ids)

    def is_join_order_connected(self) -> bool:
        """True if every leaf after the first shares a query vertex with
        the union of the leaves before it (Algorithm 4's frontier rule).

        **Lazy Search requires this**: leaf ``i+1`` is only ever searched
        around the vertices of matches covering leaves ``0..i``, so a leaf
        disconnected from its predecessors would never be enabled at the
        right vertices and matches would be silently lost. Eager search
        stays exact without it (the hash join degenerates to a cartesian
        product on an empty cut), just slower.
        """
        leaves = self.leaves()
        if not leaves:
            return False
        seen: set[int] = set(leaves[0].vertices())
        for leaf in leaves[1:]:
            vertices = set(leaf.vertices())
            if not (vertices & seen):
                return False
            seen |= vertices
        return True

    def leaf_selectivities(self) -> List[LeafSelectivity]:
        """Per-leaf metadata (description, S(g), size)."""
        result = []
        for leaf in self.leaves():
            result.append(
                LeafSelectivity(
                    description=leaf.leaf_label or f"leaf{leaf.leaf_index}",
                    selectivity=(
                        leaf.leaf_selectivity
                        if leaf.leaf_selectivity is not None
                        else 1.0
                    ),
                    num_edges=len(leaf.edge_ids),
                )
            )
        return result

    def expected_selectivity(self) -> float:
        """Equation 1 over this tree's leaves."""
        return expected_selectivity(self.leaf_selectivities())

    # ------------------------------------------------------------------
    # UPDATE-SJ-TREE (Algorithm 2, symmetric-probing variant)
    # ------------------------------------------------------------------

    def insert_match(
        self,
        node_id: int,
        match: Match,
        window: TimeWindow,
        sink: MatchSink,
        on_insert: Optional[InsertHook] = None,
    ) -> bool:
        """Insert a match at a node and propagate joins toward the root.

        Returns True if the match was new at ``node_id`` (complete matches
        at the root always count as new — they are not stored).

        The hash key is extracted by the node's compiled key plan
        (positional — no vertex map), and the sibling join runs the
        parent's compiled :class:`~repro.isomorphism.match.JoinPlan`,
        which the bucket-key equality lets skip all shared-vertex
        consistency checks.

        Expired sibling entries are *filtered* during the probe
        (``other.min_time >= cutoff``) rather than eagerly evicted: a full
        ``sibling.table.expire()`` here would pay an expiry sweep on
        every insert, while the filter is one comparison per probed
        candidate. This is exact — the filter skips precisely the entries
        an eager expire would have removed (both use the same
        ``min_time < cutoff`` rule) — and the stale entries themselves are
        reclaimed by :meth:`expire`, which the engine's sweep (once per
        quarter window of stream time) and the algorithms'
        ``partial_match_count`` both trigger, so an entry outlives its
        window by at most a quarter window (callers driving a search
        algorithm directly on a finite window should call
        ``housekeeping()`` periodically, as the engine does). A
        graph-backed sibling needs no filter: eviction keeps the graph
        exact.

        This is :meth:`compile_insert`'s closure for the node, looked up
        (compiled on first use) per call.
        """
        return self.compile_insert(node_id, window)(
            match, window.cutoff, sink, on_insert
        )

    def compile_insert(self, node_id: int, window: TimeWindow) -> Callable[..., bool]:
        """``UPDATE-SJ-TREE`` for one node, compiled into a closure
        ``insert(match, cutoff, sink, on_insert=None) -> bool``.

        Everything static per node is resolved here, once: the key plan,
        the sibling, the join orientation, the parent's join plan and the
        *parent's* compiled closure — so a match climbing to the root
        runs a chain of closures, not a recursive re-resolution. The
        batched per-code handlers (see
        ``DynamicGraphSearch.compile_code_handler``) hold a leaf's
        closure directly; :meth:`insert_match` looks it up per call.

        ``cutoff`` is passed per call (it is ``window.cutoff``, hoisted by
        the caller to one read per edge). Of ``window`` only the width —
        immutable by :class:`TimeWindow` contract — is compiled in, and
        closures are cached per ``(node, width)``. Node *objects* are
        captured but their ``table`` attribute is read per call, so
        :meth:`reset_state` and a checkpoint restore (which replace or
        refill tables) never invalidate a closure. Whether a table is a
        :class:`~repro.sjtree.node.GraphLeafView` is compiled in: eager
        search decides that before the first insert.
        """
        width = window.width
        compiled = self._inserts.get((node_id, width))
        if compiled is not None:
            return compiled
        node = self.nodes[node_id]

        if node.is_root:
            # Reached from below, τ < tW was checked by the joining child;
            # reached directly (a single-leaf tree: every leaf match is a
            # complete match) it is checked here.
            complete = self._complete

            def root_insert(match, cutoff, sink, on_insert=None):
                if match.max_time - match.min_time >= width:
                    return False
                complete[0] += 1
                sink(match)
                return True

            self._inserts[node_id, width] = root_insert
            return root_insert

        if type(node.table) is GraphLeafView:
            # a one-edge match from the reference matcher: offer its edge
            insert_edge = self.compile_edge_insert(node_id, window)

            def insert(match, cutoff, sink, on_insert=None):
                if match.min_time < cutoff:
                    return False
                insert_edge(match.edges[0], cutoff, sink)
                return True

            self._inserts[node_id, width] = insert
            return insert

        key_plan = node.compiled_key_plan()
        # Single-vertex keys (1-vertex cuts dominate small queries) are the
        # bare vertex, not a 1-tuple: one allocation per insert saved. Key
        # construction and probing live only in this module and the
        # checkpoint loader, and a table only ever sees one key arity (a
        # node's key plan is fixed and siblings share the parent's cut),
        # so bare and tuple keys never mix in one table.
        bare = len(key_plan) == 1
        slot0, is_src0 = key_plan[0] if bare else (0, False)
        join_siblings = self._compile_sibling_join(node, window)

        def insert(match, cutoff, sink, on_insert=None):
            if match.min_time < cutoff:
                return False  # contains an edge the window already evicted
            if bare:
                edge = match.edges[slot0]
                key = edge.src if is_src0 else edge.dst
            else:
                edges = match.edges
                key = tuple(
                    [
                        (edges[slot].src if is_src else edges[slot].dst)
                        for slot, is_src in key_plan
                    ]
                )
            if not node.table.insert(key, match):
                return False
            join_siblings(match, key, cutoff, sink, on_insert)

            # The enablement hook runs *after* sibling probing: a
            # retrospective insertion triggered by the hook probes this
            # node's table (where the current match already sits), so
            # firing the hook earlier would let the same root match be
            # assembled from both sides and emitted twice — the root does
            # not deduplicate.
            if on_insert is not None:
                on_insert(node, match)
            return True

        self._inserts[node_id, width] = insert
        return insert

    def compile_edge_insert(self, node_id: int, window: TimeWindow) -> Callable:
        """The insert of a graph-backed leaf, compiled into a closure
        ``insert_edge(edge, cutoff, sink)`` over the arriving data edge.

        The edge already sits in the graph, which is the leaf's table, so
        the insert is a counter bump; then the sibling probe runs as in
        :meth:`compile_insert`, with the edge itself as the leaf side of
        every join. No staleness gate: the edge is the newest in the
        window. The caller skips self-loops, which the leaf never matches.
        Eager trees only — no enablement hook.
        """
        width = window.width
        compiled = self._inserts.get((node_id, width, "edge"))
        if compiled is not None:
            return compiled
        node = self.nodes[node_id]
        is_src0 = node.table.key_is_src
        join_siblings = self._compile_sibling_join(node, window)

        def insert_edge(edge, cutoff, sink):
            node.table.inserted_total += 1
            join_siblings(edge, edge.src if is_src0 else edge.dst, cutoff, sink, None)

        self._inserts[node_id, width, "edge"] = insert_edge
        return insert_edge

    def _compile_sibling_join(self, node: SJTreeNode, window: TimeWindow) -> Callable:
        """``join_siblings(item, key, cutoff, sink, on_insert)``: join
        ``item`` — a match just stored at ``node``, or the bare edge a
        graph-backed ``node`` was offered — with every live sibling entry
        under ``key`` and insert the results at the parent.

        The sibling bucket is iterated live: the parent's closure only
        touches tables strictly above this leaf pair. A stored sibling's
        stale entries are skipped by the cutoff filter; a graph-backed
        sibling reads the graph segment, whose self-loops it skips and
        which the replay horizon cuts off at the edge being replayed.
        """
        width = window.width
        nodes = self.nodes
        parent = nodes[node.parent]  # type: ignore[index]
        sibling = nodes[node.sibling]  # type: ignore[index]
        as_left = parent.left == node.node_id
        plan = self._join_plan(parent)
        item_is_edge = type(node.table) is GraphLeafView
        other_is_edge = type(sibling.table) is GraphLeafView
        if item_is_edge and other_is_edge:
            join = plan.join_edges
        elif item_is_edge:
            join = plan.join_edge_match if as_left else plan.join_match_edge
        elif other_is_edge:
            join = plan.join_match_edge if as_left else plan.join_edge_match
        else:
            join = plan.join
        insert_parent = self.compile_insert(parent.node_id, window)

        if not other_is_edge:

            def join_siblings(item, key, cutoff, sink, on_insert):
                for other in sibling.table.probe(key):
                    if other.min_time < cutoff:
                        continue  # stale entry awaiting the housekeeping sweep
                    joined = join(item, other) if as_left else join(other, item)
                    if joined is None:
                        continue
                    if joined.max_time - joined.min_time >= width:
                        continue  # τ(g) must stay below tW
                    insert_parent(joined, cutoff, sink, on_insert)

            return join_siblings

        index = sibling.table.index
        code = sibling.table.code
        horizon = self.horizon

        def join_siblings(item, key, cutoff, sink, on_insert):
            by_code = index.get(key)
            if by_code is None:
                return
            others = by_code.get(code)
            if others is None:
                return
            limit = horizon[0]
            for other in others:
                if other.src == other.dst:
                    continue  # a self-loop never matches a non-loop leaf
                if limit is not None and other.edge_id > limit:
                    break  # a replayed edge sees no later one
                joined = join(item, other) if as_left else join(other, item)
                if joined is None:
                    continue
                if joined.max_time - joined.min_time >= width:
                    continue
                insert_parent(joined, cutoff, sink, on_insert)

        return join_siblings

    def _join_plan(self, parent: SJTreeNode) -> JoinPlan:
        """The sibling join at ``parent`` (compiled on first use)."""
        if parent.join_plan is None:
            nodes = self.nodes
            parent.join_plan = JoinPlan(
                nodes[parent.left].match_shape(),  # type: ignore[index]
                nodes[parent.right].match_shape(),  # type: ignore[index]
                parent.match_shape(),
            )
        return parent.join_plan

    # ------------------------------------------------------------------
    # maintenance / accounting
    # ------------------------------------------------------------------

    def expire(self, cutoff: float) -> int:
        """Expire stale partial matches in every stored table; return total
        dropped. Graph-backed leaves are skipped: eviction keeps them exact."""
        if math.isinf(cutoff) and cutoff < 0:
            return 0
        return sum(
            node.table.expire(cutoff)
            for node in self.nodes
            if type(node.table) is not GraphLeafView
        )

    def total_partial_matches(self) -> int:
        """Live partial matches across all nodes."""
        return sum(len(node.table) for node in self.nodes)

    def space_estimate(self) -> int:
        """§5.2: ``S(T) = Σ |E(g_k)| · frequency(g_k)`` over live state."""
        return sum(node.space_estimate() for node in self.nodes)

    def lifetime_inserts(self) -> int:
        """Total number of partial matches ever stored (memory pressure)."""
        return sum(node.table.inserted_total for node in self.nodes)

    def reset_state(self) -> None:
        """Drop all partial matches (keeps the decomposition)."""
        for node in self.nodes:
            node.table = node.table.empty_copy()
        self.complete_matches = 0

    # ------------------------------------------------------------------
    # description
    # ------------------------------------------------------------------

    def describe(self) -> str:
        """Multi-line rendering of the decomposition (Fig. 8 style)."""
        lines = [
            f"SJ-Tree for query {self.query.name or '<anonymous>'} "
            f"({self.num_leaves} leaves, Ŝ={self.expected_selectivity():.3e})"
        ]
        for leaf in self.leaves():
            edge_desc = ", ".join(
                f"v{e.src}-{e.etype}->v{e.dst}"
                for e in sorted(leaf.fragment.edges, key=lambda e: e.edge_id)
            )
            sel = (
                f"{leaf.leaf_selectivity:.3e}"
                if leaf.leaf_selectivity is not None
                else "?"
            )
            lines.append(
                f"  leaf {leaf.leaf_index}: {{{edge_desc}}}  "
                f"S={sel}  {leaf.leaf_label}"
            )
        for node in self.nodes:
            if not node.is_leaf:
                lines.append(
                    f"  join #{node.node_id}: edges={sorted(node.edge_ids)} "
                    f"cut={node.cut_vertices}"
                )
        return "\n".join(lines)


def leaf_partition_of(tree: SJTree) -> List[Tuple[int, ...]]:
    """The ordered edge partition a tree was built from (round-trip aid)."""
    return [tuple(sorted(leaf.edge_ids)) for leaf in tree.leaves()]
