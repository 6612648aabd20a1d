"""LAZY-SEARCH (Algorithm 3): selectivity-gated continuous search.

The most selective primitive (leaf 0) is searched around every incoming
edge; every other leaf ``i`` is searched around an edge only if one of the
edge's endpoints has the leaf enabled in the bitmap ``Mb``. Enablement is
driven by match insertions: a match stored at a node whose sibling is leaf
``i`` switches leaf ``i`` on for all data vertices of the match.

Arrival-order robustness (§4): the moment a leaf is freshly enabled at a
vertex, the existing neighbourhood is *retrospectively* searched for
matches of that leaf which arrived before enablement — "when we find g1
and enable the search for g2 … we also perform a search in Gd" (the paper
phrases the example with the roles swapped; the mechanism is the same).
Retrospective discoveries insert normally, so they can cascade further
enablements. Duplicate discoveries are suppressed by the node tables.

Both searches run compiled plans built once per leaf at SJ-Tree build
time (:mod:`repro.isomorphism.plan`): the edge-anchored plans around each
new edge, and the leaf's vertex-anchored :class:`VertexPlan` for the
retrospective pass, inserted through the leaf's compiled
``UPDATE-SJ-TREE`` closure. Vertices are enabled and backfilled in
:meth:`Match.data_vertices_ordered` order, which is the same for the
compiled (shape-backed) and interpretive (map-backed) matches, so both
configurations emit the same records in the same order. The batched
per-code handler reads the bitmap's rows inline. The interpretive
matchers (:mod:`repro.isomorphism.anchored`) run only under
``compiled_plans=False``, the reference configuration.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional

from ..analysis.profiling import ProfileCounters
from ..graph.streaming_graph import StreamingGraph
from ..graph.types import VOCABULARY, Edge
from ..graph.window import TimeWindow
from ..isomorphism.anchored import (
    find_anchored_matches,
    find_vertex_anchored_matches,
)
from ..isomorphism.match import Match
from ..isomorphism.plan import (
    execute_plan_prefiltered,
    execute_plans,
    execute_vertex_plan,
    split_plans_for_code,
)
from ..sjtree.node import SJTreeNode
from ..sjtree.tree import SJTree
from .base import PHASE_ISO, PHASE_JOIN, SearchAlgorithm
from .bitmap import ScanBitmap
from .dynamic import _NO_MATCHES, disable_expiry_tracking, leaves_by_etype


class LazySearch(SearchAlgorithm):
    """Lazy decomposition-driven continuous search (Algorithm 3)."""

    name = "Lazy"

    def __init__(
        self,
        graph: StreamingGraph,
        tree: SJTree,
        window: Optional[TimeWindow] = None,
        profile: Optional[ProfileCounters] = None,
        name: Optional[str] = None,
        retrospective: bool = True,
        compiled_plans: bool = True,
    ) -> None:
        super().__init__(graph, tree.query, window, profile)
        if not tree.is_join_order_connected():
            from ..errors import DecompositionError

            raise DecompositionError(
                "Lazy Search requires a frontier-connected join order: "
                "every leaf must share a query vertex with the leaves "
                "before it, or its enablement bits would never be set at "
                "the right data vertices and matches would be lost. Use "
                "BUILD-SJ-TREE (whose frontier rule guarantees this) or "
                "the eager DynamicGraphSearch for this tree."
            )
        self.tree = tree
        self.bitmap = ScanBitmap(tree.num_leaves)
        #: disabling the retrospective pass reproduces the §4 robustness
        #: failure mode — exercised by an ablation benchmark.
        self.retrospective = retrospective
        if name is not None:
            self.name = name
        # node_id -> leaf index to enable when a match lands on the node
        # (defined where the node's sibling is a leaf other than leaf 0).
        self._enable_target: Dict[int, int] = {}
        for node in tree.nodes:
            if node.is_root or node.sibling is None:
                continue
            sibling = tree.node(node.sibling)
            if sibling.is_leaf and sibling.leaf_index:
                self._enable_target[node.node_id] = sibling.leaf_index
        self._leaves = tree.leaves()
        #: the insert hook, made once (a per-edge closure handing *itself*
        #: to the backfill is a function<->cell cycle per edge that only
        #: the cyclic GC frees), and the sink it emits into: the current
        #: edge's, rebound by every per-edge entry point.
        self._hook = self._on_insert
        self._sink: Optional[Callable[[Match], None]] = None
        #: type-indexed leaf dispatch: an edge only visits leaves whose
        #: fragment contains its type (skipped leaves would fail every
        #: anchor-role seed and never touch the bitmap, so the gating and
        #: enablement behaviour is unchanged).
        self.compiled_plans = compiled_plans
        self._leaves_by_etype = leaves_by_etype(self._leaves)
        for leaf in self._leaves:  # hand-built trees may lack plans
            leaf.match_plans()
        #: per leaf index: the retrospective search ``find(vertex)`` (the
        #: compiled vertex plan, or the interpretive matcher for the
        #: reference configuration) and the leaf's compiled insert
        self._backfill = [
            (
                partial(execute_vertex_plan, graph, leaf.vertex_plan)
                if compiled_plans
                else partial(find_vertex_anchored_matches, graph, leaf.fragment),
                tree.compile_insert(leaf.node_id, self.window),
            )
            for leaf in self._leaves
        ]
        disable_expiry_tracking(tree, self.window)

    # ------------------------------------------------------------------

    def process_edge(self, edge: Edge) -> List[Match]:
        results: List[Match] = []
        self._sink = sink = results.append
        hook = self._hook
        profile = self.profile if self.profile.enabled else None
        if not self.compiled_plans:
            return self._process_edge_legacy(edge, results, sink, hook, profile)
        code = edge.etype_code
        if code < 0:  # hand-built Edge (tests): intern on the fly
            code = VOCABULARY.etype_code(edge.etype)
        leaves = self._leaves_by_etype.get(code)
        if leaves is None:
            return results  # no leaf fragment contains this edge type
        graph = self.graph
        window = self.window
        bitmap = self.bitmap
        insert = self.tree.insert_match
        if profile is not None:
            profile.phase_enter(PHASE_ISO)
        for leaf in leaves:
            index = leaf.leaf_index or 0
            if index > 0 and not (
                bitmap.enabled(edge.src, index)
                or bitmap.enabled(edge.dst, index)
            ):
                continue  # DISABLED(u, n) and DISABLED(v, n)
            matches = execute_plans(graph, leaf.plans, edge)
            if not matches:
                continue
            node_id = leaf.node_id
            if profile is not None:
                profile.bump("leaf_matches", len(matches))
                profile.phase_enter(PHASE_JOIN)
                for match in matches:
                    insert(node_id, match, window, sink, hook)
                profile.phase_exit()
            else:
                for match in matches:
                    insert(node_id, match, window, sink, hook)
        if profile is not None:
            profile.phase_exit()
        return self._emit(results)

    def compile_code_handler(self, code: int):
        """Batched per-code handler (see the eager twin in
        :meth:`DynamicGraphSearch.compile_code_handler` for the
        record-identity argument — interleaved inserts are exact because
        plan execution reads only the graph).

        The bitmap gate stays per edge (enablement is data-dependent) but
        is inlined: the leaf's bit is pre-resolved and the bitmap's row
        dict is read directly (:meth:`ScanBitmap.load` keeps that dict's
        identity, so the bound ``get`` never goes stale). The rows are
        re-read per leaf, because an earlier leaf's insert can enable a
        later leaf for the same edge. The insert hook emits into this
        edge's sink exactly as in the per-edge path — hook firing order
        relative to sibling probes is preserved by
        :meth:`SJTree.compile_insert`.
        """
        if not self.compiled_plans:
            return self.process_edge  # legacy scan has no hoistable gate
        leaves = self._leaves_by_etype.get(code)
        if leaves is None:
            return None  # no leaf fragment contains this edge type
        actions = []
        for leaf in leaves:
            nonloop, loops = split_plans_for_code(leaf.plans, code)
            index = leaf.leaf_index or 0
            actions.append(
                (
                    (1 << index) if index else 0,
                    self.tree.compile_insert(leaf.node_id, self.window),
                    nonloop,
                    loops,
                )
            )
        graph = self.graph
        window = self.window
        row_of = self.bitmap._rows.get
        hook = self._hook
        Match_ = Match
        # Reused across calls (most edges fail every gate, completions are
        # rare); copied out on a hit so the returned list is caller-owned.
        results: List[Match] = []
        sink = results.append

        def handle(edge: Edge) -> List[Match]:
            self._sink = sink
            cutoff = window._cutoff  # plain attr: skip the property call
            src = edge.src
            dst = edge.dst
            is_loop = src == dst
            for bit, leaf_insert, nonloop, loops in actions:
                if bit and not (row_of(src, 0) & bit or row_of(dst, 0) & bit):
                    continue  # DISABLED(u, n) and DISABLED(v, n)
                for plan in loops if is_loop else nonloop:
                    if plan.trivial:
                        ts = edge.timestamp
                        shape = plan.shape
                        leaf_insert(
                            Match_(shape.qeids, (edge,), ts, ts, shape=shape),
                            cutoff,
                            sink,
                            hook,
                        )
                    else:
                        found: List[Match] = []
                        execute_plan_prefiltered(graph, plan, edge, found)
                        for match in found:
                            leaf_insert(match, cutoff, sink, hook)
            if results:
                out = results[:]
                results.clear()
                self.matches_emitted += len(out)
                return out
            return _NO_MATCHES

        return handle

    def _process_edge_legacy(
        self, edge: Edge, results, sink, hook, profile
    ) -> List[Match]:
        """The seed per-edge path: bitmap-gated full leaf scan through the
        interpretive backtracker (benchmark/equivalence reference)."""
        for leaf in self._leaves:
            index = leaf.leaf_index or 0
            if index > 0 and not (
                self.bitmap.enabled(edge.src, index)
                or self.bitmap.enabled(edge.dst, index)
            ):
                continue  # DISABLED(u, n) and DISABLED(v, n)
            if profile is not None:
                profile.phase_enter(PHASE_ISO)
            matches = find_anchored_matches(self.graph, leaf.fragment, edge)
            if profile is not None:
                profile.phase_exit()
            if not matches:
                continue
            if profile is not None:
                profile.bump("leaf_matches", len(matches))
                profile.phase_enter(PHASE_JOIN)
            for match in matches:
                self.tree.insert_match(leaf.node_id, match, self.window, sink, hook)
            if profile is not None:
                profile.phase_exit()
        return self._emit(results)

    # ------------------------------------------------------------------

    def _on_insert(self, node: SJTreeNode, match: Match) -> None:
        target = self._enable_target.get(node.node_id)
        if target is not None:
            self._enable_and_backfill(target, match)

    def _enable_and_backfill(self, leaf_index: int, match: Match) -> None:
        """Turn on leaf ``leaf_index`` for the match's vertices; on fresh
        enablement, retrospectively search the vertex neighbourhood."""
        find, leaf_insert = self._backfill[leaf_index]
        sink, hook = self._sink, self._hook
        cutoff = self.window._cutoff  # fixed while one edge is processed
        enable = self.bitmap.enable
        profile = self.profile if self.profile.enabled else None
        # deterministic vertex order: retro matches are *inserted* per
        # vertex, so set-iteration (hash-seed-dependent) order here would
        # make emission order differ across processes — breaking
        # kill/resume and shard-migration record identity.
        for vertex in match.data_vertices_ordered():
            if not enable(vertex, leaf_index):
                continue
            if profile is not None:
                profile.bump("enablements")
            if not self.retrospective:
                continue
            if profile is not None:
                profile.phase_enter(PHASE_ISO)
            found = find(vertex)
            if profile is not None:
                profile.phase_exit()
            if not found:
                continue
            if profile is not None:
                profile.bump("retro_matches", len(found))
            for retro in found:
                leaf_insert(retro, cutoff, sink, hook)

    # ------------------------------------------------------------------

    def housekeeping(self) -> None:
        self.tree.expire(self.window.cutoff)
        self.bitmap.compact(self.graph)

    def partial_match_count(self) -> int:
        # See DynamicGraphSearch.partial_match_count: probe-time expiry
        # filtering defers reclaim, so sweep before reporting live state.
        self.tree.expire(self.window.cutoff)
        return self.tree.total_partial_matches()
