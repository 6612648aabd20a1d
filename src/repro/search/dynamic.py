"""DYNAMIC-GRAPH-SEARCH (Algorithms 1 + 2) — the "track everything" mode.

Every SJ-Tree leaf primitive is searched around every incoming edge; every
found match is inserted into the tree, where ``UPDATE-SJ-TREE`` hash-joins
it with sibling matches and propagates upward. This is the paper's
``Single`` / ``Path`` configuration (depending on the decomposition used)
— correct but potentially memory-hungry when a leaf primitive is frequent.

Per-edge fast path: leaves are indexed by the *interned codes* of the edge
types their fragments contain, so an incoming edge only visits leaves that
can possibly anchor a match of it (a leaf with no query edge of the
incoming type would fail every ``_seed`` attempt anyway), and each visited
leaf is searched with its compiled
:class:`~repro.isomorphism.plan.MatchPlan`s instead of the interpretive
backtracker. ``compiled_plans=False`` restores the seed behaviour — full
leaf scan through ``find_anchored_matches`` — which the equivalence tests
and the throughput benchmark use as the reference path.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from ..analysis.profiling import ProfileCounters
from ..graph.streaming_graph import StreamingGraph
from ..graph.types import VOCABULARY, Edge
from ..graph.window import TimeWindow
from ..isomorphism.anchored import find_anchored_matches
from ..isomorphism.match import Match
from ..isomorphism.plan import (
    execute_plan_prefiltered,
    execute_plans,
    split_plans_for_code,
)
from ..sjtree.node import FIFOLeafTable, MatchTable, SJTreeNode
from ..sjtree.tree import SJTree
from .base import PHASE_ISO, PHASE_JOIN, SearchAlgorithm

#: Shared empty result of a handler call that completed nothing. Callers
#: only truth-test and iterate handler results, never mutate them.
_NO_MATCHES: List[Match] = []


def leaves_by_etype(
    leaves: List[SJTreeNode],
) -> Dict[int, Tuple[SJTreeNode, ...]]:
    """Index leaves by the interned codes of their fragments' edge types.

    A leaf appears under every type in its fragment's alphabet, preserving
    join order within each bucket, so iterating one bucket visits exactly
    the leaves a full scan would have found matches in. Keys are
    :data:`~repro.graph.types.VOCABULARY` codes — the per-edge lookup is
    ``index.get(edge.etype_code)``, an int-keyed dict hit.
    """
    index: Dict[int, List[SJTreeNode]] = {}
    for leaf in leaves:
        for etype in leaf.fragment.etypes():
            index.setdefault(VOCABULARY.etype_code(etype), []).append(leaf)
    return {code: tuple(bucket) for code, bucket in index.items()}


def disable_expiry_tracking(tree: SJTree, window: TimeWindow) -> None:
    """Turn off match-table expiry bookkeeping for an infinite window.

    Nothing can ever expire when ``tW = ∞``, so the FIFO leaf ring and
    every expiry sweep would be pure waste. Must run before any match is
    stored (the algorithms call it at construction, when tables are empty).
    """
    if math.isinf(window.width):
        for node in tree.nodes:
            node.table.track_expiry = False


def specialize_tables(tree: SJTree) -> None:
    """Strip the table machinery an eager search can never need.

    Only sound for the eager search: each left/right pair is joined
    exactly once, by whichever side arrives later, so no node is ever
    offered a duplicate and duplicate suppression is switched off — with
    one exception, multi-edge leaves, where a window replay
    (``engine.refresh_query``) rediscovers a match once per constituent
    edge because the replayed graph already holds the later ones.
    Single-edge leaves get the FIFO specialization (see
    :class:`~repro.sjtree.node.FIFOLeafTable`): every match stored there
    is built from the arriving edge, so ``min_time`` is non-decreasing in
    insertion order. Must run before any match is stored (construction
    time, when tables are empty); hand-assembled trees whose tables were
    pre-populated are left alone.
    """
    for node in tree.nodes:
        table = node.table
        if type(table) is not MatchTable or len(table):
            continue
        if not node.is_leaf:
            table.dedup = False
        elif len(node.edge_ids) == 1:
            node.table = FIFOLeafTable(track_expiry=table.track_expiry)


class DynamicGraphSearch(SearchAlgorithm):
    """Eager decomposition-driven continuous search."""

    name = "Dynamic"

    def __init__(
        self,
        graph: StreamingGraph,
        tree: SJTree,
        window: Optional[TimeWindow] = None,
        profile: Optional[ProfileCounters] = None,
        name: Optional[str] = None,
        compiled_plans: bool = True,
    ) -> None:
        super().__init__(graph, tree.query, window, profile)
        self.tree = tree
        if name is not None:
            self.name = name
        self.compiled_plans = compiled_plans
        self._leaves = tree.leaves()
        self._leaves_by_etype = leaves_by_etype(self._leaves)
        for leaf in self._leaves:  # hand-built trees may lack plans
            leaf.match_plans()
        disable_expiry_tracking(tree, self.window)
        specialize_tables(tree)

    def process_edge(self, edge: Edge) -> List[Match]:
        results: List[Match] = []
        sink = results.append
        profile = self.profile if self.profile.enabled else None
        if not self.compiled_plans:
            return self._process_edge_legacy(edge, results, sink, profile)
        code = edge.etype_code
        if code < 0:  # hand-built Edge (tests): intern on the fly
            code = VOCABULARY.etype_code(edge.etype)
        leaves = self._leaves_by_etype.get(code)
        if leaves is None:
            return results  # no leaf fragment contains this edge type
        graph = self.graph
        window = self.window
        insert = self.tree.insert_match
        if profile is not None:
            profile.phase_enter(PHASE_ISO)
        for leaf in leaves:
            matches = execute_plans(graph, leaf.plans, edge)
            if not matches:
                continue
            node_id = leaf.node_id
            if profile is not None:
                profile.bump("leaf_matches", len(matches))
                profile.phase_enter(PHASE_JOIN)
                for match in matches:
                    insert(node_id, match, window, sink)
                profile.phase_exit()
            else:
                for match in matches:
                    insert(node_id, match, window, sink)
        if profile is not None:
            profile.phase_exit()
        return self._emit(results)

    def compile_code_handler(self, code: int):
        """Batched per-code handler: leaf routing, anchor gates and tree
        navigation hoisted to compile time (once per distinct etype code
        per chunk, cached by the engine).

        Record-identity with :meth:`process_edge`: the per-edge path
        collects every plan's matches for a leaf and then inserts them;
        this handler inserts per plan as matches surface. The orders are
        identical because plan execution reads only the graph while
        inserts mutate only the tree tables — interleaving cannot change
        what later plans find — and within each leaf the (plan order,
        discovery order) sequence is preserved. Handlers carry no phase
        timers: a profiling engine replays through :meth:`process_edge`,
        whose per-edge ``iso``/``join`` attribution is the accuracy bar
        the Fig. 9/10 experiments rely on.
        """
        if not self.compiled_plans:
            return self.process_edge  # legacy scan has no hoistable gate
        leaves = self._leaves_by_etype.get(code)
        if leaves is None:
            return None  # no leaf fragment contains this edge type
        actions = []
        for leaf in leaves:
            nonloop, loops = split_plans_for_code(leaf.plans, code)
            actions.append(
                (
                    self.tree.compile_insert(leaf.node_id, self.window),
                    nonloop,
                    loops,
                )
            )
        graph = self.graph
        window = self.window
        Match_ = Match

        if len(actions) == 1:
            leaf_insert0, nonloop0, loops0 = actions[0]
            if not loops0 and len(nonloop0) == 1 and nonloop0[0].trivial:
                # Fused fast path for the dominant routing shape — one
                # leaf, one trivial (single-query-edge, non-loop) plan:
                # the whole per-edge body (Match construction, staleness
                # gate, table insert, sibling probe) collapses into one
                # tree-compiled kernel. A loop edge runs no plans,
                # exactly like the general loop over the empty ``loops``
                # list. The results list is reused across calls
                # (completions are rare); copying it out on a hit keeps
                # the returned list caller-owned, as everywhere else.
                shape0 = nonloop0[0].shape
                trivial_insert0 = self.tree.compile_trivial_leaf_insert(
                    leaves[0].node_id, window, shape0
                )
                if trivial_insert0 is not None:
                    results0: List[Match] = []
                    sink0 = results0.append

                    def handle_trivial(edge: Edge) -> List[Match]:
                        if edge.src == edge.dst:
                            return _NO_MATCHES
                        trivial_insert0(edge, window._cutoff, sink0)
                        if results0:
                            out = results0[:]
                            results0.clear()
                            self.matches_emitted += len(out)
                            return out
                        return _NO_MATCHES

                    return handle_trivial

        def handle(edge: Edge) -> List[Match]:
            results: List[Match] = []
            sink = results.append
            cutoff = window._cutoff  # plain attr: skip the property call
            is_loop = edge.src == edge.dst
            for leaf_insert, nonloop, loops in actions:
                for plan in loops if is_loop else nonloop:
                    if plan.trivial:
                        ts = edge.timestamp
                        shape = plan.shape
                        leaf_insert(
                            Match_(shape.qeids, (edge,), ts, ts, shape=shape),
                            cutoff,
                            sink,
                        )
                    else:
                        found: List[Match] = []
                        execute_plan_prefiltered(graph, plan, edge, found)
                        for match in found:
                            leaf_insert(match, cutoff, sink)
            self.matches_emitted += len(results)
            return results

        return handle

    def _process_edge_legacy(self, edge: Edge, results, sink, profile) -> List[Match]:
        """The seed per-edge path: offer the edge to every leaf through the
        interpretive backtracker (benchmark/equivalence reference)."""
        graph = self.graph
        window = self.window
        insert = self.tree.insert_match
        for leaf in self._leaves:
            if profile is not None:
                profile.phase_enter(PHASE_ISO)
            matches = find_anchored_matches(graph, leaf.fragment, edge)
            if profile is not None:
                profile.phase_exit()
            if not matches:
                continue
            if profile is not None:
                profile.bump("leaf_matches", len(matches))
                profile.phase_enter(PHASE_JOIN)
            for match in matches:
                insert(leaf.node_id, match, window, sink)
            if profile is not None:
                profile.phase_exit()
        return self._emit(results)

    def housekeeping(self) -> None:
        self.tree.expire(self.window.cutoff)

    def partial_match_count(self) -> int:
        # Insert-time sibling expiry became a probe-time filter (see
        # SJTree.insert_match), so stale entries may linger in the tables
        # between housekeeping sweeps; sweep before counting so the
        # live-state metric (peak_partial_matches, §5.2 space figures)
        # reports only genuinely live matches.
        self.tree.expire(self.window.cutoff)
        return self.tree.total_partial_matches()
