"""Compiled anchored-match plans — the SJ-Tree leaf fast path.

:func:`~repro.isomorphism.anchored.find_anchored_matches` re-derives the
same decisions for every incoming edge: which query edge to extend next
(``_pick_next`` scans all fragment edges at every recursion level), which
endpoint each candidate binds, and which λV/binding checks apply — plus it
rebuilds ``used_edge_ids``/``used_vertices`` sets from scratch at each
level. For a leaf fragment those decisions depend only on *which* query
edges are already assigned, never on the data, so they can be compiled
once per (fragment, anchor query-edge role) pair and replayed per edge.

:func:`compile_fragment_plans` performs that compilation — one
:class:`MatchPlan` per query edge of the fragment, in edge order — and
:func:`execute_plans` runs them against a data edge. The pair is an exact
drop-in for ``find_anchored_matches``: same matches, same emission order
(plans mirror ``_pick_next``'s deterministic edge-order policy), which the
equivalence property tests pin down.

Plans hold **interned type codes** (see
:data:`~repro.graph.types.VOCABULARY`): the anchor filter and every
adjacency scan compare the int stamped on the edge at ingest against the
int burned in at compile time — no string hashing on the per-candidate
path. Each plan also carries its fragment's
:class:`~repro.isomorphism.match.MatchShape`, so emitted matches share
one qeid tuple and defer the vertex map entirely.

:class:`VertexPlan` does the same for the vertex-anchored search
(:func:`~repro.isomorphism.anchored.find_vertex_anchored_matches`, Lazy
Search's retrospective backfill): per query-vertex role, the role's check
plus the edge-anchored plan of each incident query edge, run over the
vertex's typed out- or in-edges. :func:`compile_vertex_plan` builds it
from a fragment's edge plans and :func:`execute_vertex_plan` runs it —
same matches, same order as the interpretive search. A 1-edge wildcard
leaf gets a specialised body (its matches are the vertex's edges of that
type), and fingerprint deduplication runs only for roles with two or more
incident query edges, the only place a duplicate can arise.

Plans are built at SJ-Tree construction time (see
:meth:`repro.sjtree.node.SJTreeNode.match_plans`), so the per-edge hot
path of the eager and lazy search, and Lazy's backfill, touch no
query-graph methods at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..graph.streaming_graph import StreamingGraph
from ..graph.types import VOCABULARY, Edge, VertexId
from ..query.query_graph import QueryGraph
from .match import Match, MatchShape, shape_for_fragment

#: Step kinds. CLOSE = both endpoints already bound (existence check);
#: EXTEND_OUT / EXTEND_IN = one endpoint bound, candidate edges drawn from
#: the bound vertex's typed adjacency; GLOBAL = neither endpoint bound
#: (disconnected fragment — generic-matcher fallback, never emitted for
#: SJ-Tree leaves, which are connected).
CLOSE = 0
EXTEND_OUT = 1
EXTEND_IN = 2
GLOBAL = 3


@dataclass(frozen=True)
class RoleCheck:
    """Compiled λV constraint + binding for one query-vertex role.

    ``vtype_code`` is the interned vertex-type code (``-1`` = wildcard).
    """

    role: int
    vtype: Optional[str]
    binding: Optional[VertexId]
    vtype_code: int = -1

    def ok(self, graph: StreamingGraph, data_vertex: VertexId) -> bool:
        if (
            self.vtype_code >= 0
            and graph.vertex_type_code(data_vertex) != self.vtype_code
        ):
            return False
        return self.binding is None or self.binding == data_vertex


@dataclass(frozen=True)
class PlanStep:
    """One precompiled backtracking level.

    ``anchor_role`` is the already-bound query vertex whose adjacency is
    scanned (CLOSE: the source role; EXTEND_IN: the destination role).
    ``other_role`` is the query vertex on the far side — bound for CLOSE,
    freshly bound (subject to ``new_check``) for the EXTEND kinds. GLOBAL
    steps carry checks for both endpoints instead.
    """

    kind: int
    edge_id: int
    etype: str
    anchor_role: int
    other_role: int
    new_check: Optional[RoleCheck] = None
    src_check: Optional[RoleCheck] = None  # GLOBAL only
    dst_check: Optional[RoleCheck] = None  # GLOBAL only
    is_loop: bool = False
    etype_code: int = -1


@dataclass(frozen=True)
class MatchPlan:
    """Full compiled plan for one anchor query-edge role."""

    anchor_edge_id: int
    etype: str
    is_loop: bool
    src_check: RoleCheck
    dst_check: RoleCheck
    steps: Tuple[PlanStep, ...]
    #: ``(query_edge_id, slot)`` pairs sorted by query edge id, where slot
    #: 0 is the anchor and slot k is ``steps[k-1]`` — lets the executor
    #: emit the flat edge tuple already in qeid order without a per-match
    #: sort.
    emit_order: Tuple[Tuple[int, int], ...]
    etype_code: int = -1
    #: fragment layout shared by every emitted match
    shape: MatchShape = field(default=None, compare=False)  # type: ignore[assignment]
    #: 1-edge fragment with wildcard/unbound endpoints: the anchor *is*
    #: the match — the executor skips every check but the type/loop gate.
    trivial: bool = False


def _role_check(fragment: QueryGraph, role: int) -> RoleCheck:
    vtype = fragment.vertex_type(role)
    return RoleCheck(
        role=role,
        vtype=vtype,
        binding=fragment.binding(role),
        vtype_code=-1 if vtype is None else VOCABULARY.vtype_code(vtype),
    )


def compile_plan(fragment: QueryGraph, anchor_edge_id: int) -> MatchPlan:
    """Compile the backtracking plan for one anchor query-edge role.

    The step order replays ``_pick_next``'s policy statically: at each
    level, the first fragment edge (in edge order) with both endpoints
    bound wins; otherwise the first with one endpoint bound; otherwise the
    first disconnected edge. Which query vertices are bound at each level
    depends only on which edges were assigned — never on the data — so the
    simulation is exact.
    """
    anchor = fragment.edge(anchor_edge_id)
    bound = {anchor.src, anchor.dst}
    remaining = [e for e in fragment.edges if e.edge_id != anchor_edge_id]
    steps: List[PlanStep] = []
    slot_of: Dict[int, int] = {anchor_edge_id: 0}

    while remaining:
        both = None
        one = None
        for edge in remaining:
            src_b = edge.src in bound
            dst_b = edge.dst in bound
            if src_b and dst_b:
                both = edge
                break
            if (src_b or dst_b) and one is None:
                one = edge
        chosen = both or one or remaining[0]
        remaining.remove(chosen)
        slot_of[chosen.edge_id] = len(steps) + 1

        src_b = chosen.src in bound
        dst_b = chosen.dst in bound
        code = VOCABULARY.etype_code(chosen.etype)
        if src_b and dst_b:
            steps.append(
                PlanStep(
                    kind=CLOSE,
                    edge_id=chosen.edge_id,
                    etype=chosen.etype,
                    anchor_role=chosen.src,
                    other_role=chosen.dst,
                    etype_code=code,
                )
            )
        elif src_b:
            steps.append(
                PlanStep(
                    kind=EXTEND_OUT,
                    edge_id=chosen.edge_id,
                    etype=chosen.etype,
                    anchor_role=chosen.src,
                    other_role=chosen.dst,
                    new_check=_role_check(fragment, chosen.dst),
                    etype_code=code,
                )
            )
        elif dst_b:
            steps.append(
                PlanStep(
                    kind=EXTEND_IN,
                    edge_id=chosen.edge_id,
                    etype=chosen.etype,
                    anchor_role=chosen.dst,
                    other_role=chosen.src,
                    new_check=_role_check(fragment, chosen.src),
                    etype_code=code,
                )
            )
        else:
            steps.append(
                PlanStep(
                    kind=GLOBAL,
                    edge_id=chosen.edge_id,
                    etype=chosen.etype,
                    anchor_role=chosen.src,
                    other_role=chosen.dst,
                    src_check=_role_check(fragment, chosen.src),
                    dst_check=_role_check(fragment, chosen.dst),
                    is_loop=chosen.src == chosen.dst,
                    etype_code=code,
                )
            )
        bound.add(chosen.src)
        bound.add(chosen.dst)

    emit_order = tuple(sorted((eid, slot) for eid, slot in slot_of.items()))
    src_check = _role_check(fragment, anchor.src)
    dst_check = _role_check(fragment, anchor.dst)
    return MatchPlan(
        anchor_edge_id=anchor_edge_id,
        etype=anchor.etype,
        is_loop=anchor.src == anchor.dst,
        src_check=src_check,
        dst_check=dst_check,
        steps=tuple(steps),
        emit_order=emit_order,
        etype_code=VOCABULARY.etype_code(anchor.etype),
        shape=shape_for_fragment(fragment),
        trivial=(
            not steps
            and src_check.vtype_code < 0
            and src_check.binding is None
            and dst_check.vtype_code < 0
            and dst_check.binding is None
        ),
    )


def compile_fragment_plans(fragment: QueryGraph) -> Tuple[MatchPlan, ...]:
    """One plan per query edge of ``fragment``, in fragment edge order —
    the same anchor-role enumeration ``find_anchored_matches`` performs."""
    return tuple(compile_plan(fragment, edge.edge_id) for edge in fragment.edges)


@dataclass(frozen=True)
class VertexPlan:
    """Compiled vertex-anchored search: every match of a fragment in which
    one data vertex takes part (Lazy Search's retrospective backfill).

    ``roles`` holds one entry per query-vertex role that a query edge
    touches, in ``fragment.vertices()`` order: the role's
    :class:`RoleCheck` (shared with the edge plans), one
    ``(outgoing, plan)`` pair per query edge in ``fragment.incident(role)``
    order — ``plan`` is the edge-anchored :class:`MatchPlan` for that
    edge, run on each typed out- (``outgoing``) or in-edge of the vertex —
    and ``dedup``. A match binds the vertex at exactly one role (matches
    are vertex-injective), and at that role it is found once per incident
    query edge, so only a role with two or more incident edges needs
    duplicate suppression.

    ``single`` is set for a 1-edge, non-loop, wildcard fragment (the
    ``Single`` decomposition's usual leaf): ``(etype_code, shape,
    out_first)``. Its matches are exactly the vertex's non-loop edges of
    that type, outgoing then incoming (or the reverse when the fragment
    declares the destination role first).
    """

    roles: Tuple[Tuple[RoleCheck, Tuple[Tuple[bool, MatchPlan], ...], bool], ...]
    single: Optional[Tuple[int, MatchShape, bool]] = None


def compile_vertex_plan(
    fragment: QueryGraph, plans: Optional[Tuple[MatchPlan, ...]] = None
) -> VertexPlan:
    """Compile the vertex-anchored search for ``fragment``.

    ``plans`` are the fragment's edge-anchored plans
    (:func:`compile_fragment_plans`; compiled here when omitted). The
    enumeration replays
    :func:`~repro.isomorphism.anchored.find_vertex_anchored_matches`
    statically — same roles, same incident edges, same candidate order —
    so the two return the same matches in the same order.
    """
    if plans is None:
        plans = compile_fragment_plans(fragment)
    by_edge = {plan.anchor_edge_id: plan for plan in plans}
    roles = []
    for role in fragment.vertices():
        entries = tuple(
            (edge.src == role, by_edge[edge.edge_id])
            for edge in fragment.incident(role)
        )
        if entries:  # a role no edge touches binds nothing
            outgoing, plan = entries[0]
            check = plan.src_check if outgoing else plan.dst_check
            roles.append((check, entries, len(entries) > 1))
    single = None
    if len(plans) == 1 and plans[0].trivial and not plans[0].is_loop:
        plan = plans[0]
        single = (plan.etype_code, plan.shape, roles[0][0] is plan.src_check)
    return VertexPlan(tuple(roles), single)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def split_plans_for_code(
    plans: Tuple[MatchPlan, ...], code: int
) -> Tuple[Tuple[MatchPlan, ...], Tuple[MatchPlan, ...]]:
    """Batch-anchoring gate hoist: ``(non-loop plans, loop plans)`` for
    one interned anchor-edge-type code.

    :func:`execute_plans` re-evaluates the anchor filter
    (``anchor_code != plan.etype_code or anchor_is_loop != plan.is_loop``)
    per (edge, plan). Chunked dispatch routes edges by code, so the code
    half of the gate holds for every edge of the chunk's bucket; resolving
    it here — plus pre-splitting by the loop flag, the only per-edge bit
    left — lets the batched handlers run
    :func:`execute_plan_prefiltered` with no gate at all. Plan order is
    preserved within each split (an edge is either a loop or not, so the
    plans it executes keep their original relative order — emission-order
    identity with the ungated path depends on this).
    """
    routed = [plan for plan in plans if plan.etype_code == code]
    return (
        tuple(plan for plan in routed if not plan.is_loop),
        tuple(plan for plan in routed if plan.is_loop),
    )


def execute_plans(
    graph: StreamingGraph,
    plans: Tuple[MatchPlan, ...],
    anchor: Edge,
    *,
    limit: Optional[int] = None,
) -> List[Match]:
    """All matches the compiled ``plans`` find around ``anchor``.

    Exactly equivalent to ``find_anchored_matches(graph, fragment, anchor)``
    for the fragment the plans were compiled from.
    """
    results: List[Match] = []
    anchor_code = anchor.etype_code
    if anchor_code < 0:  # hand-built Edge (tests): intern on the fly
        anchor_code = VOCABULARY.etype_code(anchor.etype)
    anchor_is_loop = anchor.src == anchor.dst
    for plan in plans:
        if anchor_code != plan.etype_code or anchor_is_loop != plan.is_loop:
            continue
        if plan.trivial:
            # 1-edge wildcard fragment (the "Single" decomposition's usual
            # leaves): the anchor is the whole match, unconditionally.
            ts = anchor.timestamp
            results.append(Match(plan.shape.qeids, (anchor,), ts, ts, shape=plan.shape))
            continue
        _descend(graph, plan, anchor, results, limit)
        if limit is not None and len(results) >= limit:
            break
    return results


def execute_plan_prefiltered(
    graph: StreamingGraph,
    plan: MatchPlan,
    anchor: Edge,
    results: List[Match],
) -> None:
    """Run one plan whose anchor gate was hoisted to chunk level.

    The caller guarantees ``anchor.etype_code == plan.etype_code`` and
    ``(anchor.src == anchor.dst) == plan.is_loop`` (see
    :func:`split_plans_for_code`); only the data-dependent endpoint role
    checks and the backtracking descent remain. Trivial plans are expected
    to be emitted inline by the caller — cheaper than a call — but are
    handled here too for safety.
    """
    if plan.trivial:
        ts = anchor.timestamp
        results.append(Match(plan.shape.qeids, (anchor,), ts, ts, shape=plan.shape))
        return
    _descend(graph, plan, anchor, results, None)


def execute_plan(
    graph: StreamingGraph,
    plan: MatchPlan,
    anchor: Edge,
    results: List[Match],
    *,
    limit: Optional[int] = None,
) -> None:
    """Run one compiled plan; append matches to ``results``."""
    if anchor.etype != plan.etype:
        return
    loop_d = anchor.src == anchor.dst
    if plan.is_loop != loop_d:
        return
    _descend(graph, plan, anchor, results, limit)


def execute_vertex_plan(
    graph: StreamingGraph, plan: VertexPlan, vertex: VertexId
) -> List[Match]:
    """All matches the compiled vertex ``plan`` finds around ``vertex``.

    Exactly equivalent to ``find_vertex_anchored_matches(graph, fragment,
    vertex)`` for the fragment the plan was compiled from: same matches,
    same order.
    """
    results: List[Match] = []
    single = plan.single
    if single is not None:
        code, shape, out_first = single
        qeids = shape.qeids
        append = results.append
        outgoing = graph.out_edges_code(vertex, code)
        incoming = graph.in_edges_code(vertex, code)
        for edges in (outgoing, incoming) if out_first else (incoming, outgoing):
            for edge in edges:
                if edge.src != edge.dst:
                    ts = edge.timestamp
                    append(Match(qeids, (edge,), ts, ts, shape=shape))
        return results
    if vertex not in graph:
        return results
    for check, entries, dedup in plan.roles:
        if not check.ok(graph, vertex):
            continue
        found = [] if dedup else results
        for outgoing, match_plan in entries:
            is_loop = match_plan.is_loop
            candidates = (
                graph.out_edges_code(vertex, match_plan.etype_code)
                if outgoing
                else graph.in_edges_code(vertex, match_plan.etype_code)
            )
            for edge in candidates:
                if (edge.src == edge.dst) == is_loop:
                    _descend(graph, match_plan, edge, found, None)
        if dedup:
            seen: set = set()
            for match in found:
                ident = tuple([edge.edge_id for edge in match.edges])
                if ident not in seen:
                    seen.add(ident)
                    results.append(match)
    return results


def _descend(
    graph: StreamingGraph,
    plan: MatchPlan,
    anchor: Edge,
    results: List[Match],
    limit: Optional[int],
) -> None:
    """Endpoint role checks + backtracking descent (the post-gate body of
    :func:`execute_plan`, shared with the prefiltered batch entry)."""
    if not plan.src_check.ok(graph, anchor.src):
        return
    if not plan.dst_check.ok(graph, anchor.dst):
        return

    shape = plan.shape
    if not plan.steps:
        # 1-edge fragment whose endpoint checks passed: the anchor itself
        # is the whole match — skip the backtracking machinery.
        ts = anchor.timestamp
        results.append(Match(shape.qeids, (anchor,), ts, ts, shape=shape))
        return

    if plan.is_loop:
        vertex_map = {plan.src_check.role: anchor.src}
        used_vertices = {anchor.src}
    else:
        vertex_map = {
            plan.src_check.role: anchor.src,
            plan.dst_check.role: anchor.dst,
        }
        used_vertices = {anchor.src, anchor.dst}
    chosen: List[Edge] = [anchor] + [anchor] * len(plan.steps)
    used_edges = {anchor.edge_id}
    _run(
        graph,
        plan,
        0,
        chosen,
        vertex_map,
        used_edges,
        used_vertices,
        results,
        limit,
    )


def _emit(plan: MatchPlan, chosen: List[Edge], results) -> None:
    edges = tuple(chosen[slot] for _, slot in plan.emit_order)
    lo = hi = chosen[0].timestamp
    for edge in chosen[1:]:
        ts = edge.timestamp
        if ts < lo:
            lo = ts
        elif ts > hi:
            hi = ts
    shape = plan.shape
    results.append(Match(shape.qeids, edges, lo, hi, shape=shape))


def _run(
    graph: StreamingGraph,
    plan: MatchPlan,
    step_index: int,
    chosen: List[Edge],
    vertex_map: Dict[int, VertexId],
    used_edges: set,
    used_vertices: set,
    results: List[Match],
    limit: Optional[int],
) -> None:
    if limit is not None and len(results) >= limit:
        return
    if step_index == len(plan.steps):
        _emit(plan, chosen, results)
        return
    step = plan.steps[step_index]
    slot = step_index + 1

    if step.kind == CLOSE:
        target = vertex_map[step.other_role]
        for data_edge in graph.out_edges_code(
            vertex_map[step.anchor_role], step.etype_code
        ):
            if data_edge.dst != target or data_edge.edge_id in used_edges:
                continue
            chosen[slot] = data_edge
            used_edges.add(data_edge.edge_id)
            _run(
                graph,
                plan,
                slot,
                chosen,
                vertex_map,
                used_edges,
                used_vertices,
                results,
                limit,
            )
            used_edges.discard(data_edge.edge_id)
            if limit is not None and len(results) >= limit:
                return
        return

    if step.kind == EXTEND_OUT or step.kind == EXTEND_IN:
        check = step.new_check
        source = vertex_map[step.anchor_role]
        candidates = (
            graph.out_edges_code(source, step.etype_code)
            if step.kind == EXTEND_OUT
            else graph.in_edges_code(source, step.etype_code)
        )
        for data_edge in candidates:
            new_vertex = data_edge.dst if step.kind == EXTEND_OUT else data_edge.src
            if new_vertex in used_vertices or data_edge.edge_id in used_edges:
                continue
            if not check.ok(graph, new_vertex):
                continue
            chosen[slot] = data_edge
            used_edges.add(data_edge.edge_id)
            used_vertices.add(new_vertex)
            vertex_map[step.other_role] = new_vertex
            _run(
                graph,
                plan,
                slot,
                chosen,
                vertex_map,
                used_edges,
                used_vertices,
                results,
                limit,
            )
            del vertex_map[step.other_role]
            used_vertices.discard(new_vertex)
            used_edges.discard(data_edge.edge_id)
            if limit is not None and len(results) >= limit:
                return
        return

    # GLOBAL: disconnected fragment component — fall back to the graph-wide
    # per-type index (generic-matcher use only; leaves are connected).
    src_check_ok = step.src_check.ok
    for data_edge in graph.edges_of_type_code(step.etype_code):
        loop_d = data_edge.src == data_edge.dst
        if step.is_loop != loop_d:
            continue
        if data_edge.edge_id in used_edges:
            continue
        if step.is_loop:
            if data_edge.src in used_vertices:
                continue
            if not src_check_ok(graph, data_edge.src):
                continue
            chosen[slot] = data_edge
            used_edges.add(data_edge.edge_id)
            used_vertices.add(data_edge.src)
            vertex_map[step.anchor_role] = data_edge.src
            _run(
                graph,
                plan,
                slot,
                chosen,
                vertex_map,
                used_edges,
                used_vertices,
                results,
                limit,
            )
            del vertex_map[step.anchor_role]
            used_vertices.discard(data_edge.src)
            used_edges.discard(data_edge.edge_id)
        else:
            if data_edge.src in used_vertices or data_edge.dst in used_vertices:
                continue
            if not src_check_ok(graph, data_edge.src):
                continue
            if not step.dst_check.ok(graph, data_edge.dst):
                continue
            chosen[slot] = data_edge
            used_edges.add(data_edge.edge_id)
            used_vertices.add(data_edge.src)
            used_vertices.add(data_edge.dst)
            vertex_map[step.anchor_role] = data_edge.src
            vertex_map[step.other_role] = data_edge.dst
            _run(
                graph,
                plan,
                slot,
                chosen,
                vertex_map,
                used_edges,
                used_vertices,
                results,
                limit,
            )
            del vertex_map[step.other_role]
            del vertex_map[step.anchor_role]
            used_vertices.discard(data_edge.dst)
            used_vertices.discard(data_edge.src)
            used_edges.discard(data_edge.edge_id)
        if limit is not None and len(results) >= limit:
            return
