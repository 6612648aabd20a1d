"""Match representation (Definition 3.1.2) and the join operation
(Definition 3.1.3) plus the projection operator Π used for join keys.

A :class:`Match` is a set of edge pairs — a mapping from *query* edges to
*data* edges — together with the induced vertex mapping. It is:

* **consistent** — shared query vertices map to one data vertex;
* **vertex-injective** — distinct query vertices map to distinct data
  vertices (subgraph *isomorphism*, not homomorphism);
* **edge-injective** — distinct query edges map to distinct data edges.

Encoding
--------
A match is stored **flat**: a tuple of query edge ids sorted ascending
(``qeids``, shared per fragment — every match of the same fragment points
at the same tuple object) plus a parallel tuple of data edges. Everything
else is derived:

* the *fingerprint* (sorted ``(query_edge_id, data_edge_id)`` pairs, the
  canonical identity matches compare and hash on) is computed on each
  read and never cached: the SJ-Tree tables dedupe on packed edge-id
  tuples instead, and a cache slot would cost every retained match;
* the *vertex map* of a shape-backed match is derived from the
  fragment's :class:`MatchShape` on each read — per-edge matching and
  hash joins never build it; only emission-time consumers (CLI
  printing, tests, the generic :meth:`Match.join`) pay for the dict.
  Only the interpretive matchers' *map-backed* matches store one.

:class:`MatchShape` is the per-fragment static layout: where each query
vertex's data binding lives inside the flat edge tuple. :class:`JoinPlan`
compiles the sibling hash-join of ``UPDATE-SJ-TREE`` against a pair of
shapes so the hot join allocates exactly one output tuple and one Match.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..graph.types import Edge, VertexId
from ..query.query_graph import QueryEdge


class MatchShape:
    """Static layout shared by every match covering one query-edge set.

    ``qeids`` is the sorted tuple of query edge ids; slot ``i`` of a
    match's edge tuple maps query edge ``qeids[i]``. ``role_sources``
    records, for each distinct query vertex (*role*), the first slot whose
    src/dst binds it — the positional recipe for materializing the vertex
    map (and for extracting join keys) without building a dict. It is
    sorted by role, the order :meth:`Match.data_vertices_ordered` walks
    for map-backed matches too.
    """

    __slots__ = ("qeids", "etypes", "edge_roles", "role_sources")

    def __init__(self, query_edges: Sequence[QueryEdge]) -> None:
        ordered = sorted(query_edges, key=lambda e: e.edge_id)
        self.qeids: Tuple[int, ...] = tuple(e.edge_id for e in ordered)
        #: per slot: the edge type every data edge bound there must carry
        self.etypes: Tuple[str, ...] = tuple(e.etype for e in ordered)
        #: per slot: the (src_role, dst_role) query vertices of that edge
        self.edge_roles: Tuple[Tuple[int, int], ...] = tuple(
            (e.src, e.dst) for e in ordered
        )
        sources: List[Tuple[int, int, bool]] = []
        seen: set[int] = set()
        for slot, (src_role, dst_role) in enumerate(self.edge_roles):
            if src_role not in seen:
                seen.add(src_role)
                sources.append((src_role, slot, True))
            if dst_role not in seen:
                seen.add(dst_role)
                sources.append((dst_role, slot, False))
        #: (role, slot, is_src) triples, one per distinct query vertex, in
        #: role order: first-appearance order differs from it whenever an
        #: edge's src role is greater than its dst role (``1 -> 0``), and
        #: Lazy Search enables and backfills vertices in this order
        self.role_sources: Tuple[Tuple[int, int, bool], ...] = tuple(sorted(sources))

    def role_accessors(self) -> Dict[int, Tuple[int, bool]]:
        """``role -> (slot, is_src)`` lookup (plan-compile helper)."""
        return {role: (slot, is_src) for role, slot, is_src in self.role_sources}

    def vertex_map(self, edges: Sequence[Edge]) -> Dict[int, VertexId]:
        """The query-vertex → data-vertex map of an edge tuple laid out
        by this shape (a fresh dict per call)."""
        return {
            role: (edges[slot].src if is_src else edges[slot].dst)
            for role, slot, is_src in self.role_sources
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MatchShape(qeids={self.qeids})"


def shape_for_fragment(fragment) -> MatchShape:
    """The (cached) :class:`MatchShape` of a query fragment.

    Cached on the fragment itself; :meth:`QueryGraph.add_edge` invalidates
    the cache, so builder-style mutation stays safe.
    """
    shape = getattr(fragment, "_match_shape", None)
    if shape is None:
        shape = MatchShape(fragment.edges)
        fragment._match_shape = shape
    return shape


def fingerprint_of(
    qeids: Sequence[int], edges: Sequence[Edge]
) -> Tuple[Tuple[int, int], ...]:
    """Sorted ``(query_edge_id, data_edge_id)`` pairs of aligned
    ``qeids`` / ``edges`` — the identity :class:`Match` and
    :class:`~repro.search.base.MatchRecord` compare and hash on."""
    return tuple(zip(qeids, [edge.edge_id for edge in edges]))


class Match:
    """An immutable (partial) match: query-edge → data-edge pairs."""

    __slots__ = ("qeids", "edges", "min_time", "max_time", "_shape", "_vm")

    def __init__(
        self,
        qeids: Tuple[int, ...],
        edges: Tuple[Edge, ...],
        min_time: float,
        max_time: float,
        shape: Optional[MatchShape] = None,
        vertex_map: Optional[Dict[int, VertexId]] = None,
    ) -> None:
        # Trusted constructor: ``qeids`` must be sorted ascending with
        # ``edges`` aligned slot-for-slot, and at least one of ``shape`` /
        # ``vertex_map`` must describe the vertex bindings. Use ``build``
        # for validated input.
        self.qeids = qeids
        self.edges = edges
        self.min_time = min_time
        self.max_time = max_time
        self._shape = shape
        self._vm = vertex_map

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        query_edges: Mapping[int, QueryEdge],
        assignment: Mapping[int, Edge],
    ) -> Optional["Match"]:
        """Validated construction from ``{query_edge_id: data_edge}``.

        Returns ``None`` if the assignment violates type agreement,
        vertex consistency, vertex injectivity or edge injectivity.
        (Vertex *constraints* — λV / bindings — are the matchers' job;
        this checks structural validity only.)
        """
        vertex_map: Dict[int, VertexId] = {}
        used_vertices: Dict[VertexId, int] = {}
        used_edges: set[int] = set()
        min_time = float("inf")
        max_time = float("-inf")
        for qeid in assignment:
            if qeid not in query_edges:
                return None
        for qeid, data_edge in assignment.items():
            query_edge = query_edges[qeid]
            if query_edge.etype != data_edge.etype:
                return None
            if data_edge.edge_id in used_edges:
                return None
            used_edges.add(data_edge.edge_id)
            for qv, dv in (
                (query_edge.src, data_edge.src),
                (query_edge.dst, data_edge.dst),
            ):
                bound = vertex_map.get(qv)
                if bound is None:
                    owner = used_vertices.get(dv)
                    if owner is not None and owner != qv:
                        return None
                    vertex_map[qv] = dv
                    used_vertices[dv] = qv
                elif bound != dv:
                    return None
            min_time = min(min_time, data_edge.timestamp)
            max_time = max(max_time, data_edge.timestamp)
        items = sorted(assignment.items())
        return cls(
            tuple(qeid for qeid, _ in items),
            tuple(edge for _, edge in items),
            min_time,
            max_time,
            vertex_map=vertex_map,
        )

    @classmethod
    def single(cls, qeid: int, query_edge: QueryEdge, data_edge: Edge) -> "Match":
        """Fast path for a validated 1-edge match (matchers' hot path)."""
        if query_edge.src == query_edge.dst:
            vertex_map = {query_edge.src: data_edge.src}
        else:
            vertex_map = {query_edge.src: data_edge.src, query_edge.dst: data_edge.dst}
        return cls(
            (qeid,),
            (data_edge,),
            data_edge.timestamp,
            data_edge.timestamp,
            vertex_map=vertex_map,
        )

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------

    @property
    def pairs(self) -> Tuple[Tuple[int, Edge], ...]:
        """``(query_edge_id, data_edge)`` pairs sorted by query edge id."""
        return tuple(zip(self.qeids, self.edges))

    @property
    def vertex_map(self) -> Dict[int, VertexId]:
        """Induced query-vertex → data-vertex mapping: the stored map of
        a map-backed match, else derived from the shape on each read."""
        vm = self._vm
        if vm is None:
            return self._shape.vertex_map(self.edges)  # type: ignore[union-attr]
        return vm

    @property
    def fingerprint(self) -> Tuple[Tuple[int, int], ...]:
        """Canonical identity: sorted ``(query_edge_id, data_edge_id)``,
        computed on each read."""
        return fingerprint_of(self.qeids, self.edges)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def span(self) -> float:
        """``τ(g)``: time interval covered by the matched edges (§2)."""
        return self.max_time - self.min_time

    def query_edge_ids(self) -> frozenset[int]:
        """The query edges covered by this (partial) match."""
        return frozenset(self.qeids)

    def data_edges(self) -> Tuple[Edge, ...]:
        """The matched data edges."""
        return self.edges

    def data_vertices(self) -> set[VertexId]:
        """Distinct data vertices touched by the match.

        Membership/algebra use only — *iterating* this set is
        hash-seed-dependent and reached emission order once (PR 5);
        order-sensitive callers must use :meth:`data_vertices_ordered`.
        """
        vm = self._vm
        if vm is not None:
            return set(vm.values())
        edges = self.edges
        return {
            edges[slot].src if is_src else edges[slot].dst
            for _, slot, is_src in self._shape.role_sources  # type: ignore[union-attr]
        }

    def data_vertices_ordered(self) -> tuple:
        """Distinct data vertices in ascending query-role order, whether
        the match is map-backed or shape-backed.

        Set iteration order is hash-seed dependent, so two *processes*
        can walk :meth:`data_vertices` differently even on identical
        input. Anything whose observable behaviour depends on the walk
        order — Lazy Search's enablement/backfill pass inserts
        retrospective matches in vertex order, which fixes probe and
        hence emission order — must use this instead, or kill/resume
        across processes would not be record-identical. The two backings
        walk one order for the same reason: the interpretive matcher
        builds map-backed matches, the compiled plans shape-backed ones,
        and both engines must emit the same records in the same order.
        """
        vm = self._vm
        ordered: dict = {}
        if vm is not None:
            for role in sorted(vm):
                ordered.setdefault(vm[role], None)
        else:
            edges = self.edges
            sources = self._shape.role_sources  # type: ignore[union-attr]
            for _, slot, is_src in sources:
                ordered.setdefault(edges[slot].src if is_src else edges[slot].dst, None)
        return tuple(ordered)

    def key_for(self, cut_vertices: Sequence[int]) -> Tuple[VertexId, ...]:
        """Projection Π onto the cut subgraph: the join key (Property 4).

        ``cut_vertices`` are query vertex ids (the intersection of the two
        child subgraphs at the parent SJ-Tree node); the key is the tuple of
        data vertices they map to. The SJ-Tree hot path bypasses this via
        the node's compiled key plan (same projection, positional).
        """
        vm = self.vertex_map
        return tuple(vm[qv] for qv in cut_vertices)

    # ------------------------------------------------------------------
    # join (Definition 3.1.3)
    # ------------------------------------------------------------------

    def join(self, other: "Match") -> Optional["Match"]:
        """Combine two partial matches; ``None`` if they conflict.

        Conflicts: overlapping query edges, overlapping data edges,
        inconsistent or non-injective combined vertex mapping.

        This is the generic (validating) join; the SJ-Tree sibling join
        runs the compiled :class:`JoinPlan` instead, which skips the
        checks the hash-key equality and tree structure already guarantee.
        """
        small, large = (
            (self, other) if len(self.edges) <= len(other.edges) else (other, self)
        )
        large_map = large.vertex_map
        claimed: Optional[set[VertexId]] = None
        merged: Optional[Dict[int, VertexId]] = None
        for qv, dv in small.vertex_map.items():
            bound = large_map.get(qv)
            if bound is not None:
                if bound != dv:
                    return None  # inconsistent on a shared query vertex
                continue
            if claimed is None:
                # Membership probes only ("dv in claimed") — never
                # iterated, so set order cannot reach emission order.
                claimed = set(large_map.values())
            if dv in claimed:
                return None  # would break vertex injectivity
            if merged is None:
                merged = dict(large_map)
            merged[qv] = dv
            claimed.add(dv)
        if merged is None:
            merged = dict(large_map)

        # Edge disjointness (query side and data side).
        small_qeids = set(small.qeids)
        small_data = {edge.edge_id for edge in small.edges}
        for qe, edge in zip(large.qeids, large.edges):
            if qe in small_qeids or edge.edge_id in small_data:
                return None

        items = sorted(zip(self.qeids + other.qeids, self.edges + other.edges))
        return Match(
            tuple(qeid for qeid, _ in items),
            tuple(edge for _, edge in items),
            min(self.min_time, other.min_time),
            max(self.max_time, other.max_time),
            vertex_map=merged,
        )

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Match):
            return NotImplemented
        return self.fingerprint == other.fingerprint

    def __hash__(self) -> int:
        return hash(self.fingerprint)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mapping = ", ".join(
            f"e{qe}->#{edge.edge_id}" for qe, edge in zip(self.qeids, self.edges)
        )
        return f"Match({mapping}, span={self.span:.3g})"


class JoinPlan:
    """Compiled sibling hash-join for one SJ-Tree parent node.

    Everything static is resolved here, from the two child shapes and
    the output shape, into flat check lists that ``join`` — a closure
    built once per plan — walks:

    * *data-edge disjointness* only for slot pairs whose query edges
      share an etype: a data edge binds only query edges of its own
      type, so ``TCP ⋈ UDP`` checks nothing;
    * *vertex injectivity* only between side-exclusive roles, one
      ``(left slot, is_src, right slot, is_src)`` entry per pair. Shared
      roles need no checks: they are exactly the parent's cut, and
      bucket-key equality already pinned them to the same data vertices;
      each side is internally injective;
    * the *merged edge tuple* as one concatenation when the output takes
      all of one side and then all of the other (every join of a path
      query); the general per-slot walk otherwise.

    Query-edge disjointness holds by construction (the children partition
    the parent's edges). A successful join allocates one edge tuple and
    one Match; a failed one nothing.

    ``join(left, right)`` takes a left-child and a right-child match and
    returns the joined match or ``None``. Precondition: both were
    stored/probed under the same bucket key (the cut projection), which
    guarantees consistency on all shared query vertices.

    A side whose shape covers one query edge may instead be passed as the
    bare data :class:`~repro.graph.types.Edge` — what a graph-backed
    SJ-Tree leaf holds — through the edge-side variants
    ``join_match_edge(left, right_edge)``, ``join_edge_match(left_edge,
    right)`` and ``join_edges(left_edge, right_edge)`` (``None`` where
    that side has more than one slot). They run the same checks with the
    edge in slot 0 and build no one-edge Match for it. A bare edge must
    not be a self-loop: its shape's two roles are distinct, and nothing
    here re-checks a side's own injectivity.
    """

    __slots__ = (
        "shape",
        "qeids",
        "join",
        "join_match_edge",
        "join_edge_match",
        "join_edges",
    )

    def __init__(self, left: MatchShape, right: MatchShape, out: MatchShape) -> None:
        self.shape = out
        self.qeids = qeids = out.qeids
        edge_checks = [
            (ls, rs)
            for ls, left_etype in enumerate(left.etypes)
            for rs, right_etype in enumerate(right.etypes)
            if left_etype == right_etype
        ]
        left_roles = left.role_accessors()
        right_roles = right.role_accessors()
        vertex_checks = [
            (ls, lf, rs, rf)
            for left_role, (ls, lf) in left_roles.items()
            if left_role not in right_roles
            for right_role, (rs, rf) in right_roles.items()
            if right_role not in left_roles
        ]
        # ``take``: per output slot, which side/slot supplies the edge (the
        # positional merge of the two sorted qeid tuples); ``order`` is +1 /
        # -1 when that merge is left-then-right / right-then-left.
        left_pos = {qeid: slot for slot, qeid in enumerate(left.qeids)}
        right_pos = {qeid: slot for slot, qeid in enumerate(right.qeids)}
        take = [
            (True, left_pos[qeid]) if qeid in left_pos else (False, right_pos[qeid])
            for qeid in qeids
        ]
        if qeids == left.qeids + right.qeids:
            order = 1
        elif qeids == right.qeids + left.qeids:
            order = -1
        else:
            order = 0
        Match_ = Match

        def join(left: Match, right: Match) -> Optional[Match]:
            le = left.edges
            re_ = right.edges
            for ls, rs in edge_checks:
                if le[ls].edge_id == re_[rs].edge_id:
                    return None
            for ls, lf, rs, rf in vertex_checks:
                e = le[ls]
                f = re_[rs]
                if (e.src if lf else e.dst) == (f.src if rf else f.dst):
                    return None
            if order > 0:
                edges = le + re_
            elif order:
                edges = re_ + le
            else:
                edges = tuple(
                    [le[slot] if from_left else re_[slot] for from_left, slot in take]
                )
            lo = left.min_time
            if right.min_time < lo:
                lo = right.min_time
            hi = left.max_time
            if right.max_time > hi:
                hi = right.max_time
            return Match_(qeids, edges, lo, hi, out)

        self.join = join
        self.join_match_edge = self.join_edge_match = self.join_edges = None
        # Edge-side variants: the bare edge is slot 0 of its side, so its
        # checks drop the slot index (``take`` keeps it for the general
        # merge, where an edge side supplies ``(edge,)[0]``).
        if len(right.qeids) == 1:
            r_edge_checks = [ls for ls, _ in edge_checks]
            r_vertex_checks = [(ls, lf, rf) for ls, lf, _, rf in vertex_checks]

            def join_match_edge(left: Match, f) -> Optional[Match]:
                le = left.edges
                fid = f.edge_id
                for ls in r_edge_checks:
                    if le[ls].edge_id == fid:
                        return None
                for ls, lf, rf in r_vertex_checks:
                    e = le[ls]
                    if (e.src if lf else e.dst) == (f.src if rf else f.dst):
                        return None
                if order > 0:
                    edges = le + (f,)
                elif order:
                    edges = (f,) + le
                else:
                    edges = tuple(
                        [le[slot] if from_left else f for from_left, slot in take]
                    )
                ts = f.timestamp
                lo = left.min_time
                if ts < lo:
                    lo = ts
                hi = left.max_time
                if ts > hi:
                    hi = ts
                return Match_(qeids, edges, lo, hi, out)

            self.join_match_edge = join_match_edge
        if len(left.qeids) == 1:
            l_edge_checks = [rs for _, rs in edge_checks]
            l_vertex_checks = [(lf, rs, rf) for _, lf, rs, rf in vertex_checks]

            def join_edge_match(e, right: Match) -> Optional[Match]:
                re_ = right.edges
                eid = e.edge_id
                for rs in l_edge_checks:
                    if re_[rs].edge_id == eid:
                        return None
                for lf, rs, rf in l_vertex_checks:
                    f = re_[rs]
                    if (e.src if lf else e.dst) == (f.src if rf else f.dst):
                        return None
                if order > 0:
                    edges = (e,) + re_
                elif order:
                    edges = re_ + (e,)
                else:
                    edges = tuple(
                        [e if from_left else re_[slot] for from_left, slot in take]
                    )
                ts = e.timestamp
                lo = right.min_time
                if ts < lo:
                    lo = ts
                hi = right.max_time
                if ts > hi:
                    hi = ts
                return Match_(qeids, edges, lo, hi, out)

            self.join_edge_match = join_edge_match
        if len(left.qeids) == 1 and len(right.qeids) == 1:
            same_etype = bool(edge_checks)
            pair_checks = [(lf, rf) for _, lf, _, rf in vertex_checks]
            left_first = order > 0

            def join_edges(e, f) -> Optional[Match]:
                if same_etype and e.edge_id == f.edge_id:
                    return None
                for lf, rf in pair_checks:
                    if (e.src if lf else e.dst) == (f.src if rf else f.dst):
                        return None
                lo = e.timestamp
                hi = f.timestamp
                if hi < lo:
                    lo, hi = hi, lo
                return Match_(qeids, (e, f) if left_first else (f, e), lo, hi, out)

            self.join_edges = join_edges


def compile_key_plan(
    shape: MatchShape, key_vertices: Sequence[int]
) -> Tuple[Tuple[int, bool], ...]:
    """Positional accessors extracting the Π projection onto a cut.

    For a match of ``shape``, ``tuple(edges[slot].src if is_src else
    edges[slot].dst for slot, is_src in plan)`` equals
    ``match.key_for(key_vertices)`` without materializing the vertex map.
    """
    accessors = shape.role_accessors()
    return tuple(accessors[qv] for qv in key_vertices)


def merge_all(matches: Iterable[Match]) -> Optional[Match]:
    """Left-fold join over an iterable of matches (test helper)."""
    result: Optional[Match] = None
    for match in matches:
        result = match if result is None else result.join(match)
        if result is None:
            return None
    return result
