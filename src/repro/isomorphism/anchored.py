"""Edge- and vertex-anchored subgraph isomorphism.

This is the ``SUBGRAPH-ISO(Gd, gqsub, es)`` routine of Algorithms 1 and 3:
given a small *connected* query fragment and a new data edge (or an
enabled vertex), enumerate every match of the fragment that uses the
anchor. The complexity matches the paper's Appendix analysis — O(1) for a
1-edge fragment, O(d̄) for a 2-edge path, O(d̄²) for 3-edge fragments —
because candidate edges are drawn from the type-indexed adjacency of
already-mapped vertices only.

The backtracker also supports disconnected fragments (falling back to the
graph-wide per-type edge index) so it can double as a generic small-graph
matcher, but SJ-Tree leaves produced by the builder are always connected.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from ..graph.streaming_graph import StreamingGraph
from ..graph.types import Edge, VertexId
from ..query.query_graph import QueryEdge, QueryGraph
from .match import Match


def find_anchored_matches(
    graph: StreamingGraph,
    fragment: QueryGraph,
    anchor: Edge,
    *,
    limit: Optional[int] = None,
) -> List[Match]:
    """All matches of ``fragment`` in ``graph`` that map some query edge to
    ``anchor``.

    Distinct query-edge roles for the anchor yield distinct matches (the
    paper counts matches as mappings, and so do we).
    """
    results: List[Match] = []
    for query_edge in fragment.edges:
        seed = _seed(graph, fragment, query_edge, anchor)
        if seed is None:
            continue
        assignment, vertex_map = seed
        _extend(graph, fragment, assignment, vertex_map, results, limit)
        if limit is not None and len(results) >= limit:
            break
    return results


def find_vertex_anchored_matches(
    graph: StreamingGraph,
    fragment: QueryGraph,
    vertex: VertexId,
    *,
    limit: Optional[int] = None,
) -> List[Match]:
    """All matches of ``fragment`` in which ``vertex`` participates.

    This is the *retrospective search* primitive of Lazy Search (§4): when
    search for a leaf is enabled at a vertex, the existing neighbourhood is
    scanned for matches that arrived before enablement. Results are
    deduplicated (a match touching ``vertex`` at several roles would
    otherwise be found once per role).
    """
    if vertex not in graph:
        return []
    results: List[Match] = []
    seen: set[tuple] = set()
    vertex_type = graph.vertex_type(vertex)
    for query_vertex in fragment.vertices():
        if not fragment.vertex_ok(query_vertex, vertex, vertex_type):
            continue
        for query_edge in fragment.incident(query_vertex):
            direction = query_edge.direction_from(query_vertex)
            candidates = (
                graph.out_edges(vertex, query_edge.etype)
                if direction == "out"
                else graph.in_edges(vertex, query_edge.etype)
            )
            for data_edge in candidates:
                seed = _seed(graph, fragment, query_edge, data_edge)
                if seed is None:
                    continue
                assignment, vertex_map = seed
                if vertex_map.get(query_vertex) != vertex:
                    continue
                found: List[Match] = []
                _extend(graph, fragment, assignment, vertex_map, found, limit)
                for match in found:
                    fingerprint = match.fingerprint
                    if fingerprint not in seen:
                        seen.add(fingerprint)
                        results.append(match)
                        if limit is not None and len(results) >= limit:
                            return results
    return results


# ---------------------------------------------------------------------------
# internals
# ---------------------------------------------------------------------------


def _seed(
    graph: StreamingGraph,
    fragment: QueryGraph,
    query_edge: QueryEdge,
    data_edge: Edge,
) -> Optional[tuple[Dict[int, Edge], Dict[int, VertexId]]]:
    """Try mapping ``query_edge -> data_edge``; return initial state or None."""
    if query_edge.etype != data_edge.etype:
        return None
    loop_q = query_edge.src == query_edge.dst
    loop_d = data_edge.src == data_edge.dst
    if loop_q != loop_d:
        return None
    if not fragment.vertex_ok(
        query_edge.src, data_edge.src, graph.vertex_type(data_edge.src)
    ):
        return None
    if not fragment.vertex_ok(
        query_edge.dst, data_edge.dst, graph.vertex_type(data_edge.dst)
    ):
        return None
    assignment = {query_edge.edge_id: data_edge}
    if loop_q:
        vertex_map = {query_edge.src: data_edge.src}
    else:
        vertex_map = {query_edge.src: data_edge.src, query_edge.dst: data_edge.dst}
    return assignment, vertex_map


def _pick_next(
    fragment: QueryGraph,
    assignment: Dict[int, Edge],
    vertex_map: Dict[int, VertexId],
) -> Optional[QueryEdge]:
    """Next unassigned query edge, preferring fully-mapped endpoints.

    Deterministic (query edge order) so results are reproducible.
    """
    fallback: Optional[QueryEdge] = None
    disconnected: Optional[QueryEdge] = None
    for query_edge in fragment.edges:
        if query_edge.edge_id in assignment:
            continue
        src_mapped = query_edge.src in vertex_map
        dst_mapped = query_edge.dst in vertex_map
        if src_mapped and dst_mapped:
            return query_edge
        if src_mapped or dst_mapped:
            if fallback is None:
                fallback = query_edge
        elif disconnected is None:
            disconnected = query_edge
    return fallback if fallback is not None else disconnected


def _extend(
    graph: StreamingGraph,
    fragment: QueryGraph,
    assignment: Dict[int, Edge],
    vertex_map: Dict[int, VertexId],
    results: List[Match],
    limit: Optional[int],
) -> None:
    """Depth-first completion of a partial assignment."""
    if limit is not None and len(results) >= limit:
        return
    if len(assignment) == fragment.num_edges:
        items = sorted(assignment.items())
        times = [edge.timestamp for edge in assignment.values()]
        results.append(
            Match(
                tuple(qeid for qeid, _ in items),
                tuple(edge for _, edge in items),
                min(times),
                max(times),
                vertex_map=dict(vertex_map),
            )
        )
        return

    query_edge = _pick_next(fragment, assignment, vertex_map)
    if query_edge is None:  # pragma: no cover - defensive
        return
    # Membership filter only ("edge_id in used_edge_ids") — candidate
    # order comes from _candidates (insertion-ordered adjacency), not
    # from walking this set.
    used_edge_ids = {edge.edge_id for edge in assignment.values()}

    for data_edge, new_bindings in _candidates(graph, fragment, query_edge, vertex_map):
        if data_edge.edge_id in used_edge_ids:
            continue
        assignment[query_edge.edge_id] = data_edge
        for qv, dv in new_bindings:
            vertex_map[qv] = dv
        _extend(graph, fragment, assignment, vertex_map, results, limit)
        del assignment[query_edge.edge_id]
        for qv, _ in new_bindings:
            del vertex_map[qv]
        if limit is not None and len(results) >= limit:
            return


def _candidates(
    graph: StreamingGraph,
    fragment: QueryGraph,
    query_edge: QueryEdge,
    vertex_map: Dict[int, VertexId],
) -> Iterator[tuple[Edge, Sequence[tuple[int, VertexId]]]]:
    """Candidate data edges for ``query_edge`` given the current mapping,
    with the vertex bindings each candidate would add."""
    src_mapped = query_edge.src in vertex_map
    dst_mapped = query_edge.dst in vertex_map
    # Membership probes only (injectivity checks below) — never iterated.
    used_vertices = set(vertex_map.values())

    if src_mapped and dst_mapped:
        target = vertex_map[query_edge.dst]
        for data_edge in graph.out_edges(vertex_map[query_edge.src], query_edge.etype):
            if data_edge.dst == target:
                yield data_edge, ()
    elif src_mapped:
        for data_edge in graph.out_edges(vertex_map[query_edge.src], query_edge.etype):
            new_vertex = data_edge.dst
            if new_vertex in used_vertices:
                continue
            if fragment.vertex_ok(
                query_edge.dst, new_vertex, graph.vertex_type(new_vertex)
            ):
                yield data_edge, ((query_edge.dst, new_vertex),)
    elif dst_mapped:
        for data_edge in graph.in_edges(vertex_map[query_edge.dst], query_edge.etype):
            new_vertex = data_edge.src
            if new_vertex in used_vertices:
                continue
            if fragment.vertex_ok(
                query_edge.src, new_vertex, graph.vertex_type(new_vertex)
            ):
                yield data_edge, ((query_edge.src, new_vertex),)
    else:
        # Disconnected fragment component: fall back to the global type
        # index. SJ-Tree leaves are connected, so this path only serves the
        # generic-matcher use of this module.
        loop_q = query_edge.src == query_edge.dst
        for data_edge in graph.edges_of_type(query_edge.etype):
            loop_d = data_edge.src == data_edge.dst
            if loop_q != loop_d:
                continue
            if loop_q:
                if data_edge.src in used_vertices:
                    continue
                if fragment.vertex_ok(
                    query_edge.src, data_edge.src, graph.vertex_type(data_edge.src)
                ):
                    yield data_edge, ((query_edge.src, data_edge.src),)
                continue
            if data_edge.src in used_vertices or data_edge.dst in used_vertices:
                continue
            if data_edge.src == data_edge.dst:
                continue
            if fragment.vertex_ok(
                query_edge.src, data_edge.src, graph.vertex_type(data_edge.src)
            ) and fragment.vertex_ok(
                query_edge.dst, data_edge.dst, graph.vertex_type(data_edge.dst)
            ):
                yield data_edge, (
                    (query_edge.src, data_edge.src),
                    (query_edge.dst, data_edge.dst),
                )
