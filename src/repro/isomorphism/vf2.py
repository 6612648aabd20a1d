"""VF2-style subgraph isomorphism for directed, typed multigraphs.

This is the comparison baseline the paper uses (Cordella et al. [5]) and —
just as importantly for this reproduction — a second, *independent*
implementation of subgraph matching: property-based tests assert that the
incremental SJ-Tree strategies, the anchored matcher and this module agree
exactly, which is the strongest correctness evidence a from-scratch build
can offer.

Differences from textbook VF2, forced by the paper's setting:

* The data graph is a **multigraph**; a complete *vertex* mapping can
  correspond to several *edge-level* matches (Definition 3.1.2 maps query
  edges to concrete data edges). After each complete vertex mapping the
  matcher enumerates all injective edge assignments.
* Matches may be filtered by the time window (``τ(g) < tW``) and/or
  required to contain a specific data edge (the per-edge baseline mode).
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Tuple

from ..graph.streaming_graph import StreamingGraph
from ..graph.types import Edge, VertexId
from ..graph.window import TimeWindow
from ..query.query_graph import QueryEdge, QueryGraph
from .match import Match


def find_isomorphisms(
    graph: StreamingGraph,
    query: QueryGraph,
    *,
    window: Optional[TimeWindow] = None,
    require_edge: Optional[Edge] = None,
    limit: Optional[int] = None,
) -> List[Match]:
    """Enumerate subgraph isomorphism matches of ``query`` in ``graph``.

    Parameters
    ----------
    window:
        If given, only matches with span strictly below ``window.width``
        are returned (the paper's reporting condition ``τ(g) < tW``).
    require_edge:
        If given, only matches containing this data edge are returned
        (each such match is still enumerated exactly once).
    limit:
        Stop after this many matches.
    """
    if query.num_edges == 0:
        return []
    results: List[Match] = []
    matcher = _VF2Matcher(graph, query, window, limit)
    if require_edge is None:
        matcher.run(results)
    else:
        for query_edge in query.edges:
            matcher.run_seeded(query_edge, require_edge, results)
            if limit is not None and len(results) >= limit:
                break
    return results


def count_isomorphisms(
    graph: StreamingGraph,
    query: QueryGraph,
    *,
    window: Optional[TimeWindow] = None,
) -> int:
    """Convenience wrapper returning only the number of matches."""
    return len(find_isomorphisms(graph, query, window=window))


class _VF2Matcher:
    """Stateful recursive matcher (one instance per ``find_isomorphisms``)."""

    def __init__(
        self,
        graph: StreamingGraph,
        query: QueryGraph,
        window: Optional[TimeWindow],
        limit: Optional[int],
    ) -> None:
        self.graph = graph
        self.query = query
        self.window = window
        self.limit = limit
        self.qvertices = list(query.vertices())
        # adjacency between query vertices: (qu, qv) -> parallel edge count
        self.parallel: Dict[Tuple[int, int, str], int] = {}
        for edge in query.edges:
            key = (edge.src, edge.dst, edge.etype)
            self.parallel[key] = self.parallel.get(key, 0) + 1

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------

    def run(self, results: List[Match]) -> None:
        """Unseeded enumeration over the whole graph."""
        order = self._vertex_order(first=self._cheapest_root())
        self._match_vertices({}, set(), order, 0, results)

    def run_seeded(
        self, query_edge: QueryEdge, data_edge: Edge, results: List[Match]
    ) -> None:
        """Enumeration restricted to matches mapping query_edge→data_edge."""
        if query_edge.etype != data_edge.etype:
            return
        loop_q = query_edge.src == query_edge.dst
        loop_d = data_edge.src == data_edge.dst
        if loop_q != loop_d:
            return
        core: Dict[int, VertexId] = {}
        used: set[VertexId] = set()
        for qv, dv in (
            (query_edge.src, data_edge.src),
            (query_edge.dst, data_edge.dst),
        ):
            if qv in core:
                if core[qv] != dv:
                    return
                continue
            if not self.query.vertex_ok(qv, dv, self.graph.vertex_type(dv)):
                return
            if dv in used:
                return
            core[qv] = dv
            used.add(dv)
        # Structural feasibility of the pre-seeded pair(s).
        for qv in list(core):
            if not self._feasible(qv, core[qv], core, exclude_self=True):
                return
        order = self._vertex_order(first=query_edge.src, preseeded=set(core))
        self._match_vertices(
            core,
            used,
            order,
            0,
            results,
            forced=(query_edge.edge_id, data_edge),
        )

    # ------------------------------------------------------------------
    # ordering
    # ------------------------------------------------------------------

    def _cheapest_root(self) -> int:
        """Endpoint of the query edge whose type is rarest in the graph."""
        best_edge = min(
            self.query.edges,
            key=lambda e: (self.graph.count_of_type(e.etype), e.edge_id),
        )
        return best_edge.src

    def _vertex_order(
        self, first: int, preseeded: Optional[set[int]] = None
    ) -> List[int]:
        """BFS order over query vertices starting from mapped/seed vertices,
        so every vertex (in a connected query) has a mapped neighbour when
        it is matched. Disconnected queries list later components after."""
        seen = set(preseeded or ())
        seen.add(first)
        order = [v for v in (preseeded or ()) if v != first]
        order.insert(0, first)
        frontier = list(order)
        while frontier:
            nxt: List[int] = []
            for vertex in frontier:
                for edge in self.query.incident(vertex):
                    other = edge.other_endpoint(vertex)
                    if other not in seen:
                        seen.add(other)
                        order.append(other)
                        nxt.append(other)
            frontier = nxt
        for vertex in self.qvertices:  # disconnected leftovers
            if vertex not in seen:
                seen.add(vertex)
                order.append(vertex)
                frontier = [vertex]
                while frontier:
                    nxt = []
                    for v in frontier:
                        for edge in self.query.incident(v):
                            other = edge.other_endpoint(v)
                            if other not in seen:
                                seen.add(other)
                                order.append(other)
                                nxt.append(other)
                    frontier = nxt
        return order

    # ------------------------------------------------------------------
    # vertex phase
    # ------------------------------------------------------------------

    def _match_vertices(
        self,
        core: Dict[int, VertexId],
        used: set[VertexId],
        order: List[int],
        depth: int,
        results: List[Match],
        forced: Optional[Tuple[int, Edge]] = None,
    ) -> None:
        if self.limit is not None and len(results) >= self.limit:
            return
        while depth < len(order) and order[depth] in core:
            depth += 1
        if depth == len(order):
            self._expand_edges(core, results, forced)
            return
        qv = order[depth]
        for dv in self._candidates(qv, core):
            if dv in used:
                continue
            if not self.query.vertex_ok(qv, dv, self.graph.vertex_type(dv)):
                continue
            if not self._feasible(qv, dv, core):
                continue
            core[qv] = dv
            used.add(dv)
            self._match_vertices(core, used, order, depth + 1, results, forced)
            del core[qv]
            used.discard(dv)
            if self.limit is not None and len(results) >= self.limit:
                return

    def _candidates(self, qv: int, core: Dict[int, VertexId]) -> Iterator[VertexId]:
        """Data-vertex candidates for ``qv`` given the current core."""
        binding = self.query.binding(qv)
        if binding is not None:
            if binding in self.graph:
                yield binding
            return
        # Prefer expansion through an already-mapped neighbour.
        for edge in self.query.incident(qv):
            other = edge.other_endpoint(qv)
            if other == qv or other not in core:
                continue
            anchor = core[other]
            if edge.src == qv:  # edge qv -> other : data edges entering anchor
                seen_local = set()
                for data_edge in self.graph.in_edges(anchor, edge.etype):
                    if data_edge.src not in seen_local:
                        seen_local.add(data_edge.src)
                        yield data_edge.src
            else:  # edge other -> qv
                seen_local = set()
                for data_edge in self.graph.out_edges(anchor, edge.etype):
                    if data_edge.dst not in seen_local:
                        seen_local.add(data_edge.dst)
                        yield data_edge.dst
            return
        # Root of a (new) component: seed from the rarest incident edge
        # type's global index, or all vertices if qv is isolated.
        incident = self.query.incident(qv)
        if incident:
            edge = min(incident, key=lambda e: self.graph.count_of_type(e.etype))
            seen_local = set()
            for data_edge in self.graph.edges_of_type(edge.etype):
                dv = data_edge.src if edge.src == qv else data_edge.dst
                if dv not in seen_local:
                    seen_local.add(dv)
                    yield dv
        else:
            yield from self.graph.vertices()

    def _feasible(
        self,
        qv: int,
        dv: VertexId,
        core: Dict[int, VertexId],
        exclude_self: bool = False,
    ) -> bool:
        """Check that every query edge between ``qv`` and mapped vertices is
        realisable with sufficient parallel-edge multiplicity."""
        for (qs, qd, etype), needed in self.parallel.items():
            if qs == qv and (qd in core):
                if exclude_self and qd == qv:
                    continue
                target = core[qd] if qd != qv else dv
                have = sum(
                    1
                    for e in self.graph.out_edges(dv, etype)
                    if e.dst == target
                )
                if have < needed:
                    return False
            elif qd == qv and qs in core and qs != qv:
                source = core[qs]
                have = sum(1 for e in self.graph.in_edges(dv, etype) if e.src == source)
                if have < needed:
                    return False
        return True

    # ------------------------------------------------------------------
    # edge phase
    # ------------------------------------------------------------------

    def _expand_edges(
        self,
        core: Dict[int, VertexId],
        results: List[Match],
        forced: Optional[Tuple[int, Edge]],
    ) -> None:
        """Enumerate injective data-edge assignments for a full vertex map."""
        candidates: List[List[Edge]] = []
        for edge in self.query.edges:
            if forced is not None and edge.edge_id == forced[0]:
                data_edge = forced[1]
                if data_edge.src != core[edge.src] or data_edge.dst != core[edge.dst]:
                    return
                candidates.append([data_edge])
                continue
            source, target = core[edge.src], core[edge.dst]
            bucket = [
                e for e in self.graph.out_edges(source, edge.etype) if e.dst == target
            ]
            if not bucket:
                return
            candidates.append(bucket)

        width = self.window.width if self.window is not None else math.inf
        self._assign_edges(candidates, 0, [], set(), core, width, results)

    def _assign_edges(
        self,
        candidates: List[List[Edge]],
        index: int,
        chosen: List[Edge],
        used_ids: set[int],
        core: Dict[int, VertexId],
        width: float,
        results: List[Match],
    ) -> None:
        """Backtrack over ``candidates[index:]``, extending ``chosen``.

        A method rather than a nested recursive closure: such a closure
        references itself through its own cell, a reference cycle that
        keeps the whole search frame (and the matcher) alive until the
        cyclic collector runs.
        """
        if self.limit is not None and len(results) >= self.limit:
            return
        if index == len(candidates):
            times = [e.timestamp for e in chosen]
            lo, hi = min(times), max(times)
            if hi - lo < width:
                items = sorted(
                    (self.query.edges[i].edge_id, chosen[i])
                    for i in range(len(chosen))
                )
                results.append(
                    Match(
                        tuple(qeid for qeid, _ in items),
                        tuple(edge for _, edge in items),
                        lo,
                        hi,
                        vertex_map=dict(core),
                    )
                )
            return
        for data_edge in candidates[index]:
            if data_edge.edge_id in used_ids:
                continue
            chosen.append(data_edge)
            used_ids.add(data_edge.edge_id)
            self._assign_edges(
                candidates, index + 1, chosen, used_ids, core, width, results
            )
            chosen.pop()
            used_ids.remove(data_edge.edge_id)
