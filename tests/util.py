"""Shared test helpers: tiny graph builders and an oracle matcher.

``brute_force_matches`` enumerates *all* injective query-edge → data-edge
assignments directly (O(|E_d|^|E_q|)); it is deliberately independent of
both production matchers (anchored backtracker, VF2) so the three can be
cross-checked on small inputs.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.graph import Edge, EdgeEvent, StreamingGraph, TimeWindow
from repro.query import QueryGraph
from repro.sjtree.node import MatchTable

Fingerprint = Tuple[Tuple[int, int], ...]


def graph_from_tuples(
    rows: Sequence[tuple],
    window: float = math.inf,
) -> StreamingGraph:
    """Build a graph from ``(src, dst, etype[, timestamp[, stype, dtype]])``."""
    graph = StreamingGraph(window)
    for i, row in enumerate(rows):
        src, dst, etype = row[0], row[1], row[2]
        timestamp = row[3] if len(row) > 3 else float(i)
        src_type = row[4] if len(row) > 4 else "node"
        dst_type = row[5] if len(row) > 5 else "node"
        graph.add_event(EdgeEvent(src, dst, etype, timestamp, src_type, dst_type))
    return graph


def events_from_tuples(rows: Sequence[tuple]) -> List[EdgeEvent]:
    """Events from ``(src, dst, etype[, timestamp[, stype, dtype]])``."""
    events = []
    for i, row in enumerate(rows):
        src, dst, etype = row[0], row[1], row[2]
        timestamp = row[3] if len(row) > 3 else float(i)
        src_type = row[4] if len(row) > 4 else "node"
        dst_type = row[5] if len(row) > 5 else "node"
        events.append(EdgeEvent(src, dst, etype, timestamp, src_type, dst_type))
    return events


def brute_force_matches(
    graph: StreamingGraph,
    query: QueryGraph,
    window: Optional[TimeWindow] = None,
) -> Set[Fingerprint]:
    """All match fingerprints by exhaustive assignment enumeration."""
    data_edges = list(graph.edges())
    query_edges = list(query.edges)
    results: Set[Fingerprint] = set()

    def vertex_ok(qv: int, dv) -> bool:
        return query.vertex_ok(qv, dv, graph.vertex_type(dv))

    def extend(
        index: int,
        assignment: Dict[int, Edge],
        vmap: Dict[int, object],
        used_data: Set[int],
    ) -> None:
        if index == len(query_edges):
            times = [e.timestamp for e in assignment.values()]
            if window is not None and not window.fits(min(times), max(times)):
                return
            results.add(tuple(sorted((q, e.edge_id) for q, e in assignment.items())))
            return
        qedge = query_edges[index]
        for dedge in data_edges:
            if dedge.etype != qedge.etype or dedge.edge_id in used_data:
                continue
            new_bindings: List[tuple] = []
            trial = dict(vmap)
            ok = True
            for qv, dv in ((qedge.src, dedge.src), (qedge.dst, dedge.dst)):
                bound = trial.get(qv)
                if bound is not None:
                    if bound != dv:
                        ok = False
                        break
                    continue
                if not vertex_ok(qv, dv) or dv in trial.values():
                    ok = False
                    break
                trial[qv] = dv
                new_bindings.append((qv, dv))
            if not ok:
                continue
            assignment[qedge.edge_id] = dedge
            for qv, dv in new_bindings:
                vmap[qv] = dv
            used_data.add(dedge.edge_id)
            extend(index + 1, assignment, vmap, used_data)
            used_data.discard(dedge.edge_id)
            for qv, _ in new_bindings:
                del vmap[qv]
            del assignment[qedge.edge_id]

    extend(0, {}, {}, set())
    return results


def fingerprints(matches: Iterable) -> Set[Fingerprint]:
    """Fingerprint set from Match objects or MatchRecords."""
    result = set()
    for item in matches:
        match = getattr(item, "match", item)
        result.add(match.fingerprint)
    return result


class CheckingTable(MatchTable):
    """A :class:`MatchTable` that raises when an invariant the production
    table relies on, but does not check, is violated:

    * its zero-copy ``probe`` hands out the live bucket, so no bucket may
      be mutated while a probe of it is still being iterated (the
      left-deep re-entrancy argument that retired copy-on-write);
    * with ``dedup`` off it keeps no identity set, so it must never be
      offered a match it already holds (the eager-search argument).
    """

    __slots__ = ("_probing", "_offered")

    def __init__(self, track_expiry: bool = True, dedup: bool = True) -> None:
        super().__init__(track_expiry, dedup)
        self._probing: Dict[object, int] = {}
        self._offered: Set[tuple] = set()

    def insert(self, key, match) -> bool:
        if self._probing.get(key):
            raise AssertionError(f"bucket {key!r} mutated while a probe iterates it")
        if not self.dedup:
            ident = tuple(edge.edge_id for edge in match.edges)
            if ident in self._offered:
                raise AssertionError(f"dedup-free table offered a duplicate: {match!r}")
            self._offered.add(ident)
        return super().insert(key, match)

    def probe(self, key):
        return self._guarded(key, super().probe(key))

    def _guarded(self, key, bucket):
        self._probing[key] = self._probing.get(key, 0) + 1
        try:
            yield from bucket
        finally:
            self._probing[key] -= 1

    def expire(self, cutoff: float) -> int:
        if any(self._probing.values()):
            raise AssertionError("expiry sweep while a probe iterates a bucket")
        dropped = super().expire(cutoff)
        if dropped and not self.dedup:
            self._offered = {tuple(e.edge_id for e in m.edges) for m in self}
        return dropped


def install_checking_tables(engine) -> int:
    """Swap every (still empty) ``MatchTable`` of ``engine``'s SJ-Trees for
    a :class:`CheckingTable`; returns how many were swapped. Compiled
    insert closures read ``node.table`` per call, so this is safe after
    ``register()``."""
    swapped = 0
    for registered in engine.queries.values():
        if registered.tree is None:
            continue
        for node in registered.tree.nodes:
            table = node.table
            if type(table) is MatchTable:
                assert len(table) == 0
                node.table = CheckingTable(table.track_expiry, table.dedup)
                swapped += 1
    return swapped
