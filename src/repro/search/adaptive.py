"""Adaptive strategy refresh (§7 future work, implemented).

The paper flags two open problems for long-standing queries: the
selectivity order can drift (§6.3), and "migrating existing partial
matches from one SJ-Tree to another" is unaddressed. This module
implements the refresh:

1. re-derive the decomposition (and, under ``strategy="auto"``, the
   Relative-Selectivity decision) from *current* statistics;
2. migrate state by **replaying the live window** through the fresh
   algorithm: because a partial match is retained exactly while all its
   edges are live (see :mod:`repro.sjtree.node`), the state of an
   always-running algorithm is a pure function of the window contents,
   so replaying the live edges in arrival order reconstructs it exactly;
3. suppress re-emission: complete matches rediscovered during the replay
   were already reported when they first completed, so they are dropped
   (their fingerprints are returned for auditability).

The engine drives this via :meth:`ContinuousQueryEngine.refresh_query`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set, Tuple

from ..graph.streaming_graph import StreamingGraph
from ..isomorphism.match import Match
from .base import SearchAlgorithm


@dataclass
class RefreshReport:
    """Outcome of one strategy refresh."""

    query_name: str
    old_strategy: str
    new_strategy: str
    replayed_edges: int
    migrated_partial_matches: int
    suppressed_complete_matches: int
    #: fingerprints of complete matches rediscovered (and suppressed)
    suppressed_fingerprints: Tuple[tuple, ...] = ()

    @property
    def strategy_changed(self) -> bool:
        return self.old_strategy != self.new_strategy


def replay_window(
    graph: StreamingGraph, algorithm: SearchAlgorithm
) -> Tuple[int, List[Match]]:
    """Feed every live edge of ``graph`` through a *fresh* algorithm.

    Returns ``(edges_replayed, complete_matches_found)``. The algorithm
    must share ``graph`` (its anchored searches read the same store) and
    must not have processed any edge yet, or duplicates will be migrated.
    Each edge goes through :meth:`SearchAlgorithm.replay_edge`: the graph
    already holds the later edges of the window, and a graph-backed
    SJ-Tree leaf must not show them to the edge being replayed.
    """
    completed: List[Match] = []
    replayed = 0
    for edge in graph.edges():  # arrival order
        completed.extend(algorithm.replay_edge(edge))
        replayed += 1
    return replayed, completed


def migrate(
    graph: StreamingGraph,
    old: SearchAlgorithm,
    new: SearchAlgorithm,
    query_name: str,
) -> RefreshReport:
    """Replace ``old`` with ``new`` by window replay; report the move."""
    replayed, completed = replay_window(graph, new)
    suppressed: Set[tuple] = {match.fingerprint for match in completed}
    return RefreshReport(
        query_name=query_name,
        old_strategy=old.name,
        new_strategy=new.name,
        replayed_edges=replayed,
        migrated_partial_matches=new.partial_match_count(),
        suppressed_complete_matches=len(suppressed),
        suppressed_fingerprints=tuple(sorted(suppressed)),
    )
