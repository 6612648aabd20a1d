"""Selectivity-agnostic baselines the paper compares against.

* :class:`VF2PerEdgeSearch` — the paper's comparison point (§6): a
  non-incremental VF2 search for the whole query graph, run on every new
  edge. (Each match is still reported exactly once because a match can
  only be found at the arrival of its final constituent edge.)
* :class:`IncIsoMatchSearch` — the Fan et al. [6] style incremental
  baseline used in the authors' earlier comparison [3]: on every edge,
  re-run full isomorphism over the diameter-bounded neighbourhood of the
  edge and report matches not seen before.
* :class:`PeriodicVF2Search` — the intro's strawman: re-run the query
  over the whole graph every ``period`` edges; can *miss* matches whose
  window expires between runs, which is exactly the argument for
  incremental processing.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..analysis.profiling import ProfileCounters
from ..graph.streaming_graph import StreamingGraph
from ..graph.types import Edge
from ..graph.window import TimeWindow
from ..isomorphism.match import Match
from ..isomorphism.vf2 import find_isomorphisms
from ..query.query_graph import QueryGraph
from .base import PHASE_ISO, SearchAlgorithm


class VF2PerEdgeSearch(SearchAlgorithm):
    """Non-incremental VF2 on every new edge (the paper's "VF2" series)."""

    name = "VF2"

    def process_edge(self, edge: Edge) -> List[Match]:
        with self.profile.phase(PHASE_ISO):
            matches = find_isomorphisms(
                self.graph, self.query, window=self.window, require_edge=edge
            )
        return self._emit(matches)


class IncIsoMatchSearch(SearchAlgorithm):
    """Neighbourhood re-search with cumulative dedup (IncIsoMatch-style).

    For every new edge, the subgraph induced by the ``diameter``-hop
    neighbourhood of the edge's endpoints is re-searched from scratch and
    previously reported matches are filtered out — incremental in output
    but not in computation, which is what the SJ-Tree approach fixes.
    """

    name = "IncIso"

    def __init__(
        self,
        graph: StreamingGraph,
        query: QueryGraph,
        window: Optional[TimeWindow] = None,
        profile: Optional[ProfileCounters] = None,
    ) -> None:
        super().__init__(graph, query, window, profile)
        self._hops = max(query.diameter(), 1)
        self._seen: Set[Tuple[Tuple[int, int], ...]] = set()

    def process_edge(self, edge: Edge) -> List[Match]:
        with self.profile.phase(PHASE_ISO):
            region = self.graph.neighborhood(edge.src, self._hops)
            region |= self.graph.neighborhood(edge.dst, self._hops)
            local = self.graph.induced_copy(region)
            matches = find_isomorphisms(local, self.query, window=self.window)
        fresh = []
        for match in matches:
            fingerprint = match.fingerprint
            if fingerprint not in self._seen:
                self._seen.add(fingerprint)
                fresh.append(match)
        return self._emit(fresh)

    def housekeeping(self) -> None:
        # Fingerprints of fully expired matches can never recur (edge ids
        # are never reused), so the dedup set is simply left to grow for
        # the bounded streams used in benchmarks.
        return

    def partial_match_count(self) -> int:
        return len(self._seen)


class PeriodicVF2Search(SearchAlgorithm):
    """Whole-graph VF2 every ``period`` edges, with cumulative dedup."""

    name = "PeriodicVF2"

    @classmethod
    def static_relevant_etypes(cls, query):
        # The run-every-k-edges counter must tick on *every* stream edge,
        # including types the query cannot match — opt out of dispatch.
        return None

    def __init__(
        self,
        graph: StreamingGraph,
        query: QueryGraph,
        window: Optional[TimeWindow] = None,
        profile: Optional[ProfileCounters] = None,
        period: int = 100,
    ) -> None:
        super().__init__(graph, query, window, profile)
        if period < 1:
            raise ValueError("period must be >= 1")
        self.period = period
        self._since_last = 0
        self._seen: Set[Tuple[Tuple[int, int], ...]] = set()

    def process_edge(self, edge: Edge) -> List[Match]:
        self._since_last += 1
        if self._since_last < self.period:
            return []
        self._since_last = 0
        with self.profile.phase(PHASE_ISO):
            matches = find_isomorphisms(self.graph, self.query, window=self.window)
        fresh = []
        for match in matches:
            fingerprint = match.fingerprint
            if fingerprint not in self._seen:
                self._seen.add(fingerprint)
                fresh.append(match)
        return self._emit(fresh)

    def partial_match_count(self) -> int:
        return len(self._seen)
