"""Common interface for the continuous search algorithms.

All five strategies (eager/lazy SJ-Tree search plus the two baselines)
implement :class:`SearchAlgorithm`: they share the data graph owned by the
engine and consume one inserted :class:`~repro.graph.Edge` at a time,
returning the *incremental* set of complete matches —
``M(G_d^{k+1}) − M(G_d^k)`` in the problem statement (§2.1).
"""

from __future__ import annotations

import abc
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..analysis.profiling import ProfileCounters
from ..graph.streaming_graph import StreamingGraph
from ..graph.types import Edge, VertexId
from ..graph.window import TimeWindow
from ..isomorphism.match import Match, MatchShape, fingerprint_of
from ..query.query_graph import QueryGraph

#: Profile phase names shared by all algorithms (the §6.4.1 split).
PHASE_ISO = "iso"
PHASE_JOIN = "join"


class MatchRecord:
    """A complete match together with its reporting context.

    One compact object per emitted match: the query name, the strategy,
    ``completed_at``, the match's query-edge ids, its ordered data edges
    (the match's lineage) and their time bounds, plus its layout — the
    :class:`~repro.isomorphism.match.MatchShape` of a shape-backed match
    or the vertex-map dict of a map-backed one. Everything else is
    derived when asked: :attr:`match` builds a fresh
    :class:`~repro.isomorphism.match.Match` on each access, and
    :attr:`fingerprint` / :attr:`vertex_map` are computed on each read
    (a stored map-backed vertex map excepted), so a retained record
    costs the same whether or not they were read.

    Hand-written value class rather than a frozen dataclass, as
    :class:`~repro.graph.types.Edge` is: one record is allocated per
    emitted match, and the frozen-dataclass ``__init__`` (one guarded
    ``object.__setattr__`` per field) plus a per-instance ``__dict__``
    are measurable at that rate. Treat instances as immutable.
    """

    __slots__ = (
        "query_name",
        "strategy",
        "completed_at",
        "qeids",
        "edges",
        "min_time",
        "max_time",
        "_layout",
    )

    def __init__(
        self, query_name: str, strategy: str, match: Match, completed_at: float
    ) -> None:
        self.query_name = query_name
        self.strategy = strategy
        self.completed_at = completed_at
        self.qeids = match.qeids
        self.edges = match.edges
        self.min_time = match.min_time
        self.max_time = match.max_time
        self._layout = match._shape or match._vm

    @classmethod
    def from_row(
        cls,
        query_name: str,
        strategy: str,
        completed_at: float,
        shape: MatchShape,
        edges: Tuple[Edge, ...],
        min_time: float,
        max_time: float,
    ) -> "MatchRecord":
        """A record of a shape-backed match from its parts, with no
        intermediate :class:`Match` (the sharded wire decoder's path).
        ``edges`` must be aligned slot-for-slot with ``shape.qeids``."""
        record = cls.__new__(cls)
        record.query_name = query_name
        record.strategy = strategy
        record.completed_at = completed_at
        record.qeids = shape.qeids
        record.edges = edges
        record.min_time = min_time
        record.max_time = max_time
        record._layout = shape
        return record

    @property
    def match(self) -> Match:
        """The complete match, built on each access and never cached."""
        layout = self._layout
        if type(layout) is dict:
            return Match(
                self.qeids, self.edges, self.min_time, self.max_time, vertex_map=layout
            )
        return Match(self.qeids, self.edges, self.min_time, self.max_time, layout)

    @property
    def fingerprint(self) -> Tuple[Tuple[int, int], ...]:
        """``record.match.fingerprint`` without building the match."""
        return fingerprint_of(self.qeids, self.edges)

    @property
    def vertex_map(self) -> Dict[int, VertexId]:
        """``record.match.vertex_map`` without building the match."""
        layout = self._layout
        if type(layout) is dict:
            return layout
        return layout.vertex_map(self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatchRecord):
            return NotImplemented
        return (
            self.query_name == other.query_name
            and self.strategy == other.strategy
            and self.fingerprint == other.fingerprint
            and self.completed_at == other.completed_at
        )

    def __hash__(self) -> int:
        # equal to hashing the match: Match.__hash__ is its fingerprint's
        return hash(
            (self.query_name, self.strategy, self.fingerprint, self.completed_at)
        )

    def __repr__(self) -> str:
        return (
            f"MatchRecord(query_name={self.query_name!r}, "
            f"strategy={self.strategy!r}, match={self.match!r}, "
            f"completed_at={self.completed_at!r})"
        )

    # Pickled as the compact fields themselves: no Match is built.
    def __getstate__(self):
        return (
            self.query_name,
            self.strategy,
            self.completed_at,
            self.qeids,
            self.edges,
            self.min_time,
            self.max_time,
            self._layout,
        )

    def __setstate__(self, state) -> None:
        (
            self.query_name,
            self.strategy,
            self.completed_at,
            self.qeids,
            self.edges,
            self.min_time,
            self.max_time,
            self._layout,
        ) = state


class SearchAlgorithm(abc.ABC):
    """One registered continuous query under one execution strategy."""

    #: Strategy tag used in reports ("Single", "PathLazy", "VF2", ...).
    name: str = "abstract"

    def __init__(
        self,
        graph: StreamingGraph,
        query: QueryGraph,
        window: Optional[TimeWindow] = None,
        profile: Optional[ProfileCounters] = None,
    ) -> None:
        self.graph = graph
        self.query = query
        self.window = window if window is not None else graph.window
        self.profile = profile if profile is not None else ProfileCounters()
        self.matches_emitted = 0

    @abc.abstractmethod
    def process_edge(self, edge: Edge) -> List[Match]:
        """Fold one new data edge in; return newly completed matches."""

    def compile_code_handler(self, code: int) -> Optional["callable"]:
        """A per-edge handler specialized for one interned etype code.

        The engine's batched dispatch kernel resolves routing once per
        distinct code per chunk and caches the result; every edge of that
        code in the chunk is then fed through the returned callable
        (``handler(edge) -> List[Match]``). Returning ``None`` declares
        "no work for this code" — the engine skips the query without a
        call, which must be observably identical to ``process_edge``
        returning ``[]`` without bumping any counter.

        The default — the per-edge entry point itself — is always
        correct; the SJ-Tree strategies override this with closures that
        hoist the leaf routing, anchor gates and tree navigation that
        ``process_edge`` re-derives per edge.
        """
        return self.process_edge

    @classmethod
    def static_relevant_etypes(cls, query: QueryGraph) -> Optional[FrozenSet[str]]:
        """Edge types an instance of ``cls`` for ``query`` would consume.

        Classmethod so shard planning can compute alphabets *before* any
        algorithm (graph, SJ-Tree) exists; :meth:`relevant_etypes` is
        defined in terms of it, keeping the two in lockstep. Subclasses
        that need more than the query's alphabet override this (e.g.
        PeriodicVF2 returns ``None``).
        """
        return frozenset(query.etypes())

    def relevant_etypes(self) -> Optional[FrozenSet[str]]:
        """Edge types this algorithm can possibly consume, or ``None``.

        The engine's type-indexed dispatch only offers an edge to
        algorithms whose set contains its type. ``None`` means "offer every
        edge" — required by algorithms whose behaviour depends on edges the
        query cannot match (e.g. PeriodicVF2's run-every-k-edges counter).
        The default — the query's edge-type alphabet — is exact for every
        matcher that reports a match only when its final constituent edge
        arrives: an edge of a type foreign to the query is never a
        constituent, so skipping it cannot lose or reorder matches.
        """
        return type(self).static_relevant_etypes(self.query)

    def replay_edge(self, edge: Edge) -> List[Match]:
        """:meth:`process_edge` for an edge of a window replay
        (:mod:`repro.search.adaptive`), which runs against a graph that
        already holds the window's later edges."""
        return self.process_edge(edge)

    def housekeeping(self) -> None:
        """Periodic maintenance (expiry sweeps); optional per algorithm."""

    def partial_match_count(self) -> int:
        """Live partial-match state size (0 for stateless baselines)."""
        return 0

    def _emit(self, matches: List[Match]) -> List[Match]:
        self.matches_emitted += len(matches)
        return matches
