"""Common interface for the continuous search algorithms.

All five strategies (eager/lazy SJ-Tree search plus the two baselines)
implement :class:`SearchAlgorithm`: they share the data graph owned by the
engine and consume one inserted :class:`~repro.graph.Edge` at a time,
returning the *incremental* set of complete matches —
``M(G_d^{k+1}) − M(G_d^k)`` in the problem statement (§2.1).
"""

from __future__ import annotations

import abc
from typing import FrozenSet, List, Optional

from ..analysis.profiling import ProfileCounters
from ..graph.streaming_graph import StreamingGraph
from ..graph.types import Edge
from ..graph.window import TimeWindow
from ..isomorphism.match import Match
from ..query.query_graph import QueryGraph

#: Profile phase names shared by all algorithms (the §6.4.1 split).
PHASE_ISO = "iso"
PHASE_JOIN = "join"


class MatchRecord:
    """A complete match together with its reporting context.

    Hand-written value class rather than a frozen dataclass, as
    :class:`~repro.graph.types.Edge` is: one record is allocated per
    emitted match, and the frozen-dataclass ``__init__`` (one guarded
    ``object.__setattr__`` per field) plus a per-instance ``__dict__``
    are measurable at that rate. Treat instances as immutable.
    """

    __slots__ = ("query_name", "strategy", "match", "completed_at")

    def __init__(
        self, query_name: str, strategy: str, match: Match, completed_at: float
    ) -> None:
        self.query_name = query_name
        self.strategy = strategy
        self.match = match
        self.completed_at = completed_at

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatchRecord):
            return NotImplemented
        return (
            self.query_name == other.query_name
            and self.strategy == other.strategy
            and self.match == other.match
            and self.completed_at == other.completed_at
        )

    def __hash__(self) -> int:
        return hash((self.query_name, self.strategy, self.match, self.completed_at))

    def __repr__(self) -> str:
        return (
            f"MatchRecord(query_name={self.query_name!r}, "
            f"strategy={self.strategy!r}, match={self.match!r}, "
            f"completed_at={self.completed_at!r})"
        )

    def __getstate__(self):
        return (self.query_name, self.strategy, self.match, self.completed_at)

    def __setstate__(self, state) -> None:
        self.query_name, self.strategy, self.match, self.completed_at = state


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

    def housekeeping(self) -> None:
        """Periodic maintenance (expiry sweeps); optional per algorithm."""

    def partial_match_count(self) -> int:
        """Live partial-match state size (0 for stateless baselines)."""
        return 0

    def _emit(self, matches: List[Match]) -> List[Match]:
        self.matches_emitted += len(matches)
        return matches
