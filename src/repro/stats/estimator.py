"""Selectivity estimator facade.

The paper estimates primitive selectivities "by processing an initial set
of edges from the graph stream" (§5.1) and assumes the selectivity *order*
stays stable afterwards. :class:`SelectivityEstimator` packages the 1-edge
histogram and the 2-edge path counter behind one warmup API:

>>> est = SelectivityEstimator()
>>> est.observe_events(stream_prefix)          # warmup
>>> est.edge_selectivity("TCP")                # doctest: +SKIP

The estimator is deliberately *independent of the data graph store*: it
keeps only per-vertex token counters, so warmup does not require holding
the warmup edges in memory — :meth:`SelectivityEstimator.observe_events`
reads the stream a bounded chunk at a time.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from ..errors import EstimationError
from ..graph.columnar import EdgeChunk
from ..graph.types import IN, OUT, VOCABULARY, Edge, EdgeEvent
from .histogram import EdgeTypeHistogram
from .paths import (
    EdgeMapFn,
    PathSignature,
    Token,
    TwoEdgePathCounter,
    default_edge_map,
)
from .selectivity import LeafSelectivity, SelectivityDistribution

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph.streaming_graph import StreamingGraph
    from ..query.query_graph import QueryGraph

#: events :meth:`SelectivityEstimator.observe_events` holds at a time:
#: warm-up memory is bounded by this, never by the length of the prefix.
OBSERVE_CHUNK = 4096


class SelectivityEstimator:
    """Combined 1-edge and 2-edge-path statistics over a stream prefix."""

    def __init__(self, map_edge: EdgeMapFn = default_edge_map) -> None:
        self.edge_histogram = EdgeTypeHistogram()
        self.path_counter = TwoEdgePathCounter(map_edge)
        self._events_observed = 0
        # a custom Map() sees each edge: no per-type tokens to share
        self._per_event = map_edge is not default_edge_map

    # -- warmup --------------------------------------------------------------

    def observe(self, edge: Edge) -> None:
        """Fold one edge into both distributions."""
        self.edge_histogram.add(edge.etype)
        self.path_counter.add_edge(edge)
        self._events_observed += 1

    def observe_event(self, event: EdgeEvent) -> None:
        """Fold one raw stream event (no store-assigned edge id needed)."""
        self.observe(
            Edge(
                edge_id=-1,
                src=event.src,
                dst=event.dst,
                etype=event.etype,
                timestamp=event.timestamp,
            )
        )

    def observe_events(self, events: Iterable[EdgeEvent]) -> int:
        """Warm up from an event iterable; returns the number consumed.

        Pulls exactly the events it counts (an iterator shared with a
        later consumer is left at the next event) and leaves the path
        table derived, so that cost is part of the warm-up.
        """
        consumed = self._observe_chunks(events)
        self.path_counter.refresh()
        return consumed

    def _observe_chunks(self, events: Iterable[EdgeEvent]) -> int:
        consumed = 0
        if self._per_event:
            for event in events:
                self.observe_event(event)
                consumed += 1
            return consumed
        iterator = iter(events)
        while True:
            batch = list(islice(iterator, OBSERVE_CHUNK))
            if not batch:
                return consumed
            self._observe_chunk(batch)
            consumed += len(batch)

    def _observe_chunk(self, events: List[EdgeEvent]) -> None:
        """Fold one bounded batch in (identity ``Map()`` only): a
        histogram add per distinct type, then the endpoint columns into
        the per-vertex token counts."""
        chunk = EdgeChunk.from_events(events)
        tokens: Dict[int, Tuple[Token, Token]] = {}
        for code, count in Counter(chunk.codes).items():
            etype = VOCABULARY.etype_name(code)
            self.edge_histogram.add(etype, count)
            tokens[code] = ((OUT, etype), (IN, etype))
        self.path_counter.add_columns(
            chunk.srcs, chunk.dsts, map(tokens.__getitem__, chunk.codes)
        )
        self._events_observed += chunk.n

    @property
    def events_observed(self) -> int:
        """Number of edges folded in so far."""
        return self._events_observed

    def require_warm(self) -> None:
        """Raise :class:`EstimationError` if no statistics were collected."""
        if self._events_observed == 0:
            raise EstimationError(
                "selectivity estimator is cold: call observe_events() on a "
                "stream prefix before decomposing queries"
            )

    # -- primitive selectivities ----------------------------------------------

    def edge_selectivity(self, etype: str) -> float:
        """Selectivity of the 1-edge subgraph with this type."""
        return self.edge_histogram.selectivity(etype)

    def path_selectivity(self, signature: PathSignature) -> float:
        """Selectivity of the 2-edge path with this signature."""
        return self.path_counter.selectivity(signature)

    def path_seen(self, signature: PathSignature) -> bool:
        """True if the 2-edge path signature occurred during warmup."""
        return self.path_counter.seen(signature)

    # -- distributions ---------------------------------------------------------

    def edge_distribution(self) -> SelectivityDistribution:
        """1-edge selectivity distribution (ascending by frequency)."""
        return SelectivityDistribution.from_items(self.edge_histogram.as_dict().items())

    def path_distribution(self) -> SelectivityDistribution:
        """2-edge path selectivity distribution (ascending by frequency)."""
        return SelectivityDistribution.from_items(
            self.path_counter.as_counter().items()
        )

    # -- query helpers ----------------------------------------------------------

    def single_edge_leaves(self, query: "QueryGraph") -> list[LeafSelectivity]:
        """Leaf selectivities of the trivial 1-edge decomposition ``T1``.

        Used as the denominator of Relative Selectivity without having to
        build the tree.
        """
        return [
            LeafSelectivity(
                description=edge.etype,
                selectivity=self.edge_selectivity(edge.etype),
                num_edges=1,
            )
            for edge in query.edges
        ]

    def unseen_query_paths(self, query: "QueryGraph") -> list[PathSignature]:
        """2-edge path signatures of the query absent from the warmup sample.

        §6.4 discards generated queries containing such paths ("artificially
        discriminative"); the engine also uses this to fall back to 1-edge
        decomposition, as the paper's generator does.
        """
        from .paths import query_path_signatures  # local: avoids cycle at import

        return [
            sig
            for sig in set(query_path_signatures(query))
            if not self.path_counter.seen(sig)
        ]

    def describe(self, top: int = 5) -> str:
        """Short multi-line summary used by the CLI."""
        edist = self.edge_distribution()
        pdist = self.path_distribution()
        lines = [
            f"observed edges : {self._events_observed}",
            f"edge types     : {len(edist)} (skew {edist.skew():.3f})",
            f"2-edge paths   : {len(pdist)} signatures over "
            f"{pdist.total} instances (skew {pdist.skew():.3f})",
        ]
        for label, count in edist.top(top):
            lines.append(f"  edge {label}: {count}")
        for label, count in pdist.top(top):
            lines.append(f"  path {label}: {count}")
        return "\n".join(lines)


def estimator_from_graph(
    graph: "StreamingGraph", map_edge: Optional[EdgeMapFn] = None
) -> SelectivityEstimator:
    """Build an estimator from the live edges of an existing graph store."""
    estimator = SelectivityEstimator(map_edge or default_edge_map)
    for edge in graph.edges():
        estimator.observe(edge)
    return estimator
