"""Window-exact selectivity estimation.

The base :class:`~repro.stats.SelectivityEstimator` accumulates statistics
over everything it has seen — the paper's §5.1 protocol (estimate once on
a stream prefix, assume the order stays stable). For the adaptive path
(§7, implemented in :mod:`repro.search.adaptive`) a *drift-aware* variant
is more useful: selectivities computed over exactly the edges currently
inside the time window, so a strategy refresh reacts to what the graph
looks like *now*.

:class:`WindowedSelectivityEstimator` subscribes to a
:class:`~repro.graph.StreamingGraph`'s arrival order and mirrors its
evictions, keeping both the 1-edge histogram and the 2-edge path counter
exact for the live window at O(1) amortised per edge (the path *table* is
derived from the counts when it is next read, not per edge).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List

from ..graph.types import Edge, EdgeEvent
from ..graph.window import TimeWindow
from .estimator import SelectivityEstimator
from .paths import EdgeMapFn, default_edge_map


class WindowedSelectivityEstimator(SelectivityEstimator):
    """Selectivity statistics over a sliding time window.

    Feed it the same stream the graph sees (``observe``/``observe_event``);
    expired edges are retracted automatically using the same cutoff rule
    as :class:`~repro.graph.StreamingGraph` (``timestamp < t_last − tW``).

    >>> est = WindowedSelectivityEstimator(window=10.0)
    >>> est.observe_event(EdgeEvent("a", "b", "TCP", 0.0))
    >>> est.observe_event(EdgeEvent("b", "c", "UDP", 20.0))  # evicts the TCP edge
    >>> est.edge_selectivity("TCP")
    0.0
    >>> est.edge_selectivity("UDP")
    1.0
    """

    def __init__(
        self,
        window: float | TimeWindow,
        map_edge: EdgeMapFn = default_edge_map,
    ) -> None:
        super().__init__(map_edge)
        self._window = (
            window if isinstance(window, TimeWindow) else TimeWindow(float(window))
        )
        self._live: Deque[Edge] = deque()

    @property
    def window(self) -> TimeWindow:
        return self._window

    @property
    def live_edges(self) -> int:
        """Number of edges currently inside the window."""
        return len(self._live)

    def observe(self, edge: Edge) -> None:
        """Fold one edge in and retract everything that just expired."""
        self._retract_before(self._window.advance(edge.timestamp))
        super().observe(edge)
        self._live.append(edge)

    def observe_events(self, events: Iterable[EdgeEvent]) -> int:
        """Events must arrive in non-decreasing timestamp order.

        Unlike the base class this leaves the path table to the next
        read: a window is fed far more often than it is asked.
        """
        return self._observe_chunks(events)

    def _observe_chunk(self, events: List[EdgeEvent]) -> None:
        # Adding the whole batch and then retracting up to its last cutoff
        # ends in the same window as doing both per event: the cutoff only
        # moves forward, and an edge is retracted strictly after it was added.
        super()._observe_chunk(events)
        self._live.extend(Edge(-1, e.src, e.dst, e.etype, e.timestamp) for e in events)
        self._retract_before(self._window.advance(max(e.timestamp for e in events)))

    def _retract_before(self, cutoff: float) -> None:
        live = self._live
        while live and live[0].timestamp < cutoff:
            self._retract_oldest()

    def _retract_oldest(self) -> None:
        expired = self._live.popleft()
        self.edge_histogram.remove(expired.etype)
        self.path_counter.remove_edge(expired)

    def retract_all(self) -> None:
        """Empty the window (used when re-basing onto a new stream)."""
        while self._live:
            self._retract_oldest()
