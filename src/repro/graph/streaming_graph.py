"""Streaming multi-relational graph store with sliding-window eviction.

This is the data-graph substrate (``Gd`` in the paper). Design goals, in
order:

1. **O(1) edge insertion** (`add_edge`) — the engine calls it for every
   stream element (Algorithm 1, line 3 ``UPDATE-GRAPH``).
2. **Type-indexed neighbourhood access** — the anchored subgraph
   isomorphism used by both the eager and lazy search only ever asks
   *"give me the edges of type t leaving/entering vertex v"*. Adjacency is
   therefore a two-level index ``vertex -> etype code -> segment``, where
   each segment is an append-only arrival-ordered ring
   (:class:`collections.deque` — contiguous 64-slot blocks, O(1) append
   and pop-front, dense C-level iteration with no hash-bucket hopping on
   the compiled-plan scan path).
3. **Amortised O(1) eviction** — edges live in a FIFO deque in arrival
   order; because stream timestamps are non-decreasing, expired edges are
   always at the head. Eviction is the *only* removal path, and it always
   removes each segment's front element (arrival order within a segment
   equals global arrival order), so segments never need keyed deletion —
   the invariant that lets them be rings instead of dicts.

Edge and vertex types are interned through the shared
:data:`~repro.graph.types.VOCABULARY` at ingest, so every per-edge index
is keyed by dense ints; the string-typed public accessors translate once
per call. Compiled match plans hold codes directly and use the ``*_code``
accessors, paying no translation at all on the per-candidate hot path.

Vertices are typed on first sight (``λV``); a vertex is dropped when its
last incident edge is evicted, mirroring REMOVE-SUBGRAPH's rule that a
vertex disappears only when it becomes disconnected.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, Iterable, Iterator, Optional

from ..errors import EdgeNotFoundError, GraphError, VertexNotFoundError
from .types import DEFAULT_VERTEX_TYPE, VOCABULARY, Edge, EdgeEvent, VertexId
from .window import TimeWindow

# vertex -> etype code -> arrival-ordered edge segment
_AdjIndex = Dict[VertexId, Dict[int, "deque[Edge]"]]

_EMPTY: tuple = ()


class StreamingGraph:
    """A directed, typed multigraph maintained over a sliding time window.

    Parameters
    ----------
    window:
        Width of the time window ``tW`` (same unit as event timestamps),
        or ``math.inf`` to keep everything. A :class:`TimeWindow` instance
        may be passed to share a clock with other components.

    Examples
    --------
    >>> g = StreamingGraph(window=60.0)
    >>> e = g.add_event(EdgeEvent("a", "b", "TCP", 1.0, "ip", "ip"))
    >>> [x.etype for x in g.out_edges("a")]
    ['TCP']
    """

    def __init__(self, window: float | TimeWindow = math.inf) -> None:
        if isinstance(window, TimeWindow):
            self._window = window
        else:
            self._window = TimeWindow(float(window))
        self._edges: Dict[int, Edge] = {}
        self._arrival: deque[Edge] = deque()
        self._out: _AdjIndex = {}
        self._in: _AdjIndex = {}
        self._by_type: Dict[int, deque[Edge]] = {}
        # etype code -> live self-loops of that type (graph-backed SJ-Tree
        # leaves count their non-loop edges off ``_by_type`` with it)
        self._loops: Dict[int, int] = {}
        # vertex -> vtype code (λV, typed on first sight)
        self._vertex_types: Dict[VertexId, int] = {}
        self._degrees: Dict[VertexId, int] = {}
        self._next_edge_id = 0
        self._total_inserted = 0
        self._last_timestamp = -math.inf
        self._evicted_count = 0

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def add_event(
        self, event: EdgeEvent, *, evict: bool = True, edge_id: Optional[int] = None
    ) -> Edge:
        """Insert a stream event; return the stored :class:`Edge`.

        Advances the window clock and, when ``evict`` is true, drops edges
        older than ``t_last - tW`` (§2 of the paper). Events must arrive in
        non-decreasing timestamp order; a NaN timestamp is out of order
        everywhere (it compares false with every clock). A ``+inf``
        timestamp is rejected too: it would evict every live edge and put
        every later finite event out of order.

        ``edge_id`` pins the id the stored edge receives instead of the
        next auto-assigned one; it must not go backwards. The sharded
        runtime uses this to give a type-filtered worker graph the *same*
        edge ids the full single-process graph would assign (the global
        stream position), so match fingerprints stay comparable across
        execution paths.
        """
        timestamp = event.timestamp
        # written so NaN fails it: a NaN clock would never evict again
        if not self._last_timestamp <= timestamp < math.inf:
            if timestamp == math.inf:
                raise GraphError(
                    f"event timestamp {timestamp} is not finite; it would "
                    "evict the whole window"
                )
            raise GraphError(
                "out-of-order event: timestamp "
                f"{timestamp} is not >= last seen {self._last_timestamp}; "
                "sort the stream with iter_events_sorted() first"
            )
        return self.add_prepared(
            event.src,
            event.dst,
            event.etype,
            VOCABULARY.etype_code(event.etype),
            timestamp,
            event.src_type,
            event.dst_type,
            edge_id=edge_id,
            evict=evict,
        )

    def add_prepared(
        self,
        src: VertexId,
        dst: VertexId,
        etype: str,
        code: int,
        timestamp: float,
        src_type: str,
        dst_type: str,
        *,
        edge_id: Optional[int] = None,
        evict: bool = True,
    ) -> Edge:
        """Insert a pre-validated, pre-interned edge (the batch hot path).

        The chunked engine loop interns etype codes and validates
        timestamp monotonicity once per chunk (see
        :class:`~repro.graph.columnar.EdgeChunk`), so this entry point
        skips both. Callers **must** guarantee ``timestamp`` does not go
        backwards and ``code == VOCABULARY.etype_code(etype)`` — use
        :meth:`add_event` otherwise.
        """
        if edge_id is not None:
            if edge_id < self._next_edge_id:
                raise GraphError(
                    f"edge id {edge_id} goes backwards (next auto id is "
                    f"{self._next_edge_id}); explicit ids must be increasing"
                )
            self._next_edge_id = edge_id
        self._last_timestamp = timestamp
        cutoff = self._window.advance(timestamp)
        if evict:
            arrival = self._arrival
            if arrival and arrival[0].timestamp < cutoff:
                self.evict_expired()

        edge = Edge(
            edge_id=self._next_edge_id,
            src=src,
            dst=dst,
            etype=etype,
            timestamp=timestamp,
            etype_code=code,
        )
        eid = edge.edge_id
        self._next_edge_id = eid + 1
        self._total_inserted += 1
        self._edges[eid] = edge
        self._arrival.append(edge)
        degrees = self._degrees
        vertex_types = self._vertex_types
        if src not in vertex_types:
            vertex_types[src] = VOCABULARY.vtype_code(src_type)
            degrees[src] = 0
        if dst not in vertex_types:
            vertex_types[dst] = VOCABULARY.vtype_code(dst_type)
            degrees[dst] = 0
        # First sight wins: re-typing an existing vertex is ignored, which
        # matches how the paper's datasets type vertices once.
        by_code = self._out.get(src)
        if by_code is None:
            by_code = self._out[src] = {}
        segment = by_code.get(code)
        if segment is None:
            by_code[code] = deque((edge,))
        else:
            segment.append(edge)
        by_code = self._in.get(dst)
        if by_code is None:
            by_code = self._in[dst] = {}
        segment = by_code.get(code)
        if segment is None:
            by_code[code] = deque((edge,))
        else:
            segment.append(edge)
        segment = self._by_type.get(code)
        if segment is None:
            self._by_type[code] = deque((edge,))
        else:
            segment.append(edge)
        degrees[src] += 1
        if dst != src:
            degrees[dst] += 1
        else:
            self._loops[code] = self._loops.get(code, 0) + 1
        return edge

    def add_edge(
        self,
        src: VertexId,
        dst: VertexId,
        etype: str,
        timestamp: float,
        src_type: str = DEFAULT_VERTEX_TYPE,
        dst_type: str = DEFAULT_VERTEX_TYPE,
    ) -> Edge:
        """Convenience wrapper building the :class:`EdgeEvent` inline."""
        return self.add_event(EdgeEvent(src, dst, etype, timestamp, src_type, dst_type))

    def add_events(
        self, events: Iterable[EdgeEvent], *, evict: bool = True
    ) -> list[Edge]:
        """Batch ingest: insert events in order, return the stored edges.

        Semantics are identical to calling :meth:`add_event` per element
        (same clock advancement and eviction points); this is the bulk
        entry point used by oracle/ground-truth loaders and the chunked
        ingest paths of the runtime.
        """
        add_event = self.add_event
        return [add_event(event, evict=evict) for event in events]

    def evict_expired(self) -> int:
        """Drop all edges older than the window cutoff; return the count."""
        cutoff = self._window.cutoff
        evicted = 0
        while self._arrival and self._arrival[0].timestamp < cutoff:
            self._remove(self._arrival.popleft())
            evicted += 1
        self._evicted_count += evicted
        return evicted

    def maybe_evict(self) -> int:
        """Evict iff the oldest live edge has left the window (O(1) probe).

        The head check :meth:`add_event` performs before every insert,
        exposed so the engine's profiled per-event path can time eviction
        separately from insertion (it then inserts with ``evict=False``).
        """
        arrival = self._arrival
        if arrival and arrival[0].timestamp < self._window.cutoff:
            return self.evict_expired()
        return 0

    def _remove(self, edge: Edge) -> None:
        # Only eviction calls this, in arrival order — the edge is still
        # live, so it sits at the *front* of all three of its segments
        # (every earlier segment member was already evicted) and both its
        # endpoints still have live-degree entries. Segments are deleted
        # the moment they empty, so the lookups below cannot miss. The
        # engine's chunk loop (ContinuousQueryEngine._process_chunk) holds
        # the one inline copy of this body and of add_prepared's insert.
        src = edge.src
        dst = edge.dst
        code = edge.etype_code
        del self._edges[edge.edge_id]
        by_code = self._out[src]
        segment = by_code[code]
        segment.popleft()
        if not segment:
            del by_code[code]
        by_code = self._in[dst]
        segment = by_code[code]
        segment.popleft()
        if not segment:
            del by_code[code]
        segment = self._by_type[code]
        segment.popleft()
        if not segment:
            del self._by_type[code]
        degrees = self._degrees
        degrees[src] -= 1
        if dst != src:
            degrees[dst] -= 1
            if degrees[dst] == 0:
                self._drop_vertex(dst)
        else:
            self._loops[code] -= 1
        if degrees[src] == 0:
            self._drop_vertex(src)

    def _drop_vertex(self, vertex: VertexId) -> None:
        del self._degrees[vertex]
        del self._vertex_types[vertex]
        self._out.pop(vertex, None)
        self._in.pop(vertex, None)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def window(self) -> TimeWindow:
        """The shared :class:`TimeWindow` policy object."""
        return self._window

    @property
    def last_timestamp(self) -> float:
        """Newest timestamp ingested so far (``-inf`` when empty).

        The chunked engine validates a whole chunk's monotonicity against
        this clock in one pass (see :meth:`EdgeChunk.presorted`) before
        taking the :meth:`add_prepared` fast path.
        """
        return self._last_timestamp

    @property
    def num_vertices(self) -> int:
        """Number of live (non-evicted) vertices."""
        return len(self._vertex_types)

    @property
    def num_edges(self) -> int:
        """Number of live edges."""
        return len(self._edges)

    @property
    def total_edges_seen(self) -> int:
        """Number of edges ever inserted (live + evicted).

        Tracked separately from the id counter: pinned edge ids (sharded
        workers skipping filtered-out stream positions) fast-forward
        ``_next_edge_id`` past edges this graph never stored.
        """
        return self._total_inserted

    @property
    def evicted_edges(self) -> int:
        """Number of edges evicted by the window so far."""
        return self._evicted_count

    def __len__(self) -> int:
        return len(self._edges)

    def __contains__(self, vertex: VertexId) -> bool:
        return vertex in self._vertex_types

    def has_edge_id(self, edge_id: int) -> bool:
        """Return True if an edge with this id is still live."""
        return edge_id in self._edges

    def edge_by_id(self, edge_id: int) -> Edge:
        """Return the live edge with the given id.

        Raises :class:`EdgeNotFoundError` if the edge never existed or was
        evicted by the window.
        """
        try:
            return self._edges[edge_id]
        except KeyError:
            raise EdgeNotFoundError(
                f"edge {edge_id} not found (evicted or never inserted)"
            ) from None

    def vertex_type(self, vertex: VertexId) -> str:
        """Return ``λV(vertex)``."""
        try:
            return VOCABULARY.vtype_name(self._vertex_types[vertex])
        except KeyError:
            raise VertexNotFoundError(f"vertex {vertex!r} not in graph") from None

    def vertex_type_code(self, vertex: VertexId) -> int:
        """Interned ``λV(vertex)`` code (compiled-plan hot path)."""
        try:
            return self._vertex_types[vertex]
        except KeyError:
            raise VertexNotFoundError(f"vertex {vertex!r} not in graph") from None

    def degree(self, vertex: VertexId) -> int:
        """Total (in + out) degree of a vertex; 0 if absent."""
        return self._degrees.get(vertex, 0)

    def average_degree(self) -> float:
        """Average total degree across live vertices (``d̄`` in the paper)."""
        if not self._degrees:
            return 0.0
        return sum(self._degrees.values()) / len(self._degrees)

    def vertices(self) -> Iterator[VertexId]:
        """Iterate over live vertex ids."""
        return iter(self._vertex_types)

    def edges(self) -> Iterator[Edge]:
        """Iterate over live edges in arrival order."""
        return iter(self._arrival)

    # ------------------------------------------------------------------
    # type-indexed neighbourhood access (hot path for anchored search)
    # ------------------------------------------------------------------

    def out_edges(
        self, vertex: VertexId, etype: Optional[str] = None
    ) -> Iterable[Edge]:
        """Edges leaving ``vertex``, optionally restricted to one type.

        With an ``etype`` this returns the live arrival-ordered adjacency
        segment — no generator frames or copies on the matchers' hot
        path. Callers must not mutate the graph while iterating.
        """
        return self._adj_view(self._out, vertex, etype)

    def in_edges(self, vertex: VertexId, etype: Optional[str] = None) -> Iterable[Edge]:
        """Edges entering ``vertex``, optionally restricted to one type.

        Same view semantics as :meth:`out_edges`.
        """
        return self._adj_view(self._in, vertex, etype)

    def out_edges_code(self, vertex: VertexId, code: int) -> Iterable[Edge]:
        """:meth:`out_edges` keyed by an interned edge-type code.

        The compiled match plans hold codes, so the per-candidate hot path
        never touches a string.
        """
        by_code = self._out.get(vertex)
        if by_code is None:
            return _EMPTY
        segment = by_code.get(code)
        return segment if segment is not None else _EMPTY

    def in_edges_code(self, vertex: VertexId, code: int) -> Iterable[Edge]:
        """:meth:`in_edges` keyed by an interned edge-type code."""
        by_code = self._in.get(vertex)
        if by_code is None:
            return _EMPTY
        segment = by_code.get(code)
        return segment if segment is not None else _EMPTY

    @staticmethod
    def _adj_view(
        index: _AdjIndex, vertex: VertexId, etype: Optional[str]
    ) -> Iterable[Edge]:
        by_code = index.get(vertex)
        if by_code is None:
            return _EMPTY
        if etype is None:
            return StreamingGraph._adj_iter(index, vertex, None)
        code = VOCABULARY.etype_code_if_known(etype)
        if code is None:
            return _EMPTY
        segment = by_code.get(code)
        return segment if segment is not None else _EMPTY

    def incident_edges(
        self, vertex: VertexId, etype: Optional[str] = None
    ) -> Iterator[Edge]:
        """All edges touching ``vertex`` (self-loops reported once)."""
        seen_loops: set[int] = set()
        for edge in self._adj_iter(self._out, vertex, etype):
            if edge.src == edge.dst:
                seen_loops.add(edge.edge_id)
            yield edge
        for edge in self._adj_iter(self._in, vertex, etype):
            if edge.edge_id not in seen_loops:
                yield edge

    @staticmethod
    def _adj_iter(
        index: _AdjIndex, vertex: VertexId, etype: Optional[str]
    ) -> Iterator[Edge]:
        by_code = index.get(vertex)
        if by_code is None:
            return
        if etype is None:
            for segment in by_code.values():
                yield from segment
        else:
            code = VOCABULARY.etype_code_if_known(etype)
            if code is None:
                return
            segment = by_code.get(code)
            if segment:
                yield from segment

    def edges_of_type(self, etype: str) -> Iterator[Edge]:
        """All live edges of one type (insertion order)."""
        code = VOCABULARY.etype_code_if_known(etype)
        if code is None:
            return
        segment = self._by_type.get(code)
        if segment:
            yield from segment

    def edges_of_type_code(self, code: int) -> Iterable[Edge]:
        """All live edges of one interned type code (insertion order).

        Hot-path twin of :meth:`edges_of_type` — skips the label
        interning lookup; an unknown code yields nothing.
        """
        segment = self._by_type.get(code)
        return segment if segment is not None else _EMPTY

    def non_loop_count_code(self, code: int) -> int:
        """Live edges of one interned type that are not self-loops (O(1))."""
        segment = self._by_type.get(code)
        if segment is None:
            return 0
        return len(segment) - self._loops.get(code, 0)

    def count_of_type(self, etype: str) -> int:
        """Number of live edges of one type (O(1))."""
        code = VOCABULARY.etype_code_if_known(etype)
        if code is None:
            return 0
        segment = self._by_type.get(code)
        return len(segment) if segment else 0

    def edge_types(self) -> Iterable[str]:
        """Distinct live edge types."""
        return [VOCABULARY.etype_name(code) for code in self._by_type]

    def out_types(self, vertex: VertexId) -> Iterable[str]:
        """Distinct edge types leaving ``vertex``."""
        return [VOCABULARY.etype_name(code) for code in self._out.get(vertex, _EMPTY)]

    def in_types(self, vertex: VertexId) -> Iterable[str]:
        """Distinct edge types entering ``vertex``."""
        return [VOCABULARY.etype_name(code) for code in self._in.get(vertex, _EMPTY)]

    def neighborhood(self, vertex: VertexId, hops: int) -> set[VertexId]:
        """Vertices reachable from ``vertex`` within ``hops`` undirected hops.

        Used by the IncIsoMatch-style baseline, which re-searches the k-hop
        neighbourhood of every new edge.
        """
        if vertex not in self._vertex_types:
            return set()
        frontier = {vertex}
        seen = {vertex}
        for _ in range(hops):
            nxt: set[VertexId] = set()
            for v in frontier:
                for edge in self.incident_edges(v):
                    other = edge.other_endpoint(v)
                    if other not in seen:
                        seen.add(other)
                        nxt.add(other)
            if not nxt:
                break
            frontier = nxt
        return seen

    def induced_copy(self, vertices: set[VertexId]) -> "StreamingGraph":
        """Un-windowed copy of the subgraph induced by ``vertices``.

        Edge ids (and Edge objects) are preserved, so matches found in the
        copy are directly comparable to matches found in the full graph.
        Used by the IncIsoMatch-style baseline, which re-runs isomorphism
        over the neighbourhood of each new edge.
        """
        copy = StreamingGraph()
        for edge in self._arrival:
            if edge.src in vertices and edge.dst in vertices:
                code = edge.etype_code
                copy._edges[edge.edge_id] = edge
                copy._arrival.append(edge)
                for vertex in (edge.src, edge.dst):
                    if vertex not in copy._vertex_types:
                        copy._vertex_types[vertex] = self._vertex_types[vertex]
                        copy._degrees[vertex] = 0
                copy._out.setdefault(edge.src, {}).setdefault(code, deque()).append(
                    edge
                )
                copy._in.setdefault(edge.dst, {}).setdefault(code, deque()).append(
                    edge
                )
                copy._by_type.setdefault(code, deque()).append(edge)
                copy._degrees[edge.src] += 1
                if edge.dst != edge.src:
                    copy._degrees[edge.dst] += 1
                else:
                    copy._loops[code] = copy._loops.get(code, 0) + 1
                copy._last_timestamp = edge.timestamp
                copy._total_inserted += 1
        copy._next_edge_id = self._next_edge_id
        return copy

    def snapshot_counts(self) -> dict[str, int]:
        """Live edge count per edge type (O(#types) off the ``_by_type``
        index — no vertex iteration)."""
        return {
            VOCABULARY.etype_name(code): len(segment)
            for code, segment in self._by_type.items()
        }
