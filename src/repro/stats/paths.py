"""2-edge path statistics — Algorithm 5 (COUNT-2-EDGE-PATHS) and a
streaming, eviction-aware equivalent that keeps Algorithm 5's per-vertex
token counts per edge and derives the signature table per batch.

A *2-edge path* is an unordered pair of distinct edges sharing a centre
vertex. Its type — the **path signature** — is the unordered pair of
*tokens*, where a token encodes the edge's type and its direction relative
to the centre ("accounting for edge directions", §5.1). The paper's
``Map()`` hook is preserved: pass ``map_edge`` to fold extra edge
attributes into the token, e.g. collapsing ports into protocols.

Self-loops contribute a single ``out`` token at their vertex, consistent
with :meth:`repro.graph.StreamingGraph.incident_edges` reporting them once.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

from ..graph.columnar import pair_sums
from ..graph.types import IN, OUT, Edge, VertexId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph.streaming_graph import StreamingGraph
    from ..query.query_graph import QueryGraph

#: A token: (direction relative to centre, mapped edge type).
Token = Tuple[str, str]
#: A path signature: pair of tokens in canonical (sorted) order.
PathSignature = Tuple[Token, Token]

#: Signature for ``map_edge`` callbacks: (edge, centre_vertex) -> type label.
EdgeMapFn = Callable[[Edge, VertexId], str]

#: :meth:`TwoEdgePathCounter.export_state`: token multiplicities per vertex
VertexTokens = List[Tuple[VertexId, List[Tuple[Token, int]]]]
#: ... and the signature table derived from them.
SignatureCounts = List[Tuple[PathSignature, int]]


def default_edge_map(edge: Edge, centre: VertexId) -> str:
    """The identity ``Map()``: the token type is just ``λE(edge)``."""
    return edge.etype


def make_token(direction: str, etype: str) -> Token:
    """Build a token, validating the direction label."""
    if direction not in (OUT, IN):
        raise ValueError(f"direction must be {OUT!r} or {IN!r}, got {direction!r}")
    return (direction, etype)


def make_signature(token_a: Token, token_b: Token) -> PathSignature:
    """Canonical (order-independent) signature of two tokens."""
    return (token_a, token_b) if token_a <= token_b else (token_b, token_a)


def edge_token(
    edge: Edge, centre: VertexId, map_edge: EdgeMapFn = default_edge_map
) -> Token:
    """Token of ``edge`` as seen from ``centre``."""
    return (edge.direction_from(centre), map_edge(edge, centre))


def count_two_edge_paths(
    graph: "StreamingGraph",
    map_edge: EdgeMapFn = default_edge_map,
) -> Counter[PathSignature]:
    """Algorithm 5, literally: batch-count all 2-edge paths in ``graph``.

    For every vertex ``v``, count the tokens of its incident edges, then
    combine: pairs of the same token contribute ``n·(n−1)/2`` and pairs of
    distinct tokens ``n1·n2`` (lexically-greater constraint ensures each
    unordered pair is counted once). Runs in ``O(V · (d̄ + k²))``.
    """
    paths: Counter[PathSignature] = Counter()
    for vertex in graph.vertices():
        local: Counter[Token] = Counter()
        for edge in graph.incident_edges(vertex):
            local[edge_token(edge, vertex, map_edge)] += 1
        tokens = sorted(local)
        for i, token_a in enumerate(tokens):
            n_a = local[token_a]
            if n_a > 1:
                paths[make_signature(token_a, token_a)] += n_a * (n_a - 1) // 2
            for token_b in tokens[i + 1 :]:  # LEXICALLY-GREATER
                paths[make_signature(token_a, token_b)] += n_a * local[token_b]
    return paths


class TwoEdgePathCounter:
    """Streaming, eviction-aware 2-edge path distribution.

    The maintained state is Algorithm 5's sufficient statistic: how many
    live edges carry each token at each vertex. An insertion or removal
    is one dict update per endpoint. The signature table is *derived*
    from that state with Algorithm 5's closed form, once per batch of
    updates — on :meth:`refresh`, or on the first read after a change —
    so the cost is ``O(1)`` per edge plus ``O(Σᵥ kᵥ²)`` per derive, with
    ``kᵥ`` the distinct tokens at vertex ``v``. Every read is identical
    to re-running :func:`count_two_edge_paths` on the live graph (a
    property-based test enforces this).
    """

    def __init__(self, map_edge: EdgeMapFn = default_edge_map) -> None:
        self._map_edge = map_edge
        self._per_vertex: Dict[VertexId, Dict[Token, int]] = {}
        # derived from ``_per_vertex`` by refresh(), in sorted signature order
        self._paths: Dict[PathSignature, int] = {}
        self._total = 0
        self._stale = False

    # -- stream maintenance -------------------------------------------------

    def add_edge(self, edge: Edge) -> None:
        """Account for a newly inserted edge."""
        src, dst = edge.src, edge.dst
        self._add_token(src, (OUT, self._map_edge(edge, src)))
        if dst != src:
            self._add_token(dst, (IN, self._map_edge(edge, dst)))

    def remove_edge(self, edge: Edge) -> None:
        """Account for an evicted edge."""
        src, dst = edge.src, edge.dst
        self._remove_token(src, (OUT, self._map_edge(edge, src)))
        if dst != src:
            self._remove_token(dst, (IN, self._map_edge(edge, dst)))

    def add_columns(
        self,
        srcs: Iterable[VertexId],
        dsts: Iterable[VertexId],
        tokens: Iterable[Tuple[Token, Token]],
    ) -> None:
        """:meth:`add_edge` over parallel columns: one edge per position,
        ``tokens`` giving its ``(OUT token, IN token)`` already mapped."""
        per_vertex = self._per_vertex
        for src, dst, (out_token, in_token) in zip(srcs, dsts, tokens):
            local = per_vertex.get(src)
            if local is None:
                local = per_vertex[src] = {}
            local[out_token] = local.get(out_token, 0) + 1
            if dst != src:
                local = per_vertex.get(dst)
                if local is None:
                    local = per_vertex[dst] = {}
                local[in_token] = local.get(in_token, 0) + 1
        self._stale = True

    def _add_token(self, vertex: VertexId, token: Token) -> None:
        local = self._per_vertex.get(vertex)
        if local is None:
            local = self._per_vertex[vertex] = {}
        local[token] = local.get(token, 0) + 1
        self._stale = True

    def _remove_token(self, vertex: VertexId, token: Token) -> None:
        local = self._per_vertex.get(vertex)
        if local is None or token not in local:
            raise ValueError(f"token {token} not present at vertex {vertex!r}")
        count = local[token]
        if count > 1:
            local[token] = count - 1
        else:
            del local[token]
            if not local:
                del self._per_vertex[vertex]
        self._stale = True

    def refresh(self) -> None:
        """Re-derive the signature table if the counts changed since the
        last derive (reads do this themselves; a warm-up calls it so the
        cost is paid there and not by the first query registered)."""
        if not self._stale:
            return
        rows = list(self._per_vertex.values())
        tokens = sorted(set(chain.from_iterable(rows)))
        index = {token: code for code, token in enumerate(tokens)}
        self._paths = {
            make_signature(tokens[first], tokens[second]): count
            for first, second, count in pair_sums(rows, index)
        }
        self._total = sum(self._paths.values())
        self._stale = False

    # -- queries ------------------------------------------------------------

    @property
    def total(self) -> int:
        """Total number of live 2-edge paths."""
        self.refresh()
        return self._total

    def count(self, signature: PathSignature) -> int:
        """Occurrences of a path signature (0 if unseen)."""
        self.refresh()
        return self._paths.get(signature, 0)

    def seen(self, signature: PathSignature) -> bool:
        """True if the signature occurs in the live graph."""
        self.refresh()
        return signature in self._paths

    def selectivity(self, signature: PathSignature) -> float:
        """``S(g)`` for the 2-edge path: count over all 2-edge paths."""
        self.refresh()
        if self._total == 0:
            return 0.0
        return self._paths.get(signature, 0) / self._total

    def signatures(self) -> Iterable[PathSignature]:
        """All live signatures."""
        self.refresh()
        return self._paths.keys()

    def as_counter(self) -> Counter[PathSignature]:
        """Copy of the raw counts (for comparisons against Algorithm 5)."""
        self.refresh()
        return Counter(self._paths)

    def distribution(self) -> list[tuple[PathSignature, int]]:
        """Signatures ascending by count — rarest (most selective) first."""
        self.refresh()
        return sorted(self._paths.items(), key=lambda kv: (kv[1], kv[0]))

    def __len__(self) -> int:
        self.refresh()
        return len(self._paths)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TwoEdgePathCounter(vertices={len(self._per_vertex)}, "
            f"stale={self._stale})"
        )

    # -- persistence ----------------------------------------------------------

    def export_state(self) -> Tuple[VertexTokens, SignatureCounts]:
        """The per-vertex counts (vertices in first-seen order, tokens
        sorted) and the derived table (signatures sorted): canonical, so
        equal streams give equal exports however they were folded in."""
        self.refresh()
        per_vertex = [
            (vertex, sorted(local.items()))
            for vertex, local in self._per_vertex.items()
        ]
        return per_vertex, list(self._paths.items())

    def load_state(self, per_vertex: VertexTokens, table: SignatureCounts) -> None:
        """Replace the state with an :meth:`export_state` result.

        ``table`` is redundant by construction; it is checked against the
        one derived from ``per_vertex``. Raises ``ValueError`` when they
        disagree, a vertex or a token within a vertex repeats (or a vertex
        has none), a direction is unknown or a count is not positive.
        """
        loaded: Dict[VertexId, Dict[Token, int]] = {}
        for vertex, counts in per_vertex:
            local = {make_token(*token): count for token, count in counts}
            fewest = min(local.values(), default=0)
            if vertex in loaded or len(local) != len(counts) or fewest < 1:
                raise ValueError(
                    f"vertex {vertex!r}: a repeated vertex or token, or a "
                    "count below 1"
                )
            loaded[vertex] = local
        self._per_vertex = loaded
        self._stale = True
        self.refresh()
        if len(table) != len(self._paths) or dict(table) != self._paths:
            raise ValueError(
                "stored signature table disagrees with the per-vertex counts"
            )


# ---------------------------------------------------------------------------
# query-side signature extraction (used by the decomposer and the §6.4
# "unseen 2-edge path" validity filter)
# ---------------------------------------------------------------------------


def query_path_signatures(query: "QueryGraph") -> list[PathSignature]:
    """All 2-edge path signatures present in a query graph.

    Mirrors the data-side counting: for every query vertex, every unordered
    pair of distinct incident query edges contributes the signature of their
    direction-tokens at that vertex. Duplicates are kept (callers needing a
    set can wrap in ``set()``).
    """
    signatures: list[PathSignature] = []
    for vertex in query.vertices():
        incident = query.incident(vertex)
        for i, edge_a in enumerate(incident):
            token_a = (edge_a.direction_from(vertex), edge_a.etype)
            for edge_b in incident[i + 1 :]:
                token_b = (edge_b.direction_from(vertex), edge_b.etype)
                signatures.append(make_signature(token_a, token_b))
    return signatures


def fragment_signature(fragment: "QueryGraph") -> Optional[PathSignature]:
    """Signature of a 2-edge *path* fragment; ``None`` if not a 2-edge path.

    Used to price 2-edge SJ-Tree leaves against the path distribution.
    """
    if fragment.num_edges != 2:
        return None
    edge_a, edge_b = fragment.edges
    shared = ({edge_a.src, edge_a.dst} & {edge_b.src, edge_b.dst})
    if not shared:
        return None
    centre = min(shared, key=repr)
    token_a = (edge_a.direction_from(centre), edge_a.etype)
    token_b = (edge_b.direction_from(centre), edge_b.etype)
    return make_signature(token_a, token_b)
