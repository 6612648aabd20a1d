"""Vertex × leaf search-enablement bitmap (``Mb`` in §4).

Lazy Search keeps, for every data vertex, one bit per SJ-Tree leaf:
``Mb[u][i] = 1`` means "search for leaf i's primitive around u". Leaf 0
(the most selective primitive) is implicitly always enabled; bits only
ever turn on, and stale rows for evicted vertices are reclaimed by
:meth:`compact`.

The per-vertex bit set is stored as a Python int bitmask — leaves are few
(≤ the query edge count) and int masks keep the row overhead at one dict
slot per touched vertex.
"""

from __future__ import annotations

from typing import Dict, Iterable

from ..graph.streaming_graph import StreamingGraph
from ..graph.types import VertexId


class ScanBitmap:
    """Sparse bitmap over (data vertex, leaf index)."""

    __slots__ = ("_rows", "num_leaves")

    def __init__(self, num_leaves: int) -> None:
        if num_leaves < 1:
            raise ValueError("a query decomposition has at least one leaf")
        self.num_leaves = num_leaves
        self._rows: Dict[VertexId, int] = {}

    def enabled(self, vertex: VertexId, leaf_index: int) -> bool:
        """Is the search for ``leaf_index`` enabled at ``vertex``?

        Leaf 0 is always enabled (the most selective primitive is searched
        around every new edge).
        """
        if leaf_index == 0:
            return True
        row = self._rows.get(vertex)
        return bool(row is not None and (row >> leaf_index) & 1)

    def enable(self, vertex: VertexId, leaf_index: int) -> bool:
        """Set the bit; return True if it was previously clear."""
        if leaf_index == 0:
            return False  # implicit
        if not (0 < leaf_index < self.num_leaves):
            raise IndexError(
                f"leaf index {leaf_index} out of range (num_leaves={self.num_leaves})"
            )
        row = self._rows.get(vertex, 0)
        bit = 1 << leaf_index
        if row & bit:
            return False
        self._rows[vertex] = row | bit
        return True

    def enable_all(
        self, vertices: Iterable[VertexId], leaf_index: int
    ) -> list[VertexId]:
        """Enable a leaf for many vertices; return the freshly enabled ones."""
        return [v for v in vertices if self.enable(v, leaf_index)]

    def rows(self) -> int:
        """Number of vertices with at least one explicit bit set."""
        return len(self._rows)

    def compact(self, graph: StreamingGraph) -> int:
        """Drop rows for vertices no longer in the graph; return count."""
        live = graph._vertex_types  # runs every sweep: skip __contains__
        stale = [v for v in self._rows if v not in live]
        for vertex in stale:
            del self._rows[vertex]
        return len(stale)

    def clear(self) -> None:
        """Forget all enablement state."""
        self._rows.clear()

    def load(self, rows: Dict[VertexId, int]) -> None:
        """Replace all enablement state with ``rows`` (a checkpoint's).

        The row dict is updated in place, never swapped: Lazy Search's
        compiled per-code handlers hold its bound ``get``.
        """
        self._rows.clear()
        self._rows.update(rows)
