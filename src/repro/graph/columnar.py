"""Columnar chunk encoding for batched ingest — the batch-kernel substrate.

The engine's hot loop processes the stream chunk-at-a-time (see
``ContinuousQueryEngine.process_events`` / ``process_rows``, two entry
points over one chunk loop): each chunk of events or wire rows is encoded
*once* into parallel columns — interned edge-type codes, float64
timestamps, and (rows mode) pinned edge ids — that the per-chunk kernels
share:

* the **monotonicity kernel** (:meth:`EdgeChunk.presorted`) validates the
  whole chunk's timestamp order against the graph clock in one vectorized
  pass, replacing the per-edge comparison in ``StreamingGraph.add_event``
  (a chunk that fails is replayed through the exact per-event path so the
  ``GraphError`` raises at the same element with the same prefix state —
  as is every chunk of a profiling engine);
* the **dispatch kernel** resolves ``etype code -> [(query, handler)]``
  routing once per *distinct* code per chunk
  (:meth:`EdgeChunk.distinct_codes` + the engine's program LUT), so the
  per-edge step is a dense-list load instead of a dict lookup;
* the eviction/ingest loop walks the code column beside the source
  events or rows, reading each element's six edge fields through one
  getter chosen per chunk.

Vertex ids stay object columns (:attr:`EdgeChunk.srcs` /
:attr:`EdgeChunk.dsts`, built lazily): they are arbitrary hashables
(strings, ints), and every consumer — adjacency insertion, bitmap gates,
match keys — needs the objects themselves, so there is no int encoding to
vectorize over without a global vertex interner (future work).

Backend selection
-----------------
numpy is **optional**. When importable (and not disabled via the
``REPRO_NO_NUMPY=1`` environment variable, which CI exercises), the
timestamp/code kernels run vectorized; otherwise they fall back to pure
Python over ``array``/list buffers with identical results.
:func:`set_backend` force-switches at runtime so the equivalence tests can
exercise both paths in one process.
"""

from __future__ import annotations

import os
from itertools import chain
from typing import (
    Dict,
    Hashable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from ..errors import ReproRuntimeError
from .types import VOCABULARY, EdgeEvent

_Key = TypeVar("_Key", bound=Hashable)

#: numpy module when importable, else None — resolved once at import.
_NUMPY = None
if not os.environ.get("REPRO_NO_NUMPY"):
    try:  # pragma: no cover - exercised via both CI legs
        import numpy as _NUMPY  # type: ignore[no-redef]
    except ImportError:  # pragma: no cover
        _NUMPY = None

#: the active kernel backend module (numpy or None = pure Python).
_active = _NUMPY

#: chunks smaller than this skip numpy even when available: buffer
#: construction overhead beats the vectorization win on tiny batches.
MIN_VECTOR_CHUNK = 32

#: :func:`pair_sums` — cells per dense block of the count matrix (bounds
#: the kernel's working memory whatever the number of rows) ...
PAIR_BLOCK_CELLS = 1 << 18
#: ... the widest matrix it will square (two ``width**2`` int64 buffers) ...
PAIR_MAX_WIDTH = 1024
#: ... and the mean row fill below which squaring mostly multiplies
#: zeros and the sparse pure-Python loop is the cheaper kernel.
PAIR_MIN_FILL = 1 / 8


def backend_name() -> str:
    """``"numpy"`` or ``"python"`` — which kernel backend is active."""
    return "numpy" if _active is not None else "python"


def using_numpy() -> bool:
    """True when the vectorized kernels are active."""
    return _active is not None


def set_backend(name: str) -> str:
    """Force the kernel backend (``"numpy"``/``"python"``/``"auto"``).

    Test hook: the batched-vs-serial equivalence suite runs both backends
    in one process. ``"auto"`` restores import-time selection (numpy when
    importable and ``REPRO_NO_NUMPY`` unset). Raises
    :class:`~repro.errors.ReproRuntimeError` (a :class:`RuntimeError`
    subclass, so existing ``except RuntimeError`` callers keep working)
    when numpy is requested but unavailable. Returns the backend now
    active.
    """
    global _active
    if name == "python":
        _active = None
    elif name == "numpy":
        if _NUMPY is None:
            raise ReproRuntimeError(
                "numpy backend requested but numpy is not importable "
                "(or REPRO_NO_NUMPY disabled it at import time)"
            )
        _active = _NUMPY
    elif name == "auto":
        _active = _NUMPY
    else:
        raise ValueError(f"unknown kernel backend {name!r}")
    return backend_name()


class EdgeChunk:
    """One batch of stream elements, encoded as parallel columns.

    Built once per chunk by the engine and shared by every kernel. Two
    source layouts:

    * :meth:`from_events` — a list of :class:`EdgeEvent` (the
      ``process_events`` path);
    * :meth:`from_rows` — a list of ``(edge_id, src, dst, etype,
      timestamp, src_type, dst_type)`` wire tuples (the sharded workers'
      ``process_rows`` path); ``edge_ids`` carries the pinned ids.

    ``codes`` interns every edge type through the shared
    :data:`~repro.graph.types.VOCABULARY` at encode time, so by the time
    the dispatch kernel runs, the vocabulary covers the whole chunk.
    """

    __slots__ = (
        "events",
        "rows",
        "codes",
        "times",
        "edge_ids",
        "n",
        "full_rows",
        "_srcs",
        "_dsts",
        "_times_buf",
    )

    def __init__(self) -> None:
        self.events: Optional[Sequence[EdgeEvent]] = None
        self.rows: Optional[Sequence[tuple]] = None
        self.codes: List[int] = []
        self.times: List[float] = []
        self.edge_ids: Optional[List[int]] = None
        self.n = 0
        #: rows mode: True when every row carries the full 7-field wire
        #: format (the batched loop indexes positionally; short rows fall
        #: back to the per-event path, which applies EdgeEvent defaults).
        self.full_rows = True
        self._srcs: Optional[list] = None
        self._dsts: Optional[list] = None
        self._times_buf = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_events(cls, events: Sequence[EdgeEvent]) -> "EdgeChunk":
        """Encode a batch of stream events."""
        chunk = cls()
        chunk.events = events
        codes_map = VOCABULARY._etype_codes
        try:
            # steady state: every etype already interned — plain dict
            # lookups in a listcomp beat the method call per event
            chunk.codes = [codes_map[event.etype] for event in events]
        except KeyError:
            ecode = VOCABULARY.etype_code
            chunk.codes = [ecode(event.etype) for event in events]
        chunk.times = [event.timestamp for event in events]
        chunk.n = len(chunk.codes)
        return chunk

    @classmethod
    def from_rows(cls, rows: Sequence[tuple]) -> "EdgeChunk":
        """Encode a batch of pinned wire rows (sharded-worker format)."""
        chunk = cls()
        chunk.rows = rows
        codes_map = VOCABULARY._etype_codes
        try:
            chunk.codes = [codes_map[row[3]] for row in rows]
        except KeyError:
            ecode = VOCABULARY.etype_code
            chunk.codes = [ecode(row[3]) for row in rows]
        chunk.times = [row[4] for row in rows]
        chunk.edge_ids = [row[0] for row in rows]
        chunk.n = len(chunk.codes)
        chunk.full_rows = all(len(row) == 7 for row in rows)
        return chunk

    # ------------------------------------------------------------------
    # object columns (lazy — only stat/test kernels read them)
    # ------------------------------------------------------------------

    @property
    def srcs(self) -> list:
        """Source-vertex object column."""
        if self._srcs is None:
            if self.events is not None:
                self._srcs = [event.src for event in self.events]
            else:
                self._srcs = [row[1] for row in self.rows or ()]
        return self._srcs

    @property
    def dsts(self) -> list:
        """Destination-vertex object column."""
        if self._dsts is None:
            if self.events is not None:
                self._dsts = [event.dst for event in self.events]
            else:
                self._dsts = [row[2] for row in self.rows or ()]
        return self._dsts

    def _times_f64(self):
        """The timestamp column as a dense float64 buffer (numpy only)."""
        if self._times_buf is None:
            self._times_buf = _active.fromiter(
                self.times, dtype=_active.float64, count=self.n
            )
        return self._times_buf

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------

    def presorted(self, last_timestamp: float) -> bool:
        """Whole-chunk timestamp-monotonicity check against the graph clock.

        True iff feeding the chunk per-event would never raise the
        out-of-order :class:`~repro.errors.GraphError` — i.e. the first
        timestamp is ``>= last_timestamp`` and the column is
        non-decreasing. Every comparison is a ``>=``, which NaN fails, so
        a chunk holding a NaN timestamp is never presorted. Vectorized
        under numpy; pure-Python loop otherwise.
        """
        times = self.times
        if not times:
            return True
        if not times[0] >= last_timestamp:
            return False
        if _active is not None and self.n >= MIN_VECTOR_CHUNK:
            buf = self._times_f64()
            return bool((buf[1:] >= buf[:-1]).all())
        prev = last_timestamp
        for timestamp in times:
            if not timestamp >= prev:
                return False
            prev = timestamp
        return True

    def distinct_codes(self) -> Iterator[int]:
        """The distinct interned etype codes present in the chunk.

        The dispatch kernel resolves routing once per value yielded here
        instead of once per edge. numpy path: a vectorized ``unique`` over
        the code column; fallback: a set sweep.
        """
        if _active is not None and self.n >= MIN_VECTOR_CHUNK:
            buf = _active.fromiter(self.codes, dtype=_active.int64, count=self.n)
            return iter(_active.unique(buf).tolist())
        return iter(set(self.codes))

    def __len__(self) -> int:
        return self.n


# ----------------------------------------------------------------------
# count-matrix kernel (selectivity statistics)
# ----------------------------------------------------------------------


def pair_sums(
    rows: Sequence[Dict[_Key, int]], index: Mapping[_Key, int]
) -> List[Tuple[int, int, int]]:
    """Algorithm 5's combine step over sparse count rows.

    Each row maps a key to its (positive) multiplicity at one vertex;
    ``index`` numbers the keys ``0..width-1``. Returns the non-zero
    ``(a, b, count)`` with ``a <= b``, ascending: ``count`` is the sum
    over rows of ``n_a * (n_a - 1) / 2`` when ``a == b`` and of
    ``n_a * n_b`` otherwise.

    numpy path: the rows are written, a bounded block at a time, into a
    dense count matrix ``C`` and ``CᵀC`` accumulated. It is taken while
    the matrix is narrow and full enough for that to beat the loop, and
    kept only if the counts cannot have wrapped int64. Otherwise, and
    always without numpy, the literal per-row loop over Python integers
    runs — with identical results.
    """
    width = len(index)
    np = _active
    if (
        np is not None
        and width <= PAIR_MAX_WIDTH
        and sum(map(len, rows)) >= len(rows) * width * PAIR_MIN_FILL
    ):
        gram = np.zeros((width, width), dtype=np.int64)
        column_sums = np.zeros(width, dtype=np.int64)
        step = max(PAIR_BLOCK_CELLS // max(width, 1), 1)
        for start in range(0, len(rows), step):
            block = rows[start : start + step]
            sizes = np.fromiter(map(len, block), dtype=np.int64, count=len(block))
            filled = int(sizes.sum())
            columns = np.fromiter(
                map(index.__getitem__, chain.from_iterable(block)),
                dtype=np.int64,
                count=filled,
            )
            counts = np.fromiter(
                chain.from_iterable(map(dict.values, block)),
                dtype=np.int64,
                count=filled,
            )
            dense = np.zeros((len(block), width), dtype=np.int64)
            dense[np.repeat(np.arange(len(block)), sizes), columns] = counts
            gram += dense.T @ dense
            column_sums += dense.sum(axis=0)
        # no entry exceeds (sum of all counts)**2: exact while that fits
        if int(column_sums.sum()) < 1 << 31:
            diagonal = np.arange(width)
            gram[diagonal, diagonal] = (gram.diagonal() - column_sums) // 2
            firsts, seconds = np.nonzero(np.triu(gram))
            return list(
                zip(firsts.tolist(), seconds.tolist(), gram[firsts, seconds].tolist())
            )
    sums: Dict[int, int] = {}
    for row in rows:
        pairs = sorted([(index[key], count) for key, count in row.items()])
        for position, (first, n_first) in enumerate(pairs):
            base = first * width
            if n_first > 1:
                at = base + first
                sums[at] = sums.get(at, 0) + n_first * (n_first - 1) // 2
            for second, n_second in pairs[position + 1 :]:  # LEXICALLY-GREATER
                at = base + second
                sums[at] = sums.get(at, 0) + n_first * n_second
    return [(*divmod(at, width), sums[at]) for at in sorted(sums)]
