"""Record wire format of the sharded return path.

A complete match is nothing more than its lineage — the ordered data
edges that produced it — so that is what a worker sends back, not the
pickled ``MatchRecord -> Edge`` object graph. One ``Collected`` reply
carries a *record batch* of two flat tables:

* an **edge dictionary**: one ``(edge_id, src, dst, etype, timestamp)``
  row per distinct data edge the batch's records reference;
* the **record rows**: ``(stream_index, query_position, strategy,
  completed_at, min_time, max_time, edge_id, ...)``, one per record in
  emission order, the edge ids slot-aligned with the query's sorted
  query-edge ids.

Every batch is self-contained (it carries its own dictionary), so the
supervisor can stash, filter and replay batches without cross-reply
state; it only ever reads column 0 of the record rows.

:func:`encode_records` runs in the worker as records come out of the
engine; :func:`decode_records` runs once per ``ShardedEngine.run`` on
the coordinator and turns every batch of the run into the merged,
single-process-ordered record list, one :class:`MatchRecord` per row.
Edge ids are global stream positions, identical in every worker, so
the decoder materialises each data edge once and every record
referencing it shares that ``Edge`` — stamped with the
*coordinator's* vocabulary code, never the worker's process-local one.
"""

from __future__ import annotations

import gc
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..errors import ReproRuntimeError
from ..graph.types import VOCABULARY, Edge, VertexId
from ..isomorphism.match import MatchShape
from ..search.base import MatchRecord

EdgeRow = Tuple[int, VertexId, VertexId, str, float]
RecordRow = Tuple[Any, ...]
#: one reply's ``(edge dictionary, record rows)``
RecordBatch = Tuple[List[EdgeRow], List[RecordRow]]
#: ``(worker_id, collect_seq, batch)`` — where a batch came from
SourcedBatch = Tuple[int, int, RecordBatch]

#: record-row columns ahead of the edge ids
_HEADER = 6
#: the merge orders rows on ``(stream_index, query_position)`` alone:
#: comparing whole rows would reorder one query's discoveries within an
#: event by edge id.
_MERGE_KEY = itemgetter(0, 1)

_MALFORMED = (KeyError, IndexError, TypeError, ValueError)


def encode_records(
    tagged: Iterable[Tuple[int, MatchRecord]],
    positions: Mapping[str, int],
    edges: Dict[int, EdgeRow],
    rows: List[RecordRow],
) -> None:
    """Append ``(stream_index, record)`` pairs to an open batch.

    ``edges`` / ``rows`` are the worker's accumulators for the reply it
    is building; ``(list(edges.values()), rows)`` is the batch to send.
    ``positions`` maps a query name to its global registration position.
    """
    append = rows.append
    for index, record in tagged:
        row = [
            index,
            positions[record.query_name],
            record.strategy,
            record.completed_at,
            record.min_time,
            record.max_time,
        ]
        for edge in record.edges:
            edge_id = edge.edge_id
            if edge_id not in edges:
                edges[edge_id] = (
                    edge_id,
                    edge.src,
                    edge.dst,
                    edge.etype,
                    edge.timestamp,
                )
            row.append(edge_id)
        append(tuple(row))


def decode_records(
    batches: Sequence[SourcedBatch],
    shapes: Mapping[int, Tuple[str, MatchShape]],
) -> List[MatchRecord]:
    """Merge record batches into single-process emission order.

    ``shapes`` maps a query's registration position to its name and the
    :class:`MatchShape` of the full query. Within one worker the batches
    must be given in the order they were collected (each is already
    sorted); the stable sort then only interleaves workers. A batch that
    cannot be decoded raises :class:`ReproRuntimeError` naming its
    worker and collect sequence.

    The cyclic collector is paused for the decode and restored in
    ``finally`` (left off when the caller had it off), as the engine's
    chunk loop does: decoding allocates no reference cycles (see
    ``tests/test_collector.py``), so the collections its allocations
    would trigger mid-decode could free nothing.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _decode(batches, shapes)
    finally:
        if collecting:
            gc.enable()


def _decode(
    batches: Sequence[SourcedBatch],
    shapes: Mapping[int, Tuple[str, MatchShape]],
) -> List[MatchRecord]:
    edges: Dict[int, Edge] = {}
    codes: Dict[str, int] = {}
    intern = VOCABULARY.etype_code
    merged: List[RecordRow] = []
    for worker, seq, batch in batches:
        try:
            edge_rows, record_rows = batch
            for edge_id, src, dst, etype, timestamp in edge_rows:
                if edge_id not in edges:
                    code = codes.get(etype)
                    if code is None:
                        code = codes[etype] = intern(etype)
                    edges[edge_id] = Edge(edge_id, src, dst, etype, timestamp, code)
            merged += record_rows
        except _MALFORMED as exc:
            raise ReproRuntimeError(
                f"malformed collect reply from worker {worker} (collect {seq}): "
                f"bad edge dictionary ({type(exc).__name__}: {exc})"
            ) from exc

    layout = {
        position: (name, shape, _HEADER + len(shape.qeids))
        for position, (name, shape) in shapes.items()
    }
    lookup = edges.__getitem__
    make = MatchRecord.from_row
    records: List[MatchRecord] = []
    append = records.append
    row: Optional[RecordRow] = None
    try:
        merged.sort(key=_MERGE_KEY)
        for row in merged:
            name, shape, width = layout[row[1]]
            if len(row) != width:
                raise ValueError(f"expected {width} columns, got {len(row)}")
            data_edges = tuple(map(lookup, row[_HEADER:]))
            append(make(name, row[2], row[3], shape, data_edges, row[4], row[5]))
    except _MALFORMED as exc:
        raise _malformed(batches, row, exc) from exc
    return records


def _malformed(
    batches: Sequence[SourcedBatch], row: Optional[RecordRow], exc: Exception
) -> ReproRuntimeError:
    """The typed error for a record row that failed to decode."""
    reason = f"{type(exc).__name__}: {exc}"
    for worker, seq, (_, record_rows) in batches:
        if any(candidate is row for candidate in record_rows):
            return ReproRuntimeError(
                f"malformed collect reply from worker {worker} (collect {seq}): "
                f"bad record row {row!r} ({reason})"
            )
    # the merge itself failed (a row too short to carry its sort key)
    sources = ", ".join(
        f"worker {worker} (collect {seq})" for worker, seq, _ in batches
    )
    return ReproRuntimeError(f"malformed collect reply among {sources}: {reason}")
