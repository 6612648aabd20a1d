"""A retained match record is one compact object.

A continuous query hands its caller one :class:`MatchRecord` per match
for the whole life of the stream, so on a dense stream the caller's
records, not the engine, are the peak memory. A record holds its data
edges, time bounds and layout; ``record.match`` is built on each access
and nothing read from it (fingerprint, vertex map) is cached on the
record or the match, so reading them must not grow a retained record.
"""

from __future__ import annotations

import gc
import math
import pickle
import tracemalloc

from repro.analysis.experiments import mixed_etype_stream
from repro.graph.types import Edge
from repro.isomorphism.match import Match
from repro.query import QueryGraph
from repro.search.base import MatchRecord
from repro.search.engine import ContinuousQueryEngine

#: traced bytes one retained record may cost (list slot included); a
#: record of a 3-edge match measures ~166, and one that holds a Match
#: caching its fingerprint and vertex map ~660
BYTES_PER_RECORD = 200

STREAM = mixed_etype_stream(600, num_etypes=3, seed=5, population=60)


def dense_records():
    """Every record of a small dense stream, plus the engine emitting them.

    The window is infinite, so the engine's graph keeps every data edge
    alive and dropping the records frees exactly what they own.
    """
    engine = ContinuousQueryEngine(window=math.inf)
    engine.warmup(STREAM[:200])
    engine.register(QueryGraph.path(["T00", "T01", "T02"], name="path"), "Single")
    engine.register(QueryGraph.path(["T01", "T01"], name="pair"), "SingleLazy")
    return engine, engine.process_events(STREAM)


def test_retained_record_bytes_do_not_grow_when_read():
    dense_records()  # first run pays one-time state (imports, code caches)
    gc.collect()
    tracemalloc.start()
    try:
        engine, records = dense_records()
        for record in records:
            record.match.fingerprint
            record.match.vertex_map
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
        count = len(records)
        del records
        gc.collect()
        dropped, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count > 1000, "the workload must emit many records"
    per_record = (held - dropped) / count
    assert per_record <= BYTES_PER_RECORD, (
        f"{per_record:.0f} traced bytes per retained record "
        f"(bound {BYTES_PER_RECORD})"
    )
    assert engine.graph.num_edges == len(STREAM)


def test_record_round_trips_and_rebuilds_its_match():
    _, records = dense_records()
    assert {record.query_name for record in records} == {"path", "pair"}
    for record in records:
        assert pickle.loads(pickle.dumps(record)) == record
        match = record.match
        assert match is not record.match  # a view, built on each access
        rebuilt = MatchRecord(
            record.query_name, record.strategy, match, record.completed_at
        )
        assert rebuilt == record and hash(rebuilt) == hash(record)
        assert rebuilt.match == match
        assert record.fingerprint == match.fingerprint
        assert record.vertex_map == match.vertex_map


def test_map_backed_record_keeps_its_vertex_map():
    query = QueryGraph.path(["A", "B"])
    edges = (Edge(7, "x", "y", "A", 1.0), Edge(9, "y", "z", "B", 2.0))
    match = Match.build(query.edges_by_id(), {0: edges[0], 1: edges[1]})
    record = MatchRecord("q", "VF2", match, 2.0)
    assert record.match == match
    assert record.match.vertex_map == match.vertex_map == {0: "x", 1: "y", 2: "z"}
    assert record.vertex_map == match.vertex_map
    assert (record.match.min_time, record.match.max_time) == (1.0, 2.0)
    assert pickle.loads(pickle.dumps(record)) == record
