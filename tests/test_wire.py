"""Sharded return path: the record wire codec (``runtime/wire.py``).

Records cross the worker -> coordinator boundary as flat rows plus a
per-reply edge dictionary. The codec must be lossless on everything a
``MatchRecord`` exposes, keep discovery order within one ``(event,
query)``, stamp the *coordinator's* vocabulary codes on rebuilt edges,
and turn a malformed reply into a typed error naming its source.
"""

from __future__ import annotations

import math
import multiprocessing
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro import ContinuousQueryEngine, ShardedEngine
from repro.errors import ReproRuntimeError
from repro.graph import Edge, EdgeEvent
from repro.graph.types import VOCABULARY
from repro.isomorphism.match import Match, shape_for_fragment
from repro.query import QueryGraph
from repro.runtime import RestartPolicy, Supervisor
from repro.runtime.wire import decode_records, encode_records
from repro.search.base import MatchRecord

from .test_equivalence_property import ETYPES, queries

#: every strategy the issue names; "auto" resolves per query
STRATEGIES = ("Single", "SingleLazy", "PathLazy", "VF2", "auto")


def project(record):
    match = record.match
    return (
        record.query_name,
        record.strategy,
        match.fingerprint,
        record.completed_at,
        match.min_time,
        match.max_time,
        match.vertex_map,
    )


def stream_rows(events):
    return [
        (i, e.src, e.dst, e.etype, e.timestamp, e.src_type, e.dst_type)
        for i, e in enumerate(events)
    ]


def tagged_records(events, query_list, strategies, width=math.inf):
    """``(stream_index, record)`` pairs exactly as a worker produces them."""
    engine = ContinuousQueryEngine(window=width)
    engine.warmup(events)
    for i, (query, strategy) in enumerate(zip(query_list, strategies)):
        engine.register(query, strategy=strategy, name=f"q{i}")
    return engine.process_rows(stream_rows(events))


def codec_tables(query_list):
    positions = {f"q{i}": i for i in range(len(query_list))}
    shapes = {
        i: (f"q{i}", shape_for_fragment(query)) for i, query in enumerate(query_list)
    }
    return positions, shapes


def encode(tagged, positions):
    """One self-contained batch, sent through pickle like the result queue."""
    edges, rows = {}, []
    encode_records(tagged, positions, edges, rows)
    return pickle.loads(pickle.dumps((list(edges.values()), rows)))


@st.composite
def wire_streams(draw):
    """Monotone stream with int *or* str vertex ids; self-loops allowed."""
    make_id = draw(st.sampled_from([int, "n{}".format]))
    n_vertices = draw(st.integers(min_value=2, max_value=5))
    events = []
    t = 0.0
    for _ in range(draw(st.integers(min_value=1, max_value=24))):
        t += draw(st.integers(min_value=1, max_value=4))
        src = draw(st.integers(min_value=0, max_value=n_vertices - 1))
        dst = draw(st.integers(min_value=0, max_value=n_vertices - 1))
        etype = draw(st.sampled_from(ETYPES))
        events.append(EdgeEvent(make_id(src), make_id(dst), etype, float(t)))
    return events


@st.composite
def wire_queries(draw):
    """The equivalence suite's shapes (size 1 = root-is-leaf) or a query
    with a self-loop edge."""
    if draw(st.booleans()):
        return draw(queries())
    query = QueryGraph(name="q")
    query.add_edge(0, 0, draw(st.sampled_from(ETYPES)))
    if draw(st.booleans()):
        query.add_edge(0, 1, draw(st.sampled_from(ETYPES)))
    return query


@settings(max_examples=60, deadline=None)
@given(
    events=wire_streams(),
    query_list=st.lists(wire_queries(), min_size=1, max_size=3),
    strategy=st.sampled_from(STRATEGIES),
    tight=st.booleans(),
    cut=st.floats(min_value=0.0, max_value=1.0),
)
def test_decode_inverts_encode(events, query_list, strategy, tight, cut):
    width = math.inf
    if tight:
        width = max((events[-1].timestamp - events[0].timestamp) * 0.4, 1.0)
    tagged = tagged_records(events, query_list, [strategy] * len(query_list), width)
    positions, shapes = codec_tables(query_list)
    expected = [project(record) for _, record in tagged]

    decoded = decode_records([(0, 1, encode(tagged, positions))], shapes)
    assert [project(record) for record in decoded] == expected

    # the same records as two consecutive replies of one worker (a stashed
    # recovery-checkpoint batch, then the final collect): each carries its
    # own dictionary, the merge is unchanged
    at = int(len(tagged) * cut)
    split = [
        (0, 1, encode(tagged[:at], positions)),
        (0, 2, encode(tagged[at:], positions)),
    ]
    assert [project(record) for record in decode_records(split, shapes)] == expected


def test_empty_reply_round_trips():
    assert encode([], {}) == ([], [])
    assert decode_records([(0, 1, ([], []))], {}) == []
    assert decode_records([], {}) == []


def test_merge_keeps_discovery_order_within_one_event_and_query():
    """Two matches of one query completed by the same event stay in the
    order the worker discovered them, even when that order is the reverse
    of their edge ids / timestamps (a whole-row comparison would flip
    them); other workers' rows interleave around them by position."""
    path = QueryGraph.path(["A", "B"], name="q0")
    single = QueryGraph.path(["B"], name="q1")
    positions = {"q0": 0, "q1": 1}
    shapes = {
        0: ("q0", shape_for_fragment(path)),
        1: ("q1", shape_for_fragment(single)),
    }
    a_old = Edge(0, "x", "m", "A", 1.0)
    a_new = Edge(1, "y", "m", "A", 2.0)
    b_early = Edge(2, "p", "q", "B", 2.5)
    b = Edge(3, "m", "z", "B", 3.0)

    def record(query, name, edges):
        shape = shape_for_fragment(query)
        stamps = [edge.timestamp for edge in edges]
        match = Match(shape.qeids, tuple(edges), min(stamps), max(stamps), shape)
        return MatchRecord(name, "Single", match, edges[-1].timestamp)

    newer_first = [
        (3, record(path, "q0", [a_new, b])),
        (3, record(path, "q0", [a_old, b])),
    ]
    other_worker = [
        (2, record(single, "q1", [b_early])),
        (3, record(single, "q1", [b])),
    ]
    decoded = decode_records(
        [
            (0, 1, encode(newer_first, positions)),
            (1, 1, encode(other_worker, positions)),
        ],
        shapes,
    )
    assert [(r.query_name, r.match.fingerprint) for r in decoded] == [
        ("q1", ((0, 2),)),
        ("q0", ((0, 1), (1, 3))),
        ("q0", ((0, 0), (1, 3))),
        ("q1", ((0, 3),)),
    ]
    # one Edge per distinct data edge, shared across records and workers
    assert decoded[1].match.edges[1] is decoded[2].match.edges[1]
    assert decoded[1].match.edges[1] is decoded[3].match.edges[0]


# ---------------------------------------------------------------------------
# hostile replies
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def reply():
    """A real encoded reply: two 2-edge path queries over a dense stream."""
    events = [
        EdgeEvent(f"n{i % 3}", f"n{(i + 1) % 3}", ETYPES[i % 2], float(i))
        for i in range(12)
    ]
    query_list = [QueryGraph.path(["A", "B"]), QueryGraph.path(["B", "A"])]
    tagged = tagged_records(events, query_list, ["Single", "SingleLazy"])
    positions, shapes = codec_tables(query_list)
    edge_rows, record_rows = encode(tagged, positions)
    assert len(record_rows) >= 4
    return edge_rows, record_rows, shapes


def _replace(rows, at, row):
    return rows[:at] + [row] + rows[at + 1 :]


#: label -> (edge_rows, record_rows) -> mutated batch; record row 2 is the victim
MUTATIONS = {
    "dictionary row dropped": lambda edges, rows: (
        [row for row in edges if row[0] != rows[2][-1]],
        rows,
    ),
    "dictionary row truncated": lambda edges, rows: (
        _replace(edges, 0, edges[0][:-1]),
        rows,
    ),
    "record row truncated": lambda edges, rows: (
        edges,
        _replace(rows, 2, rows[2][:-1]),
    ),
    "record row extended": lambda edges, rows: (
        edges,
        _replace(rows, 2, (*rows[2], rows[2][-1])),
    ),
    "record row cut below its sort key": lambda edges, rows: (
        edges,
        _replace(rows, 2, rows[2][:1]),
    ),
    "position past the registered queries": lambda edges, rows: (
        edges,
        _replace(rows, 2, (rows[2][0], 2, *rows[2][2:])),
    ),
    "position far out of range": lambda edges, rows: (
        edges,
        _replace(rows, 2, (rows[2][0], 99, *rows[2][2:])),
    ),
    "negative position": lambda edges, rows: (
        edges,
        _replace(rows, 2, (rows[2][0], -1, *rows[2][2:])),
    ),
}


def test_the_unmutated_reply_decodes(reply):
    edge_rows, record_rows, shapes = reply
    decoded = decode_records([(3, 7, (edge_rows, record_rows))], shapes)
    assert len(decoded) == len(record_rows)


@pytest.mark.parametrize("label", sorted(MUTATIONS))
def test_hostile_reply_raises_a_typed_error_naming_its_source(reply, label):
    """Never KeyError / IndexError / ValueError: a ReproRuntimeError that
    names the worker and the collect sequence the reply answered."""
    edge_rows, record_rows, shapes = reply
    batch = MUTATIONS[label](edge_rows, record_rows)
    with pytest.raises(ReproRuntimeError, match=r"worker 3 \(collect 7\)"):
        decode_records([(3, 7, batch)], shapes)


# ---------------------------------------------------------------------------
# through real worker processes
# ---------------------------------------------------------------------------


def _unique_workload(tag):
    """Four path queries over edge types no other test has interned."""
    etypes = [f"wire-{tag}-T{i}" for i in range(4)]
    events = [
        EdgeEvent(f"n{i % 5}", f"n{(i * 3 + 1) % 5}", etypes[i % 4], float(i))
        for i in range(160)
    ]
    query_list = [
        QueryGraph.path([etypes[i], etypes[(i + 1) % 4]], name=f"q{i}")
        for i in range(4)
    ]
    return etypes, events, query_list


#: fork inherits the coordinator's vocabulary, spawn starts from an empty one
START_METHODS = [
    method
    for method in ("fork", "spawn")
    if method in multiprocessing.get_all_start_methods()
]


@pytest.mark.parametrize("method", START_METHODS)
def test_decoded_edges_carry_the_coordinators_etype_codes(method):
    """A worker's vocabulary codes are process-local: under ``spawn`` they
    start from an empty pool, under ``fork`` they diverge as soon as either
    side interns something new. Edges rebuilt by the coordinator must carry
    *its* code for their type."""
    etypes, events, query_list = _unique_workload(method)
    engine = ShardedEngine(
        window=20.0,
        workers=2,
        batch_size=32,
        mp_context=multiprocessing.get_context(method),
    )
    engine.warmup(events)
    for query in query_list:
        engine.register(query, strategy="Single", name=query.name)
    try:
        engine.start()
        # after the workers exist: the coordinator's next codes now differ
        # from the ones a forked worker will assign to the stream's types
        for i in range(5):
            VOCABULARY.etype_code(f"wire-{method}-pad{i}")
        result = engine.run(events)
    finally:
        engine.close()
    assert result.records, "workload must produce matches to be meaningful"
    seen = set()
    for record in result.records:
        for edge in record.match.edges:
            seen.add(edge.etype)
            assert edge.etype_code == VOCABULARY.etype_code_if_known(edge.etype)
            assert VOCABULARY.etype_name(edge.etype_code) == edge.etype
    assert seen == set(etypes)


def test_merge_buffer_depth_counts_records():
    """The ``metrics`` reply reports records matched but not yet collected
    — records, not wire rows of any other kind (dictionary entries)."""
    _, events, query_list = _unique_workload("depth")
    serial = ContinuousQueryEngine(window=20.0)
    serial.warmup(events)
    engine = ShardedEngine(window=20.0, workers=2, batch_size=32)
    engine.warmup(events)
    for query in query_list:
        serial.register(query, strategy="Single", name=query.name)
        engine.register(query, strategy="Single", name=query.name)
    expected = len(serial.run(events).records)
    assert expected
    try:
        engine.start()
        # batches without a collect: every worker gets the whole stream
        # (types outside its alphabet are inert), records stay buffered
        for slot in range(len(engine._shards)):
            engine._put_batch(slot, stream_rows(events))
        snapshot = engine.metrics().collect()
        depth = snapshot["repro_runtime_merge_buffer_records"]["samples"]
        assert sum(sample["value"] for sample in depth) == expected
        assert len(engine.run([]).records) == expected
        snapshot = engine.metrics().collect()
        depth = snapshot["repro_runtime_merge_buffer_records"]["samples"]
        assert sum(sample["value"] for sample in depth) == 0
    finally:
        engine.close()


def test_stashed_recovery_batches_are_self_contained_wire_rows(monkeypatch):
    """Recovery checkpoints drain a worker's finished records into the
    supervisor's stash mid-run. The stash holds them in wire form, and each
    stashed batch decodes on its own — no cross-reply dictionary state."""
    _, events, query_list = _unique_workload("stash")
    serial = ContinuousQueryEngine(window=20.0)
    serial.warmup(events)
    engine = ShardedEngine(
        window=20.0,
        workers=2,
        batch_size=8,
        supervise=True,
        restart_policy=RestartPolicy(replay_buffer_batches=2),
    )
    engine.warmup(events)
    for query in query_list:
        serial.register(query, strategy="Single", name=query.name)
        engine.register(query, strategy="Single", name=query.name)
    expected = [project(record) for record in serial.run(events).records]

    stashed = []
    drain = Supervisor.drain_stash

    def spy(self):
        out = drain(self)
        stashed.extend(batch for batches in out.values() for batch in batches)
        return out

    monkeypatch.setattr(Supervisor, "drain_stash", spy)
    try:
        result = engine.run(events)
        shapes = engine._record_shapes
    finally:
        engine.close()
    assert [project(record) for record in result.records] == expected
    assert len(stashed) >= 2
    total = 0
    for worker_id, seq, (edge_rows, record_rows) in stashed:
        assert record_rows and all(type(row) is tuple for row in record_rows)
        assert all(len(row) == 5 for row in edge_rows)
        batch = (edge_rows, record_rows)
        total += len(decode_records([(worker_id, seq, batch)], shapes))
    assert 0 < total <= len(expected)
