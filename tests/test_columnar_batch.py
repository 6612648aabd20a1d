"""Chunked batch ingest ≡ per-event ingest — the batch kernels' bar.

The columnar fast path (``process_events``/``process_rows`` →
``EdgeChunk`` → fused ``_process_chunk``) must emit the *identical*
record stream — same ``(query_name, fingerprint, completed_at)``
sequence — as the per-event ``process_event`` loop, for any stream, any
chunk size and either kernel backend. That is the record-identity
contract every fused kernel (inlined graph ingest, inlined eviction,
trivial-leaf insert, FIFO leaf tables, bare single-vertex join keys)
is held to; the property test here sweeps chunk sizes that place chunk
boundaries — and therefore mid-chunk evictions — at arbitrary stream
positions, with dispatch on and off, and with phase profiling on (every
chunk then replays through the per-event path, which must credit each
edge to the evict / ingest / dispatch stages).
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import ContinuousQueryEngine
from repro.errors import GraphError
from repro.graph import EdgeEvent
from repro.graph import columnar
from repro.query import QueryGraph
from repro.search.engine import SWEEPS_PER_WINDOW

ETYPES = ["A", "B", "C"]
WINDOW = 9.0

#: both kernel backends when numpy is importable, else just the fallback
BACKENDS = ["python"] + (["numpy"] if columnar.using_numpy() else [])

#: 1 = every chunk boundary, 7 = boundaries at awkward offsets, 64 =
#: multi-chunk only for the longest streams, 0 = whole stream in one
#: chunk (resolved to ``len(events)``).
CHUNK_SIZES = (1, 7, 64, 0)


@pytest.fixture(autouse=True)
def _restore_backend():
    yield
    columnar.set_backend("auto")


def make_queries():
    """Two-edge path (FIFO leaf pair kernel), three-edge path (FIFO leaf
    joined against an internal node) and a fork (non-trivial plans)."""
    fork = QueryGraph(name="fork")
    fork.add_edge(1, 0, "A")
    fork.add_edge(0, 2, "B")
    return [
        QueryGraph.path(["A", "B"], name="p2"),
        QueryGraph.path(["B", "C", "A"], name="p3"),
        fork,
    ]


#: estimator-only warmup (register's Single decomposition needs warm
#: stats); never enters the graph, so it cannot affect record identity
WARMUP = [
    EdgeEvent("w0", "w1", etype, float(i)) for i, etype in enumerate(ETYPES * 2)
]


def build_engine(
    chunk_size: int = 1024,
    profile_phases: bool = False,
    dispatch: bool = True,
    **settings,
) -> ContinuousQueryEngine:
    engine = ContinuousQueryEngine(
        window=WINDOW,
        chunk_size=chunk_size,
        profile_phases=profile_phases,
        dispatch=dispatch,
        **settings,
    )
    engine.warmup(WARMUP)
    for query in make_queries():
        engine.register(query, strategy="Single", name=query.name)
    return engine


def identity(records):
    return [(r.query_name, r.match.fingerprint, r.completed_at) for r in records]


def per_event_reference(events, dispatch=True):
    engine = build_engine(dispatch=dispatch)
    records = []
    for event in events:
        records.extend(engine.process_event(event))
    return identity(records), engine


def as_rows(events):
    return [
        (i, e.src, e.dst, e.etype, e.timestamp, e.src_type, e.dst_type)
        for i, e in enumerate(events)
    ]


def accounting(engine):
    """Graph window accounting plus the engine's dispatch/sweep counters."""
    graph = engine.graph
    return (
        graph.total_edges_seen,
        graph.evicted_edges,
        len(graph),
        graph.num_vertices,
        graph.last_timestamp,
        engine._dispatch_hits,
        engine._sweeps,
    )


def assert_profile(engine, events, profile_phases):
    """Profiling credits every edge once per stage and fills the per-query
    iso/join split; without it nothing is timed at all."""
    stages = {name: t.calls for name, t in engine.kernel_profile.phases.items()}
    if not profile_phases:
        assert stages == {}
        assert all(not r.profile.phases for r in engine.queries.values())
        return
    assert stages == dict.fromkeys(("evict", "ingest", "dispatch"), len(events))
    for registered in engine.queries.values():
        alphabet = registered.algorithm.relevant_etypes()
        if any(e.etype in alphabet and e.src != e.dst for e in events):
            assert {"iso", "join"} <= set(registered.profile.phases)


@st.composite
def streams(draw):
    """Monotone-timestamp streams over a tiny, collision-heavy vertex
    population; gaps up to 6 put eviction cascades (window 9) well
    inside mid-sized chunks."""
    n_vertices = draw(st.integers(min_value=3, max_value=6))
    n_edges = draw(st.integers(min_value=5, max_value=40))
    events = []
    t = 0.0
    for _ in range(n_edges):
        t += draw(st.integers(min_value=0, max_value=6))
        src = draw(st.integers(min_value=0, max_value=n_vertices - 1))
        dst = draw(st.integers(min_value=0, max_value=n_vertices - 1))
        etype = draw(st.sampled_from(ETYPES))
        events.append(EdgeEvent(f"n{src}", f"n{dst}", etype, float(t)))
    return events


@settings(max_examples=60, deadline=None)
@given(
    events=streams(),
    chunk_size=st.sampled_from(CHUNK_SIZES),
    backend=st.sampled_from(BACKENDS),
    profile_phases=st.booleans(),
    dispatch=st.booleans(),
)
def test_process_events_identical_to_per_event(
    events, chunk_size, backend, profile_phases, dispatch
):
    columnar.set_backend(backend)
    try:
        reference, ref_engine = per_event_reference(events, dispatch)
        engine = build_engine(
            chunk_size or max(len(events), 1), profile_phases, dispatch
        )
        batched = identity(engine.process_events(events))
        assert batched == reference
        # the inlined graph ingest/eviction must also leave the window
        # accounting exactly where the per-event path leaves it
        assert accounting(engine) == accounting(ref_engine)
        assert_profile(engine, events, profile_phases)
    finally:
        columnar.set_backend("auto")


@settings(max_examples=25, deadline=None)
@given(
    events=streams(),
    chunk_size=st.sampled_from(CHUNK_SIZES),
    backend=st.sampled_from(BACKENDS),
    profile_phases=st.booleans(),
    dispatch=st.booleans(),
)
def test_process_rows_identical_to_per_event(
    events, chunk_size, backend, profile_phases, dispatch
):
    """The pinned-id wire path (sharded workers) under the same sweep."""
    columnar.set_backend(backend)
    try:
        reference, ref_engine = per_event_reference(events, dispatch)
        rows = as_rows(events)
        engine = build_engine(
            chunk_size or max(len(events), 1), profile_phases, dispatch
        )
        tagged = engine.process_rows(rows)
        assert identity([r for _, r in tagged]) == reference
        # every record is tagged with the id of the edge that completed it
        for edge_id, record in tagged:
            assert rows[edge_id][4] == record.completed_at
        assert accounting(engine) == accounting(ref_engine)
        assert_profile(engine, events, profile_phases)
    finally:
        columnar.set_backend("auto")


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("chunk_size", [4, 1024])
def test_mid_chunk_eviction_boundary(backend, chunk_size):
    """A timestamp jump in the middle of a chunk evicts the whole window
    between two edges of the *same* chunk; matches completed before the
    jump must survive, matches straddling it must not exist."""
    columnar.set_backend(backend)
    events = [
        EdgeEvent("a", "b", "A", 0.0),
        EdgeEvent("b", "c", "B", 1.0),  # completes p2 at t=1
        EdgeEvent("x", "y", "B", 2.0),
        EdgeEvent("a", "b", "A", 50.0),  # jump: everything above evicted
        EdgeEvent("b", "c", "B", 51.0),  # completes p2 again, fresh window
    ]
    reference, _ = per_event_reference(events)
    engine = build_engine(chunk_size)
    batched = identity(engine.process_events(events))
    assert batched == reference
    # p2 and the fork both complete on the pre-jump pair, then again on
    # the fresh post-jump pair — nothing may straddle the jump
    assert [r[2] for r in batched] == [1.0, 1.0, 51.0, 51.0]
    assert engine.graph.evicted_edges == 3


@settings(max_examples=40, deadline=None)
@given(
    events=streams(),
    data=st.data(),
    chunk_size=st.sampled_from(CHUNK_SIZES),
    profile_phases=st.booleans(),
    dispatch=st.booleans(),
    fault=st.sampled_from(["timestamp", "timestamp-rows", "edge-id-rows"]),
)
def test_out_of_order_chunk_raises_like_per_event(
    events, data, chunk_size, profile_phases, dispatch, fault
):
    """A backwards timestamp (or, on the wire, a backwards pinned id)
    mid-chunk raises the per-event path's error at the same element, with
    the in-order prefix ingested and nothing of the bad suffix applied —
    profiled or not."""
    at = data.draw(st.integers(min_value=1, max_value=len(events) - 1))
    rows = as_rows(events)
    if fault == "edge-id-rows":
        rows[at] = (at - 1, *rows[at][1:])
    else:
        rows[at] = (*rows[at][:4], -1.0, *rows[at][5:])
    reference = build_engine(dispatch=dispatch)
    with pytest.raises(GraphError) as expected:
        for row in rows:
            reference.process_event(EdgeEvent(*row[1:]), edge_id=row[0])
    engine = build_engine(chunk_size or len(events), profile_phases, dispatch)
    with pytest.raises(GraphError) as raised:
        if fault == "timestamp":
            engine.process_events([EdgeEvent(*row[1:]) for row in rows])
        else:
            engine.process_rows(rows)
    assert str(raised.value) == str(expected.value)
    assert accounting(engine) == accounting(reference)
    assert engine.graph.total_edges_seen == at
    assert engine.partial_match_count() == reference.partial_match_count()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("chunk_size", [8, 256], ids=["below-vector", "vector"])
@pytest.mark.parametrize("path", ["event", "events", "rows"])
@pytest.mark.parametrize("at", [0, 45])
def test_nan_timestamp_raises_at_its_position(backend, chunk_size, path, at):
    """NaN compares false with every clock, so an ``a < b`` order check
    lets it in, and at the head of the eviction FIFO it stops eviction for
    good (``nan < cutoff`` never holds). Every path must refuse it at its
    position, with the prefix ingested exactly as the per-event path
    ingests it."""
    assert 8 < columnar.MIN_VECTOR_CHUNK < 256
    columnar.set_backend(backend)
    rng = random.Random(7)
    events = []
    for i in range(120):
        src, dst = rng.sample(range(6), 2)
        events.append(EdgeEvent(f"n{src}", f"n{dst}", rng.choice(ETYPES), i / 2))
    bad = events[at]
    events[at] = EdgeEvent(bad.src, bad.dst, bad.etype, math.nan)
    prefix_records, prefix = per_event_reference(events[:at])
    engine = build_engine(chunk_size)
    records = []
    with pytest.raises(GraphError, match="timestamp nan"):
        if path == "event":
            for event in events:
                records.extend(engine.process_event(event))
        elif path == "events":
            engine.process_events(events)
        else:
            engine.process_rows(as_rows(events))
    assert engine.graph.total_edges_seen == at
    assert accounting(engine) == accounting(prefix)
    assert engine.partial_match_count() == prefix.partial_match_count()
    if path == "event":
        assert identity(records) == prefix_records
    elif path == "events":
        batched = build_engine(chunk_size).process_events(events[:at])
        assert identity(batched) == prefix_records
    else:
        tagged = build_engine(chunk_size).process_rows(as_rows(events[:at]))
        assert identity([record for _, record in tagged]) == prefix_records


@pytest.mark.parametrize("dispatch", [True, False])
def test_counters_identical_on_every_ingest_path(dispatch):
    """``_dispatch_hits`` counts edges whose compiled program is not None
    on every path — including edges of a type no query consumes, which
    the per-event path used to count whenever dispatch was off — and
    sweeps / window accounting agree as well."""
    rng = random.Random(5)
    t = 0.0
    events = []
    for _ in range(300):
        t += rng.choice((0.0, 0.5, 1.0, 2.0))
        src, dst = rng.sample(range(8), 2)
        etype = rng.choice(ETYPES + ["D"])
        events.append(EdgeEvent(f"n{src}", f"n{dst}", etype, t))

    def fresh(profile_phases=False):
        return build_engine(64, profile_phases, dispatch)

    def counters(engine):
        return (engine._dispatch_hits, engine._sweeps) + accounting(engine)[:2]

    per_event = fresh()
    for event in events:
        per_event.process_event(event)
    chunked = fresh()
    chunked.process_events(events)
    rows = fresh()
    rows.process_rows(as_rows(events))
    profiled = fresh(profile_phases=True)
    profiled.process_events(events)
    expected = counters(per_event)
    assert expected[0] == sum(e.etype != "D" for e in events)
    # one sweep per quarter-window grid line the cutoff crosses
    quarter = WINDOW / SWEEPS_PER_WINDOW
    assert expected[1] == len({(e.timestamp - WINDOW) // quarter for e in events})
    assert counters(chunked) == expected
    assert counters(rows) == expected
    assert counters(profiled) == expected


def test_numpy_backend_available_matches_env():
    """Guards the CI matrix: REPRO_NO_NUMPY=1 legs must actually run the
    pure-Python kernels."""
    import os

    if os.environ.get("REPRO_NO_NUMPY"):
        assert columnar.backend_name() == "python"
        with pytest.raises(RuntimeError):
            columnar.set_backend("numpy")


# ---------------------------------------------------------------------------
# pair_sums: the count-matrix kernel behind the 2-edge path table
# ---------------------------------------------------------------------------


def pair_sums_reference(rows, index):
    """Every unordered pair of distinct items across each row's multiset."""
    expected = {}
    for row in rows:
        items = [index[key] for key, count in row.items() for _ in range(count)]
        for i, first in enumerate(items):
            for second in items[i + 1 :]:
                pair = (min(first, second), max(first, second))
                expected[pair] = expected.get(pair, 0) + 1
    return [(a, b, count) for (a, b), count in sorted(expected.items())]


sparse_rows = st.lists(
    st.dictionaries(st.integers(0, 11), st.integers(1, 4), max_size=6), max_size=12
)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("block_cells", [1, 40, columnar.PAIR_BLOCK_CELLS])
@settings(max_examples=60, deadline=None)
@given(rows=sparse_rows, width=st.sampled_from([12, 200]))
def test_pair_sums_equals_pairwise_enumeration(backend, block_cells, rows, width):
    """Dense rows take the blocked CᵀC, width 200 the sparse loop: both
    enumerate the same pairs, whatever the block size."""
    columnar.set_backend(backend)
    columnar.PAIR_BLOCK_CELLS, saved = block_cells, columnar.PAIR_BLOCK_CELLS
    try:
        index = {key: key for key in range(width)}
        assert columnar.pair_sums(rows, index) == pair_sums_reference(rows, index)
    finally:
        columnar.PAIR_BLOCK_CELLS = saved


@pytest.mark.parametrize("backend", BACKENDS)
def test_pair_sums_stays_exact_past_int64(backend):
    columnar.set_backend(backend)
    big = 1 << 40
    rows = [{"a": big, "b": big}, {"a": 3}]
    assert columnar.pair_sums(rows, {"a": 0, "b": 1}) == [
        (0, 0, big * (big - 1) // 2 + 3),
        (0, 1, big * big),
        (1, 1, big * (big - 1) // 2),
    ]
    assert columnar.pair_sums([], {}) == []
