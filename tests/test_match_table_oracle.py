"""Property tests for ``repro.sjtree.node.MatchTable`` against the
seed-era dict-of-dicts + heapq implementation as a semantic oracle.

The list-bucket table must equal the oracle **exactly** under any
interleaving of inserts, probes and expiry, on monotone and out-of-order
``min_time`` traces alike:

* insert return values (duplicate suppression) and ``inserted_total``;
* probe *content and order* — probe order must equal insertion order
  (record-identity of the sharded runtime depends on it, because workers
  expire at different stream positions than the single-process engine);
* ``len`` and the per-call ``expire`` count: after ``expire(cutoff)`` the
  table holds precisely the matches with ``min_time >= cutoff``.

With ``dedup=False`` (what an eager tree's interior nodes run) the same
holds on every trace that offers no duplicate.

The second half re-runs the engine-level equivalence property on the
benchmark's mixed-edge-type 10-query workload with a tight window, so
sweep expiry and the compiled join chain are exercised against the seed
configuration record-for-record — with every ``MatchTable`` swapped for
a checking table that raises if the invariants that retired
copy-on-write and eager duplicate suppression are ever violated.

The last part holds graph-backed leaves (``GraphLeafView``) to the FIFO
tables they replaced: probe for probe at every edge of hypothesis
streams (self-loops, equal timestamps, one etype on both key roles,
finite and infinite windows), record for record against the reference
configuration on every ingest path and across a mid-stream refresh.
"""

import heapq
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import ContinuousQueryEngine
from repro.analysis.experiments import mixed_etype_workload
from repro.graph import EdgeEvent
from repro.graph.types import Edge
from repro.isomorphism import Match
from repro.query import QueryGraph
from repro.search import dynamic as dynamic_module
from repro.sjtree.node import FIFOLeafTable, GraphLeafView, MatchTable

from .util import CheckingTable, install_checking_tables


class OracleMatchTable:
    """The seed implementation: dict-of-dict buckets + heapq expiry.

    Copied (minus the Match internals it predates) so every later table is
    tested against real executable semantics, not prose.
    """

    def __init__(self) -> None:
        self._buckets = {}
        self._seen = {}
        self._heap = []
        self._entries = {}
        self._next_uid = 0
        self.inserted_total = 0

    def insert(self, key, match) -> bool:
        fingerprint = match.fingerprint
        if fingerprint in self._seen:
            return False
        uid = self._next_uid
        self._next_uid += 1
        self._seen[fingerprint] = uid
        self._entries[uid] = (key, match)
        self._buckets.setdefault(key, {})[uid] = match
        heapq.heappush(self._heap, (match.min_time, uid))
        self.inserted_total += 1
        return True

    def probe(self, key):
        bucket = self._buckets.get(key)
        if not bucket:
            return []
        return list(bucket.values())

    def expire(self, cutoff: float) -> int:
        dropped = 0
        while self._heap and self._heap[0][0] < cutoff:
            _, uid = heapq.heappop(self._heap)
            entry = self._entries.pop(uid, None)
            if entry is None:
                continue
            key, match = entry
            bucket = self._buckets.get(key)
            if bucket is not None:
                bucket.pop(uid, None)
                if not bucket:
                    del self._buckets[key]
            self._seen.pop(match.fingerprint, None)
            dropped += 1
        return dropped

    def __len__(self) -> int:
        return len(self._entries)


QUERY = QueryGraph.path(["T"])
QMAP = QUERY.edges_by_id()


def make_match(edge_id: int, ts: float, key_seed: int) -> Match:
    match = Match.build(
        QMAP, {0: Edge(edge_id, f"u{key_seed}", f"v{key_seed}", "T", ts)}
    )
    assert match is not None
    return match


def filtered(probe_result, cutoff: float):
    """A probe as UPDATE-SJ-TREE consumes it: cutoff-filtered, in order."""
    return [m.fingerprint for m in probe_result if m.min_time >= cutoff]


def drive(seed: int, monotone: bool, dedup: bool = True, steps: int = 400):
    """Random insert/probe/expire trace, table vs oracle — exact.

    Inserts model exactly what ``SJTree.compile_insert`` feeds a table: a
    match is only offered when ``min_time >= cutoff`` (the tree rejects
    stale matches before they reach the table), min_times are monotone
    for leaf tables and boundedly out-of-order for join tables, and Lazy
    Search may re-offer a still-live match (the dedupe path; never
    generated when ``dedup`` is off, as an eager tree never does).
    """
    rng = random.Random(seed)
    table = MatchTable(dedup=dedup)
    oracle = OracleMatchTable()
    keys = [(f"k{i}",) for i in range(6)]
    stamp_of = {}
    key_of = {}
    clock = 0.0
    cutoff = -math.inf
    next_edge_id = 0

    for _ in range(steps):
        op = rng.random()
        if op < 0.55:
            clock += rng.random()
            edge_id = None
            if dedup and rng.random() < 0.15 and next_edge_id:
                # re-offer an earlier match (Lazy rediscovery: dedupe
                # path) — only if still inside the window, as the tree's
                # min_time guard would enforce
                candidate = rng.randrange(next_edge_id)
                if stamp_of[candidate] >= cutoff:
                    edge_id = candidate
            if edge_id is None:
                if monotone:
                    ts = clock
                else:
                    # bounded out-of-orderness: min_time lags the clock,
                    # like joins against old partners, but never below
                    # the cutoff (the tree rejects those pre-insert)
                    ts = max(clock - rng.random() * 10.0, cutoff)
                edge_id = next_edge_id
                next_edge_id += 1
                key_of[edge_id] = rng.randrange(len(keys))
                stamp_of[edge_id] = ts
            match = make_match(edge_id, stamp_of[edge_id], key_of[edge_id])
            key = keys[key_of[edge_id]]
            assert table.insert(key, match) == oracle.insert(key, match)
            assert table.inserted_total == oracle.inserted_total
        elif op < 0.85:
            key = keys[rng.randrange(len(keys))]
            got = filtered(table.probe(key), cutoff)
            want = filtered(oracle.probe(key), cutoff)
            assert got == want, (key, got, want)
        else:
            cutoff = max(cutoff, clock - rng.random() * 12.0)
            assert table.expire(cutoff) == oracle.expire(cutoff)
            assert len(table) == len(oracle)
            # exact expiry: nothing stale is left for the filter to hide
            for key in keys:
                stored = [m.fingerprint for m in table.probe(key)]
                assert stored == filtered(oracle.probe(key), cutoff)

    # Full drain: everything expires.
    final = clock + 100.0
    assert table.expire(final) == oracle.expire(final)
    assert len(table) == len(oracle) == 0
    assert table.num_buckets() == 0
    for key in keys:
        assert table.probe(key) == []


@pytest.mark.parametrize("seed", range(8))
def test_slab_matches_oracle_monotone(seed):
    drive(seed, monotone=True)


@pytest.mark.parametrize("seed", range(8))
def test_slab_matches_oracle_out_of_order(seed):
    drive(seed + 1000, monotone=False)


@pytest.mark.parametrize("monotone", [True, False], ids=["monotone", "out-of-order"])
@pytest.mark.parametrize("seed", range(4))
def test_table_without_dedup_matches_oracle_on_duplicate_free_traces(seed, monotone):
    drive(seed + 2000, monotone=monotone, dedup=False)


class TestSlabDetails:
    def test_probe_returns_the_live_bucket(self):
        """Zero-copy probe: callers only iterate, and finish before the
        bucket can change (see CheckingTable for the enforced form)."""
        table = MatchTable()
        m1 = make_match(0, 1.0, 0)
        m2 = make_match(1, 2.0, 0)
        table.insert(("k0",), m1)
        view = table.probe(("k0",))
        assert view == [m1]
        table.insert(("k0",), m2)
        assert view == [m1, m2]  # no snapshot was taken
        assert table.probe(("missing",)) == []

    def test_checking_table_raises_on_mutation_under_probe(self):
        table = CheckingTable()
        table.insert(("k0",), make_match(0, 1.0, 0))
        with pytest.raises(AssertionError, match="mutated while a probe"):
            for _ in table.probe(("k0",)):
                table.insert(("k0",), make_match(1, 2.0, 0))
        with pytest.raises(AssertionError, match="expiry sweep"):
            for _ in table.probe(("k0",)):
                table.expire(5.0)
        # other buckets stay writable under a probe, and the guard lifts
        for _ in table.probe(("k0",)):
            table.insert(("k1",), make_match(2, 3.0, 1))
        assert table.insert(("k0",), make_match(3, 4.0, 0))

    def test_checking_table_raises_on_duplicate_without_dedup(self):
        table = CheckingTable(dedup=False)
        match = make_match(0, 1.0, 0)
        assert table.insert(("k0",), match)
        with pytest.raises(AssertionError, match="offered a duplicate"):
            table.insert(("k0",), match)
        table.expire(2.0)  # once expired, the identity may come back
        assert table.insert(("k0",), make_match(0, 3.0, 0))

    def test_probe_order_is_insertion_order_across_expiry(self):
        """Expiry must never reorder survivors (sharded identity)."""
        table = MatchTable()
        matches = [make_match(i, float(i), 0) for i in range(6)]
        for m in matches:
            table.insert(("k0",), m)
        table.expire(2.0)  # drops ids 0, 1
        assert [m.fingerprint for m in table.probe(("k0",))] == [
            m.fingerprint for m in matches[2:]
        ]

    def test_infinite_window_tables_skip_expiry_bookkeeping(self):
        """``track_expiry=False`` keeps no expiry state at all."""
        for table in (MatchTable(track_expiry=False), FIFOLeafTable(track_expiry=False)):
            for i in range(5):
                table.insert((), make_match(i, float(i), 0))
            assert table.expire(100.0) == 0  # nothing tracked, nothing dropped
            assert len(table) == 5
        assert not table._ring_keys and not table._ring_matches
        assert not any("ring" in slot for slot in MatchTable.__slots__)

    def test_engine_infinite_window_disables_tracking(self):
        from repro.analysis.experiments import mixed_etype_queries

        engine = ContinuousQueryEngine(window=math.inf)
        engine.warmup(mixed_etype_workload(200, num_queries=1)[0])
        query = mixed_etype_queries(1)[0]
        registered = engine.register(query, strategy="Single")
        assert all(
            not node.table.track_expiry
            for node in registered.algorithm.tree.nodes
        )
        finite = ContinuousQueryEngine(window=10.0)
        finite.warmup(mixed_etype_workload(200, num_queries=1)[0])
        registered = finite.register(query, strategy="Single")
        assert all(node.table.track_expiry for node in registered.algorithm.tree.nodes)


# ---------------------------------------------------------------------------
# engine-level equivalence on the bench workload, under checking tables
# ---------------------------------------------------------------------------


def run_mixed(fast: bool, strategy: str, window: float, events: int = 2500):
    stream, queries = mixed_etype_workload(events)
    warm_n = events // 5
    engine = ContinuousQueryEngine(window=window, dispatch=fast)
    engine.warmup(stream[:warm_n])
    for query in queries:
        options = {} if fast else {"compiled_plans": False}
        engine.register(query, strategy=strategy, name=query.name, **options)
    assert install_checking_tables(engine)
    records = engine.process_events(stream[warm_n:])
    return [(r.query_name, r.match.fingerprint, r.completed_at) for r in records]


@pytest.mark.parametrize("strategy", ["Single", "SingleLazy"])
def test_slab_encoding_equivalence_mixed_workload(strategy):
    """Fast path == seed path, record for record, on the benchmark's
    mixed-etype 10-query workload under a tight window.

    The tight window (a sweep every quarter window, 3.75 units of stream
    time) hammers sweep expiry between probes of out-of-order interior
    tables, while the Lazy variant adds hook-driven re-entrant inserts
    during probe iteration — which the checking tables prove never touch
    the bucket being iterated, and never offer an eager table a
    duplicate.
    """
    fast = run_mixed(True, strategy, window=15.0)
    seed = run_mixed(False, strategy, window=15.0)
    assert fast == seed
    assert fast  # the workload must actually produce matches


# ---------------------------------------------------------------------------
# graph-backed leaves: the window is the leaf table
# ---------------------------------------------------------------------------

#: one etype repeated along a path (keys on both endpoint roles), and a
#: fork whose two leaves are keyed on the shared source
VIEW_QUERIES = (
    ("path", [(0, 1, "TCP"), (1, 2, "UDP"), (2, 3, "TCP")]),
    ("fork", [(1, 0, "TCP"), (0, 2, "UDP")]),
)
VIEW_WARMUP = [
    EdgeEvent("w0", "w1", "TCP", 0.0),
    EdgeEvent("w1", "w2", "UDP", 0.0),
    EdgeEvent("w2", "w3", "TCP", 0.0),
    EdgeEvent("w3", "w1", "UDP", 0.0),
]

#: small vertex pool (self-loops allowed), two types, steps of 0 (equal
#: timestamps) to 2 — with a window of 3 the window turns over often
view_streams = st.lists(
    st.tuples(
        st.integers(0, 4),
        st.integers(0, 4),
        st.sampled_from(["TCP", "UDP"]),
        st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0]),
    ),
    min_size=1,
    max_size=45,
)
view_windows = st.sampled_from([3.0, math.inf])


def view_events(rows):
    events, t = [], 100.0
    for src, dst, etype, step in rows:
        t += step
        events.append(EdgeEvent(f"v{src}", f"v{dst}", etype, t))
    return events


def view_queries():
    queries = []
    for name, edges in VIEW_QUERIES:
        query = QueryGraph(name=name)
        for src, dst, etype in edges:
            query.add_edge(src, dst, etype)
        queries.append(query)
    return queries


def view_engine(window, **settings_):
    options = {}
    if settings_.pop("reference", False):
        settings_["dispatch"] = False
        options["compiled_plans"] = False
    engine = ContinuousQueryEngine(window=window, **settings_)
    engine.warmup(VIEW_WARMUP)
    for query in view_queries():
        engine.register(query, strategy="Single", name=query.name, **options)
    return engine


def identities(records):
    return [(r.query_name, r.match.fingerprint, r.completed_at) for r in records]


@settings(max_examples=60, deadline=None)
@given(rows=view_streams, window=view_windows)
def test_graph_leaf_probe_equals_a_fed_fifo_table(rows, window):
    """At every edge, each graph-backed leaf's probe, under every key,
    equals that of a FIFOLeafTable fed the leaf matches the leaf is
    offered (every non-loop edge of its type), stale entries dropped;
    and its ``len`` is that table's live count."""
    engine = view_engine(window)
    leaves = [
        leaf
        for registered in engine.queries.values()
        for leaf in registered.tree.leaves()
    ]
    assert all(type(leaf.table) is GraphLeafView for leaf in leaves)
    assert {leaf.table.key_is_src for leaf in leaves} == {True, False}
    fifos = [FIFOLeafTable() for _ in leaves]
    for event in view_events(rows):
        engine.process_event(event)
        edge = engine.graph.edge_by_id(engine.graph.total_edges_seen - 1)
        cutoff = engine.graph.window.cutoff
        for leaf, fifo in zip(leaves, fifos):
            view = leaf.table
            shape = leaf.match_shape()
            if edge.etype_code == view.code and edge.src != edge.dst:
                key = edge.src if view.key_is_src else edge.dst
                ts = edge.timestamp
                fifo.insert(key, Match(shape.qeids, (edge,), ts, ts, shape))
            keys = set(engine.graph.vertices()) | set(fifo._buckets)
            for key in keys:
                got = [e.edge_id for e in view.probe(key)]
                want = [
                    m.edges[0].edge_id
                    for m in fifo.probe(key)
                    if m.min_time >= cutoff
                ]
                assert got == want, (key, got, want)
            fifo.expire(cutoff)
            assert len(view) == len(fifo)
            assert view.inserted_total == fifo.inserted_total


def fifo_backed(monkeypatch):
    """Make eager trees keep FIFO tables on every single-edge leaf."""
    monkeypatch.setattr(dynamic_module, "_graph_leaf_view", lambda node, graph: None)


@settings(max_examples=40, deadline=None)
@given(rows=view_streams, window=view_windows)
def test_graph_leaves_emit_the_reference_records(rows, window):
    """Ordered records of the graph-backed engine on the events, rows,
    per-event and profiled paths equal the reference configuration's
    (no dispatch, interpretive matcher, per-event) and those of the same
    engine with FIFO leaf tables — also across a mid-stream refresh."""
    events = view_events(rows)
    reference = view_engine(window, reference=True)
    want = [r for e in events for r in reference.process_event(e)]
    want = identities(want)

    chunked = view_engine(window, chunk_size=7)
    assert identities(chunked.process_events(events)) == want
    rows_engine = view_engine(window, chunk_size=5)
    pinned = rows_engine.process_rows(
        [
            (i, e.src, e.dst, e.etype, e.timestamp, e.src_type, e.dst_type)
            for i, e in enumerate(events)
        ]
    )
    assert identities([record for _, record in pinned]) == want
    per_event = view_engine(window)
    assert identities([r for e in events for r in per_event.process_event(e)]) == want
    profiled = view_engine(window, profile_phases=True)
    assert identities(profiled.process_events(events)) == want

    half = len(events) // 2
    refreshed = view_engine(window)
    got = refreshed.process_events(events[:half])
    for name in ("path", "fork"):
        refreshed.refresh_query(name, strategy="Single")
    got += refreshed.process_events(events[half:])
    assert identities(got) == want


@pytest.mark.parametrize("window", [3.0, math.inf], ids=["finite", "inf"])
def test_fifo_leaves_emit_what_graph_leaves_emit(monkeypatch, window):
    """The engine with FIFO leaf tables is the oracle the graph-backed
    leaves replaced: same ordered records, with and without a refresh."""
    rng = random.Random(7)
    rows = [
        (
            rng.randrange(6),
            rng.randrange(6),
            rng.choice(["TCP", "UDP"]),
            rng.choice([0.0, 0.5, 1.0]),
        )
        for _ in range(300)
    ]
    events = view_events(rows)

    def run(refresh_at=None):
        engine = view_engine(window, chunk_size=16)
        records = engine.process_events(events[:refresh_at])
        if refresh_at is not None:
            engine.refresh_query("path", strategy="Single")
            records += engine.process_events(events[refresh_at:])
        return identities(records)

    views = run()
    assert views
    assert run(refresh_at=150) == views
    with monkeypatch.context() as patch:
        fifo_backed(patch)
        leaf = view_engine(window).queries["path"].tree.leaves()[0]
        assert type(leaf.table) is FIFOLeafTable
        assert run() == views
        assert run(refresh_at=150) == views


def test_graph_leaves_allocate_no_match_and_are_never_swept(monkeypatch):
    """Offering an edge to a graph-backed leaf builds no Match and stores
    nothing, and the sweeps pass it by. The stream carries only the outer
    two types of an A-B-C path, so no join can ever succeed: every Match
    built would be a leaf's."""
    engine = ContinuousQueryEngine(window=5.0)
    engine.warmup(
        [
            EdgeEvent("a", "b", "A", 0.0),
            EdgeEvent("b", "c", "B", 0.0),
            EdgeEvent("c", "d", "C", 0.0),
        ]
    )
    query = QueryGraph.path(["A", "B", "C"], name="abc")
    tree = engine.register(query, strategy="Single", name="abc").tree
    leaves = tree.leaves()
    graph = engine.graph
    for leaf in leaves:
        view = leaf.table
        assert type(view) is GraphLeafView
        assert view.index is (graph._out if view.key_is_src else graph._in)
        owned = [getattr(view, slot) for slot in GraphLeafView.__slots__]
        assert not any(
            isinstance(value, (list, dict, set, tuple)) and value is not view.index
            for value in owned
        )

    built = []
    real_init = Match.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    def no_sweep(self, cutoff):
        raise AssertionError("a sweep touched a graph-backed leaf")

    monkeypatch.setattr(Match, "__init__", counting_init)
    monkeypatch.setattr(GraphLeafView, "expire", no_sweep, raising=False)
    rng = random.Random(3)
    events = [
        EdgeEvent(
            f"v{rng.randrange(9)}", f"v{rng.randrange(9)}", rng.choice("AC"), t / 4
        )
        for t in range(400)
    ]
    assert engine.process_events(events[:200]) == []
    for event in events[200:]:
        assert engine.process_event(event) == []
    assert built == []
    assert engine._sweeps > 4
    offered = sum(1 for e in events if e.src != e.dst)
    assert sum(leaf.table.inserted_total for leaf in leaves) == offered
    assert tree.lifetime_inserts() == offered
    live = sum(1 for e in graph.edges() if e.src != e.dst)
    assert sum(len(leaf.table) for leaf in leaves) == live
    assert engine.partial_match_count() == live
