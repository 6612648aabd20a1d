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
"""

import heapq
import math
import random

import pytest

from repro import ContinuousQueryEngine
from repro.analysis.experiments import mixed_etype_workload
from repro.graph.types import Edge
from repro.isomorphism import Match
from repro.query import QueryGraph
from repro.sjtree.node import FIFOLeafTable, MatchTable

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
