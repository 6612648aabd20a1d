"""Unit tests for the parallel runtime: partitioning and coordination."""

import math
import multiprocessing
import queue as queue_module
import time

import pytest

from repro import QueryGraph, ShardedEngine
from repro.errors import QueryError, WorkerError
from repro.graph.types import EdgeEvent
from repro.runtime import (
    estimate_query_cost,
    greedy_balanced,
    round_robin,
)
from repro.runtime.protocol import Close, Describe, Ready, Reply
from repro.stats.estimator import SelectivityEstimator


def events_for(counts):
    """A stream with the given per-etype counts, monotone timestamps."""
    events, t = [], 0.0
    for etype, count in counts.items():
        for i in range(count):
            t += 1.0
            events.append(EdgeEvent(f"a{i}", f"b{i}", etype, t))
    return events


class TestCostModel:
    def test_cold_estimator_counts_query_edges(self):
        query = QueryGraph.path(["A", "B", "C"], name="q")
        assert estimate_query_cost(query, SelectivityEstimator()) == 3.0
        assert estimate_query_cost(query, None) == 3.0

    def test_warm_estimator_sums_edge_selectivities(self):
        estimator = SelectivityEstimator()
        estimator.observe_events(events_for({"A": 60, "B": 30, "C": 10}))
        query = QueryGraph.path(["A", "B"], name="q")
        assert estimate_query_cost(query, estimator) == pytest.approx(0.9)

    def test_unseen_type_gets_floor_not_zero(self):
        estimator = SelectivityEstimator()
        estimator.observe_events(events_for({"A": 10}))
        query = QueryGraph.path(["Z"], name="q")
        assert estimate_query_cost(query, estimator) > 0.0


class TestGreedyBalanced:
    def test_heaviest_first_onto_lightest_shard(self):
        # LPT on [5, 4, 3, 3, 3] over 2 shards -> {5, 3} vs {4, 3, 3}
        shards = greedy_balanced([5.0, 4.0, 3.0, 3.0, 3.0], workers=2)
        loads = sorted(shard.cost for shard in shards)
        assert loads == [8.0, 10.0]

    def test_deterministic_under_ties(self):
        costs = [1.0] * 6
        first = greedy_balanced(costs, workers=3)
        second = greedy_balanced(costs, workers=3)
        assert first == second

    def test_positions_ascend_within_shard(self):
        shards = greedy_balanced([1.0, 2.0, 3.0, 4.0], workers=2)
        for shard in shards:
            assert list(shard.positions) == sorted(shard.positions)

    def test_no_empty_shards_when_overprovisioned(self):
        shards = greedy_balanced([1.0, 2.0], workers=8)
        assert len(shards) == 2
        assert all(len(shard) == 1 for shard in shards)

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            greedy_balanced([1.0], workers=0)

    def test_all_zero_costs_fall_back_to_round_robin(self):
        # Regression: with every cost exactly 0.0 the LPT heap always
        # found shard 0 lightest (tie on load 0.0, lowest worker id
        # wins), so all six queries piled onto worker 0 and the other
        # shards spawned empty. Zero signal must mean round-robin.
        shards = greedy_balanced([0.0] * 6, workers=3)
        assert shards == round_robin(6, workers=3)
        assert [shard.positions for shard in shards] == [
            (0, 3),
            (1, 4),
            (2, 5),
        ]
        # ... and an empty/overprovisioned zero-cost set stays sane too
        assert greedy_balanced([], workers=3) == []
        assert len(greedy_balanced([0.0], workers=4)) == 1


class TestRoundRobin:
    def test_stripes_by_position(self):
        shards = round_robin(5, workers=2)
        assert shards[0].positions == (0, 2, 4)
        assert shards[1].positions == (1, 3)

    def test_overprovisioned(self):
        assert len(round_robin(1, workers=4)) == 1


@pytest.fixture
def warm_events():
    return events_for({"A": 20, "B": 12, "C": 6})


def register_two(engine):
    engine.register(QueryGraph.path(["A", "B"], name="ab"), strategy="Single")
    engine.register(QueryGraph.path(["C"], name="c"), strategy="Single")


class TestShardedEngineAPI:
    def test_serial_fallback_spawns_no_processes(self, warm_events):
        engine = ShardedEngine(window=math.inf, workers=1)
        engine.warmup(warm_events)
        register_two(engine)
        assert not engine.in_process  # known once started
        try:
            engine.run(warm_events)
            assert engine._supervisor is None
            assert engine.in_process
        finally:
            engine.close()

    def test_single_shard_skips_multiprocessing_too(self, warm_events):
        # 4 workers but one query -> one shard -> in-process.
        engine = ShardedEngine(window=math.inf, workers=4)
        engine.warmup(warm_events)
        engine.register(QueryGraph.path(["A"], name="a"), strategy="Single")
        try:
            engine.run(warm_events)
            assert engine._supervisor is None
            assert engine.in_process
        finally:
            engine.close()

    def test_register_after_start_rejected(self, warm_events):
        engine = ShardedEngine(window=math.inf, workers=1)
        engine.warmup(warm_events)
        register_two(engine)
        try:
            engine.start()
            with pytest.raises(QueryError, match="after streaming"):
                engine.register(QueryGraph.path(["A"], name="late"))
            with pytest.raises(QueryError, match="after streaming"):
                engine.warmup(warm_events)
        finally:
            engine.close()

    def test_duplicate_and_disconnected_rejected(self, warm_events):
        engine = ShardedEngine()
        engine.warmup(warm_events)
        engine.register(QueryGraph.path(["A"], name="q"))
        with pytest.raises(QueryError, match="already registered"):
            engine.register(QueryGraph.path(["B"], name="q"))
        disconnected = QueryGraph(name="disc")
        disconnected.add_edge(0, 1, "A")
        disconnected.add_edge(2, 3, "B")
        with pytest.raises(QueryError, match="connected"):
            engine.register(disconnected)

    def test_auto_strategy_resolved_at_register(self, warm_events):
        engine = ShardedEngine()
        engine.warmup(warm_events)
        spec = engine.register(QueryGraph.path(["A", "B"], name="q"))
        assert spec.strategy in ("SingleLazy", "PathLazy")
        assert spec.decision is not None

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ShardedEngine(workers=0)
        with pytest.raises(ValueError):
            ShardedEngine(batch_size=0)
        with pytest.raises(ValueError):
            ShardedEngine(partitioner="magic")
        # engine settings are checked by the coordinator, not first by a
        # worker at run()
        with pytest.raises(ValueError, match="window"):
            ShardedEngine(workers=2, window=0)

    def test_context_manager_and_limit(self, warm_events):
        with ShardedEngine(window=math.inf, workers=2, batch_size=8) as engine:
            pass  # no queries: start() falls back to serial; run still counts
        engine = ShardedEngine(window=math.inf, workers=2, batch_size=8)
        engine.warmup(warm_events)
        register_two(engine)
        with engine:
            result = engine.run(warm_events, limit=10)
            assert result.edges_processed == 10

    def test_worker_stats_cover_all_queries(self, warm_events):
        engine = ShardedEngine(window=math.inf, workers=2, batch_size=8)
        engine.warmup(warm_events)
        register_two(engine)
        try:
            result = engine.run(warm_events)
            assert not engine.in_process
            stats = engine.last_worker_stats
            assert len(stats) == 2
            names = sorted(n for s in stats for n in s.query_names)
            assert names == ["ab", "c"]
            assert sum(s.records for s in stats) == len(result.records)
            # type filtering: neither worker needed the full stream twice
            assert sum(s.events_routed for s in stats) <= 2 * len(warm_events)
        finally:
            engine.close()

    def test_describe_shows_shards(self, warm_events):
        engine = ShardedEngine(window=math.inf, workers=2)
        engine.warmup(warm_events)
        register_two(engine)
        text = engine.describe()  # before start: plan only
        assert "shard 0" in text and "queries=[" in text
        try:
            engine.start()
            engine.run(warm_events)
            live = engine.describe()
            assert "worker" in live and "matches=" in live
        finally:
            engine.close()

    def test_close_is_idempotent(self, warm_events):
        engine = ShardedEngine(window=math.inf, workers=2, batch_size=4)
        engine.warmup(warm_events)
        register_two(engine)
        engine.start()
        engine.close()
        engine.close()

    def test_restart_after_close_rejected(self, warm_events):
        # A respawn would get empty worker graphs while edge ids keep
        # counting — not record-identical to anything; must raise.
        engine = ShardedEngine(window=math.inf, workers=2, batch_size=4)
        engine.warmup(warm_events)
        register_two(engine)
        engine.run(warm_events)
        engine.close()
        with pytest.raises(RuntimeError, match="restarted"):
            engine.run(warm_events)
        # and misuse fails at the offending call, not at the next run()
        with pytest.raises(QueryError, match="after streaming"):
            engine.register(QueryGraph.path(["A"], name="late"))
        with pytest.raises(QueryError, match="after streaming"):
            engine.warmup(warm_events)

    def test_unknown_strategy_rejected_at_register(self, warm_events):
        engine = ShardedEngine()
        engine.warmup(warm_events)
        from repro.errors import StrategyError

        with pytest.raises(StrategyError, match="unknown strategy"):
            engine.register(QueryGraph.path(["A"], name="q"), strategy="Magic")

    # 200 repeats overflow the failed worker's bounded task queue, so its
    # death is seen by a blocked put before any reply is read: the
    # worker's own report must still be the error raised
    @pytest.mark.parametrize("repeats", [10, 200])
    def test_worker_failure_surfaces(self, warm_events, repeats):
        engine = ShardedEngine(window=5.0, workers=2, batch_size=4)
        engine.warmup(warm_events)
        register_two(engine)
        try:
            engine.start()
            # Out-of-order timestamps violate the graph contract inside the
            # workers; the coordinator must surface that as an error rather
            # than hang.
            bad = [
                EdgeEvent("x", "y", "A", 100.0),
                EdgeEvent("x", "y", "B", 1.0),
                EdgeEvent("y", "z", "C", 1.0),
            ] * repeats
            with pytest.raises(RuntimeError, match="worker") as excinfo:
                engine.run(bad)
        finally:
            engine.close()
        # the structured report crosses the process boundary intact
        error = excinfo.value
        assert isinstance(error, WorkerError)
        assert error.context == "batch"
        assert "GraphError" in error.remote_traceback
        assert "out-of-order event" in error.remote_traceback
        assert isinstance(error.payload, dict)
        # the "ab" shard's first batch (stream indices 0, 1, 3, 4) breaks
        # at index 1; the "c" shard only ever sees t=1.0 and never fails
        assert error.payload["batch_events"] == 4
        assert error.payload["first_edge_id"] == 0


def _slow_worker_main(init, task_queue, result_queue):
    """A worker that drains its queue slowly but honours the poison pill.

    Stands in for a healthy-but-backlogged worker: with the task queue
    filled to capacity, the old ``close()`` lost its :class:`Close`
    message to ``queue.Full`` and the worker only died via the
    ``terminate()`` backstop (non-zero exit code, after the full join
    timeout). The fixed poison-pill path must reach this loop.
    """
    import time as time_module

    result_queue.put(Reply(init.worker_id, init.incarnation, Ready()))
    while True:
        if isinstance(task_queue.get(), Close):
            return
        time_module.sleep(0.25)


class TestCloseUnderFullQueue:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="monkeypatching the worker entry point requires fork",
    )
    def test_close_joins_all_workers_gracefully(self, monkeypatch, warm_events):
        import repro.runtime.sharded as sharded_mod

        monkeypatch.setattr(sharded_mod, "_worker_main", _slow_worker_main)
        engine = ShardedEngine(window=math.inf, workers=2, batch_size=4)
        engine.warmup(warm_events)
        register_two(engine)
        engine.start()
        procs = list(engine._supervisor.procs)
        assert len(procs) == 2, "test needs real worker processes"
        # Fill every bounded task queue to capacity while the workers
        # crawl: close() must still deliver its pill and join cleanly.
        for task_queue in engine._supervisor.task_queues:
            while True:
                try:
                    task_queue.put_nowait(Describe())
                except queue_module.Full:
                    break
        started = time.monotonic()
        engine.close()
        elapsed = time.monotonic() - started
        for proc in procs:
            assert not proc.is_alive(), "close() left a worker running"
            assert proc.exitcode == 0, (
                "worker was terminated instead of receiving the close "
                f"message (exitcode={proc.exitcode})"
            )
        assert elapsed < 4.0, f"close() took {elapsed:.1f}s under a full queue"


class TestGraphBatchIngest:
    def test_add_events_matches_add_event(self):
        from repro.graph.streaming_graph import StreamingGraph

        events = events_for({"A": 5, "B": 3})
        one = StreamingGraph(window=4.0)
        for event in events:
            one.add_event(event)
        batch = StreamingGraph(window=4.0)
        edges = batch.add_events(events)
        assert len(edges) == len(events)
        assert [e.edge_id for e in batch.edges()] == [e.edge_id for e in one.edges()]
        assert batch.snapshot_counts() == one.snapshot_counts()

    def test_pinned_edge_ids(self):
        from repro.errors import GraphError
        from repro.graph.streaming_graph import StreamingGraph

        graph = StreamingGraph()
        edge = graph.add_event(EdgeEvent("a", "b", "A", 1.0), edge_id=7)
        assert edge.edge_id == 7
        nxt = graph.add_event(EdgeEvent("b", "c", "A", 2.0))
        assert nxt.edge_id == 8
        with pytest.raises(GraphError, match="backwards"):
            graph.add_event(EdgeEvent("c", "d", "A", 3.0), edge_id=3)
        # pinned ids must not inflate the insertion tally
        assert graph.total_edges_seen == 2
