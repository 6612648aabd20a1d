"""Self-healing runtime ground truth: crashes must be invisible.

The acceptance bar mirrors the durability suite: a supervised sharded
run in which workers are killed (or stalled, or denied checkpoint
writes) mid-stream must emit records *identical* to the uninterrupted
single-process run — same records, same order. Alongside it: the
restart-policy/backoff unit behaviour, restart-budget exhaustion
surfacing a :class:`~repro.errors.WorkerError` that carries the remote
traceback, replay-buffer bounding via recovery checkpoints, and the
supervision metric families.
"""

from __future__ import annotations

import multiprocessing
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import ContinuousQueryEngine, ShardedEngine
from repro.analysis.experiments import mixed_etype_workload
from repro.errors import WorkerError
from repro.runtime import Fault, FaultPlan, RestartPolicy, backoff_delay

requires_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="poisoning the worker entry point requires fork",
)

#: Fast-recovery policy for tests: near-zero backoff, deterministic.
FAST = {"backoff_base": 0.01, "backoff_cap": 0.02, "jitter": 0.0}


def identities(records):
    return [
        (r.query_name, r.strategy, r.match.fingerprint, r.completed_at)
        for r in records
    ]


@pytest.fixture(scope="module")
def workload():
    events, queries = mixed_etype_workload(
        700, num_queries=9, num_etypes=24, seed=11, population=48
    )
    for i, query in enumerate(queries):
        query.name = f"q{i}"
    return events, queries


@pytest.fixture(scope="module")
def baseline(workload):
    events, queries = workload
    engine = ContinuousQueryEngine(window=30.0)
    engine.warmup(events)
    for query in queries:
        engine.register(query, strategy="Single", name=query.name)
    expected = identities(engine.run(events).records)
    assert expected, "workload must produce matches to be meaningful"
    return expected


def supervised_run(workload, *, workers, fault_plan=None, policy=None):
    """One supervised sharded run; returns ``(identities, engine)`` with
    the engine still open so callers can inspect telemetry/metrics."""
    events, queries = workload
    engine = ShardedEngine(
        window=30.0,
        workers=workers,
        batch_size=16,
        supervise=True,
        restart_policy=policy,
        fault_plan=fault_plan,
    )
    engine.warmup(events)
    for query in queries:
        engine.register(query, strategy="Single", name=query.name)
    result = engine.run(events)
    return identities(result.records), engine


# ---------------------------------------------------------------------------
# restart policy / backoff units
# ---------------------------------------------------------------------------


class TestRestartPolicy:
    def test_defaults_valid(self):
        policy = RestartPolicy()
        assert policy.max_restarts == 3
        assert policy.replay_buffer_batches >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_restarts": -1},
            {"backoff_base": -0.1},
            {"backoff_factor": 0.5},
            {"backoff_cap": -0.5},
            {"jitter": -0.2},
            {"jitter": 1.5},
            {"stall_timeout": 0.0},
            {"replay_buffer_batches": 0},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RestartPolicy(**kwargs)


class TestBackoff:
    def test_geometric_growth_capped(self):
        policy = RestartPolicy(
            backoff_base=0.1, backoff_factor=2.0, backoff_cap=0.5, jitter=0.0
        )
        delays = [backoff_delay(policy, attempt) for attempt in (1, 2, 3, 4, 5)]
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])

    def test_jitter_bounded(self):
        policy = RestartPolicy(
            backoff_base=0.2, backoff_factor=2.0, backoff_cap=2.0, jitter=0.25
        )
        rng = random.Random(99)
        for attempt in (1, 2, 3):
            base = backoff_delay(
                RestartPolicy(
                    backoff_base=0.2,
                    backoff_factor=2.0,
                    backoff_cap=2.0,
                    jitter=0.0,
                ),
                attempt,
            )
            for _ in range(50):
                delay = backoff_delay(policy, attempt, rng=rng)
                assert base * 0.75 <= delay <= base * 1.25

    def test_attempt_must_be_positive(self):
        with pytest.raises(ValueError):
            backoff_delay(RestartPolicy(), 0)


# ---------------------------------------------------------------------------
# chaos equivalence (the acceptance bar)
# ---------------------------------------------------------------------------


class TestChaosEquivalence:
    def test_two_kills_across_three_workers_record_identical(
        self, workload, baseline
    ):
        """Kill 2 of 3 workers mid-stream, with a small replay buffer so
        recovery checkpoints, stash filtering and replay dedup are all
        exercised — merged output must be identical."""
        plan = FaultPlan(
            (
                Fault(kind="kill", worker=0, at_event=250),
                Fault(kind="kill", worker=2, at_event=480),
            )
        )
        got, engine = supervised_run(
            workload,
            workers=3,
            fault_plan=plan,
            policy=RestartPolicy(replay_buffer_batches=4, **FAST),
        )
        try:
            assert got == baseline
            telemetry = engine._supervisor.telemetry()
            assert telemetry["restarts"] == {(0, "exit"): 1, (2, "exit"): 1}
            assert telemetry["replayed_batches"] >= 2
        finally:
            engine.close()

    def test_chained_kill_of_respawned_worker(self, workload, baseline):
        """The replacement dies too (incarnation 1 armed): two restarts
        of the same worker, still record-identical."""
        plan = FaultPlan(
            (
                Fault(kind="kill", worker=1, at_event=200),
                Fault(kind="kill", worker=1, at_event=400, incarnation=1),
            )
        )
        got, engine = supervised_run(
            workload,
            workers=3,
            fault_plan=plan,
            policy=RestartPolicy(replay_buffer_batches=8, **FAST),
        )
        try:
            assert got == baseline
            assert engine._supervisor.restarts_by_worker == {1: 2}
        finally:
            engine.close()

    @settings(max_examples=4, deadline=None)
    @given(
        cuts=st.lists(
            st.integers(min_value=30, max_value=650),
            min_size=2,
            max_size=2,
            unique=True,
        ),
        workers=st.sampled_from([2, 3]),
    )
    def test_kill_cut_points_are_invisible(
        self, workload, baseline, cuts, workers
    ):
        """Property: any two kill cut points, on k in {2, 3} workers,
        leave the merged output identical to the single-process run."""
        plan = FaultPlan(
            tuple(
                Fault(kind="kill", worker=i % workers, at_event=cut)
                for i, cut in enumerate(sorted(cuts))
            )
        )
        got, engine = supervised_run(
            workload,
            workers=workers,
            fault_plan=plan,
            policy=RestartPolicy(replay_buffer_batches=6, **FAST),
        )
        try:
            assert got == baseline
            assert engine._supervisor.total_restarts >= 1
        finally:
            engine.close()

    def test_stall_detected_and_recovered(self, workload, baseline):
        """A wedged worker (stall near end of stream, so the sleep
        overlaps the collect) trips the heartbeat-age timeout and is
        replaced; output is unchanged."""
        plan = FaultPlan(
            (Fault(kind="stall", worker=0, at_event=660, stall_seconds=3.0),)
        )
        got, engine = supervised_run(
            workload,
            workers=3,
            fault_plan=plan,
            policy=RestartPolicy(stall_timeout=0.3, **FAST),
        )
        try:
            assert got == baseline
            reasons = {
                reason
                for (_, reason) in engine._supervisor.telemetry()["restarts"]
            }
            assert reasons == {"stall"}
        finally:
            engine.close()

    def test_checkpoint_write_failures_tolerated(self, workload, baseline):
        """Injected recovery-checkpoint failures keep the replay buffer
        growing (no trim) but never corrupt or fail the run."""
        plan = FaultPlan(
            (Fault(kind="checkpoint_fail", worker=0, times=2),)
        )
        got, engine = supervised_run(
            workload,
            workers=3,
            fault_plan=plan,
            policy=RestartPolicy(replay_buffer_batches=3, **FAST),
        )
        try:
            assert got == baseline
            telemetry = engine._supervisor.telemetry()
            assert telemetry["checkpoint_failures"] == 2
            assert telemetry["recovery_checkpoints"] >= 1
        finally:
            engine.close()


# ---------------------------------------------------------------------------
# replay-buffer bounding
# ---------------------------------------------------------------------------


class TestReplayBufferBounding:
    def test_buffer_trimmed_by_recovery_checkpoints(self, workload, baseline):
        """With a tiny buffer bound the supervisor must keep trimming via
        recovery checkpoints instead of buffering the whole stream."""
        got, engine = supervised_run(
            workload,
            workers=3,
            policy=RestartPolicy(replay_buffer_batches=2, **FAST),
        )
        try:
            assert got == baseline
            telemetry = engine._supervisor.telemetry()
            assert telemetry["recovery_checkpoints"] >= 3
            for depth in telemetry["replay_depth"].values():
                assert depth <= 2
        finally:
            engine.close()


# ---------------------------------------------------------------------------
# restart-budget exhaustion
# ---------------------------------------------------------------------------


def _poisoned_process_rows(threshold):
    original = ContinuousQueryEngine.process_rows

    def poisoned(self, rows):
        rows = list(rows)
        if rows and rows[-1][0] >= threshold:
            raise RuntimeError(f"poison pill at edge {threshold}")
        return original(self, rows)

    return poisoned


@requires_fork
class TestRestartBudget:
    def test_exhaustion_surfaces_worker_error_with_remote_traceback(
        self, workload, monkeypatch
    ):
        """A deterministic failure (re-raised on every replay) burns the
        restart budget and fails fast with the worker's own traceback."""
        events, queries = workload
        monkeypatch.setattr(
            ContinuousQueryEngine,
            "process_rows",
            _poisoned_process_rows(300),
        )
        engine = ShardedEngine(
            window=30.0,
            workers=3,
            batch_size=16,
            supervise=True,
            restart_policy=RestartPolicy(max_restarts=1, **FAST),
        )
        engine.warmup(events)
        for query in queries:
            engine.register(query, strategy="Single", name=query.name)
        try:
            with pytest.raises(WorkerError) as excinfo:
                engine.run(events)
        finally:
            engine.close()
        error = excinfo.value
        assert "restart budget" in str(error)
        assert error.remote_traceback is not None
        assert "poison pill at edge 300" in error.remote_traceback
        assert error.worker_id is not None

    def test_zero_budget_fails_on_first_death(self, workload):
        events, queries = workload
        plan = FaultPlan((Fault(kind="kill", worker=0, at_event=200),))
        engine = ShardedEngine(
            window=30.0,
            workers=2,
            batch_size=16,
            supervise=True,
            restart_policy=RestartPolicy(max_restarts=0, **FAST),
            fault_plan=plan,
        )
        engine.warmup(events)
        for query in queries:
            engine.register(query, strategy="Single", name=query.name)
        try:
            with pytest.raises(WorkerError, match="restart budget"):
                engine.run(events)
        finally:
            engine.close()


# ---------------------------------------------------------------------------
# supervision metric families
# ---------------------------------------------------------------------------


class TestSupervisionMetrics:
    def test_restart_and_replay_families_reported(self, workload, baseline):
        plan = FaultPlan(
            (
                Fault(kind="kill", worker=0, at_event=250),
                Fault(kind="kill", worker=1, at_event=450),
            )
        )
        got, engine = supervised_run(
            workload,
            workers=3,
            fault_plan=plan,
            policy=RestartPolicy(replay_buffer_batches=4, **FAST),
        )
        try:
            assert got == baseline
            registry = engine.metrics()
            text = registry.render_prometheus()
        finally:
            engine.close()
        assert 'repro_runtime_worker_restarts_total{worker="0",reason="exit"} 1' in text
        assert 'repro_runtime_worker_restarts_total{worker="1",reason="exit"} 1' in text
        assert "repro_runtime_replayed_batches_total" in text
        assert "repro_runtime_recovery_checkpoints_total" in text
        assert "repro_runtime_replay_buffer_batches" in text
        assert "repro_runtime_recovery_seconds" in text
