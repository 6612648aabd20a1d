"""Self-healing runtime ground truth: crashes must be invisible.

The acceptance bar mirrors the durability suite: a supervised sharded
run in which workers are killed (or stalled, or denied checkpoint
writes) mid-stream must emit records *identical* to the uninterrupted
single-process run — same records, same order. Alongside it: the
restart-policy/backoff unit behaviour, restart-budget exhaustion
surfacing a :class:`~repro.errors.WorkerError` that carries the remote
traceback, replay-buffer bounding via recovery checkpoints, recovery
of a worker that is already exiting, a kill right after a rebalance,
the CLI's supervised autoscale run under a deadline, and the
supervision metric families.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import ContinuousQueryEngine, ShardedEngine
from repro.analysis.experiments import mixed_etype_workload, skewed_etype_stream
from repro.datasets.io import write_stream
from repro.errors import WorkerError
from repro.runtime import Fault, FaultPlan, RestartPolicy, backoff_delay
from repro.runtime.faults import FAULTS_ENV

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
# recovery leaves the shared result queue usable
# ---------------------------------------------------------------------------


def _poisoned_once(threshold, flag):
    """``process_rows`` that fails the first batch reaching ``threshold``
    in whichever worker gets there first, and never again (``flag`` is
    a file every forked worker sees). The failing worker then takes a
    second to exit: a non-daemon thread it leaves behind is joined at
    interpreter exit, after its ``Failed`` reply has been sent."""
    original = ContinuousQueryEngine.process_rows

    def poisoned(self, rows):
        rows = list(rows)
        if rows and rows[-1][0] >= threshold:
            try:
                os.close(os.open(flag, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                threading.Thread(target=time.sleep, args=(1.0,)).start()
                raise RuntimeError(f"one-off failure at edge {threshold}")
        return original(self, rows)

    return poisoned


@requires_fork
class TestExitingWorker:
    def test_worker_that_reported_failure_exits_unsignalled(
        self, workload, baseline, monkeypatch, tmp_path
    ):
        """A worker that replied Failed is exiting on its own, its feeder
        thread still writing to the result queue every worker shares.
        Recovery waits for that exit instead of sending SIGTERM, which
        could orphan the queue's write lock and wedge the respawn. The
        failure lands in the stream's last batches, so the coordinator
        is awaiting the final collect when the report arrives."""
        monkeypatch.setattr(
            ContinuousQueryEngine,
            "process_rows",
            _poisoned_once(680, str(tmp_path / "fired")),
        )
        terminated = []
        terminate = multiprocessing.process.BaseProcess.terminate

        def spy(proc):
            terminated.append(proc.name)
            terminate(proc)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "terminate", spy)
        got, engine = supervised_run(
            workload, workers=3, policy=RestartPolicy(**FAST)
        )
        try:
            assert got == baseline
            reasons = set(engine._supervisor.telemetry()["restarts"])
            assert {reason for (_, reason) in reasons} == {"error"}
        finally:
            engine.close()
        assert terminated == []


class TestRebalanceRecovery:
    def test_kill_after_rebalance_restores_from_the_recut(
        self, workload, baseline
    ):
        """After rebalance() each new worker's respawn snapshot is its
        shard file in the re-cut checkpoint until its first recovery
        checkpoint: a worker killed in that gap must come back from it."""
        events, queries = workload
        cut = 350
        engine = ShardedEngine(
            window=30.0,
            workers=2,
            batch_size=16,
            supervise=True,
            restart_policy=RestartPolicy(replay_buffer_batches=1000, **FAST),
            fault_plan=FaultPlan((Fault(kind="kill", worker=0, at_event=500),)),
        )
        engine.warmup(events)
        for query in queries:
            engine.register(query, strategy="Single", name=query.name)
        try:
            records = engine.run(events[:cut]).records
            engine.rebalance()
            records += engine.run(events[cut:]).records
            assert identities(records) == baseline
            assert engine._supervisor.restarts_by_worker == {0: 1}
            assert engine._supervisor.telemetry()["recovery_checkpoints"] == 0
        finally:
            engine.close()


def _cli_matches(argv, env, deadline):
    """The ``match`` lines of one CLI run in a fresh interpreter."""
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "run", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=deadline,
    )
    assert result.returncode == 0, result.stderr
    return [line for line in result.stdout.splitlines() if line.startswith("match ")]


def test_cli_autoscaled_kill_is_invisible(tmp_path):
    """The CI autoscale-smoke run, supervised, with worker 0 killed at
    event 600, prints the fault-free run's match lines. A re-cut
    layout's worker restores from the re-cut checkpoint, and a SIGTERM
    to a worker mid-flush can wedge the shared result queue until the
    respawn's Ready times out; the deadline turns such a hang into a
    failure."""
    stream = tmp_path / "skew.tsv"
    write_stream(
        str(stream), skewed_etype_stream(4000, num_etypes=18, skew_from=0.5, seed=11)
    )
    argv = ["--stream", str(stream)]
    for i in range(6):
        query = tmp_path / f"aq{i}.txt"
        etypes = [f"T{(2 * i + k):02d}" for k in range(3)]
        query.write_text(
            f"v1 -{etypes[0]}-> v2\nv2 -{etypes[1]}-> v3\nv3 -{etypes[2]}-> v4\n"
        )
        argv += ["--query", str(query)]
    argv += ["--window", "40", "--workers", "3", "--max-print", "200000"]
    argv += ["--autoscale", "--autoscale-min", "1", "--autoscale-every", "400"]
    argv += ["--autoscale-cooldown", "1", "--supervise"]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    env.pop(FAULTS_ENV, None)
    clean = _cli_matches(argv, env, 60)
    env[FAULTS_ENV] = '[{"kind": "kill", "worker": 0, "at_event": 600}]'
    assert clean
    assert _cli_matches(argv, env, 90) == clean


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
