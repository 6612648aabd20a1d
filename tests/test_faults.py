"""Fault-injection harness and crash-safe persistence tests.

Covers the :mod:`repro.runtime.faults` plan/injector machinery in
isolation (no subprocesses) plus the torn-write regression for the CRC
trailer in :mod:`repro.persistence.durable`: a snapshot corrupted after
a successful write must be *detected* at restore time, never silently
loaded.
"""

import pytest

from repro import ContinuousQueryEngine
from repro.analysis.experiments import mixed_etype_workload
from repro.errors import CheckpointError, FaultInjectionError
from repro.persistence.snapshot import (
    load_engine,
    read_snapshot_bytes,
    save_engine,
    write_snapshot_bytes,
)
from repro.runtime.faults import (
    FAULTS_ENV,
    Fault,
    FaultPlan,
    corrupt_file,
)


class TestFaultValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultInjectionError, match="unknown fault kind"):
            Fault(kind="explode", worker=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"worker": -1},
            {"worker": 0, "at_event": -5},
            {"worker": 0, "incarnation": -1},
        ],
    )
    def test_negative_fields_rejected(self, kwargs):
        with pytest.raises(FaultInjectionError):
            Fault(kind="kill", **kwargs)


class TestFaultPlanSerialization:
    def test_json_round_trip(self):
        plan = FaultPlan(
            (
                Fault(kind="kill", worker=0, at_event=100),
                Fault(kind="stall", worker=1, at_event=50, stall_seconds=0.1),
                Fault(kind="checkpoint_fail", worker=2, times=2),
            )
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_from_env_unset_is_none(self):
        assert FaultPlan.from_env(environ={}) is None
        assert FaultPlan.from_env(environ={FAULTS_ENV: "  "}) is None

    def test_from_env_inline_json(self):
        plan = FaultPlan.from_env(
            environ={FAULTS_ENV: '[{"kind": "kill", "worker": 1, "at_event": 7}]'}
        )
        assert plan.faults == (Fault(kind="kill", worker=1, at_event=7),)

    def test_from_env_file_indirection(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text('[{"kind": "stall", "worker": 0, "at_event": 3}]')
        plan = FaultPlan.from_env(environ={FAULTS_ENV: f"@{path}"})
        assert plan.faults[0].kind == "stall"

    def test_from_env_missing_file_fails_loudly(self, tmp_path):
        with pytest.raises(FaultInjectionError, match="cannot read fault plan"):
            FaultPlan.from_env(environ={FAULTS_ENV: f"@{tmp_path}/nope.json"})

    @pytest.mark.parametrize(
        "text,match",
        [
            ("not json", "not valid JSON"),
            ('{"kind": "kill"}', "must be a JSON list"),
            ("[42]", "must be a JSON object"),
            ('[{"kind": "kill", "worker": 0, "color": "red"}]', "unknown fields"),
            ('[{"kind": "kill"}]', "worker"),
        ],
    )
    def test_malformed_plans_rejected(self, text, match):
        with pytest.raises(FaultInjectionError, match=match):
            FaultPlan.from_json(text)


def _rows(*indices):
    """Minimal wire rows: only the leading global stream index matters."""
    return [(i, "a", "b", "T", float(i), "x", "x") for i in indices]


class TestFaultInjector:
    def test_plan_filters_by_worker_and_incarnation(self):
        plan = FaultPlan(
            (
                Fault(kind="kill", worker=0, at_event=10),
                Fault(kind="kill", worker=1, at_event=20),
                Fault(kind="kill", worker=0, at_event=30, incarnation=1),
            )
        )
        assert bool(plan.injector(0, 0))
        assert bool(plan.injector(0, 1))
        assert not plan.injector(2, 0)
        assert not plan.injector(1, 1)

    def test_kill_splits_batch_at_threshold(self):
        injector = FaultPlan(
            (Fault(kind="kill", worker=0, at_event=5),)
        ).injector(0, 0)
        rows, die = injector.intercept(_rows(2, 3, 4))
        assert not die and [r[0] for r in rows] == [2, 3, 4]
        rows, die = injector.intercept(_rows(4, 5, 6))
        assert die
        assert [r[0] for r in rows] == [4], "events past at_event must not run"

    def test_kill_exactly_on_batch_boundary(self):
        injector = FaultPlan(
            (Fault(kind="kill", worker=0, at_event=3),)
        ).injector(0, 0)
        rows, die = injector.intercept(_rows(3, 4))
        assert die and rows == []

    def test_stall_fires_once(self, monkeypatch):
        import repro.runtime.faults as faults_mod

        naps = []
        monkeypatch.setattr(faults_mod.time, "sleep", naps.append)
        injector = FaultPlan(
            (Fault(kind="stall", worker=0, at_event=5, stall_seconds=0.25),)
        ).injector(0, 0)
        injector.intercept(_rows(1, 2))
        assert naps == []
        injector.intercept(_rows(5, 6))
        assert naps == [0.25]
        injector.intercept(_rows(7, 8))
        assert naps == [0.25], "stall is one-shot"

    def test_checkpoint_fail_consumes_times_triggers(self):
        injector = FaultPlan(
            (Fault(kind="checkpoint_fail", worker=0, times=2),)
        ).injector(0, 0)
        for _ in range(2):
            with pytest.raises(OSError, match="injected"):
                injector.before_checkpoint()
        injector.before_checkpoint()  # budget spent: no-op


class TestCorruptFile:
    def test_flip_and_truncate(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"abcdefgh")
        corrupt_file(path)
        assert len(path.read_bytes()) == 8
        assert path.read_bytes() != b"abcdefgh"
        corrupt_file(path, mode="truncate")
        assert len(path.read_bytes()) == 4

    def test_unknown_mode_rejected(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"xy")
        with pytest.raises(FaultInjectionError, match="unknown corruption mode"):
            corrupt_file(path, mode="shred")


class TestTornWriteRegression:
    """A snapshot damaged after its (atomic, fsynced) write must be
    *detected* at restore — never silently loaded. A flipped byte trips
    the CRC trailer before the structural decoder runs; a truncation
    that destroys the trailer itself falls through to the structural
    decoder, which must still reject the torn payload."""

    def test_flipped_byte_trips_crc_trailer(self, tmp_path):
        path = tmp_path / "snap.bin"
        payload = b"engine state payload" * 64
        write_snapshot_bytes(payload, path)
        assert read_snapshot_bytes(path) == payload
        corrupt_file(path, mode="flip")
        with pytest.raises(CheckpointError, match="corrupt snapshot"):
            read_snapshot_bytes(path)

    @pytest.mark.parametrize("mode", ["flip", "truncate"])
    def test_corrupted_engine_snapshot_never_restores(self, tmp_path, mode):
        events, queries = mixed_etype_workload(
            200, num_queries=3, num_etypes=8, seed=5, population=24
        )
        for i, query in enumerate(queries):
            query.name = f"q{i}"
        engine = ContinuousQueryEngine(window=30.0)
        engine.warmup(events)
        for query in queries:
            engine.register(query, strategy="Single", name=query.name)
        engine.run(events)
        path = tmp_path / "engine.bin"
        save_engine(engine, path, cursor=len(events))
        load_engine(path, queries)  # intact: restores fine
        corrupt_file(path, mode=mode)
        with pytest.raises(CheckpointError):
            load_engine(path, queries)
