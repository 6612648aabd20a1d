"""Sharded-runtime ground truth (the parallel runtime's keystone).

:class:`repro.runtime.ShardedEngine` partitions queries across worker
processes and streams each worker only the edge types its shard can
consume. Nothing about that may show in the output: for any stream, any
query mix, any window and any worker count, the merged record stream must
be *identical* — same records, same order, same fingerprints (worker
graphs pin global edge ids), same timestamps — to the single-process
:class:`repro.ContinuousQueryEngine`.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro import ContinuousQueryEngine, ShardedEngine
from repro.analysis.experiments import mixed_etype_workload

from .test_equivalence_property import queries, streams

WORKER_COUNTS = (1, 2, 4)

#: strategy mix cycled over registered queries — covers eager/lazy SJ-Tree
#: search plus the per-edge VF2 baseline under sharding.
STRATEGY_CYCLE = ("Single", "SingleLazy", "Path", "PathLazy", "VF2")


def identities(records):
    return [
        (r.query_name, r.strategy, r.match.fingerprint, r.completed_at)
        for r in records
    ]


def single_process_run(events, query_list, width, strategies):
    engine = ContinuousQueryEngine(window=width)
    engine.warmup(events)
    for i, query in enumerate(query_list):
        engine.register(query, strategy=strategies[i], name=f"q{i}")
    return engine.run(events)


def sharded_run(events, query_list, width, strategies, workers, **kwargs):
    engine = ShardedEngine(
        window=width,
        workers=workers,
        batch_size=kwargs.pop("batch_size", 7),
        **kwargs,
    )
    engine.warmup(events)
    for i, query in enumerate(query_list):
        engine.register(query, strategy=strategies[i], name=f"q{i}")
    try:
        return engine.run(events)
    finally:
        engine.close()


@settings(max_examples=6, deadline=None)
@given(
    events=streams(),
    query_list=st.lists(queries(), min_size=2, max_size=4),
    window_choice=st.sampled_from(["inf", "wide", "tight"]),
)
def test_sharded_engine_is_record_identical(events, query_list, window_choice):
    """ShardedEngine(workers=k) for k in {1, 2, 4} emits exactly the
    records (and order) of the single-process engine."""
    if not events:
        return
    duration = events[-1].timestamp - events[0].timestamp
    width = {
        "inf": math.inf,
        "wide": max(duration * 0.7, 2.0),
        "tight": max(duration * 0.25, 1.0),
    }[window_choice]
    strategies = [
        STRATEGY_CYCLE[i % len(STRATEGY_CYCLE)] for i in range(len(query_list))
    ]

    base = single_process_run(events, query_list, width, strategies)
    expected = identities(base.records)
    for workers in WORKER_COUNTS:
        result = sharded_run(events, query_list, width, strategies, workers)
        assert result.edges_processed == base.edges_processed
        assert identities(result.records) == expected, (
            f"workers={workers} diverged: {len(result.records)} records "
            f"vs {len(base.records)}"
        )


def _mixed_workload(num_events=700, num_queries=10, num_etypes=24, seed=11):
    """The seed/fast floor's workload shape (``tools/check_perf_floors.py``):
    same generator (:func:`mixed_etype_workload`), denser vertex
    population."""
    return mixed_etype_workload(
        num_events,
        num_queries=num_queries,
        num_etypes=num_etypes,
        seed=seed,
        population=48,
    )


def test_sharded_matches_single_on_mixed_etype_multi_query_workload():
    """Acceptance workload: mixed-edge-type 10-query stream, finite window,
    k in {1, 2, 4} — record-identical, both partitioners."""
    events, query_list = _mixed_workload()
    strategies = ["Single"] * len(query_list)
    base = single_process_run(events, query_list, 30.0, strategies)
    assert base.records, "workload must produce matches to be meaningful"
    expected = identities(base.records)
    for workers in WORKER_COUNTS:
        for partitioner in ("cost", "round-robin"):
            result = sharded_run(
                events,
                query_list,
                30.0,
                strategies,
                workers,
                batch_size=64,
                partitioner=partitioner,
            )
            assert identities(result.records) == expected, (
                f"workers={workers}, partitioner={partitioner} diverged"
            )


def test_sharded_with_unfiltered_strategy_sees_every_edge():
    """A shard holding a PeriodicVF2 query (relevant_etypes() is None)
    must receive the unfiltered stream — and stay record-identical."""
    events, query_list = _mixed_workload(num_events=300, num_queries=4)
    strategies = ["Single", "PeriodicVF2", "IncIso", "SingleLazy"]
    options = {1: {"period": 25}}

    def register_all(engine):
        for i, query in enumerate(query_list):
            engine.register(
                query,
                strategy=strategies[i],
                name=f"q{i}",
                **options.get(i, {}),
            )

    single = ContinuousQueryEngine(window=math.inf)
    single.warmup(events)
    register_all(single)
    base = single.run(events)

    for workers in (2, 4):
        engine = ShardedEngine(window=math.inf, workers=workers, batch_size=32)
        engine.warmup(events)
        register_all(engine)
        try:
            shards = engine.plan()
            unfiltered = [
                shard
                for shard in shards
                if engine.shard_alphabet(shard) is None
            ]
            assert unfiltered, "the PeriodicVF2 shard must opt out of filtering"
            result = engine.run(events)
        finally:
            engine.close()
        assert identities(result.records) == identities(base.records)


def test_sharded_alphabet_matches_engine_export():
    """The spec-level alphabet (used for routing before workers exist)
    agrees with the live engine's relevant_etypes export, so type-filtered
    batching never starves an algorithm."""
    events, query_list = _mixed_workload(num_events=120, num_queries=4)
    strategies = ["Single", "PeriodicVF2", "VF2", "PathLazy"]
    options = {1: {"period": 25}}

    single = ContinuousQueryEngine(window=math.inf)
    single.warmup(events)
    sharded = ShardedEngine(window=math.inf)
    sharded.warmup(events)
    for i, query in enumerate(query_list):
        opts = options.get(i, {})
        single.register(query, strategy=strategies[i], name=f"q{i}", **opts)
        sharded.register(query, strategy=strategies[i], name=f"q{i}", **opts)
    live = single.query_alphabets()
    for spec in sharded.specs:
        assert spec.alphabet() == live[spec.name]
