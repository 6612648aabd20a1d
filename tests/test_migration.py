"""Shard-layout migration ground truth: checkpoints are layout-independent.

The keystone mirrors ``tests/test_persistence.py``'s kill/resume bar: a
checkpoint taken at N workers and resumed at any M >= 1 — different
worker count, different partitioner, even the single-process engine —
must emit records byte-identical to a run that was never interrupted.
Alongside it: online ``rebalance`` mid-stream, legacy single-mode
directories resuming as one shard, the rejection of version-1
snapshots and manifests, the manifest v2 per-query slice index, and the
split/merge/compose primitives behind all of it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro import CheckpointError, ContinuousQueryEngine, ShardedEngine
from repro.analysis.experiments import mixed_etype_workload
from repro.persistence import manifest as manifest_mod
from repro.persistence.migrate import live_estimator, migrate_checkpoint
from repro.persistence.snapshot import (
    SNAPSHOT_MAGIC,
    compose_snapshot,
    engine_from_bytes,
    engine_to_slices,
    split_snapshot,
)
from repro.query.query_graph import QueryGraph

CUT_POINTS = (100, 350)
TARGET_WORKERS = (1, 3, 4)

#: strategy mix cycled over registered queries — covers the eager and
#: lazy SJ-Tree paths plus both stateful baselines (PeriodicVF2 also
#: pins an unfiltered shard, exercising the alphabet=None merge rule).
STRATEGY_CYCLE = ("Single", "SingleLazy", "VF2", "PeriodicVF2")


def identities(records):
    return [
        (r.query_name, r.strategy, r.match.fingerprint, r.completed_at)
        for r in records
    ]


@pytest.fixture(scope="module")
def workload():
    events, queries = mixed_etype_workload(
        700, num_queries=10, num_etypes=24, seed=11, population=48
    )
    for i, query in enumerate(queries):
        query.name = f"q{i}"
    return events, queries


def _options(i):
    return {"period": 37} if STRATEGY_CYCLE[i % 4] == "PeriodicVF2" else {}


def _single_engine(events, queries, width=30.0):
    engine = ContinuousQueryEngine(window=width)
    engine.warmup(events)
    for i, query in enumerate(queries):
        engine.register(
            query,
            strategy=STRATEGY_CYCLE[i % 4],
            name=query.name,
            **_options(i),
        )
    return engine


def _sharded_engine(events, queries, workers, width=30.0):
    engine = ShardedEngine(window=width, workers=workers, batch_size=64)
    engine.warmup(events)
    for i, query in enumerate(queries):
        engine.register(
            query,
            strategy=STRATEGY_CYCLE[i % 4],
            name=query.name,
            **_options(i),
        )
    return engine


@pytest.fixture(scope="module")
def full_run(workload):
    events, queries = workload
    records = identities(_single_engine(events, queries).run(events).records)
    assert records, "workload must produce matches to be meaningful"
    return records


# ---------------------------------------------------------------------------
# N -> M kill/resume equivalence (the acceptance bar)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cut", CUT_POINTS)
@pytest.mark.parametrize("target", TARGET_WORKERS)
def test_n_to_m_kill_resume_equivalence(tmp_path, workload, full_run, cut, target):
    """workers=2 checkpoint resumed at M in {1, 3, 4} == uninterrupted run."""
    events, queries = workload
    directory = tmp_path / f"to{target}-cut{cut}"
    first = _sharded_engine(events, queries, workers=2)
    before = identities(first.run(events[:cut]).records)
    first.checkpoint(directory, cursor=cut)
    first.close()
    resumed = ShardedEngine.resume(directory, queries, workers=target)
    try:
        assert resumed.workers == target
        after = identities(resumed.run(events[cut:]).records)
    finally:
        resumed.close()
    assert before + after == full_run, f"2->{target} at cut {cut} diverged"


def test_migrated_directory_checkpoints_again(tmp_path, workload, full_run):
    """A resumed-at-M engine can itself checkpoint and resume at M'."""
    events, queries = workload
    directory = tmp_path / "chain"
    first = _sharded_engine(events, queries, workers=2)
    records = identities(first.run(events[:200]).records)
    first.checkpoint(directory, cursor=200)
    first.close()
    second = ShardedEngine.resume(directory, queries, workers=3)
    records += identities(second.run(events[200:400]).records)
    second.checkpoint(directory, cursor=400)
    second.close()
    third = ShardedEngine.resume(directory, queries, workers=1)
    try:
        records += identities(third.run(events[400:]).records)
    finally:
        third.close()
    assert records == full_run


def test_resume_same_count_skips_migration(tmp_path, workload):
    """Plain resume (no layout request) must not rewrite the directory."""
    events, queries = workload
    directory = tmp_path / "same"
    engine = _sharded_engine(events, queries, workers=2)
    engine.run(events[:200])
    engine.checkpoint(directory)
    engine.close()
    before = manifest_mod.read_manifest(directory)["sequence"]
    resumed = ShardedEngine.resume(directory, queries, workers=2)
    resumed.close()
    assert manifest_mod.read_manifest(directory)["sequence"] == before


# ---------------------------------------------------------------------------
# online rebalance
# ---------------------------------------------------------------------------


def test_rebalance_mid_stream_preserves_records(workload, full_run):
    """2 -> 3 -> 1 live re-cuts between runs emit the uninterrupted records."""
    events, queries = workload
    engine = _sharded_engine(events, queries, workers=2)
    try:
        records = identities(engine.run(events[:200]).records)
        manifest = engine.rebalance(workers=3)
        assert manifest["workers"] == 3
        assert engine.workers == 3
        records += identities(engine.run(events[200:450]).records)
        engine.rebalance(workers=1, partitioner="round-robin")
        records += identities(engine.run(events[450:]).records)
    finally:
        engine.close()
    assert records == full_run


def test_rebalance_kept_directory_is_resumable(tmp_path, workload, full_run):
    events, queries = workload
    directory = tmp_path / "kept"
    engine = _sharded_engine(events, queries, workers=2)
    records = identities(engine.run(events[:300]).records)
    engine.rebalance(workers=3, directory=directory, cursor=300)
    engine.close()  # the "kill": only the rebalance checkpoint survives
    assert manifest_mod.read_manifest(directory)["workers"] == 3
    resumed = ShardedEngine.resume(directory, queries)
    try:
        records += identities(resumed.run(events[300:]).records)
    finally:
        resumed.close()
    assert records == full_run


def test_rebalance_requires_started_engine(workload):
    events, queries = workload
    engine = _sharded_engine(events, queries, workers=2)
    with pytest.raises(CheckpointError, match="started"):
        engine.rebalance(workers=3)


# ---------------------------------------------------------------------------
# legacy single-mode directories resume as one shard
# ---------------------------------------------------------------------------


def _write_legacy_single_dir(directory, engine, queries, cursor):
    """What older builds wrote for an in-process run: a ``single``
    manifest (no partitioner, no batch size) over one shard file."""
    from repro.sjtree.serialize import edge_signature

    directory.mkdir()
    filename = manifest_mod.shard_filename(1, 0)
    engine.checkpoint(directory / filename, cursor=cursor)
    manifest = {
        "format": "repro-graph-checkpoint",
        "version": 2,
        "mode": "single",
        "sequence": 1,
        "cursor": cursor,
        "events_streamed": engine.graph.total_edges_seen,
        "window": engine.graph.window.width,
        "workers": 1,
        "batch_size": None,
        "partitioner": None,
        "queries": [
            {
                "position": i,
                "name": query.name,
                "strategy": STRATEGY_CYCLE[i % 4],
                "signature": edge_signature(query),
                "shard": 0,
            }
            for i, query in enumerate(queries)
        ],
        "shards": [
            {"worker_id": 0, "file": filename, "positions": list(range(len(queries)))}
        ],
    }
    (directory / manifest_mod.MANIFEST_NAME).write_text(
        json.dumps(manifest), encoding="utf-8"
    )


def test_single_mode_checkpoint_resumes_sharded(tmp_path, workload, full_run):
    events, queries = workload
    engine = _single_engine(events, queries)
    before = identities(engine.run(events[:300]).records)
    for workers in (None, 3):
        directory = tmp_path / f"single-{workers}"
        _write_legacy_single_dir(directory, engine, queries, cursor=300)
        resumed = ShardedEngine.resume(directory, queries, workers=workers)
        try:
            assert resumed.workers == (workers or 1)
            assert resumed.partitioner == "cost"
            after = identities(resumed.run(events[300:]).records)
        finally:
            resumed.close()
        assert before + after == full_run, workers


# ---------------------------------------------------------------------------
# split / merge / compose primitives
# ---------------------------------------------------------------------------


def test_split_compose_round_trip(workload, full_run):
    events, queries = workload
    engine = _single_engine(events, queries)
    before = identities(engine.run(events[:350]).records)
    slices = engine_to_slices(engine, cursor=350)
    reparsed = split_snapshot(compose_snapshot(slices))
    assert reparsed.cursor == 350
    assert reparsed.config == slices.config
    assert reparsed.graph == slices.graph
    assert reparsed.estimator == slices.estimator
    assert reparsed.queries == slices.queries
    restored, cursor = engine_from_bytes(compose_snapshot(reparsed), queries)
    assert cursor == 350
    after = identities(restored.run(events[350:]).records)
    assert before + after == full_run


def test_live_estimator_folds_in_window(workload):
    events, queries = workload
    engine = _single_engine(events, queries)
    engine.run(events[:400])
    slices = engine_to_slices(engine)
    estimator = live_estimator([slices])
    assert (
        estimator.events_observed
        == engine.estimator.events_observed + engine.graph.num_edges
    )


def test_migrate_validates_inputs(tmp_path, workload):
    events, queries = workload
    directory = tmp_path / "ck"
    engine = _sharded_engine(events, queries, workers=2)
    engine.run(events[:150])
    engine.checkpoint(directory)
    engine.close()
    with pytest.raises(CheckpointError, match="workers"):
        migrate_checkpoint(directory, queries, workers=0)
    with pytest.raises(CheckpointError, match="partitioner"):
        migrate_checkpoint(directory, queries, workers=2, partitioner="by-vibes")
    wrong = list(queries)
    wrong[0] = QueryGraph.path(["T0", "T9"], name=queries[0].name)
    with pytest.raises(CheckpointError, match="does not match"):
        migrate_checkpoint(directory, wrong, workers=3)
    with pytest.raises(CheckpointError, match="not provided"):
        migrate_checkpoint(directory, queries[1:], workers=3)


def test_migrate_out_leaves_source_untouched(tmp_path, workload, full_run):
    events, queries = workload
    src = tmp_path / "src"
    dst = tmp_path / "dst"
    engine = _sharded_engine(events, queries, workers=2)
    before = identities(engine.run(events[:350]).records)
    engine.checkpoint(src, cursor=350)
    engine.close()
    source_manifest = manifest_mod.read_manifest(src)
    migrate_checkpoint(src, queries, workers=3, out=dst)
    assert manifest_mod.read_manifest(src) == source_manifest
    resumed = ShardedEngine.resume(dst, queries)
    try:
        assert resumed.workers == 3
        after = identities(resumed.run(events[350:]).records)
    finally:
        resumed.close()
    assert before + after == full_run


# ---------------------------------------------------------------------------
# manifest v2 slice index
# ---------------------------------------------------------------------------


def test_manifest_records_per_query_slice_index(tmp_path, workload):
    events, queries = workload
    directory = tmp_path / "ck"
    engine = _sharded_engine(events, queries, workers=2)
    engine.run(events[:150])
    engine.checkpoint(directory)
    engine.close()
    manifest = manifest_mod.read_manifest(directory)
    assert manifest["version"] == 2
    placed = {
        position: shard["worker_id"]
        for shard in manifest["shards"]
        for position in shard["positions"]
    }
    for entry in manifest["queries"]:
        assert entry["shard"] == placed[entry["position"]]
    index = manifest_mod.query_shard_index(manifest)
    assert index == {entry["name"]: entry["shard"] for entry in manifest["queries"]}


# ---------------------------------------------------------------------------
# cross-process determinism (the resume paths depend on it)
# ---------------------------------------------------------------------------


_SEED_PROBE = """
import sys

from repro import ContinuousQueryEngine
from repro.datasets import NetflowGenerator
from repro.query import QueryGraph
from repro.query.parser import parse_query

events = list(NetflowGenerator(num_events=4000, seed=3).events())
query = parse_query("a:ip -TCP-> b:ip\\nb:ip -ICMP-> c:ip\\n")
query.name = "q"
# a fork whose first leaf edge runs from role 1 to role 0
fork = QueryGraph(name="fork")
fork.add_edge(1, 0, "GRE")
fork.add_edge(0, 2, "TCP")
fork.add_edge(0, 3, "ICMP")
engine = ContinuousQueryEngine(window=20.0)
engine.warmup(events[:1000])
engine.register(query, strategy="SingleLazy", name="q")
engine.register(fork, strategy="PathLazy", name="fork")
names = set()
for record in engine.run(events[1000:]).records:
    names.add(record.query_name)
    sys.stdout.write(
        f"{record.query_name} {record.match.fingerprint}@{record.completed_at}\\n"
    )
assert names == {"q", "fork"}, names
"""


def test_emission_order_is_hash_seed_independent():
    """Identical streams must emit identical record *order* in any process.

    Regression for the shard-migration audit's nastiest find: Lazy
    Search's retrospective backfill iterated ``Match.data_vertices()`` —
    a set of vertex ids, whose iteration order depends on the
    interpreter's hash seed. Retro matches are inserted per vertex, so
    probe (and emission) order varied *across processes* even on
    identical input: a kill/resume or N->M migration could reorder
    same-timestamp records relative to the uninterrupted run. The
    netflow hub pattern below reliably exposes it (seed 3 vs 1 diverged
    on the unfixed code). The fork-shaped PathLazy query extends the gate
    to a leaf whose edge runs from a higher role to a lower one.
    """
    import subprocess
    import sys

    outputs = {}
    for seed in ("1", "2", "3", "4242"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        result = subprocess.run(
            [sys.executable, "-c", _SEED_PROBE],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout, "probe produced no records"
        outputs[seed] = result.stdout
    assert len(set(outputs.values())) == 1, (
        "emission order depends on the interpreter hash seed: "
        + ", ".join(
            f"seed {seed}: {len(out.splitlines())} records"
            for seed, out in outputs.items()
        )
    )


# ---------------------------------------------------------------------------
# version-1 snapshots and manifests are no longer read
# ---------------------------------------------------------------------------


def test_v1_snapshot_is_rejected(workload):
    events, queries = workload
    engine = _single_engine(events, queries)
    engine.run(events[:200])
    data = bytearray(compose_snapshot(engine_to_slices(engine, cursor=200)))
    data[len(SNAPSHOT_MAGIC)] = 1  # the version varint
    with pytest.raises(CheckpointError, match=r"reads versions \(2,\)"):
        engine_from_bytes(bytes(data), queries)
    with pytest.raises(CheckpointError, match=r"reads versions \(2,\)"):
        split_snapshot(bytes(data))


def test_v1_manifest_is_rejected(tmp_path, workload):
    events, queries = workload
    directory = tmp_path / "v1"
    engine = _sharded_engine(events, queries, workers=2)
    engine.run(events[:200])
    engine.checkpoint(directory, cursor=200)
    engine.close()
    manifest_path = directory / manifest_mod.MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["version"] = 1
    for entry in manifest["queries"]:
        del entry["shard"]
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(CheckpointError, match=r"reads versions \(2,\)"):
        ShardedEngine.resume(directory, queries, workers=3)
