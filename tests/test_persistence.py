"""Durability ground truth: checkpoint/restore must be invisible.

The keystone is kill/resume equivalence — a run checkpointed at any cut
point and resumed in a *fresh* engine (and, for the sharded runtime,
fresh worker processes) must emit records byte-identical to a run that
was never interrupted. Alongside it: binary codec round-trips, snapshot
versioning/corruption errors (always a clear
:class:`~repro.errors.CheckpointError`, never a stray traceback), and
query-set validation.
"""

from __future__ import annotations

import math

import pytest

from repro import CheckpointError, ContinuousQueryEngine, EngineConfig, ShardedEngine
from repro.analysis.experiments import mixed_etype_workload
from repro.persistence import load_engine, read_manifest, write_manifest
from repro.persistence import snapshot as snapshot_module
from repro.graph import EdgeEvent
from repro.persistence.binary import BinaryReader, BinaryWriter
from repro.persistence.snapshot import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    _dump_estimator,
    engine_from_bytes,
    engine_to_bytes,
    estimator_from_section,
)
from repro.query.query_graph import QueryGraph
from repro.sjtree.node import GraphLeafView, MatchTable
from repro.stats import SelectivityEstimator, estimator as estimator_module

CUT_POINTS = (100, 350, 600)

#: strategy mix cycled over registered queries — covers the eager and
#: lazy SJ-Tree paths plus both stateful baselines.
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


def _single_engine(events, queries, width, **settings):
    engine = ContinuousQueryEngine(window=width, **settings)
    engine.warmup(events)
    for i, query in enumerate(queries):
        engine.register(
            query,
            strategy=STRATEGY_CYCLE[i % 4],
            name=query.name,
            **_options(i),
        )
    return engine


def _sharded_engine(events, queries, width, workers):
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


# ---------------------------------------------------------------------------
# kill/resume equivalence (the acceptance bar)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("width", [30.0, math.inf], ids=["window-30", "window-inf"])
def test_single_process_kill_resume_equivalence(tmp_path, workload, width):
    """Checkpoint + restore at three cut points == uninterrupted run."""
    events, queries = workload
    full = identities(_single_engine(events, queries, width).run(events).records)
    assert full, "workload must produce matches to be meaningful"
    for cut in CUT_POINTS:
        path = tmp_path / f"cut-{cut}.bin"
        first = _single_engine(events, queries, width)
        before = identities(first.run(events[:cut]).records)
        first.checkpoint(path, cursor=cut)
        del first  # the "kill": nothing survives but the snapshot file
        restored = ContinuousQueryEngine.restore(path, queries)
        after = identities(restored.run(events[cut:]).records)
        assert before + after == full, f"cut at {cut} diverged"


@pytest.mark.parametrize("workers", [1, 2])
def test_sharded_kill_resume_equivalence(tmp_path, workload, workers):
    """Per-shard checkpoints + coordinator manifest survive worker death.

    With ``workers=2`` the resumed state is rebuilt inside *fresh worker
    processes*, which is the rolling-restart scenario the subsystem
    exists for.
    """
    events, queries = workload
    base = _single_engine(events, queries, 30.0)
    full = identities(base.run(events).records)
    assert full
    for cut in CUT_POINTS:
        directory = tmp_path / f"w{workers}-cut-{cut}"
        first = _sharded_engine(events, queries, 30.0, workers)
        before = identities(first.run(events[:cut]).records)
        first.checkpoint(directory, cursor=cut)
        first.close()
        resumed = ShardedEngine.resume(directory, queries)
        try:
            after = identities(resumed.run(events[cut:]).records)
        finally:
            resumed.close()
        assert before + after == full, f"workers={workers} cut={cut} diverged"


def test_checkpoint_between_runs_is_repeatable(tmp_path, workload):
    """A restored engine can itself be checkpointed and restored again."""
    events, queries = workload
    full = identities(_single_engine(events, queries, 30.0).run(events).records)
    engine = _single_engine(events, queries, 30.0)
    records = identities(engine.run(events[:200]).records)
    for start, stop in ((200, 400), (400, len(events))):
        path = tmp_path / f"gen-{start}.bin"
        engine.checkpoint(path)
        engine = ContinuousQueryEngine.restore(path, queries)
        records += identities(engine.run(events[start:stop]).records)
    assert records == full


# ---------------------------------------------------------------------------
# restored internals
# ---------------------------------------------------------------------------


def test_restore_preserves_statistics_and_counters(tmp_path, workload):
    events, queries = workload
    engine = _single_engine(events, queries, 30.0)
    engine.run(events[:400])
    path = tmp_path / "state.bin"
    engine.checkpoint(path, cursor=400)
    restored, cursor = load_engine(path, queries)
    assert cursor == 400
    assert restored.graph.total_edges_seen == engine.graph.total_edges_seen
    assert restored.graph.num_edges == engine.graph.num_edges
    assert restored.graph.evicted_edges == engine.graph.evicted_edges
    assert restored.estimator.events_observed == engine.estimator.events_observed
    assert (
        restored.estimator.edge_histogram.as_dict()
        == engine.estimator.edge_histogram.as_dict()
    )
    assert (
        restored.estimator.path_counter.as_counter()
        == engine.estimator.path_counter.as_counter()
    )
    cutoff = engine.graph.window.cutoff
    for name, registered in engine.queries.items():
        twin = restored.queries[name]
        assert twin.strategy == registered.strategy
        assert (twin.algorithm.matches_emitted == registered.algorithm.matches_emitted)
        if registered.tree is None:
            assert (
                twin.algorithm.partial_match_count()
                == registered.algorithm.partial_match_count()
            )
        else:
            # The live table may still hold expired entries no sweep
            # has reclaimed yet; the snapshot drops them (they can never
            # influence output), so the restored count is exactly the
            # genuinely-live slice.
            for node, twin_node in zip(registered.tree.nodes, twin.tree.nodes):
                expected = sum(1 for match in node.table if match.min_time >= cutoff)
                assert len(twin_node.table) == expected
                assert (twin_node.table.inserted_total == node.table.inserted_total)


def test_snapshot_skips_unreclaimed_stale_matches(workload):
    """Entries below the window cutoff are not carried into the snapshot
    (they are invisible to joins and can never be rediscovered)."""
    events, queries = workload
    engine = _single_engine(events, queries, 30.0)
    engine.run(events[:500])
    data = engine_to_bytes(engine)
    restored, _ = engine_from_bytes(data, queries)
    cutoff = engine.graph.window.cutoff
    for registered in restored.queries.values():
        tree = registered.tree
        if tree is None:
            continue
        for node in tree.nodes:
            for match in node.table:
                assert match.min_time >= cutoff


def test_lazy_restore_after_compiled_handlers_continues_chunked(tmp_path):
    """Checkpoint a SingleLazy engine mid-stream once its chunk handlers
    are compiled (they read the enablement bitmap's rows inline), restore,
    continue chunked: the records equal the uninterrupted run's."""
    events, queries = mixed_etype_workload(
        700, num_queries=4, num_etypes=6, seed=11, population=30
    )
    for i, query in enumerate(queries):
        query.name = f"q{i}"

    def lazy_engine():
        engine = ContinuousQueryEngine(window=30.0)
        engine.warmup(events)
        for query in queries:
            engine.register(query, strategy="SingleLazy", name=query.name)
        return engine

    full = identities(lazy_engine().process_events(events))
    assert full
    engine = lazy_engine()
    before = identities(engine.process_events(events[:350]))
    assert any(
        registered.algorithm.bitmap.rows() for registered in engine.queries.values()
    )
    path = tmp_path / "lazy.bin"
    engine.checkpoint(path, cursor=350)
    restored = ContinuousQueryEngine.restore(path, queries)
    restored.warm_kernels()
    after = identities(restored.process_events(events[350:]))
    assert before + after == full


# ---------------------------------------------------------------------------
# snapshots written before the list-bucket tables (same format version)
# ---------------------------------------------------------------------------


class _RecordingTable(MatchTable):
    """Remembers global insertion order — what the slab table's expiry
    ring held, and the order its snapshots listed a node's matches in."""

    __slots__ = ("order",)

    def __init__(self, track_expiry: bool = True, dedup: bool = True) -> None:
        super().__init__(track_expiry, dedup)
        self.order = []

    def insert(self, key, match) -> bool:
        inserted = super().insert(key, match)
        if inserted:
            self.order.append(match)
        return inserted


def _slab_era_bytes(engine, cursor, monkeypatch) -> bytes:
    """``engine_to_bytes`` as the slab-table writer laid it out: finite
    windows list each ``MatchTable`` in global insertion order (stale
    entries are dropped by the writer either way); infinite windows
    already listed bucket by bucket."""
    bucket_order = snapshot_module._matches_in_insertion_order

    def ring_order(table):
        if isinstance(table, _RecordingTable) and table.track_expiry:
            return table.order
        return bucket_order(table)

    with monkeypatch.context() as patch:
        patch.setattr(snapshot_module, "_matches_in_insertion_order", ring_order)
        return engine_to_bytes(engine, cursor=cursor)


@pytest.mark.parametrize("strategy", ["Single", "SingleLazy"])
@pytest.mark.parametrize("width", [30.0, math.inf], ids=["window-30", "window-inf"])
def test_slab_era_snapshot_restores_and_continues(monkeypatch, width, strategy):
    """A snapshot written before this table layout restores into it and
    continues to the same ordered records, and from there checkpoint ->
    restore -> checkpoint is byte-stable."""
    events, queries = mixed_etype_workload(
        700, num_queries=3, num_etypes=4, seed=11, population=30
    )
    for i, query in enumerate(queries):
        query.name = f"q{i}"
    cut = 450

    def engine_for():
        engine = ContinuousQueryEngine(window=width)
        engine.warmup(events)
        for query in queries:
            engine.register(query, strategy=strategy, name=query.name)
        return engine

    full = identities(engine_for().run(events).records)
    assert full
    first = engine_for()
    for registered in first.queries.values():
        for node in registered.tree.nodes:
            if type(node.table) is MatchTable:
                node.table = _RecordingTable(node.table.track_expiry, node.table.dedup)
    before = identities(first.run(events[:cut]).records)
    old = _slab_era_bytes(first, cut, monkeypatch)
    if math.isfinite(width):
        # the two writers really do order some table differently here
        assert old != engine_to_bytes(first, cursor=cut)
    restored, cursor = engine_from_bytes(old, queries)
    assert cursor == cut
    once = engine_to_bytes(restored, cursor=cursor)
    assert len(once) == len(old)
    again, _ = engine_from_bytes(once, queries)
    assert engine_to_bytes(again, cursor=cursor) == once
    after = identities(restored.run(events[cut:]).records)
    assert before + after == full


# ---------------------------------------------------------------------------
# settings come from whoever opens the engine; the snapshot is state
# ---------------------------------------------------------------------------


def test_restore_takes_settings_from_the_caller(tmp_path, workload):
    """A profiled, chunk_size=64 engine's checkpoint restores with the
    caller's settings, not the writer's, and both continue identically."""
    events, queries = workload
    full = identities(_single_engine(events, queries, 30.0).run(events).records)
    first = _single_engine(events, queries, 30.0, profile_phases=True, chunk_size=64)
    before = identities(first.run(events[:350]).records)
    path = tmp_path / "profiled.bin"
    first.checkpoint(path, cursor=350)

    plain = ContinuousQueryEngine.restore(path, queries)
    assert plain.config == EngineConfig(window=30.0)
    assert (plain.chunk_size, plain.profile_phases) == (1024, False)
    assert not any(r.profile.enabled for r in plain.queries.values())

    profiled = ContinuousQueryEngine.restore(
        path, queries, chunk_size=64, profile_phases=True
    )
    assert profiled.config == EngineConfig(
        window=30.0, chunk_size=64, profile_phases=True
    )
    assert (profiled.chunk_size, profiled.profile_phases) == (64, True)
    assert all(r.profile.enabled for r in profiled.queries.values())

    for restored in (plain, profiled):
        after = identities(restored.run(events[350:]).records)
        assert before + after == full


def _parent_config_bytes(engine, cursor, monkeypatch) -> bytes:
    """``engine_to_bytes`` with the config section as the previous writer
    laid it out for an engine built with ``housekeeping_every=5``,
    ``partial_sample_every=8``, ``dispatch=False`` and
    ``profile_phases=True``."""

    def parent_config(w, slices):
        w.write_f64(slices.config.window)
        w.write_varint(5)  # housekeeping_every
        w.write_u8(0)  # dispatch
        w.write_value(8)  # partial_sample_every
        w.write_u8(1)  # profile_phases
        w.write_u8(1 if slices.update_statistics else 0)
        w.write_varint(3)  # edges since the last sweep

    with monkeypatch.context() as patch:
        patch.setattr(snapshot_module, "_dump_engine_config", parent_config)
        return engine_to_bytes(engine, cursor=cursor)


def _config_section_fields(data: bytes) -> list:
    """The config section read field by field in the v2 layout."""
    r = BinaryReader(data)
    r.read_bytes_raw(len(SNAPSHOT_MAGIC))
    assert r.read_varint() == SNAPSHOT_VERSION
    r.read_value()  # cursor
    for _ in range(2):  # etype and vtype vocabularies
        for _ in range(r.read_varint()):
            r.read_str()
    section = BinaryReader(r.read_bytes_raw(r.read_varint()))
    fields = [
        section.read_f64(),
        section.read_varint(),
        section.read_u8(),
        section.read_value(),
        section.read_u8(),
        section.read_u8(),
        section.read_varint(),
    ]
    section.expect_end("engine config")
    return fields


def test_parent_config_section_restores_and_continues(monkeypatch, workload):
    """A v2 snapshot whose config section carries the retired
    ``housekeeping_every``, ``partial_sample_every`` and sweep counter and a
    non-default dispatch/profile restores with the caller's settings and
    continues to the same records; the current writer keeps that layout
    with constants in the retired slots."""
    events, queries = workload
    full = identities(_single_engine(events, queries, 30.0).run(events).records)
    first = _single_engine(events, queries, 30.0)
    before = identities(first.run(events[:350]).records)
    old = _parent_config_bytes(first, 350, monkeypatch)
    assert _config_section_fields(old)[2:5] == [0, 8, 1]
    restored, cursor = engine_from_bytes(old, queries)
    assert cursor == 350
    assert restored.config == EngineConfig(window=30.0)
    after = identities(restored.run(events[350:]).records)
    assert before + after == full
    current = engine_to_bytes(first, cursor=350)
    assert _config_section_fields(current) == [30.0, 2048, 1, None, 0, 0, 0]


# ---------------------------------------------------------------------------
# versioning / corruption / query-set validation
# ---------------------------------------------------------------------------


def _tiny_engine():
    engine = ContinuousQueryEngine(window=10.0)
    engine.warmup(list(mixed_etype_workload(50, num_queries=1, seed=1)[0]))
    query = QueryGraph.path(["T0", "T1"], name="q0")
    engine.register(query, strategy="Single", name="q0")
    return engine, [query]


def test_corrupt_config_section_raises_checkpoint_error(monkeypatch):
    engine, queries = _tiny_engine()

    def negative_window(w, slices):
        w.write_f64(-1.0)
        w.write_varint(2048)
        w.write_u8(1)
        w.write_value(None)
        w.write_u8(0)
        w.write_u8(0)
        w.write_varint(0)

    monkeypatch.setattr(snapshot_module, "_dump_engine_config", negative_window)
    data = engine_to_bytes(engine)
    with pytest.raises(CheckpointError, match="engine config is corrupt"):
        engine_from_bytes(data, queries)


def test_unknown_snapshot_version_raises_checkpoint_error():
    engine, queries = _tiny_engine()
    data = bytearray(engine_to_bytes(engine))
    offset = len(SNAPSHOT_MAGIC)
    assert data[offset] == SNAPSHOT_VERSION  # single varint byte today
    data[offset] = SNAPSHOT_VERSION + 9
    with pytest.raises(CheckpointError, match="unsupported snapshot version"):
        engine_from_bytes(bytes(data), queries)


def test_bad_magic_raises_checkpoint_error():
    engine, queries = _tiny_engine()
    data = b"NOTASNAP" + engine_to_bytes(engine)[8:]
    with pytest.raises(CheckpointError, match="bad magic"):
        engine_from_bytes(data, queries)


def test_truncated_snapshot_raises_checkpoint_error():
    engine, queries = _tiny_engine()
    data = engine_to_bytes(engine)
    with pytest.raises(CheckpointError):
        engine_from_bytes(data[: len(data) // 2], queries)


def test_trailing_garbage_raises_checkpoint_error():
    engine, queries = _tiny_engine()
    data = engine_to_bytes(engine) + b"\x00\x01\x02"
    with pytest.raises(CheckpointError, match="trailing"):
        engine_from_bytes(data, queries)


def test_mismatched_query_structure_raises_checkpoint_error():
    engine, _ = _tiny_engine()
    data = engine_to_bytes(engine)
    different = QueryGraph.path(["T0", "T9"], name="q0")  # same name, new shape
    with pytest.raises(CheckpointError, match="does not match the snapshot"):
        engine_from_bytes(data, [different])


def test_missing_query_raises_checkpoint_error():
    engine, _ = _tiny_engine()
    data = engine_to_bytes(engine)
    with pytest.raises(CheckpointError, match="not passed to restore"):
        engine_from_bytes(data, [QueryGraph.path(["T0", "T1"], name="other")])


def test_extra_query_raises_checkpoint_error():
    engine, queries = _tiny_engine()
    data = engine_to_bytes(engine)
    extra = QueryGraph.path(["T2", "T3"], name="extra")
    with pytest.raises(CheckpointError, match="must match exactly"):
        engine_from_bytes(data, queries + [extra])


def test_unnamed_query_raises_checkpoint_error():
    engine, _ = _tiny_engine()
    data = engine_to_bytes(engine)
    with pytest.raises(CheckpointError, match="carry a name"):
        engine_from_bytes(data, [QueryGraph.path(["T0", "T1"])])


def test_missing_manifest_raises_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError, match="no checkpoint manifest"):
        read_manifest(tmp_path)


def test_corrupt_manifest_raises_checkpoint_error(tmp_path):
    (tmp_path / "manifest.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(CheckpointError, match="corrupt checkpoint manifest"):
        read_manifest(tmp_path)


def test_manifest_version_gate(tmp_path):
    write_manifest(
        tmp_path,
        {
            "mode": "single",
            "sequence": 1,
            "cursor": 0,
            "shards": [],
            "queries": [],
        },
    )
    manifest = read_manifest(tmp_path)
    manifest["version"] = 99
    import json

    (tmp_path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(CheckpointError, match="unsupported checkpoint manifest"):
        read_manifest(tmp_path)


def test_sharded_resume_validates_queries(tmp_path, workload):
    events, queries = workload
    engine = _sharded_engine(events, queries, 30.0, 2)
    engine.run(events[:200])
    engine.checkpoint(tmp_path / "ck")
    engine.close()
    wrong = [q.copy(name=q.name) for q in queries]
    wrong[0] = QueryGraph.path(["T0", "T9"], name=queries[0].name)
    with pytest.raises(CheckpointError, match="does not match the checkpoint"):
        ShardedEngine.resume(tmp_path / "ck", wrong)
    with pytest.raises(CheckpointError, match="not provided for resume"):
        ShardedEngine.resume(tmp_path / "ck", queries[1:])


def test_checkpoint_requires_started_sharded_engine(tmp_path):
    engine = ShardedEngine(window=10.0)
    with pytest.raises(CheckpointError, match="started"):
        engine.checkpoint(tmp_path / "ck")


def test_failed_worker_checkpoint_does_not_kill_the_engine(tmp_path, workload):
    """A transient snapshot-write failure raises CheckpointError and leaves
    every worker (and its in-memory stream state) alive and retryable."""
    events, queries = workload
    directory = tmp_path / "ck"
    directory.mkdir()
    # The first checkpoint() call will use sequence 1; squatting a
    # directory on shard 0's snapshot path makes the worker's write fail.
    blocker = directory / "ckpt-000001-shard-0.bin.tmp"
    blocker.mkdir()
    engine = _sharded_engine(events, queries, 30.0, 2)
    try:
        before = identities(engine.run(events[:300]).records)
        with pytest.raises(CheckpointError, match="worker"):
            engine.checkpoint(directory)
        blocker.rmdir()
        engine.checkpoint(directory)  # same engine, retry succeeds
        after = identities(engine.run(events[300:]).records)
    finally:
        engine.close()
    full = identities(_single_engine(events, queries, 30.0).run(events).records)
    assert before + after == full
    resumed = ShardedEngine.resume(directory, queries)
    resumed.close()


def test_failed_single_checkpoint_raises_checkpoint_error(tmp_path, workload):
    events, queries = workload
    engine = _single_engine(events, queries, 30.0)
    engine.run(events[:100])
    target = tmp_path / "snap.bin"
    (tmp_path / "snap.bin.tmp").mkdir()  # write lands on a directory
    with pytest.raises(CheckpointError, match="cannot write snapshot"):
        engine.checkpoint(target)


def test_prune_removes_orphaned_tmp_files(tmp_path, workload):
    """*.tmp leftovers from a crash mid-write are cleaned by the next
    successful checkpoint (their sequence numbers never recur)."""
    events, queries = workload
    directory = tmp_path / "ck"
    directory.mkdir()
    orphan = directory / "ckpt-000000-shard-9.bin.tmp"
    orphan.write_bytes(b"half a snapshot")
    stale = directory / "ckpt-000000-shard-9.bin"
    stale.write_bytes(b"an old sequence")
    engine = _sharded_engine(events, queries, 30.0, 1)
    try:
        engine.run(events[:100])
        engine.checkpoint(directory)
    finally:
        engine.close()
    assert not orphan.exists()
    assert not stale.exists()
    assert (directory / "manifest.json").exists()


# ---------------------------------------------------------------------------
# estimator section: canonical bytes, the parent's layout, hostile bytes
# ---------------------------------------------------------------------------


def _estimator_section(estimator) -> bytes:
    w = BinaryWriter()
    _dump_estimator(w, estimator)
    return w.getvalue()


def _write_estimator_section(observed, histogram, per_vertex, table) -> bytes:
    """The v2 estimator layout, field by field, from explicit lists."""
    w = BinaryWriter()
    w.write_varint(observed)
    w.write_varint(len(histogram))
    for etype, count in histogram:
        w.write_str(etype)
        w.write_varint(count)
    w.write_varint(len(per_vertex))
    for vertex, tokens in per_vertex:
        w.write_value(vertex)
        w.write_varint(len(tokens))
        for (direction, label), count in tokens:
            w.write_str(direction)
            w.write_str(label)
            w.write_varint(count)
    w.write_varint(len(table))
    for (token_a, token_b), count in table:
        for text in (*token_a, *token_b):
            w.write_str(text)
        w.write_varint(count)
    return w.getvalue()


def test_estimator_section_is_canonical(workload, monkeypatch):
    """Per-edge, chunked and restored estimators over one stream write
    byte-identical sections (vertices first-seen, the rest sorted)."""
    events = workload[0][:400] + [workload[0][0].reversed()]
    per_edge = SelectivityEstimator()
    for event in events:
        per_edge.observe_event(event)
    monkeypatch.setattr(estimator_module, "OBSERVE_CHUNK", 7)
    chunked = SelectivityEstimator()
    chunked.observe_events(iter(events))
    section = _estimator_section(per_edge)
    assert _estimator_section(chunked) == section
    restored = estimator_from_section(section)
    assert _estimator_section(restored) == section
    assert restored.events_observed == len(events)
    assert restored.path_counter.total == per_edge.path_counter.total > 0


#: a section as the pre-derive writer laid it out: tokens and signatures
#: in the order the stream first produced them, not sorted
_OLD_LAYOUT = (
    3,
    [("U", 1), ("T", 2)],
    [
        ("b", [(("out", "U"), 1), (("in", "T"), 2)]),
        (7, [(("in", "U"), 1)]),
        ("a", [(("out", "T"), 2)]),
    ],
    [
        ((("in", "T"), ("out", "U")), 2),
        ((("out", "T"), ("out", "T")), 1),
        ((("in", "T"), ("in", "T")), 1),
    ],
)


def test_estimator_section_in_the_old_order_still_restores():
    restored = estimator_from_section(_write_estimator_section(*_OLD_LAYOUT))
    assert restored.events_observed == 3
    assert restored.edge_histogram.as_dict() == {"U": 1, "T": 2}
    assert restored.path_counter.as_counter() == dict(_OLD_LAYOUT[3])
    assert restored.path_selectivity((("in", "T"), ("out", "U"))) == 0.5
    assert _estimator_section(restored) == _write_estimator_section(
        3,
        sorted(_OLD_LAYOUT[1]),
        [(vertex, sorted(tokens)) for vertex, tokens in _OLD_LAYOUT[2]],
        sorted(_OLD_LAYOUT[3]),
    )


@pytest.mark.parametrize(
    "mutate",
    [
        lambda verts, table: table.__setitem__(0, (table[0][0], 3)),
        lambda verts, table: table.pop(),
        lambda verts, table: table.append(table[0]),
        lambda verts, table: table.append(((("in", "X"), ("out", "X")), 1)),
        lambda verts, table: table.__setitem__(
            0, ((table[0][0][1], table[0][0][0]), 2)  # not canonical
        ),
        lambda verts, table: verts[0][1].append(verts[0][1][0]),
        lambda verts, table: verts[1][1].__setitem__(0, (("in", "U"), 0)),
        lambda verts, table: verts.append(verts[0]),
        lambda verts, table: verts[1][1].__setitem__(0, (("up", "U"), 1)),
    ],
)
def test_hostile_estimator_section_raises_checkpoint_error(mutate):
    """A stored table that disagrees with the counts, a repeated token or
    vertex, a zero count, an unknown direction: typed, never Key/ValueError."""
    observed, histogram, per_vertex, table = _OLD_LAYOUT
    per_vertex = [(vertex, list(tokens)) for vertex, tokens in per_vertex]
    table = list(table)
    mutate(per_vertex, table)
    section = _write_estimator_section(observed, histogram, per_vertex, table)
    with pytest.raises(CheckpointError, match="estimator state is corrupt"):
        estimator_from_section(section)


# ---------------------------------------------------------------------------
# binary codec
# ---------------------------------------------------------------------------


def test_binary_round_trip_scalars():
    writer = BinaryWriter()
    values = [
        None,
        True,
        False,
        0,
        -1,
        1,
        2**70,
        -(2**70),
        3.5,
        math.inf,
        -0.0,
        "",
        "héllo\tworld",
        b"\x00\xffbytes",
    ]
    for value in values:
        writer.write_value(value)
    writer.write_varint(0)
    writer.write_varint(300)
    writer.write_int(-300)
    writer.write_f64(1e-300)
    writer.write_str("αβγ")
    reader = BinaryReader(writer.getvalue())
    assert [reader.read_value() for _ in values] == values
    assert reader.read_varint() == 0
    assert reader.read_varint() == 300
    assert reader.read_int() == -300
    assert reader.read_f64() == 1e-300
    assert reader.read_str() == "αβγ"
    assert reader.at_end()
    reader.expect_end()


def test_binary_reader_truncation():
    writer = BinaryWriter()
    writer.write_str("hello")
    data = writer.getvalue()
    reader = BinaryReader(data[:-2])
    with pytest.raises(CheckpointError, match="truncated"):
        reader.read_str()


def test_binary_unknown_tag():
    with pytest.raises(CheckpointError, match="unknown value tag"):
        BinaryReader(b"\x63").read_value()


def test_binary_rejects_unsupported_types():
    with pytest.raises(CheckpointError, match="cannot serialize"):
        BinaryWriter().write_value(object())


# ---------------------------------------------------------------------------
# graph-backed leaves: written as the FIFO tables they replaced, and
# restored matches must fit their node
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("width", [30.0, math.inf], ids=["window-30", "window-inf"])
def test_graph_backed_leaves_write_the_fifo_table_bytes(monkeypatch, workload, width):
    """For the same engine state the snapshot bytes do not depend on
    whether single-edge leaves are graph views or FIFO tables, and either
    restores into the other and continues to the same records."""
    from repro.search import dynamic as dynamic_module

    events, queries = workload
    full = identities(_single_engine(events, queries, width).run(events).records)
    views = _single_engine(events, queries, width)
    before = identities(views.run(events[:350]).records)
    with monkeypatch.context() as patch:
        patch.setattr(dynamic_module, "_graph_leaf_view", lambda node, graph: None)
        fifo = _single_engine(events, queries, width)
        assert identities(fifo.run(events[:350]).records) == before
        fifo_bytes = engine_to_bytes(fifo, cursor=350)
        from_views = engine_from_bytes(engine_to_bytes(views, cursor=350), queries)[0]
        assert identities(from_views.run(events[350:]).records) == full[len(before) :]
    assert engine_to_bytes(views, cursor=350) == fifo_bytes
    restored, _ = engine_from_bytes(fifo_bytes, queries)
    assert identities(restored.run(events[350:]).records) == full[len(before) :]


def _fit_engine():
    """T-U-V path, every single-edge leaf a graph view: one complete match
    and a U self-loop, which no leaf stores."""
    engine = ContinuousQueryEngine(window=math.inf)
    engine.warmup([EdgeEvent("w", "x", etype, 0.0) for etype in "TUV"])
    query = QueryGraph.path(["T", "U", "V"], name="q")
    engine.register(query, strategy="Single", name="q")
    for src, dst, etype, ts in [
        ("a", "b", "T", 1.0),
        ("b", "c", "U", 2.0),
        ("c", "d", "V", 3.0),
        ("d", "d", "U", 4.0),  # edge 3: a self-loop
    ]:
        engine.process_event(EdgeEvent(src, dst, etype, ts))
    return engine, [query]


def _tree_tail(tree, entries) -> bytes:
    """The table part of a query slice, as ``_dump_tree_state`` ends it."""
    w = BinaryWriter()
    for node, rows in zip(tree.nodes, entries):
        w.write_varint(node.table.inserted_total)
        w.write_varint(len(rows))
        for row in rows:
            for edge_id in row:
                w.write_varint(edge_id)
    return w.getvalue()


def _mutate_entry(node_kind, to):
    """Replace the first entry of the ``node_kind`` node ("U-leaf" or
    "join") by the edge-id row ``to(row)``."""

    def mutate(tree, entries):
        for node, rows in zip(tree.nodes, entries):
            leaf_u = node.is_leaf and node.match_shape().etypes == ("U",)
            join = not node.is_leaf and not node.is_root
            if (node_kind == "U-leaf" and leaf_u) or (node_kind == "join" and join):
                rows[0] = to(rows[0])
                return
        raise AssertionError(node_kind)

    return mutate


@pytest.mark.parametrize(
    ("mutate", "message"),
    [
        (_mutate_entry("U-leaf", lambda row: (0,)), "has type 'T', not 'U'"),
        (_mutate_entry("U-leaf", lambda row: (3,)), "is a self-loop"),
        (_mutate_entry("U-leaf", lambda row: (9,)), "not in the restored window"),
        (_mutate_entry("join", lambda row: row[::-1]), "has type"),
        (
            _mutate_entry("join", lambda row: tuple(3 if i == 1 else i for i in row)),
            "is a self-loop",
        ),
    ],
    ids=["view-type", "view-loop", "view-evicted", "join-type", "join-loop"],
)
def test_restored_matches_must_fit_their_node(mutate, message):
    """Mutated snapshot bytes naming an edge its node could never have
    stored raise CheckpointError instead of seeding wrong joins."""
    engine, queries = _fit_engine()
    tree = engine.queries["q"].tree
    assert all(type(leaf.table) is GraphLeafView for leaf in tree.leaves())
    entries = [
        [(e.edge_id,) for e in node.table.edges()]
        if type(node.table) is GraphLeafView
        else [tuple(e.edge_id for e in m.edges) for m in node.table]
        for node in tree.nodes
    ]
    assert [(1,)] in entries  # the U leaf lists its edge but not the loop
    data = engine_to_bytes(engine)
    tail = _tree_tail(tree, entries)
    assert data.endswith(tail)
    engine_from_bytes(data, queries)  # the untouched bytes restore
    mutate(tree, entries)
    mutated = data[: -len(tail)] + _tree_tail(tree, entries)
    assert len(mutated) == len(data)
    with pytest.raises(CheckpointError, match=message):
        engine_from_bytes(mutated, queries)
