"""Telemetry subsystem: registry primitives, instrumentation, exposition.

Covers the dependency-free metric slots (counter/gauge/fixed-bucket
histogram), snapshot round-trips and cross-worker merges, the
per-layer registry builders (`engine.metrics()` /
`ShardedEngine.metrics()`), the JSONL emitter + schema validator, and
the stdlib HTTP exposition thread.
"""

from __future__ import annotations

import json
import math
import urllib.error
import urllib.request

import pytest

from repro import ContinuousQueryEngine, ShardedEngine
from repro.analysis.experiments import mixed_etype_workload
from repro.cli import _ingest_families
from repro.datasets.io import BadRecordLog
from repro.graph.types import EdgeEvent
from repro.telemetry import (
    SECONDS_BUCKETS,
    HistogramSlot,
    MetricsHTTPServer,
    MetricsJSONLWriter,
    MetricsRegistry,
    render_prometheus,
    validate_jsonl_file,
    validate_jsonl_lines,
    validate_snapshot,
)
from repro.telemetry.instrument import engine_registry, runtime_registry
from repro.telemetry.schema import (
    KNOWN_FAMILIES,
    REQUIRED_AUTOSCALE_FAMILIES,
    REQUIRED_ENGINE_FAMILIES,
    REQUIRED_RUNTIME_FAMILIES,
)


@pytest.fixture(scope="module")
def workload():
    events, queries = mixed_etype_workload(
        500, num_queries=4, num_etypes=12, seed=5, population=40
    )
    for i, query in enumerate(queries):
        query.name = f"q{i}"
    return events, queries


def _single_engine(workload, **kwargs):
    events, queries = workload
    engine = ContinuousQueryEngine(window=60.0, **kwargs)
    engine.warmup(events[:100])
    for query in queries:
        engine.register(query, strategy="auto")
    engine.run(events)
    return engine


def _samples(snapshot, family):
    return {tuple(s["labels"]): s for s in snapshot[family]["samples"]}


# ---------------------------------------------------------------------------
# registry primitives
# ---------------------------------------------------------------------------


class TestHistogramSlot:
    def test_upper_bounds_are_inclusive(self):
        slot = HistogramSlot((1.0, 5.0))
        slot.observe(1.0)  # == bound -> that bucket (Prometheus le semantics)
        slot.observe(1.5)
        slot.observe(7.0)  # beyond last bound -> overflow slot
        assert slot.counts == [1, 1, 1]
        assert slot.count == 3
        assert slot.sum == pytest.approx(9.5)

    def test_bounds_are_sorted_on_construction(self):
        assert HistogramSlot((5.0, 1.0)).bounds == (1.0, 5.0)

    def test_merge_sums_buckets(self):
        a, b = HistogramSlot((1.0,)), HistogramSlot((1.0,))
        a.observe(0.5)
        b.observe(2.0)
        b.observe(0.25)
        a.merge(b)
        assert a.counts == [2, 1] and a.count == 3

    def test_merge_rejects_mismatched_bounds(self):
        with pytest.raises(ValueError, match="bounds differ"):
            HistogramSlot((1.0,)).merge(HistogramSlot((2.0,)))


# Declared families the registry unit tests below stand on.
MATCHES = "repro_engine_matches_total"  # counter, labels (query,)
PHASES = "repro_engine_query_phase_seconds_total"  # counter, (query, phase)
SWEEPS = "repro_engine_sweeps_total"  # counter, unlabelled
QUERIES = "repro_engine_queries"  # gauge, agg sum
CHUNK = "repro_engine_chunk_size"  # gauge, agg max
WIDTH = "repro_graph_window_width_seconds"  # gauge, agg max
ROUTED = "repro_runtime_worker_events_routed_total"  # counter, (worker,)
LAT = "repro_persistence_checkpoint_seconds"  # histogram, SECONDS_BUCKETS


def _histogram_snapshot(*values):
    reg = MetricsRegistry()
    slot = reg.family(LAT).slot
    for value in values:
        slot.observe(value)
    return reg.collect()


class TestMetricsRegistry:
    def test_label_arity_is_checked(self):
        reg = MetricsRegistry()
        family = reg.family(PHASES)
        with pytest.raises(ValueError, match="expected 2 label values"):
            family.labels("only-one")

    def test_family_constructors_are_idempotent(self):
        reg = MetricsRegistry()
        assert reg.family(SWEEPS) is reg.family(SWEEPS)

    def test_undeclared_family_raises(self):
        with pytest.raises(ValueError, match="not a declared metric family"):
            MetricsRegistry().family("repro_engine_typo_total")
        with pytest.raises(ValueError, match="not a declared metric family"):
            MetricsRegistry.from_snapshot({"hits": {"samples": []}})

    def test_collect_from_snapshot_roundtrip(self):
        reg = MetricsRegistry()
        reg.family(MATCHES).labels("q1").inc(3)
        reg.family(CHUNK).slot.set(7.5)
        reg.family(LAT).slot.observe(0.002)
        snap = reg.collect()
        assert MetricsRegistry.from_snapshot(snap).collect() == snap
        # snapshots must survive a JSON round-trip (queue / JSONL transport)
        assert json.loads(json.dumps(snap)) == snap

    def test_merge_sums_counters_and_honours_gauge_agg(self):
        def snap(counter, gsum, gmax):
            reg = MetricsRegistry()
            reg.family(SWEEPS).slot.inc(counter)
            reg.family(QUERIES).slot.set(gsum)
            reg.family(CHUNK).slot.set(gmax)
            return reg.collect()

        merged = MetricsRegistry.merge_snapshots([snap(1, 10, 3), snap(2, 20, 9)])
        assert merged[SWEEPS]["samples"][0]["value"] == 3
        assert merged[QUERIES]["samples"][0]["value"] == 30
        assert merged[CHUNK]["samples"][0]["value"] == 9

    def test_merge_unions_label_sets_and_sorts_samples(self):
        def snap(worker):
            reg = MetricsRegistry()
            reg.family(ROUTED).labels(worker).inc(1)
            return reg.collect()

        merged = MetricsRegistry.merge_snapshots([snap("1"), snap("0"), snap("1")])
        assert [s["labels"] for s in merged[ROUTED]["samples"]] == [["0"], ["1"]]
        assert _samples(merged, ROUTED)[("1",)]["value"] == 2

    def test_merge_combines_histograms(self):
        merged = MetricsRegistry.merge_snapshots(
            [_histogram_snapshot(0.5), _histogram_snapshot(2.0)]
        )
        sample = merged[LAT]["samples"][0]
        expected = HistogramSlot(SECONDS_BUCKETS)
        expected.observe(0.5)
        expected.observe(2.0)
        assert sample["counts"] == expected.counts and sample["count"] == 2

    def test_merge_rejects_mismatched_histogram_bounds(self):
        # a worker built from another catalog: same family, other ladder
        other = _histogram_snapshot(0.5)
        other[LAT]["samples"][0]["bounds"] = [2.0]
        with pytest.raises(ValueError, match="bounds differ"):
            MetricsRegistry.merge_snapshots([_histogram_snapshot(0.5), other])


class TestPrometheusRendering:
    def test_counter_gauge_and_escaping(self):
        reg = MetricsRegistry()
        reg.family(MATCHES).labels('a"b\\c\nd').inc(2)
        reg.family(WIDTH).slot.set(math.inf)
        text = reg.render_prometheus()
        assert f"# HELP {MATCHES} Completed matches emitted" in text
        assert f"# TYPE {MATCHES} counter" in text
        assert MATCHES + '{query="a\\"b\\\\c\\nd"} 2' in text
        assert f"{WIDTH} +Inf" in text

    def test_histogram_buckets_accumulate(self):
        text = render_prometheus(_histogram_snapshot(0.5, 2.0, 9.0))
        assert LAT + '_bucket{le="1"} 1' in text
        assert LAT + '_bucket{le="5"} 2' in text
        assert LAT + '_bucket{le="+Inf"} 3' in text
        assert f"{LAT}_count 3" in text


# ---------------------------------------------------------------------------
# engine instrumentation
# ---------------------------------------------------------------------------


class TestEngineMetrics:
    @pytest.fixture(scope="class")
    def engine(self, workload):
        return _single_engine(workload, profile_phases=True)

    def test_snapshot_is_valid_and_json_safe(self, engine):
        snap = engine.metrics().collect()
        validate_snapshot(snap)
        json.dumps(snap)  # queue/JSONL transport safety
        assert "# TYPE repro_engine_edges_ingested_total counter" in (
            render_prometheus(snap)
        )

    def test_totals_match_engine_state(self, workload, engine):
        events, queries = workload
        snap = engine.metrics().collect()
        ingested = snap["repro_engine_edges_ingested_total"]["samples"][0]["value"]
        assert ingested == engine.graph.total_edges_seen
        live = snap["repro_graph_live_edges"]["samples"][0]["value"]
        assert live == engine.graph.num_edges
        matches = _samples(snap, "repro_engine_matches_total")
        assert set(matches) == {(q.name,) for q in queries}
        for name, registered in engine.queries.items():
            assert matches[(name,)]["value"] == registered.algorithm.matches_emitted

    def test_profile_phases_flow_into_stage_and_query_families(self, engine):
        snap = engine.metrics().collect()
        stages = _samples(snap, "repro_engine_stage_seconds_total")
        assert {("evict",), ("ingest",)} <= set(stages)
        phases = _samples(snap, "repro_engine_query_phase_seconds_total")
        assert phases, "per-query iso/join split must be populated"
        assert snap["repro_engine_profile_enabled"]["samples"][0]["value"] == 1.0

    def test_sjtree_residency_per_node(self, engine):
        snap = engine.metrics().collect()
        residency = _samples(snap, "repro_sjtree_node_residency")
        inserts = _samples(snap, "repro_sjtree_node_inserts_total")
        assert residency and set(residency) == set(inserts)
        # labels are (query, node_id:leaf-or-join)
        assert all(":" in node for _, node in residency)

    def test_checkpoint_populates_persistence_family(self, workload, tmp_path):
        engine = _single_engine(workload)
        engine.checkpoint(tmp_path / "snap.bin", cursor=500)
        snap = engine.metrics().collect()
        assert snap["repro_persistence_checkpoints_total"]["samples"][0]["value"] == 1
        seconds = snap["repro_persistence_checkpoint_seconds"]["samples"][0]
        assert seconds["count"] == 1
        assert (
            snap["repro_persistence_last_checkpoint_bytes"]["samples"][0]["value"] > 0
        )


# ---------------------------------------------------------------------------
# sharded aggregation
# ---------------------------------------------------------------------------


class TestShardedMetrics:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_aggregated_snapshot_covers_all_layers(self, workload, workers):
        events, queries = workload
        engine = ShardedEngine(window=60.0, workers=workers, batch_size=128)
        try:
            engine.warmup(events[:100])
            for query in queries:
                engine.register(query, strategy="auto")
            engine.run(events)
            snap = engine.metrics().collect()
        finally:
            engine.close()
        validate_snapshot(snap, expect_runtime=True)
        assert snap["repro_runtime_workers"]["samples"][0]["value"] == workers
        streamed = snap["repro_runtime_events_streamed_total"]["samples"][0]["value"]
        assert streamed == len(events)
        alive = _samples(snap, "repro_runtime_worker_alive")
        assert set(alive) == {(str(i),) for i in range(workers)}
        assert all(s["value"] == 1.0 for s in alive.values())
        depth = _samples(snap, "repro_runtime_worker_queue_depth")
        assert set(depth) == set(alive)
        assert all(s["value"] >= -1 for s in depth.values())
        heartbeat = _samples(snap, "repro_runtime_worker_heartbeat_age_seconds")
        assert all(s["value"] >= 0.0 for s in heartbeat.values())
        # per-shard engines only ingest the edges routed to their queries,
        # so the aggregated counter is bounded by workers * events
        ingested = snap["repro_engine_edges_ingested_total"]["samples"][0]["value"]
        assert 0 < ingested <= workers * len(events)

    def test_metrics_after_close_raises(self, workload):
        events, queries = workload
        engine = ShardedEngine(window=60.0, workers=2, batch_size=128)
        engine.warmup(events[:100])
        for query in queries:
            engine.register(query, strategy="auto")
        engine.run(events[:200])
        engine.close()
        with pytest.raises(RuntimeError):
            engine.metrics()


# ---------------------------------------------------------------------------
# exposition: JSONL + schema validation
# ---------------------------------------------------------------------------


class TestJSONLAndSchema:
    def test_writer_emits_validating_stream(self, workload, tmp_path):
        events, queries = workload
        engine = ContinuousQueryEngine(window=60.0)
        engine.warmup(events[:100])
        for query in queries:
            engine.register(query, strategy="auto")
        path = tmp_path / "metrics.jsonl"
        cuts = (200, 400, len(events))
        with MetricsJSONLWriter(path) as writer:
            for start, cut in zip((0,) + cuts, cuts):
                engine.run(events[start:cut])
                writer.emit(engine.metrics().collect(), events_processed=cut)
        envelopes = validate_jsonl_file(path, expect_final_events=len(events))
        assert [e["seq"] for e in envelopes] == [0, 1, 2]
        assert envelopes[-1]["events_processed"] == len(events)

    def test_broken_seq_rejected(self):
        snap = _engine_like_snapshot()
        good = json.dumps(
            {"seq": 0, "unix_time": 0.0, "events_processed": 1, "families": snap}
        )
        bad = json.dumps(
            {"seq": 5, "unix_time": 0.0, "events_processed": 2, "families": snap}
        )
        with pytest.raises(ValueError, match="seq"):
            validate_jsonl_lines([good, bad])

    def test_decreasing_counter_rejected(self):
        first = _engine_like_snapshot(ingested=10)
        second = _engine_like_snapshot(ingested=4)
        lines = [
            json.dumps(
                {"seq": i, "unix_time": 0.0, "events_processed": 10, "families": f}
            )
            for i, f in enumerate([first, second])
        ]
        with pytest.raises(ValueError, match="decreased"):
            validate_jsonl_lines(lines)

    def test_missing_family_rejected(self):
        snap = _engine_like_snapshot()
        del snap["repro_graph_live_edges"]
        line = json.dumps(
            {"seq": 0, "unix_time": 0.0, "events_processed": 0, "families": snap}
        )
        with pytest.raises(ValueError, match="missing required family"):
            validate_jsonl_lines([line])

    @pytest.mark.parametrize(
        "family, key, value, match",
        [
            ("repro_engine_typo_total", None, None, "not a declared family"),
            ("repro_engine_matches_total", "labels", ["worker"], "labels"),
            ("repro_graph_live_edges", "type", "counter", "type"),
            ("repro_graph_window_width_seconds", "agg", "sum", "agg"),
            ("repro_graph_live_edges", "help", "renamed", "help"),
        ],
    )
    def test_drift_from_the_catalog_rejected(self, family, key, value, match):
        snap = _engine_like_snapshot()
        if key is None:
            snap[family] = snap["repro_engine_edges_evicted_total"]
        else:
            snap[family][key] = value
        with pytest.raises(ValueError, match=match):
            validate_snapshot(snap)

    def test_undeclared_histogram_bounds_rejected(self):
        snap = _engine_like_snapshot()
        snap.update(_histogram_snapshot(0.5))
        sample = snap[LAT]["samples"][0]
        sample["bounds"], sample["counts"] = [1.0], [1, 0]
        with pytest.raises(ValueError, match="bounds differ from declared"):
            validate_snapshot(snap)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="no snapshots"):
            validate_jsonl_lines([])


class TestAutoscaleSchema:
    def test_valid_autoscale_snapshot_passes(self):
        snap = _autoscale_like_snapshot()
        validate_snapshot(snap, expect_autoscale=True)

    def test_missing_autoscale_families_rejected(self):
        snap = _engine_like_snapshot()
        with pytest.raises(ValueError, match="missing required family"):
            validate_snapshot(snap, expect_autoscale=True)

    def test_workers_gauge_outside_band_rejected(self):
        snap = _autoscale_like_snapshot(workers=7, low=1, high=4)
        with pytest.raises(ValueError, match="outside band"):
            validate_snapshot(snap)

    def test_workers_gauge_without_band_rejected(self):
        snap = _autoscale_like_snapshot()
        del snap["repro_runtime_autoscale_min_workers"]
        with pytest.raises(ValueError, match="min/max band"):
            validate_snapshot(snap)

    def test_decisions_exceeding_evaluations_rejected(self):
        snap = _autoscale_like_snapshot(
            evaluations=2, decided={"rebalance": 2, "scale_down": 1}
        )
        with pytest.raises(ValueError, match="exceed evaluations"):
            validate_snapshot(snap)

    def test_band_checked_even_without_expect_flag(self):
        # the gauges travel together: any snapshot carrying them is
        # held to the cross-family invariants
        snap = _autoscale_like_snapshot(workers=0, low=1, high=4)
        with pytest.raises(ValueError, match="outside band"):
            validate_snapshot(snap)

    def test_rebalance_boundary_excuses_worker_counter_reset(self):
        # a layout re-cut renormalizes worker-side lifetime counters;
        # the decrease is sanctioned exactly when the coordinator's
        # rebalance counter ticked on the same transition
        before = _autoscale_like_snapshot(ingested=100, rebalances=0)
        after = _autoscale_like_snapshot(ingested=40, rebalances=1)
        validate_jsonl_lines(_envelope_lines(before, after))

    def test_worker_counter_reset_without_rebalance_rejected(self):
        before = _autoscale_like_snapshot(ingested=100, rebalances=1)
        after = _autoscale_like_snapshot(ingested=40, rebalances=1)
        with pytest.raises(ValueError, match="decreased"):
            validate_jsonl_lines(_envelope_lines(before, after))

    def test_coordinator_counter_must_stay_monotone_across_rebalance(self):
        # repro_runtime_* counters live in the coordinator and survive
        # re-cuts — a decrease there is a real bug even mid-rebalance
        before = _autoscale_like_snapshot(
            ingested=100, rebalances=0, evaluations=5
        )
        after = _autoscale_like_snapshot(ingested=100, rebalances=1, evaluations=3)
        with pytest.raises(ValueError, match="decreased"):
            validate_jsonl_lines(_envelope_lines(before, after))


def _envelope_lines(*family_dicts):
    return [
        json.dumps(
            {"seq": i, "unix_time": 0.0, "events_processed": 10, "families": f}
        )
        for i, f in enumerate(family_dicts)
    ]


def _autoscale_like_snapshot(
    ingested=10,
    rebalances=0,
    workers=2,
    low=1,
    high=4,
    evaluations=3,
    decided=None,
):
    """Engine families + the coordinator's autoscale/rebalance group."""
    snap = _engine_like_snapshot(ingested=ingested)
    reg = MetricsRegistry()
    f = reg.family
    f("repro_runtime_rebalances_total").slot.inc(rebalances)
    f("repro_runtime_autoscale_workers").slot.set(workers)
    f("repro_runtime_autoscale_min_workers").slot.set(low)
    f("repro_runtime_autoscale_max_workers").slot.set(high)
    f("repro_runtime_autoscale_evaluations_total").slot.inc(evaluations)
    decisions = f("repro_runtime_autoscale_decisions_total")
    for action, count in (decided or {}).items():
        decisions.labels(action).inc(count)
    snap.update(reg.collect())
    return snap


def _engine_like_snapshot(ingested=10):
    """A minimal snapshot carrying every required engine family."""
    reg = MetricsRegistry()
    f = reg.family
    f("repro_engine_edges_ingested_total").slot.inc(ingested)
    f("repro_engine_edges_evicted_total")
    f("repro_engine_chunks_processed_total").slot.inc(2)
    f("repro_engine_matches_total").labels("q").inc(1)
    f("repro_engine_partial_matches").labels("q").set(3)
    f("repro_graph_live_edges").slot.set(ingested)
    f("repro_graph_live_vertices").slot.set(4)
    f("repro_graph_window_width_seconds").slot.set(60.0)
    f("repro_persistence_checkpoints_total")
    return reg.collect()


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------


class TestCatalog:
    def test_builders_emit_exactly_the_declared_families(self, tmp_path):
        """Every declared family is emitted by some builder, and every
        emitted family is declared (the registry raises otherwise)."""
        engine = ContinuousQueryEngine(window=10.0)
        engine.process_event(EdgeEvent("a", "b", "TCP", 1.0, "ip", "ip"))
        engine.checkpoint(tmp_path / "snap.bin")
        latencies = HistogramSlot(SECONDS_BUCKETS)
        runtime = runtime_registry(
            workers=1,
            shards=1,
            events_streamed=1,
            worker_rows={0: {"alive": True}},
            batch_put=latencies,
            supervisor={
                "restarts": {(0, "killed"): 1},
                "recovery_seconds": latencies,
                "replayed_batches": 0,
                "replayed_events": 0,
                "recovery_checkpoints": 0,
                "checkpoint_failures": 0,
                "replay_depth": {0: 0},
            },
            autoscaler={
                "workers": 1,
                "min_workers": 1,
                "max_workers": 2,
                "evaluations": 1,
                "decisions": {},
                "skew": 0.0,
                "drift": 0.0,
                "backpressure_seconds": 0.0,
                "cooldown_ticks": 0,
            },
        )
        emitted = (
            set(engine_registry(engine).collect())
            | set(runtime.collect())
            | set(_ingest_families(BadRecordLog("skip")))
        )
        assert emitted == set(KNOWN_FAMILIES)

    def test_required_families_are_declared(self):
        required = (
            REQUIRED_ENGINE_FAMILIES
            + REQUIRED_RUNTIME_FAMILIES
            + REQUIRED_AUTOSCALE_FAMILIES
        )
        assert set(required) <= set(KNOWN_FAMILIES)

    def test_histograms_declare_bounds(self):
        for name, spec in KNOWN_FAMILIES.items():
            assert bool(spec.bounds) == (spec.kind == "histogram"), name


# ---------------------------------------------------------------------------
# exposition: HTTP
# ---------------------------------------------------------------------------


class TestHTTPServer:
    def test_serves_prometheus_and_json(self):
        snap = _engine_like_snapshot(ingested=42)
        server = MetricsHTTPServer(lambda: snap, port=0)
        server.start()
        try:
            base = f"http://127.0.0.1:{server.port}"
            with urllib.request.urlopen(f"{base}/metrics", timeout=5) as resp:
                assert resp.headers["Content-Type"].startswith("text/plain")
                text = resp.read().decode("utf-8")
            assert "repro_engine_edges_ingested_total 42" in text
            with urllib.request.urlopen(f"{base}/metrics.json", timeout=5) as resp:
                assert json.load(resp) == snap
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{base}/nope", timeout=5)
            assert excinfo.value.code == 404
        finally:
            server.close()

    def test_close_is_idempotent(self):
        server = MetricsHTTPServer(dict, port=0)
        server.start()
        server.close()
        server.close()
