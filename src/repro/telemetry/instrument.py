"""Registry builders: turn live runtime state into metric snapshots.

Collection is pull-based by design.  The engine and the sharded
coordinator do **not** thread metric objects through their hot loops;
instead this module reads the counters those layers already maintain
(graph scalar counters, match-table totals, ``ProfileCounters``,
checkpoint stats) and assembles a fresh :class:`MetricsRegistry` at
collect time.  The per-edge cost of telemetry being armed is therefore a
handful of always-on integer bumps (table probes/expiries, dispatch
hits) — everything else is O(#queries + #nodes + #etypes) per *collect*,
not per edge.

Metric families (declared in :mod:`repro.telemetry.schema`, documented
in README.md):

========================  ====================================================
family prefix             source layer
========================  ====================================================
``repro_engine_*``        ContinuousQueryEngine — ingest/evict totals, chunk
                          accounting, dispatch LUT, per-query matches and
                          iso/join phase seconds, kernel stage seconds
``repro_graph_*``         StreamingGraph — live window residency, per-etype
                          live edge counts
``repro_sjtree_*``        per-node match-table residency / inserts / probes /
                          expiries (the future spill-to-disk budget signal)
``repro_persistence_*``   checkpoint count / duration / bytes
``repro_runtime_*``       ShardedEngine coordinator — per-worker queue depth,
                          liveness heartbeats, batch latency, merge-buffer lag
========================  ====================================================
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from ..graph.columnar import backend_name
from ..graph.types import VOCABULARY
from .registry import MetricsRegistry

__all__ = ["engine_registry", "runtime_registry"]


def engine_registry(engine) -> MetricsRegistry:
    """Build a point-in-time registry for one in-process engine.

    Covers the ``engine``, ``graph``, ``sjtree`` and ``persistence``
    families.  Safe to call at any chunk boundary; never mutates engine
    state.
    """
    reg = MetricsRegistry()
    f = reg.family
    graph = engine.graph

    # -- engine family ------------------------------------------------------
    f("repro_engine_edges_ingested_total").slot.inc(graph.total_edges_seen)
    f("repro_engine_edges_evicted_total").slot.inc(graph.evicted_edges)
    f("repro_engine_chunks_processed_total").slot.inc(engine._chunks_processed)
    f("repro_engine_sweeps_total").slot.inc(engine._sweeps)
    f("repro_engine_dispatch_hits_total").slot.inc(engine._dispatch_hits)
    f("repro_engine_chunk_size").slot.set(engine.chunk_size)
    from ..search.engine import _UNSEEN  # function-local: no import cycle

    lut = engine._program_lut
    compiled = sum(1 for entry in lut if entry is not _UNSEEN)
    f("repro_engine_dispatch_lut_size").slot.set(len(lut))
    f("repro_engine_dispatch_programs_compiled").slot.set(compiled)
    f("repro_engine_queries").slot.set(len(engine.queries))
    f("repro_engine_profile_enabled").slot.set(1.0 if engine.profile_phases else 0.0)

    matches = f("repro_engine_matches_total")
    partial = f("repro_engine_partial_matches")
    strategy = f("repro_engine_query_strategy_info")
    phase_seconds = f("repro_engine_query_phase_seconds_total")
    phase_calls = f("repro_engine_query_phase_calls_total")
    for name, registered in engine.queries.items():
        algorithm = registered.algorithm
        matches.labels(name).inc(algorithm.matches_emitted)
        partial.labels(name).set(algorithm.partial_match_count())
        strategy.labels(name, registered.strategy).set(1.0)
        for phase, timer in algorithm.profile.phases.items():
            phase_seconds.labels(name, phase).inc(timer.seconds)
            phase_calls.labels(name, phase).inc(timer.calls)

    stage_seconds = f("repro_engine_stage_seconds_total")
    stage_calls = f("repro_engine_stage_calls_total")
    for stage, timer in engine.kernel_profile.phases.items():
        stage_seconds.labels(stage).inc(timer.seconds)
        stage_calls.labels(stage).inc(timer.calls)

    # -- graph family -------------------------------------------------------
    f("repro_graph_live_edges").slot.set(graph.num_edges)
    f("repro_graph_live_vertices").slot.set(graph.num_vertices)
    f("repro_graph_window_width_seconds").slot.set(graph.window.width)
    f("repro_graph_vocabulary_etypes").slot.set(VOCABULARY.num_etypes())
    last = graph.last_timestamp
    if not math.isinf(last):  # -Inf before the first edge: skip the sample
        f("repro_graph_last_timestamp").slot.set(last)
    etype_live = f("repro_graph_etype_live_edges")
    for etype, count in graph.snapshot_counts().items():
        etype_live.labels(etype).set(count)

    # -- sjtree family ------------------------------------------------------
    residency = f("repro_sjtree_node_residency")
    buckets = f("repro_sjtree_node_buckets")
    inserts = f("repro_sjtree_node_inserts_total")
    probes = f("repro_sjtree_node_probes_total")
    expired = f("repro_sjtree_node_expired_total")
    for name, registered in engine.queries.items():
        tree = registered.tree
        if tree is None:
            continue
        for node in tree.nodes:
            node_label = f"{node.node_id}:{node.leaf_label or 'join'}"
            table = node.table
            residency.labels(name, node_label).set(len(table))
            buckets.labels(name, node_label).set(table.num_buckets())
            inserts.labels(name, node_label).inc(table.inserted_total)
            probes.labels(name, node_label).inc(table.probes_total)
            expired.labels(name, node_label).inc(table.expired_total)

    # -- persistence family -------------------------------------------------
    stats = engine._checkpoint_stats
    f("repro_persistence_checkpoints_total").slot.inc(stats.count)
    f("repro_persistence_checkpoint_seconds").slot.merge(stats.seconds)
    f("repro_persistence_checkpoint_bytes").slot.merge(stats.bytes)
    f("repro_persistence_last_checkpoint_bytes").slot.set(stats.last_bytes)

    f("repro_engine_kernel_backend_info").labels(backend_name()).set(1.0)
    return reg


def runtime_registry(
    *,
    workers: int,
    shards: int,
    events_streamed: int,
    worker_rows: Dict[int, dict],
    batch_put: Optional[object] = None,
    supervisor: Optional[dict] = None,
    autoscaler: Optional[dict] = None,
    rebalances: int = 0,
) -> MetricsRegistry:
    """Build the coordinator-side ``repro_runtime_*`` family.

    ``worker_rows`` maps worker id to a dict with keys ``alive``,
    ``queue_depth`` (-1 when the platform cannot report qsize),
    ``heartbeat_age_seconds``, ``events_routed``, ``records``,
    ``batches`` and ``merge_buffer_records``.  ``batch_put`` is the
    coordinator's :class:`~repro.telemetry.registry.HistogramSlot` of
    blocking task-queue put latencies, when it has one.  ``supervisor``
    is :meth:`~repro.runtime.supervisor.Supervisor.telemetry` output
    when the engine runs supervised — it adds the recovery family
    (restart counts by worker and reason, recovery latency, replayed
    batches/events, replay-buffer depth, recovery-checkpoint totals).
    ``autoscaler`` is
    :meth:`~repro.runtime.autoscale.AutoscaleController.telemetry`
    output when the elastic controller is armed — it adds the
    ``repro_runtime_autoscale_*`` family (current worker count and the
    policy band it must stay inside, evaluation/decision counters by
    action, and the last tick's skew/drift/backpressure signal values).
    """
    reg = MetricsRegistry()
    f = reg.family
    f("repro_runtime_workers").slot.set(workers)
    f("repro_runtime_shards").slot.set(shards)
    f("repro_runtime_events_streamed_total").slot.inc(events_streamed)
    # A layout migration re-cuts every worker from per-query state slices,
    # renormalizing worker-side lifetime counters (ingest totals track the
    # restored window, not the discarded history). Consumers use an
    # increase here as the counter-reset boundary.
    f("repro_runtime_rebalances_total").slot.inc(rebalances)

    alive = f("repro_runtime_worker_alive")
    depth = f("repro_runtime_worker_queue_depth")
    heartbeat = f("repro_runtime_worker_heartbeat_age_seconds")
    routed = f("repro_runtime_worker_events_routed_total")
    records = f("repro_runtime_worker_records_total")
    batches = f("repro_runtime_worker_batches_total")
    merge_lag = f("repro_runtime_merge_buffer_records")
    for worker_id in sorted(worker_rows):
        row = worker_rows[worker_id]
        label = str(worker_id)
        alive.labels(label).set(1.0 if row.get("alive") else 0.0)
        depth.labels(label).set(row.get("queue_depth", -1))
        heartbeat.labels(label).set(row.get("heartbeat_age_seconds", 0.0))
        routed.labels(label).inc(row.get("events_routed", 0))
        records.labels(label).inc(row.get("records", 0))
        batches.labels(label).inc(row.get("batches", 0))
        merge_lag.labels(label).set(row.get("merge_buffer_records", 0))

    if batch_put is not None:
        f("repro_runtime_batch_put_seconds").slot.merge(batch_put)

    if supervisor is not None:
        restarts = f("repro_runtime_worker_restarts_total")
        for (worker_id, reason), count in sorted(supervisor["restarts"].items()):
            restarts.labels(str(worker_id), reason).inc(count)
        f("repro_runtime_recovery_seconds").slot.merge(supervisor["recovery_seconds"])
        f("repro_runtime_replayed_batches_total").slot.inc(
            supervisor["replayed_batches"]
        )
        f("repro_runtime_replayed_events_total").slot.inc(
            supervisor["replayed_events"]
        )
        f("repro_runtime_recovery_checkpoints_total").slot.inc(
            supervisor["recovery_checkpoints"]
        )
        f("repro_runtime_recovery_checkpoint_failures_total").slot.inc(
            supervisor["checkpoint_failures"]
        )
        replay_depth = f("repro_runtime_replay_buffer_batches")
        for worker_id in sorted(supervisor["replay_depth"]):
            replay_depth.labels(str(worker_id)).set(
                supervisor["replay_depth"][worker_id]
            )

    if autoscaler is not None:
        f("repro_runtime_autoscale_workers").slot.set(autoscaler["workers"])
        f("repro_runtime_autoscale_min_workers").slot.set(autoscaler["min_workers"])
        f("repro_runtime_autoscale_max_workers").slot.set(autoscaler["max_workers"])
        f("repro_runtime_autoscale_evaluations_total").slot.inc(
            autoscaler["evaluations"]
        )
        decisions = f("repro_runtime_autoscale_decisions_total")
        for action, count in sorted(autoscaler["decisions"].items()):
            decisions.labels(action).inc(count)
        f("repro_runtime_autoscale_skew_score").slot.set(autoscaler["skew"])
        f("repro_runtime_autoscale_drift_score").slot.set(autoscaler["drift"])
        f("repro_runtime_autoscale_backpressure_seconds").slot.set(
            autoscaler["backpressure_seconds"]
        )
        f("repro_runtime_autoscale_cooldown_ticks").slot.set(
            autoscaler["cooldown_ticks"]
        )
    return reg
