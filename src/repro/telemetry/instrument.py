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

Metric families (the catalog README.md documents):

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
    graph = engine.graph

    # -- engine family ------------------------------------------------------
    c = reg.counter
    g = reg.gauge
    c("repro_engine_edges_ingested_total", "Stream edges ingested").slot.inc(
        graph.total_edges_seen
    )
    c("repro_engine_edges_evicted_total", "Edges evicted from the window").slot.inc(
        graph.evicted_edges
    )
    c("repro_engine_chunks_processed_total", "Batched ingest chunks").slot.inc(
        engine._chunks_processed
    )
    c("repro_engine_sweeps_total", "Housekeeping sweeps").slot.inc(engine._sweeps)
    c(
        "repro_engine_dispatch_hits_total",
        "Edges routed to at least one compiled query program",
    ).slot.inc(engine._dispatch_hits)
    g("repro_engine_chunk_size", "Configured ingest chunk size", agg="max").slot.set(
        engine.chunk_size
    )
    from ..search.engine import _UNSEEN  # function-local: no import cycle

    lut = engine._program_lut
    compiled = sum(1 for entry in lut if entry is not _UNSEEN)
    g(
        "repro_engine_dispatch_lut_size",
        "Interned etype codes the dispatch LUT spans",
        agg="max",
    ).slot.set(len(lut))
    g(
        "repro_engine_dispatch_programs_compiled",
        "Dispatch programs compiled (lazily or via warm_kernels)",
        agg="max",
    ).slot.set(compiled)
    g("repro_engine_queries", "Registered continuous queries").slot.set(
        len(engine.queries)
    )
    g(
        "repro_engine_profile_enabled",
        "1 when per-stage phase profiling is on",
        agg="max",
    ).slot.set(1.0 if engine.profile_phases else 0.0)

    matches = c(
        "repro_engine_matches_total", "Completed matches emitted", labels=("query",)
    )
    partial = g(
        "repro_engine_partial_matches",
        "Live partial matches (match-table residency)",
        labels=("query",),
    )
    strategy = g(
        "repro_engine_query_strategy_info",
        "Always 1; strategy carried as a label",
        labels=("query", "strategy"),
        agg="max",
    )
    phase_seconds = c(
        "repro_engine_query_phase_seconds_total",
        "Exclusive per-query phase seconds (iso/join split of §6.4.1)",
        labels=("query", "phase"),
    )
    phase_calls = c(
        "repro_engine_query_phase_calls_total",
        "Entries per per-query phase",
        labels=("query", "phase"),
    )
    for name, registered in engine.queries.items():
        algorithm = registered.algorithm
        matches.labels(name).inc(algorithm.matches_emitted)
        partial.labels(name).set(algorithm.partial_match_count())
        strategy.labels(name, registered.strategy).set(1.0)
        for phase, timer in algorithm.profile.phases.items():
            phase_seconds.labels(name, phase).inc(timer.seconds)
            phase_calls.labels(name, phase).inc(timer.calls)

    stage_seconds = c(
        "repro_engine_stage_seconds_total",
        "Chunk-kernel stage seconds (evict/ingest/dispatch)",
        labels=("stage",),
    )
    stage_calls = c(
        "repro_engine_stage_calls_total",
        "Per-edge credits per kernel stage",
        labels=("stage",),
    )
    for stage, timer in engine.kernel_profile.phases.items():
        stage_seconds.labels(stage).inc(timer.seconds)
        stage_calls.labels(stage).inc(timer.calls)

    # -- graph family -------------------------------------------------------
    g("repro_graph_live_edges", "Edges currently inside the window").slot.set(
        graph.num_edges
    )
    g("repro_graph_live_vertices", "Vertices with at least one live edge").slot.set(
        graph.num_vertices
    )
    g(
        "repro_graph_window_width_seconds",
        "Configured sliding-window width (+Inf = unbounded)",
        agg="max",
    ).slot.set(graph.window.width)
    g(
        "repro_graph_vocabulary_etypes", "Interned edge-type vocabulary size", agg="max"
    ).slot.set(VOCABULARY.num_etypes())
    last = graph.last_timestamp
    if not math.isinf(last):  # -Inf before the first edge: skip the sample
        g(
            "repro_graph_last_timestamp",
            "Stream clock (max event timestamp seen)",
            agg="max",
        ).slot.set(last)
    etype_live = g(
        "repro_graph_etype_live_edges",
        "Live edges per edge type",
        labels=("etype",),
    )
    for etype, count in graph.snapshot_counts().items():
        etype_live.labels(etype).set(count)

    # -- sjtree family ------------------------------------------------------
    residency = g(
        "repro_sjtree_node_residency",
        "Live matches per SJ-Tree node (graph-backed leaves: live edges of their type)",
        labels=("query", "node"),
    )
    buckets = g(
        "repro_sjtree_node_buckets",
        "Hash buckets per SJ-Tree node table (0 for graph-backed leaves)",
        labels=("query", "node"),
    )
    inserts = c(
        "repro_sjtree_node_inserts_total",
        "Lifetime match-table inserts (§5.2 space measure)",
        labels=("query", "node"),
    )
    probes = c(
        "repro_sjtree_node_probes_total",
        "Probes of stored SJ-Tree tables (graph-backed leaves are read off the graph)",
        labels=("query", "node"),
    )
    expired = c(
        "repro_sjtree_node_expired_total",
        "Matches expired out of node tables",
        labels=("query", "node"),
    )
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
    c("repro_persistence_checkpoints_total", "Checkpoints written").slot.inc(
        stats.count
    )
    sec = reg.histogram(
        "repro_persistence_checkpoint_seconds",
        stats.seconds.bounds,
        "Checkpoint write duration",
    ).slot
    sec.merge(stats.seconds)
    size = reg.histogram(
        "repro_persistence_checkpoint_bytes",
        stats.bytes.bounds,
        "Checkpoint snapshot size",
    ).slot
    size.merge(stats.bytes)
    g(
        "repro_persistence_last_checkpoint_bytes",
        "Size of the most recent checkpoint",
        agg="max",
    ).slot.set(stats.last_bytes)

    g(
        "repro_engine_kernel_backend_info",
        "Always 1; active kernel backend carried as a label",
        labels=("backend",),
        agg="max",
    ).labels(backend_name()).set(1.0)
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
    reg.gauge("repro_runtime_workers", "Worker processes", agg="max").slot.set(workers)
    reg.gauge("repro_runtime_shards", "Query shards", agg="max").slot.set(shards)
    reg.counter(
        "repro_runtime_events_streamed_total", "Events consumed by the coordinator"
    ).slot.inc(events_streamed)
    # A layout migration re-cuts every worker from per-query state slices,
    # renormalizing worker-side lifetime counters (ingest totals track the
    # restored window, not the discarded history). Consumers use an
    # increase here as the counter-reset boundary.
    reg.counter(
        "repro_runtime_rebalances_total",
        "Completed online shard-layout rebalances (manual or autoscale)",
    ).slot.inc(rebalances)

    alive = reg.gauge(
        "repro_runtime_worker_alive", "1 while the worker process lives",
        labels=("worker",),
    )
    depth = reg.gauge(
        "repro_runtime_worker_queue_depth",
        "Task-queue backlog per worker (-1: qsize unsupported)",
        labels=("worker",),
    )
    heartbeat = reg.gauge(
        "repro_runtime_worker_heartbeat_age_seconds",
        "Seconds since the worker last replied on the result queue",
        labels=("worker",),
        agg="max",
    )
    routed = reg.counter(
        "repro_runtime_worker_events_routed_total",
        "Events routed to each worker",
        labels=("worker",),
    )
    records = reg.counter(
        "repro_runtime_worker_records_total",
        "Match records collected from each worker",
        labels=("worker",),
    )
    batches = reg.counter(
        "repro_runtime_worker_batches_total",
        "Batches dispatched to each worker",
        labels=("worker",),
    )
    merge_lag = reg.gauge(
        "repro_runtime_merge_buffer_records",
        "Records awaiting global-order merge per worker",
        labels=("worker",),
    )
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
        slot = reg.histogram(
            "repro_runtime_batch_put_seconds",
            batch_put.bounds,
            "Blocking task-queue put latency (backpressure signal)",
        ).slot
        slot.merge(batch_put)

    if supervisor is not None:
        restarts = reg.counter(
            "repro_runtime_worker_restarts_total",
            "Supervised worker restarts by worker and failure reason",
            labels=("worker", "reason"),
        )
        for (worker_id, reason), count in sorted(supervisor["restarts"].items()):
            restarts.labels(str(worker_id), reason).inc(count)
        recovery = supervisor["recovery_seconds"]
        reg.histogram(
            "repro_runtime_recovery_seconds",
            recovery.bounds,
            "Wall seconds per worker recovery (respawn + restore + replay)",
        ).slot.merge(recovery)
        reg.counter(
            "repro_runtime_replayed_batches_total",
            "Buffered batches replayed into respawned workers",
        ).slot.inc(supervisor["replayed_batches"])
        reg.counter(
            "repro_runtime_replayed_events_total",
            "Stream events replayed into respawned workers",
        ).slot.inc(supervisor["replayed_events"])
        reg.counter(
            "repro_runtime_recovery_checkpoints_total",
            "Recovery checkpoints taken to trim replay buffers",
        ).slot.inc(supervisor["recovery_checkpoints"])
        reg.counter(
            "repro_runtime_recovery_checkpoint_failures_total",
            "Recovery-checkpoint attempts that failed (buffer kept)",
        ).slot.inc(supervisor["checkpoint_failures"])
        replay_depth = reg.gauge(
            "repro_runtime_replay_buffer_batches",
            "Batches currently buffered for replay per worker",
            labels=("worker",),
        )
        for worker_id in sorted(supervisor["replay_depth"]):
            replay_depth.labels(str(worker_id)).set(
                supervisor["replay_depth"][worker_id]
            )

    if autoscaler is not None:
        reg.gauge(
            "repro_runtime_autoscale_workers",
            "Current worker count under the elastic controller",
            agg="max",
        ).slot.set(autoscaler["workers"])
        reg.gauge(
            "repro_runtime_autoscale_min_workers",
            "Controller scale-down floor",
            agg="max",
        ).slot.set(autoscaler["min_workers"])
        reg.gauge(
            "repro_runtime_autoscale_max_workers",
            "Controller scale-up ceiling",
            agg="max",
        ).slot.set(autoscaler["max_workers"])
        reg.counter(
            "repro_runtime_autoscale_evaluations_total",
            "Controller evaluation ticks",
        ).slot.inc(autoscaler["evaluations"])
        decisions = reg.counter(
            "repro_runtime_autoscale_decisions_total",
            "Layout-changing decisions by action",
            labels=("action",),
        )
        for action, count in sorted(autoscaler["decisions"].items()):
            decisions.labels(action).inc(count)
        reg.gauge(
            "repro_runtime_autoscale_skew_score",
            "Last tick's per-worker load skew (1 - mean/max)",
            agg="max",
        ).slot.set(autoscaler["skew"])
        reg.gauge(
            "repro_runtime_autoscale_drift_score",
            "Last tick's edge-type-mix drift vs the layout baseline",
            agg="max",
        ).slot.set(autoscaler["drift"])
        reg.gauge(
            "repro_runtime_autoscale_backpressure_seconds",
            "Last tick's mean blocking batch-put latency",
            agg="max",
        ).slot.set(autoscaler["backpressure_seconds"])
        reg.gauge(
            "repro_runtime_autoscale_cooldown_ticks",
            "Evaluation ticks remaining in the post-action cooldown",
            agg="max",
        ).slot.set(autoscaler["cooldown_ticks"])
    return reg
