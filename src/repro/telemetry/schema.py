"""The metric family catalog, and validation of emitted snapshots.

:data:`KNOWN_FAMILIES` declares every ``repro_*`` family exactly once.
:meth:`~repro.telemetry.registry.MetricsRegistry.family` builds a family
from its name alone, and :func:`validate_snapshot` holds every emitted
family to its declaration, so the emitters, the catalog and the CI
JSONL check (``tools/validate_metrics_jsonl.py``) cannot diverge.
Validation errors raise :class:`ValueError` with a message that names
the offending line/family.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Literal, NamedTuple, Optional, Tuple

__all__ = [
    "BYTES_BUCKETS",
    "KNOWN_FAMILIES",
    "REQUIRED_AUTOSCALE_FAMILIES",
    "REQUIRED_ENGINE_FAMILIES",
    "REQUIRED_RUNTIME_FAMILIES",
    "SECONDS_BUCKETS",
    "Family",
    "validate_snapshot",
    "validate_jsonl_lines",
    "validate_jsonl_file",
]

# Shared fixed bucket ladders. Fixed (not adaptive) bounds keep observe()
# a single bisect + list increment and make cross-process merges exact.
SECONDS_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
)
BYTES_BUCKETS: Tuple[float, ...] = (
    1_024.0,
    16_384.0,
    65_536.0,
    262_144.0,
    1_048_576.0,
    16_777_216.0,
    134_217_728.0,
)


class Family(NamedTuple):
    """One metric family's declaration: everything but its samples.

    ``agg`` is how a gauge merges across workers: ``"sum"`` (queue
    depths, residency), or ``"max"``/``"min"`` for configuration- and
    clock-style gauges where a sum means nothing.  Counters and
    histograms always sum.  ``bounds`` are a histogram's bucket upper
    bounds.
    """

    kind: Literal["counter", "gauge", "histogram"]
    help: str
    labels: Tuple[str, ...] = ()
    agg: Literal["sum", "max", "min"] = "sum"
    bounds: Tuple[float, ...] = ()


# The complete family catalog: every ``repro_*`` family any registry
# builder may emit.  Its dict order is not the emission order; a
# registry emits families in the order its builder first asks for them.
KNOWN_FAMILIES: Dict[str, Family] = {
    # -- engine -------------------------------------------------------
    "repro_engine_edges_ingested_total": Family("counter", "Stream edges ingested"),
    "repro_engine_edges_evicted_total": Family(
        "counter", "Edges evicted from the window"
    ),
    "repro_engine_chunks_processed_total": Family("counter", "Batched ingest chunks"),
    "repro_engine_sweeps_total": Family("counter", "Housekeeping sweeps"),
    "repro_engine_dispatch_hits_total": Family(
        "counter", "Edges routed to at least one compiled query program"
    ),
    "repro_engine_chunk_size": Family(
        "gauge", "Configured ingest chunk size", agg="max"
    ),
    "repro_engine_dispatch_lut_size": Family(
        "gauge", "Interned etype codes the dispatch LUT spans", agg="max"
    ),
    "repro_engine_dispatch_programs_compiled": Family(
        "gauge", "Dispatch programs compiled (lazily or via warm_kernels)", agg="max"
    ),
    "repro_engine_queries": Family("gauge", "Registered continuous queries"),
    "repro_engine_profile_enabled": Family(
        "gauge", "1 when per-stage phase profiling is on", agg="max"
    ),
    "repro_engine_matches_total": Family(
        "counter", "Completed matches emitted", ("query",)
    ),
    "repro_engine_partial_matches": Family(
        "gauge", "Live partial matches (match-table residency)", ("query",)
    ),
    "repro_engine_query_strategy_info": Family(
        "gauge",
        "Always 1; strategy carried as a label",
        ("query", "strategy"),
        agg="max",
    ),
    "repro_engine_query_phase_seconds_total": Family(
        "counter",
        "Exclusive per-query phase seconds (iso/join split of §6.4.1)",
        ("query", "phase"),
    ),
    "repro_engine_query_phase_calls_total": Family(
        "counter", "Entries per per-query phase", ("query", "phase")
    ),
    "repro_engine_stage_seconds_total": Family(
        "counter", "Chunk-kernel stage seconds (evict/ingest/dispatch)", ("stage",)
    ),
    "repro_engine_stage_calls_total": Family(
        "counter", "Per-edge credits per kernel stage", ("stage",)
    ),
    "repro_engine_kernel_backend_info": Family(
        "gauge",
        "Always 1; active kernel backend carried as a label",
        ("backend",),
        agg="max",
    ),
    # -- graph --------------------------------------------------------
    "repro_graph_live_edges": Family("gauge", "Edges currently inside the window"),
    "repro_graph_live_vertices": Family(
        "gauge", "Vertices with at least one live edge"
    ),
    "repro_graph_window_width_seconds": Family(
        "gauge", "Configured sliding-window width (+Inf = unbounded)", agg="max"
    ),
    "repro_graph_vocabulary_etypes": Family(
        "gauge", "Interned edge-type vocabulary size", agg="max"
    ),
    "repro_graph_last_timestamp": Family(
        "gauge", "Stream clock (max event timestamp seen)", agg="max"
    ),
    "repro_graph_etype_live_edges": Family(
        "gauge", "Live edges per edge type", ("etype",)
    ),
    # -- sjtree -------------------------------------------------------
    "repro_sjtree_node_residency": Family(
        "gauge",
        "Live matches per SJ-Tree node (graph-backed leaves: live edges of their type)",
        ("query", "node"),
    ),
    "repro_sjtree_node_buckets": Family(
        "gauge",
        "Hash buckets per SJ-Tree node table (0 for graph-backed leaves)",
        ("query", "node"),
    ),
    "repro_sjtree_node_inserts_total": Family(
        "counter",
        "Lifetime match-table inserts (§5.2 space measure)",
        ("query", "node"),
    ),
    "repro_sjtree_node_probes_total": Family(
        "counter",
        "Probes of stored SJ-Tree tables (graph-backed leaves are read off the graph)",
        ("query", "node"),
    ),
    "repro_sjtree_node_expired_total": Family(
        "counter", "Matches expired out of node tables", ("query", "node")
    ),
    # -- persistence --------------------------------------------------
    "repro_persistence_checkpoints_total": Family("counter", "Checkpoints written"),
    "repro_persistence_checkpoint_seconds": Family(
        "histogram", "Checkpoint write duration", bounds=SECONDS_BUCKETS
    ),
    "repro_persistence_checkpoint_bytes": Family(
        "histogram", "Checkpoint snapshot size", bounds=BYTES_BUCKETS
    ),
    "repro_persistence_last_checkpoint_bytes": Family(
        "gauge", "Size of the most recent checkpoint", agg="max"
    ),
    # -- ingest (CLI bad-record policy) -------------------------------
    "repro_ingest_bad_records_total": Family(
        "counter", "Malformed stream lines dropped by --on-bad-record"
    ),
    "repro_ingest_quarantined_records_total": Family(
        "counter", "Malformed stream lines appended to the dead-letter file"
    ),
    # -- runtime coordinator ------------------------------------------
    "repro_runtime_workers": Family("gauge", "Worker processes", agg="max"),
    "repro_runtime_shards": Family("gauge", "Query shards", agg="max"),
    "repro_runtime_events_streamed_total": Family(
        "counter", "Events consumed by the coordinator"
    ),
    "repro_runtime_rebalances_total": Family(
        "counter", "Completed online shard-layout rebalances (manual or autoscale)"
    ),
    "repro_runtime_worker_alive": Family(
        "gauge", "1 while the worker process lives", ("worker",)
    ),
    "repro_runtime_worker_queue_depth": Family(
        "gauge", "Task-queue backlog per worker (-1: qsize unsupported)", ("worker",)
    ),
    "repro_runtime_worker_heartbeat_age_seconds": Family(
        "gauge",
        "Seconds since the worker last replied on the result queue",
        ("worker",),
        agg="max",
    ),
    "repro_runtime_worker_events_routed_total": Family(
        "counter", "Events routed to each worker", ("worker",)
    ),
    "repro_runtime_worker_records_total": Family(
        "counter", "Match records collected from each worker", ("worker",)
    ),
    "repro_runtime_worker_batches_total": Family(
        "counter", "Batches dispatched to each worker", ("worker",)
    ),
    "repro_runtime_merge_buffer_records": Family(
        "gauge", "Records awaiting global-order merge per worker", ("worker",)
    ),
    "repro_runtime_batch_put_seconds": Family(
        "histogram",
        "Blocking task-queue put latency (backpressure signal)",
        bounds=SECONDS_BUCKETS,
    ),
    # -- supervised recovery ------------------------------------------
    "repro_runtime_worker_restarts_total": Family(
        "counter",
        "Supervised worker restarts by worker and failure reason",
        ("worker", "reason"),
    ),
    "repro_runtime_recovery_seconds": Family(
        "histogram",
        "Wall seconds per worker recovery (respawn + restore + replay)",
        bounds=SECONDS_BUCKETS,
    ),
    "repro_runtime_replayed_batches_total": Family(
        "counter", "Buffered batches replayed into respawned workers"
    ),
    "repro_runtime_replayed_events_total": Family(
        "counter", "Stream events replayed into respawned workers"
    ),
    "repro_runtime_recovery_checkpoints_total": Family(
        "counter", "Recovery checkpoints taken to trim replay buffers"
    ),
    "repro_runtime_recovery_checkpoint_failures_total": Family(
        "counter", "Recovery-checkpoint attempts that failed (buffer kept)"
    ),
    "repro_runtime_replay_buffer_batches": Family(
        "gauge", "Batches currently buffered for replay per worker", ("worker",)
    ),
    # -- elastic autoscaling ------------------------------------------
    "repro_runtime_autoscale_workers": Family(
        "gauge", "Current worker count under the elastic controller", agg="max"
    ),
    "repro_runtime_autoscale_min_workers": Family(
        "gauge", "Controller scale-down floor", agg="max"
    ),
    "repro_runtime_autoscale_max_workers": Family(
        "gauge", "Controller scale-up ceiling", agg="max"
    ),
    "repro_runtime_autoscale_evaluations_total": Family(
        "counter", "Controller evaluation ticks"
    ),
    "repro_runtime_autoscale_decisions_total": Family(
        "counter", "Layout-changing decisions by action", ("action",)
    ),
    "repro_runtime_autoscale_skew_score": Family(
        "gauge", "Last tick's per-worker load skew (1 - mean/max)", agg="max"
    ),
    "repro_runtime_autoscale_drift_score": Family(
        "gauge", "Last tick's edge-type-mix drift vs the layout baseline", agg="max"
    ),
    "repro_runtime_autoscale_backpressure_seconds": Family(
        "gauge", "Last tick's mean blocking batch-put latency", agg="max"
    ),
    "repro_runtime_autoscale_cooldown_ticks": Family(
        "gauge", "Evaluation ticks remaining in the post-action cooldown", agg="max"
    ),
}

# Families every engine snapshot must carry (single-process and per-worker
# alike).  Runtime families additionally appear in sharded aggregates.
REQUIRED_ENGINE_FAMILIES = (
    "repro_engine_edges_ingested_total",
    "repro_engine_edges_evicted_total",
    "repro_engine_chunks_processed_total",
    "repro_engine_matches_total",
    "repro_engine_partial_matches",
    "repro_graph_live_edges",
    "repro_graph_live_vertices",
    "repro_graph_window_width_seconds",
    "repro_persistence_checkpoints_total",
)
REQUIRED_RUNTIME_FAMILIES = (
    "repro_runtime_workers",
    "repro_runtime_events_streamed_total",
    "repro_runtime_worker_alive",
    "repro_runtime_worker_queue_depth",
)
# Families an autoscale-armed run must additionally expose.
REQUIRED_AUTOSCALE_FAMILIES = (
    "repro_runtime_autoscale_workers",
    "repro_runtime_autoscale_min_workers",
    "repro_runtime_autoscale_max_workers",
    "repro_runtime_autoscale_evaluations_total",
)

_ENVELOPE_KEYS = ("seq", "unix_time", "events_processed", "families")


def _family_value(families: Dict[str, dict], name: str) -> Optional[float]:
    entry = families.get(name)
    if not entry:
        return None
    samples = entry.get("samples") or ()
    if not samples:
        return None
    return samples[0].get("value")


def _validate_autoscale_consistency(families: Dict[str, dict]) -> None:
    """Cross-family invariants of the ``repro_runtime_autoscale_*`` group.

    The worker-count gauge must sit inside the policy band the same
    snapshot advertises, and layout-changing decisions can never exceed
    evaluation ticks. Applied whenever the group is present (the gauges
    travel together), required when the caller passes
    ``expect_autoscale=True``.
    """
    workers = _family_value(families, "repro_runtime_autoscale_workers")
    if workers is None:
        return
    low = _family_value(families, "repro_runtime_autoscale_min_workers")
    high = _family_value(families, "repro_runtime_autoscale_max_workers")
    if low is None or high is None:
        raise ValueError(
            "repro_runtime_autoscale_workers present without the "
            "min/max band gauges"
        )
    if not low <= workers <= high:
        raise ValueError(
            f"autoscale workers gauge {workers} outside band [{low}, {high}]"
        )
    evaluations = _family_value(
        families, "repro_runtime_autoscale_evaluations_total"
    )
    decisions_entry = families.get("repro_runtime_autoscale_decisions_total")
    if decisions_entry is not None and evaluations is not None:
        decided = sum(
            sample["value"] for sample in decisions_entry.get("samples", ())
        )
        if decided > evaluations:
            raise ValueError(
                f"autoscale decisions ({decided}) exceed evaluations "
                f"({evaluations})"
            )


def validate_snapshot(
    families: Dict[str, dict],
    *,
    expect_runtime: bool = False,
    expect_autoscale: bool = False,
) -> None:
    """Check one snapshot dict against the catalog.

    Every family must be declared in :data:`KNOWN_FAMILIES` and carry
    its declared type, help, labels and (gauges only) ``agg``; every
    histogram sample its declared bounds.
    """
    if not isinstance(families, dict):
        raise ValueError(f"snapshot is {type(families).__name__}, expected dict")
    required: Tuple[str, ...] = REQUIRED_ENGINE_FAMILIES
    if expect_runtime:
        required = required + REQUIRED_RUNTIME_FAMILIES
    if expect_autoscale:
        required = required + REQUIRED_AUTOSCALE_FAMILIES
    for name in required:
        if name not in families:
            raise ValueError(f"snapshot missing required family {name!r}")
    _validate_autoscale_consistency(families)
    for name, entry in families.items():
        spec = KNOWN_FAMILIES.get(name)
        if spec is None:
            raise ValueError(f"{name}: not a declared family")
        kind = spec.kind
        declared = (
            ("type", kind),
            ("help", spec.help),
            ("labels", list(spec.labels)),
            ("agg", spec.agg if kind == "gauge" else None),
        )
        for key, value in declared:
            if entry.get(key) != value:
                raise ValueError(
                    f"{name}: {key} {entry.get(key)!r}, declared {value!r}"
                )
        for sample in entry.get("samples", ()):
            if len(sample.get("labels", ())) != len(spec.labels):
                raise ValueError(f"{name}: sample/family label arity mismatch")
            if kind == "histogram":
                if sample["bounds"] != list(spec.bounds):
                    raise ValueError(f"{name}: histogram bounds differ from declared")
                if len(sample["counts"]) != len(sample["bounds"]) + 1:
                    raise ValueError(f"{name}: histogram counts/bounds mismatch")
                if sum(sample["counts"]) != sample["count"]:
                    raise ValueError(f"{name}: histogram count disagrees with buckets")
            elif not isinstance(sample.get("value"), (int, float)):
                raise ValueError(f"{name}: sample value must be numeric")


def _counter_values(families: Dict[str, dict]) -> Dict[Tuple[str, ...], float]:
    out: Dict[Tuple[str, ...], float] = {}
    for name, entry in families.items():
        if entry.get("type") != "counter":
            continue
        for sample in entry.get("samples", ()):
            out[(name, *sample["labels"])] = sample["value"]
    return out


def validate_jsonl_lines(
    lines: Iterable[str],
    *,
    expect_runtime: bool = False,
    expect_autoscale: bool = False,
    expect_final_events: Optional[int] = None,
    expect_final_matches: Optional[int] = None,
) -> List[dict]:
    """Validate a metrics JSONL stream end to end.

    Checks per line: envelope keys, snapshot structure, contiguous
    ``seq``, non-decreasing ``events_processed``, and that no counter
    sample ever decreases between consecutive snapshots.  One sanctioned
    exception: an online shard-layout rebalance re-cuts every worker
    from per-query state slices, renormalizing worker-side lifetime
    counters — when ``repro_runtime_rebalances_total`` increased since
    the previous snapshot, non-``repro_runtime_*`` counter decreases are
    accepted for that transition (coordinator-side counters live across
    re-cuts and must stay monotone regardless).  Optionally pins
    the final snapshot's ingested-edge total and summed per-query match
    total (the "consistent with describe()" check of the CI smoke leg).
    Returns the parsed envelopes.
    """
    envelopes: List[dict] = []
    previous_counters: Optional[Dict[Tuple[str, ...], float]] = None
    previous_events = -1
    previous_rebalances: Optional[float] = None
    for lineno, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            envelope = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: not valid JSON ({exc})") from None
        for key in _ENVELOPE_KEYS:
            if key not in envelope:
                raise ValueError(f"line {lineno}: envelope missing {key!r}")
        if envelope["seq"] != len(envelopes):
            raise ValueError(
                f"line {lineno}: seq {envelope['seq']} != expected {len(envelopes)}"
            )
        events = envelope["events_processed"]
        if events is not None:
            if events < previous_events:
                raise ValueError(
                    f"line {lineno}: events_processed went backwards "
                    f"({previous_events} -> {events})"
                )
            previous_events = events
        families = envelope["families"]
        validate_snapshot(
            families,
            expect_runtime=expect_runtime,
            expect_autoscale=expect_autoscale,
        )
        counters = _counter_values(families)
        rebalances = _family_value(families, "repro_runtime_rebalances_total")
        migrated = (
            rebalances is not None
            and previous_rebalances is not None
            and rebalances > previous_rebalances
        )
        if previous_counters is not None:
            for key, value in counters.items():
                before = previous_counters.get(key)
                if before is not None and value < before:
                    if migrated and not key[0].startswith("repro_runtime_"):
                        continue  # worker state re-cut by the rebalance
                    raise ValueError(
                        f"line {lineno}: counter {key} decreased "
                        f"({before} -> {value})"
                    )
        previous_counters = counters
        if rebalances is not None:
            previous_rebalances = rebalances
        envelopes.append(envelope)
    if not envelopes:
        raise ValueError("no snapshots emitted")
    final = envelopes[-1]["families"]
    if expect_final_events is not None:
        # Sharded aggregates sum per-shard ingest counts (workers only see
        # their routed edges), so the stream position lives in the
        # coordinator's counter there; single-process runs ingest everything.
        family = (
            "repro_runtime_events_streamed_total"
            if expect_runtime
            else "repro_engine_edges_ingested_total"
        )
        got = final[family]["samples"][0]["value"]
        if got != expect_final_events:
            raise ValueError(
                f"final {family} {got} != expected {expect_final_events}"
            )
    if expect_final_matches is not None:
        got = sum(
            sample["value"]
            for sample in final["repro_engine_matches_total"]["samples"]
        )
        if got != expect_final_matches:
            raise ValueError(
                f"final matches_total {got} != expected {expect_final_matches}"
            )
    return envelopes


def validate_jsonl_file(
    path: "str | os.PathLike[str]",
    *,
    expect_runtime: bool = False,
    expect_autoscale: bool = False,
    expect_final_events: Optional[int] = None,
    expect_final_matches: Optional[int] = None,
) -> List[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return validate_jsonl_lines(
            fh,
            expect_runtime=expect_runtime,
            expect_autoscale=expect_autoscale,
            expect_final_events=expect_final_events,
            expect_final_matches=expect_final_matches,
        )
