"""Command-line interface.

Mirrors the paper's two-step workflow and adds dataset generation::

    repro-graph generate --dataset netflow --events 20000 --out stream.tsv
    repro-graph stats    --stream stream.tsv
    repro-graph decompose --stream stream.tsv --query q.txt --strategy path \
                          --out q.sjtree
    repro-graph run      --stream stream.tsv --query q.txt --strategy auto \
                          --warmup-fraction 0.25 --window 100

``run`` prints every complete match as it is found, then a summary with
the strategy decision and the profile split. ``--query`` may be repeated
to register several continuous queries over the same stream;
``--workers N`` (N > 1) executes them on the query-sharded parallel
runtime (:mod:`repro.runtime`), and ``--batch-size`` sizes both the
chunked stream reader and the per-worker ingest batches.

Durability and shard-layout migration: ``run --checkpoint-dir`` rolls
checkpoints, ``resume`` continues one — at the recorded layout or, with
``--workers M``, at any other worker count (checkpoints are
layout-independent) — ``rebalance`` re-cuts a checkpoint directory
offline, and ``run --rebalance-every N`` re-cuts the live shard layout
from current statistics every N events.

Resilience: ``--supervise`` (with ``--workers >= 2``) arms the
self-healing supervisor — crashed workers are respawned from recovery
checkpoints and their pending work replayed, with no change to the
emitted records; ``--max-restarts`` bounds the per-worker budget. The
``REPRO_FAULTS`` environment variable injects deterministic faults for
chaos testing (:mod:`repro.runtime.faults`). ``--on-bad-record``
chooses what a malformed stream line does: ``fail`` (default), ``skip``
(count and drop) or ``quarantine`` (also append to the
``--quarantine-file`` dead-letter JSONL).
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

from .datasets import (
    ON_BAD_RECORD,
    BadRecordLog,
    LSBenchGenerator,
    NetflowGenerator,
    NYTGenerator,
    chunk_events,
    count_stream_events,
    read_stream,
    split_stream,
    write_stream,
)
from .errors import CheckpointError
from .persistence import manifest as ckpt_manifest
from .query.parser import parse_query
from .query.query_graph import QueryGraph
from .runtime import AutoscalePolicy, FaultPlan, RestartPolicy, ShardedEngine
from .search.engine import ContinuousQueryEngine, EngineConfig
from .sjtree import builder as sjtree_builder
from .sjtree import serialize as sjtree_serialize
from .stats.estimator import SelectivityEstimator
from .telemetry import MetricsHTTPServer, MetricsJSONLWriter

_GENERATORS = {
    "netflow": NetflowGenerator,
    "lsbench": LSBenchGenerator,
    "nyt": NYTGenerator,
}


def _cmd_generate(args: argparse.Namespace) -> int:
    generator = _GENERATORS[args.dataset](num_events=args.events, seed=args.seed)
    count = write_stream(args.out, generator.events())
    print(f"wrote {count} events to {args.out}")
    return 0


def _load_estimator(path: str, warmup_fraction: float) -> tuple[list, list]:
    events = list(read_stream(path))
    return split_stream(events, warmup_fraction)


def _cmd_stats(args: argparse.Namespace) -> int:
    estimator = SelectivityEstimator()
    estimator.observe_events(read_stream(args.stream))
    print(estimator.describe(top=args.top))
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    query = parse_query(Path(args.query).read_text(encoding="utf-8"))
    query.name = Path(args.query).stem
    warmup, _ = _load_estimator(args.stream, args.warmup_fraction)
    estimator = SelectivityEstimator()
    estimator.observe_events(warmup)
    tree = sjtree_builder.build_sj_tree(query, estimator, args.strategy)
    print(tree.describe())
    if args.out:
        sjtree_serialize.save(tree, args.out)
        print(f"saved SJ-Tree to {args.out}")
    return 0


def _load_queries(paths: Sequence[str]) -> List[QueryGraph]:
    queries = []
    taken = set()
    for qpath in paths:
        query = parse_query(Path(qpath).read_text(encoding="utf-8"))
        # name by file stem; disambiguate same-stem files from different
        # directories (engine registration requires unique names)
        name = Path(qpath).stem
        candidate, suffix = name, 2
        while candidate in taken:
            candidate = f"{name}-{suffix}"
            suffix += 1
        taken.add(candidate)
        query.name = candidate
        queries.append(query)
    return queries


def _print_match(record, shown: int, max_print: int) -> None:
    if shown < max_print:
        mapping = ", ".join(
            f"v{qv}={dv}" for qv, dv in sorted(record.match.vertex_map.items())
        )
        print(f"match @t={record.completed_at:.4f}: {mapping}")


class _MetricsPump:
    """Periodic metric collection: JSONL emission + cached HTTP snapshot.

    ``collect`` yields a snapshot dict (``engine.metrics().collect()``).
    The HTTP thread only ever serialises :attr:`latest` — a whole-dict
    rebind swapped by :meth:`pump`, safe under the GIL — so it can never
    race the engine or the sharded coordinator's queue protocol.
    """

    def __init__(self, args: argparse.Namespace, collect) -> None:
        self.every: Optional[int] = getattr(args, "metrics_every", None)
        self._collect = collect
        self.latest: dict = {}
        out = getattr(args, "metrics_out", None)
        self.writer = MetricsJSONLWriter(out) if out is not None else None
        self.server = None
        port = getattr(args, "metrics_port", None)
        if port is not None:
            self.server = MetricsHTTPServer(lambda: self.latest, port=port)
            self.server.start()
            print(f"metrics: serving http://127.0.0.1:{self.server.port}/metrics")

    def pump(self, events_processed: int) -> None:
        self.latest = self._collect()
        if self.writer is not None:
            self.writer.emit(self.latest, events_processed=events_processed)

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
        if self.server is not None:
            self.server.close()


def _make_pump(args: argparse.Namespace, collect) -> Optional[_MetricsPump]:
    """A pump when any metrics sink was requested, else None."""
    if (
        getattr(args, "metrics_out", None) is None
        and getattr(args, "metrics_port", None) is None
    ):
        return None
    return _MetricsPump(args, collect)


def _bad_record_log(args: argparse.Namespace) -> Optional[BadRecordLog]:
    """A :class:`BadRecordLog` when a non-default policy was requested."""
    policy = getattr(args, "on_bad_record", "fail")
    if policy == "fail":
        return None
    return BadRecordLog(
        policy, quarantine_path=getattr(args, "quarantine_file", None)
    )


def _ingest_families(bad_records: Optional[BadRecordLog]) -> dict:
    """The ``repro_ingest_*`` snapshot families for the metrics pump."""
    if bad_records is None:
        return {}
    from .telemetry.registry import MetricsRegistry

    counts = bad_records.metrics()
    reg = MetricsRegistry()
    reg.family("repro_ingest_bad_records_total").slot.inc(counts["bad_records"])
    reg.family("repro_ingest_quarantined_records_total").slot.inc(
        counts["quarantined"]
    )
    return reg.collect()


def _restart_policy(args: argparse.Namespace) -> Optional[RestartPolicy]:
    max_restarts = getattr(args, "max_restarts", None)
    if max_restarts is None:
        return None
    return RestartPolicy(max_restarts=max_restarts)


def _autoscale_policy(args: argparse.Namespace) -> Optional[AutoscalePolicy]:
    """Build the run's AutoscalePolicy from the --autoscale* knobs.

    The launch worker count is the default scale-up ceiling — the
    controller sheds workers the workload cannot use and re-adds them up
    to what the operator originally sized, never past it unless
    ``--autoscale-max`` raises the band explicitly.
    """
    if not getattr(args, "autoscale", False):
        return None
    defaults = AutoscalePolicy()
    return AutoscalePolicy(
        min_workers=(
            args.autoscale_min
            if args.autoscale_min is not None
            else defaults.min_workers
        ),
        max_workers=(
            args.autoscale_max if args.autoscale_max is not None else args.workers
        ),
        evaluate_every=(
            args.autoscale_every
            if args.autoscale_every is not None
            else defaults.evaluate_every
        ),
        cooldown=(
            args.autoscale_cooldown
            if args.autoscale_cooldown is not None
            else defaults.cooldown
        ),
        skew_threshold=(
            args.autoscale_skew
            if args.autoscale_skew is not None
            else defaults.skew_threshold
        ),
        drift_threshold=(
            args.autoscale_drift
            if args.autoscale_drift is not None
            else defaults.drift_threshold
        ),
        backpressure_seconds=(
            args.autoscale_backpressure
            if args.autoscale_backpressure is not None
            else defaults.backpressure_seconds
        ),
    )


def _finish_bad_records(bad_records: Optional[BadRecordLog]) -> None:
    """Close the dead-letter file and print the disposition line."""
    if bad_records is None:
        return
    bad_records.close()
    line = bad_records.summary()
    if line is not None:
        print(line)


def _drive_single(
    engine: ContinuousQueryEngine,
    events,
    args: argparse.Namespace,
    *,
    cursor_base: int,
    start_sequence: int,
    pump: Optional[_MetricsPump] = None,
) -> int:
    """Chunked single-process processing with optional rolling checkpoints.

    Returns the number of events processed. Checkpoints land exactly
    every ``--checkpoint-every`` events (segment boundaries cut the batch
    chunks), plus a final one at end of stream, so a ``resume`` replays
    nothing that a completed checkpoint already covers. The metrics
    cadence slices segments independently — both cadences count from
    their own last cut, so neither shifts the other's boundaries — and a
    final snapshot is always emitted at end of stream.
    """
    shown = 0
    processed = 0
    sequence = start_sequence
    since_checkpoint = 0
    since_metrics = 0
    first = True
    metrics_every = pump.every if pump is not None else None
    while True:
        take = None
        if args.checkpoint_every is not None:
            take = args.checkpoint_every - since_checkpoint
        if metrics_every is not None:
            until_metrics = metrics_every - since_metrics
            take = until_metrics if take is None else min(take, until_metrics)
        remaining = None if args.limit is None else max(args.limit - processed, 0)
        if take is None:
            take = remaining
        elif remaining is not None:
            take = min(take, remaining)
        count = 0
        for chunk in chunk_events(itertools.islice(events, take), args.batch_size):
            for record in engine.process_events(chunk):
                _print_match(record, shown, args.max_print)
                shown += 1
            count += len(chunk)
        processed += count
        since_checkpoint += count
        since_metrics += count
        ending = (
            take is None
            or count < take
            or (args.limit is not None and processed >= args.limit)
        )
        checkpoint_due = (
            args.checkpoint_every is not None
            and since_checkpoint >= args.checkpoint_every
        )
        if args.checkpoint_dir is not None and (
            checkpoint_due or (ending and (since_checkpoint or first))
        ):
            sequence += 1
            ckpt_manifest.write_single_checkpoint(
                args.checkpoint_dir,
                engine,
                sequence=sequence,
                cursor=cursor_base + processed,
                batch_size=args.batch_size,
            )
            since_checkpoint = 0
        if pump is not None and (
            ending or (metrics_every is not None and since_metrics >= metrics_every)
        ):
            pump.pump(processed)
            since_metrics = 0
        first = False
        if ending:
            break  # stream exhausted or --limit reached
    return processed


def _drive_sharded(
    engine: ShardedEngine,
    events,
    args: argparse.Namespace,
    *,
    cursor_base: int,
    pump: Optional[_MetricsPump] = None,
) -> tuple[int, int]:
    """Segmented sharded processing with optional rolling checkpoints.

    Returns ``(events_processed, records_emitted)``. Each segment is one
    coordinator :meth:`~repro.runtime.ShardedEngine.run` (which collects
    all worker records, making the following checkpoint — or shard
    rebalance — a clean cut). Segments are cut at whichever of
    ``--checkpoint-every`` / ``--rebalance-every`` / ``--limit`` lands
    first; checkpoints still fall exactly every ``--checkpoint-every``
    processed events (plus one at end of stream), no matter how the
    rebalance cadence slices the segments.
    """
    shown = 0
    processed = 0
    records = 0
    since_checkpoint = 0
    since_rebalance = 0
    since_metrics = 0
    first = True
    rebalance_every = getattr(args, "rebalance_every", None)
    metrics_every = pump.every if pump is not None else None
    while True:
        # Next cut: whichever of the checkpoint cadence, rebalance cadence,
        # metrics cadence and --limit lands first. Cadences count from
        # their *last* cut, not from the segment start — a rebalance
        # mid-interval must not push the next checkpoint out (see the
        # cadence test).
        take = None
        if args.checkpoint_every is not None:
            take = args.checkpoint_every - since_checkpoint
        if rebalance_every is not None:
            until_rebalance = rebalance_every - since_rebalance
            take = until_rebalance if take is None else min(take, until_rebalance)
        if metrics_every is not None:
            until_metrics = metrics_every - since_metrics
            take = until_metrics if take is None else min(take, until_metrics)
        remaining = None if args.limit is None else max(args.limit - processed, 0)
        if take is None:
            take = remaining
        elif remaining is not None:
            take = min(take, remaining)
        segment = events if take is None else itertools.islice(events, take)
        result = engine.run(segment)
        for record in result.records:
            _print_match(record, shown, args.max_print)
            shown += 1
        records += len(result.records)
        processed += result.edges_processed
        since_checkpoint += result.edges_processed
        since_rebalance += result.edges_processed
        since_metrics += result.edges_processed
        ending = (
            take is None
            or result.edges_processed < take
            or (args.limit is not None and processed >= args.limit)
        )
        checkpoint_due = (
            args.checkpoint_every is not None
            and since_checkpoint >= args.checkpoint_every
        )
        if args.checkpoint_dir is not None and (
            checkpoint_due or (ending and (since_checkpoint or first))
        ):
            engine.checkpoint(args.checkpoint_dir, cursor=cursor_base + processed)
            since_checkpoint = 0
        if pump is not None and (
            ending or (metrics_every is not None and since_metrics >= metrics_every)
        ):
            pump.pump(processed)
            since_metrics = 0
        first = False
        if ending:
            break
        if rebalance_every is not None and since_rebalance >= rebalance_every:
            engine.rebalance(cursor=cursor_base + processed)
            since_rebalance = 0
    return processed, records


def _validate_run_options(args: argparse.Namespace) -> None:
    if args.batch_size < 1:
        raise ValueError(f"--batch-size must be >= 1, got {args.batch_size}")
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"--limit must be >= 0, got {args.limit}")
    if args.checkpoint_every is not None:
        if args.checkpoint_every < 1:
            raise ValueError(
                f"--checkpoint-every must be >= 1, got {args.checkpoint_every}"
            )
        if args.checkpoint_dir is None:
            raise ValueError("--checkpoint-every requires --checkpoint-dir")
    rebalance_every = getattr(args, "rebalance_every", None)
    if rebalance_every is not None:
        if rebalance_every < 1:
            raise ValueError(f"--rebalance-every must be >= 1, got {rebalance_every}")
        if getattr(args, "workers", 1) < 2:
            raise ValueError(
                "--rebalance-every applies to the sharded runtime; "
                "pass --workers >= 2"
            )
    if getattr(args, "autoscale", False):
        if getattr(args, "workers", 1) < 2:
            raise ValueError(
                "--autoscale applies to the sharded runtime; pass --workers >= 2"
            )
    else:
        set_knobs = [
            flag
            for flag, attr in (
                ("--autoscale-min", "autoscale_min"),
                ("--autoscale-max", "autoscale_max"),
                ("--autoscale-every", "autoscale_every"),
                ("--autoscale-cooldown", "autoscale_cooldown"),
                ("--autoscale-skew", "autoscale_skew"),
                ("--autoscale-drift", "autoscale_drift"),
                ("--autoscale-backpressure", "autoscale_backpressure"),
            )
            if getattr(args, attr, None) is not None
        ]
        if set_knobs:
            raise ValueError(f"{set_knobs[0]} requires --autoscale")
    metrics_every = getattr(args, "metrics_every", None)
    if metrics_every is not None:
        if metrics_every < 1:
            raise ValueError(f"--metrics-every must be >= 1, got {metrics_every}")
        if (
            getattr(args, "metrics_out", None) is None
            and getattr(args, "metrics_port", None) is None
        ):
            raise ValueError(
                "--metrics-every requires a sink (--metrics-out or --metrics-port)"
            )
    metrics_port = getattr(args, "metrics_port", None)
    if metrics_port is not None and metrics_port < 0:
        raise ValueError(f"--metrics-port must be >= 0, got {metrics_port}")
    max_restarts = getattr(args, "max_restarts", None)
    if max_restarts is not None:
        if max_restarts < 0:
            raise ValueError(f"--max-restarts must be >= 0, got {max_restarts}")
        if not getattr(args, "supervise", False):
            raise ValueError("--max-restarts requires --supervise")
    if getattr(args, "supervise", False):
        # run knows its worker count up front; resume resolves it from
        # the manifest and re-checks in _cmd_resume.
        workers = getattr(args, "workers", None)
        if workers is not None and workers < 2:
            raise ValueError(
                "--supervise applies to the sharded runtime; pass --workers >= 2"
            )
    policy = getattr(args, "on_bad_record", "fail")
    quarantine_file = getattr(args, "quarantine_file", None)
    if policy == "quarantine" and quarantine_file is None:
        raise ValueError("--on-bad-record quarantine requires --quarantine-file")
    if quarantine_file is not None and policy != "quarantine":
        raise ValueError("--quarantine-file requires --on-bad-record quarantine")


def _run_sharded_and_describe(
    engine: ShardedEngine,
    events,
    args: argparse.Namespace,
    *,
    cursor_base: int,
    bad_records: Optional[BadRecordLog] = None,
) -> tuple[int, int, float]:
    """Drive a sharded engine, print its describe() block, close it.

    Shared by ``run --workers N`` and ``resume``; returns
    ``(events_processed, records_emitted, elapsed_seconds)`` for the
    caller's closing summary line. Under ``--supervise`` a recovery
    summary (restart counts per worker) is printed after describe().
    """
    started = time.perf_counter()
    pump = _make_pump(
        args,
        lambda: {**engine.metrics().collect(), **_ingest_families(bad_records)},
    )
    try:
        processed, records = _drive_sharded(
            engine, events, args, cursor_base=cursor_base, pump=pump
        )
        elapsed = time.perf_counter() - started
        print()
        print(engine.describe())
        supervisor = engine._supervisor
        if supervisor is not None:
            restarts = supervisor.total_restarts
            detail = ""
            if restarts:
                detail = " (" + ", ".join(
                    f"worker {worker_id}: {count}"
                    for worker_id, count in sorted(
                        supervisor.restarts_by_worker.items()
                    )
                ) + ")"
            print(f"supervision: {restarts} worker restart(s){detail}")
        autoscaler = engine.autoscaler
        if autoscaler is not None:
            scaled = autoscaler.actions()
            print(
                f"autoscaling: {autoscaler.evaluations} evaluation(s), "
                f"{len(scaled)} scale decision(s), "
                f"final workers={engine.workers}"
            )
        if getattr(args, "profile", False):
            # one more coordinator round-trip; must happen before close()
            _print_sharded_profile(engine.metrics().collect())
    finally:
        if pump is not None:
            pump.close()
        engine.close()
    return processed, records, elapsed


def _print_sharded_summary(
    records: int, processed: int, elapsed: float, suffix: str
) -> None:
    print()
    print(f"{records} matches over {processed} edges in {elapsed:.3f}s ({suffix})")


def _print_single_summary(engine: ContinuousQueryEngine, *, profile: bool) -> None:
    print()
    print(engine.describe())
    registered = list(engine.queries.values())
    for reg in registered:
        if reg.decision is not None:
            print(reg.decision.explain())
    if not profile:
        return
    print()
    print("profile:")
    print("[kernel stages]")
    print(engine.kernel_profile.report())
    for reg in registered:
        if len(registered) > 1:
            print(f"[{reg.name}]")
        print(reg.profile.report())


def _profile_rows(rows: list) -> str:
    """Render ``(name, seconds, calls)`` rows ProfileCounters-style."""
    total = sum(seconds for _, seconds, _ in rows)
    lines = []
    for name, seconds, calls in rows:
        share = (seconds / total * 100.0) if total else 0.0
        lines.append(f"{name:12s} {seconds:10.4f}s {share:5.1f}% ({calls} calls)")
    return "\n".join(lines) if lines else "(no phases recorded)"


def _print_sharded_profile(snapshot: dict) -> None:
    """Per-stage and per-query phase timings, summed across workers.

    Reads the aggregated metrics snapshot rather than shipping
    ProfileCounters objects back — the registries already crossed the
    result queue as plain dicts.
    """

    def samples(family: str) -> dict:
        entry = snapshot.get(family)
        if entry is None:
            return {}
        return {tuple(s["labels"]): s["value"] for s in entry["samples"]}

    print()
    print("profile:")
    stage_seconds = samples("repro_engine_stage_seconds_total")
    stage_calls = samples("repro_engine_stage_calls_total")
    if stage_seconds:
        print("[kernel stages]")
        print(
            _profile_rows(
                [
                    (labels[0], seconds, int(stage_calls.get(labels, 0)))
                    for labels, seconds in sorted(stage_seconds.items())
                ]
            )
        )
    phase_seconds = samples("repro_engine_query_phase_seconds_total")
    phase_calls = samples("repro_engine_query_phase_calls_total")
    for query in sorted({labels[0] for labels in phase_seconds}):
        print(f"[{query}]")
        print(
            _profile_rows(
                [
                    (phase, seconds, int(phase_calls.get((query, phase), 0)))
                    for (name, phase), seconds in sorted(phase_seconds.items())
                    if name == query
                ]
            )
        )


def _cmd_run(args: argparse.Namespace) -> int:
    if not 0.0 <= args.warmup_fraction <= 1.0:
        raise ValueError(
            f"warmup fraction must be within [0, 1], got {args.warmup_fraction}"
        )
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    _validate_run_options(args)
    queries = _load_queries(args.query)
    config = EngineConfig(
        window=math.inf if args.window is None else args.window,
        profile_phases=args.profile,
    )
    # Two-pass ingest: one cheap line-count pass sizes the warmup prefix,
    # then a single parse pass feeds the estimator and — continuing on the
    # same iterator — the engine, never materialising the whole stream.
    total = count_stream_events(args.stream)
    warm_n = int(total * args.warmup_fraction)
    bad_records = _bad_record_log(args)
    events = read_stream(args.stream, bad_records=bad_records)
    warmup = itertools.islice(events, warm_n)

    if args.workers > 1:
        engine = ShardedEngine(
            config=config,
            workers=args.workers,
            batch_size=args.batch_size,
            partitioner=args.partitioner,
            supervise=args.supervise,
            restart_policy=_restart_policy(args),
            fault_plan=FaultPlan.from_env(),
            autoscale=_autoscale_policy(args),
        )
        engine.warmup(warmup)
        specs = [engine.register(query, strategy=args.strategy) for query in queries]
        # the coordinator batches per worker itself; feed it the
        # remaining events straight off the parse iterator
        processed, records, elapsed = _run_sharded_and_describe(
            engine, events, args, cursor_base=warm_n, bad_records=bad_records
        )
        for spec in specs:
            if spec.decision is not None:
                print(spec.decision.explain())
        _finish_bad_records(bad_records)
        _print_sharded_summary(
            records,
            processed,
            elapsed,
            f"{args.workers} workers, batch={args.batch_size}",
        )
        return 0

    engine = ContinuousQueryEngine(config=config)
    engine.warmup(warmup)
    for query in queries:
        engine.register(query, strategy=args.strategy)
    pump = _make_pump(
        args,
        lambda: {**engine.metrics().collect(), **_ingest_families(bad_records)},
    )
    try:
        _drive_single(
            engine, events, args, cursor_base=warm_n, start_sequence=0, pump=pump
        )
    finally:
        if pump is not None:
            pump.close()
    _finish_bad_records(bad_records)
    _print_single_summary(engine, profile=args.profile)
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    _validate_run_options(args)
    queries = _load_queries(args.query)
    manifest = ckpt_manifest.read_manifest(args.checkpoint_dir)
    cursor = manifest["cursor"]
    bad_records = _bad_record_log(args)
    events = read_stream(args.stream, bad_records=bad_records)
    skipped = sum(1 for _ in itertools.islice(events, cursor))
    if skipped < cursor:
        raise CheckpointError(
            f"stream {args.stream} has only {skipped} events but the "
            f"checkpoint cursor is at {cursor}; wrong --stream file?"
        )

    # the restored engine takes its window from the checkpoint
    config = EngineConfig(profile_phases=args.profile)
    migrating = args.workers is not None or args.partitioner is not None
    if manifest["mode"] == ckpt_manifest.MODE_SHARDED or migrating:
        # Checkpoints are layout-independent: --workers resumes at any
        # M >= 1 (the directory is re-cut in place first), including a
        # single-mode checkpoint migrated onto the sharded runtime.
        engine = ShardedEngine.resume(
            args.checkpoint_dir,
            queries,
            workers=args.workers,
            partitioner=args.partitioner,
            supervise=args.supervise,
            restart_policy=_restart_policy(args),
            fault_plan=FaultPlan.from_env(),
            config=config,
        )
        processed, records, elapsed = _run_sharded_and_describe(
            engine, events, args, cursor_base=cursor, bad_records=bad_records
        )
        _finish_bad_records(bad_records)
        _print_sharded_summary(
            records,
            processed,
            elapsed,
            f"resumed at event {cursor}, {engine.workers} workers",
        )
        return 0

    if args.supervise:
        raise ValueError(
            "--supervise applies to the sharded runtime; this checkpoint "
            "resumes in-process (pass --workers >= 2 to migrate it)"
        )
    single, _ = ckpt_manifest.load_single_checkpoint(
        args.checkpoint_dir, queries, config=config
    )
    pump = _make_pump(
        args,
        lambda: {**single.metrics().collect(), **_ingest_families(bad_records)},
    )
    try:
        processed = _drive_single(
            single,
            events,
            args,
            cursor_base=cursor,
            start_sequence=manifest["sequence"],
            pump=pump,
        )
    finally:
        if pump is not None:
            pump.close()
    _finish_bad_records(bad_records)
    _print_single_summary(single, profile=args.profile)
    print(f"(resumed at event {cursor}; processed {processed} more)")
    return 0


def _cmd_rebalance(args: argparse.Namespace) -> int:
    """Re-cut a checkpoint directory for a new worker count, offline."""
    from .persistence.migrate import migrate_checkpoint

    if args.workers is not None and args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    queries = _load_queries(args.query)
    manifest = ckpt_manifest.read_manifest(args.checkpoint_dir)
    workers = args.workers if args.workers is not None else manifest["workers"]
    new_manifest = migrate_checkpoint(
        args.checkpoint_dir,
        queries,
        workers=workers,
        partitioner=args.partitioner,
        out=args.out,
    )
    where = args.out if args.out is not None else args.checkpoint_dir
    print(
        f"rebalanced checkpoint {args.checkpoint_dir} "
        f"({manifest['workers']} -> {new_manifest['workers']} workers, "
        f"partitioner={new_manifest['partitioner']}) into {where}"
    )
    names = {entry["position"]: entry["name"] for entry in new_manifest["queries"]}
    for shard in new_manifest["shards"]:
        placed = ", ".join(names[p] for p in shard["positions"])
        print(f"  shard {shard['worker_id']}: queries=[{placed}]")
    print(
        f"resume with: repro-graph resume --checkpoint-dir {where} "
        "--stream ... --query ..."
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-graph",
        description=(
            "Continuous subgraph pattern detection on streaming graphs "
            "(EDBT 2015 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic stream to TSV")
    p_gen.add_argument("--dataset", choices=sorted(_GENERATORS), required=True)
    p_gen.add_argument("--events", type=int, default=20_000)
    p_gen.add_argument("--seed", type=int, default=7)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_generate)

    p_stats = sub.add_parser("stats", help="selectivity distributions of a stream")
    p_stats.add_argument("--stream", required=True)
    p_stats.add_argument("--top", type=int, default=8)
    p_stats.set_defaults(func=_cmd_stats)

    p_dec = sub.add_parser("decompose", help="build and print an SJ-Tree")
    p_dec.add_argument("--stream", required=True)
    p_dec.add_argument("--query", required=True)
    p_dec.add_argument(
        "--strategy", choices=("single", "path", "mixed"), default="path"
    )
    p_dec.add_argument("--warmup-fraction", type=float, default=0.25)
    p_dec.add_argument("--out", default=None)
    p_dec.set_defaults(func=_cmd_decompose)

    p_run = sub.add_parser("run", help="continuous queries over a stream file")
    p_run.add_argument("--stream", required=True)
    p_run.add_argument(
        "--query",
        required=True,
        action="append",
        help="query file; repeat to register several continuous queries",
    )
    p_run.add_argument("--strategy", default="auto")
    p_run.add_argument("--warmup-fraction", type=float, default=0.25)
    p_run.add_argument("--window", type=float, default=None)
    p_run.add_argument("--max-print", type=int, default=20)
    p_run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for query-sharded execution (1 = in-process)",
    )
    p_run.add_argument(
        "--batch-size",
        type=int,
        default=512,
        help="events per ingest chunk / per worker batch",
    )
    p_run.add_argument(
        "--rebalance-every",
        type=int,
        default=None,
        help=(
            "re-cut the shard layout every N processed events from live "
            "statistics (sharded runtime; requires --workers >= 2)"
        ),
    )
    p_run.add_argument(
        "--partitioner",
        choices=("cost", "round-robin"),
        default="cost",
        help=(
            "query placement policy for the sharded runtime; also the "
            "policy every later re-cut (--rebalance-every, --autoscale) "
            "applies"
        ),
    )
    p_run.add_argument(
        "--autoscale",
        action="store_true",
        help=(
            "elastic controller: evaluate per-worker skew, selectivity "
            "drift and queue backpressure every --autoscale-every events "
            "and rebalance / scale the worker count when thresholds trip "
            "(requires --workers >= 2; output stays record-identical to "
            "a fixed layout)"
        ),
    )
    p_run.add_argument(
        "--autoscale-min",
        type=int,
        default=None,
        help="scale-down floor (default 1)",
    )
    p_run.add_argument(
        "--autoscale-max",
        type=int,
        default=None,
        help="scale-up ceiling (default: the launch --workers count)",
    )
    p_run.add_argument(
        "--autoscale-every",
        type=int,
        default=None,
        help="events between controller evaluation ticks (default 4096)",
    )
    p_run.add_argument(
        "--autoscale-cooldown",
        type=int,
        default=None,
        help="evaluation ticks to hold after a scale decision (default 2)",
    )
    p_run.add_argument(
        "--autoscale-skew",
        type=float,
        default=None,
        help="per-worker load skew (1 - mean/max) that triggers a rebalance "
        "(default 0.35)",
    )
    p_run.add_argument(
        "--autoscale-drift",
        type=float,
        default=None,
        help="edge-type-mix drift vs the layout baseline that triggers a "
        "rebalance (default 0.6)",
    )
    p_run.add_argument(
        "--autoscale-backpressure",
        type=float,
        default=None,
        help="mean blocking batch-put seconds that triggers a scale-up "
        "(default 0.05)",
    )
    _add_durability_arguments(p_run)
    _add_observability_arguments(p_run)
    _add_resilience_arguments(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_resume = sub.add_parser(
        "resume",
        help="continue a checkpointed run from its last completed cut",
        description=(
            "Restore engine state from --checkpoint-dir (written by "
            "'run --checkpoint-dir'), skip the stream up to the saved "
            "cursor and continue processing — emitting exactly the "
            "records the uninterrupted run would have emitted after the "
            "cut. Pass the same --query files the run was started with."
        ),
    )
    p_resume.add_argument("--stream", required=True)
    p_resume.add_argument(
        "--query",
        required=True,
        action="append",
        help="query file; must match the checkpointed query set",
    )
    p_resume.add_argument("--max-print", type=int, default=20)
    p_resume.add_argument(
        "--batch-size",
        type=int,
        default=512,
        help="events per ingest chunk (single-process resume)",
    )
    p_resume.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "resume at a different worker count (any M >= 1; the "
            "checkpoint is re-cut in place before resuming)"
        ),
    )
    p_resume.add_argument(
        "--partitioner",
        choices=("cost", "round-robin"),
        default=None,
        help="repartition policy when re-cutting the shard layout",
    )
    _add_durability_arguments(p_resume, require_dir=True)
    _add_observability_arguments(p_resume)
    _add_resilience_arguments(p_resume)
    p_resume.set_defaults(func=_cmd_resume)

    p_reb = sub.add_parser(
        "rebalance",
        help="re-cut a checkpoint directory for a new worker count",
        description=(
            "Split the per-shard snapshots of --checkpoint-dir into "
            "per-query state slices, repartition the queries over "
            "--workers shards using the statistics the checkpoint "
            "carries (warmup estimator + live window mix), and write "
            "the re-cut snapshots and manifest back (or into --out). "
            "The result is a normal checkpoint directory; resuming it "
            "emits exactly the records the original run would have."
        ),
    )
    p_reb.add_argument(
        "--checkpoint-dir", required=True, help="checkpoint directory to re-cut"
    )
    p_reb.add_argument(
        "--query",
        required=True,
        action="append",
        help="query file; must match the checkpointed query set",
    )
    p_reb.add_argument(
        "--workers",
        type=int,
        default=None,
        help="target worker count (default: keep the checkpoint's count)",
    )
    p_reb.add_argument(
        "--partitioner",
        choices=("cost", "round-robin"),
        default=None,
        help="repartition policy (default: the checkpoint's policy)",
    )
    p_reb.add_argument(
        "--out",
        default=None,
        help=(
            "write the re-cut checkpoint here instead of rewriting "
            "--checkpoint-dir in place"
        ),
    )
    p_reb.set_defaults(func=_cmd_rebalance)
    return parser


def _add_durability_arguments(
    parser: argparse.ArgumentParser, require_dir: bool = False
) -> None:
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        required=require_dir,
        help=(
            "directory for rolling engine checkpoints (written at least "
            "once at end of stream; see --checkpoint-every)"
        ),
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        help="checkpoint every N processed events (requires --checkpoint-dir)",
    )
    parser.add_argument(
        "--limit",
        type=int,
        default=None,
        help="stop after N events (post-warmup; resume continues later)",
    )


def _add_resilience_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--supervise",
        action="store_true",
        help=(
            "self-healing sharded runtime: respawn crashed workers from "
            "recovery checkpoints and replay their pending work, leaving "
            "the emitted records unchanged (requires --workers >= 2)"
        ),
    )
    parser.add_argument(
        "--max-restarts",
        type=int,
        default=None,
        help=(
            "per-worker restart budget before the run fails "
            "(requires --supervise; default 3)"
        ),
    )
    parser.add_argument(
        "--on-bad-record",
        choices=ON_BAD_RECORD,
        default="fail",
        help=(
            "malformed stream lines: fail the run (default), skip them "
            "(counted, sampled), or quarantine them into a dead-letter "
            "JSONL file"
        ),
    )
    parser.add_argument(
        "--quarantine-file",
        default=None,
        help=(
            "dead-letter JSONL file for --on-bad-record quarantine "
            "(one {path, lineno, line, reason} record per bad line)"
        ),
    )


def _add_observability_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "record and print per-stage kernel timings and per-query "
            "phase splits in the closing summary"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        help="stream metric snapshots to this JSONL file (one per cadence cut)",
    )
    parser.add_argument(
        "--metrics-every",
        type=int,
        default=None,
        help=(
            "emit a metrics snapshot every N processed events (requires a "
            "sink; a final snapshot is always emitted at end of stream)"
        ),
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help=(
            "serve /metrics (Prometheus text) and /metrics.json on this "
            "port while the run is live (0 picks an ephemeral port)"
        ),
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
