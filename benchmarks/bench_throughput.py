"""Multi-query engine throughput — the perf-trajectory artefact.

Measures end-to-end edges/sec of :class:`repro.ContinuousQueryEngine` on a
10-query mixed-edge-type workload, comparing:

* **seed path** — the seed engine's configuration, faithfully: dispatch
  disabled, interpretive anchored backtracker (``compiled_plans=False``),
  per-edge ``process_event`` calls and the always-on per-edge phase
  timers the seed engine ran with (``profile_phases=True``);
* **fast path** — the current defaults: type-indexed multi-query dispatch,
  compiled leaf match plans, the allocation-light match pipeline and the
  fused ``process_events`` batch loop, phase timers off.

Both runs must emit the *identical* record stream (asserted here and in
``tests/test_equivalence_property.py``); results are written to
``BENCH_throughput.json`` at the repo root so the performance trajectory
is tracked across PRs. The ``speedup`` ratio (seed/fast elapsed) is
machine-independent and guarded in CI: a drop below 8x at smoke scale
fails the build.

Timing methodology: each path is run :data:`ENGINE_REPEATS` times on a
fresh engine (best elapsed kept, record identity asserted per repeat),
the garbage collector is disabled around the timed stream section of
*both* paths, and the fast path pre-compiles its dispatch programs
(``warm_kernels``) inside the untimed register phase.

Each path also records:

* ``phases`` — wall-clock split of the run (warmup / register / stream);
* ``memory.peak_traced_bytes`` / ``memory.overhead_bytes`` — tracemalloc
  peak and end-of-run live allocation from a *separate* (untimed) rerun
  of the same workload, so the throughput numbers never pay the tracer;
* a top-level ``memory.ru_maxrss_kb`` — the OS peak-RSS high-water mark
  for the whole benchmark process (monotone; recorded once at the end).

A ``kernels`` section breaks the fast configuration down by pipeline
stage — per-edge evict/ingest/dispatch from ``engine.kernel_profile`` plus
the paper's anchor(iso)/join split summed across the registered
queries — and records which columnar backend (numpy or the pure-Python
fallback) encoded the chunks.

A third section, ``worker_scaling``, sweeps the query-sharded parallel
runtime (:class:`repro.runtime.ShardedEngine`) on the same workload —
output again asserted record-identical — and records the machine's CPU
count alongside, because scaling beyond 1x is only physically possible
when the host actually has spare cores. ``REPRO_BENCH_WORKERS`` controls
the sweep: a comma list of worker counts (default ``1,2,4``) or
``0``/``none``/``skip`` to skip it entirely — single-CPU sandboxes can
opt out of measuring the (necessarily <1x) multiprocessing overhead.

A fourth section, ``shard_migration``, kills a 2-worker run mid-stream,
re-cuts its checkpoint for workers ∈ {1, 3} and resumes — asserting the
concatenated records equal the single-process reference and recording
the migrate/resume wall time (what a live ``rebalance`` costs). Skipped
together with the worker sweep.

A fifth section, ``autoscaling``, runs the deliberately skewed two-phase
workload (uniform mix pivoting onto a hot-type set) on a 3-worker engine
with the elastic controller armed, against the same engine with a fixed
layout: the controller must fire at least one scale decision, both runs
must stay record-identical to the serial reference, and the post-skew
steady phase must recover ``recovery_floor`` x the fixed layout's
throughput-per-worker. The controller's decision trail is recorded in
the artefact. Skipped together with the worker sweep.

Run directly (``PYTHONPATH=src python benchmarks/bench_throughput.py``) or
under pytest. Scale via ``REPRO_BENCH_SCALE`` ∈ {smoke, small, medium,
large}.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from typing import List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import ContinuousQueryEngine, QueryGraph, ShardedEngine
from repro.analysis.experiments import (
    BenchScale,
    mixed_etype_queries,
    mixed_etype_stream,
    skewed_etype_stream,
)
from repro.runtime import AutoscalePolicy
from repro.graph.columnar import backend_name
from repro.graph.types import EdgeEvent

REPO_ROOT = Path(__file__).resolve().parent.parent
ARTEFACT = REPO_ROOT / "BENCH_throughput.json"

#: edge-type alphabet: wide enough that each edge is relevant to only a
#: couple of the registered queries (the dispatch layer's target regime —
#: netflow protocols, RDF predicates and news relations are all sparse
#: per-query alphabets in the paper's workloads).
NUM_ETYPES = 24
NUM_QUERIES = 10
WINDOW = 40.0

#: worker counts swept by the ``worker_scaling`` section (override or
#: disable via ``REPRO_BENCH_WORKERS``).
DEFAULT_WORKER_COUNTS = (1, 2, 4)
WORKER_BATCH = 256
WORKER_REPEATS = 3

#: the ``shard_migration`` section: checkpoint at N workers mid-stream,
#: re-cut the checkpoint for each target M and resume — record identity
#: asserted against the single-process reference, wall time recorded.
MIGRATION_SOURCE_WORKERS = 2
MIGRATION_TARGETS = (1, 3)

#: the ``autoscaling`` section: a 3-worker engine faces the two-phase
#: skewed workload; the elastic controller must fire at least one scale
#: decision during the hot phase, and the steady (post-skew) phase must
#: land at >= :data:`AUTOSCALE_RECOVERY_FLOOR` x the fixed layout's
#: throughput-per-worker — record identity asserted against the serial
#: reference for both engines. The floor is deliberately lenient: at
#: smoke scale the steady phase is a few hundred events, so the ratio
#: carries scheduler noise on shared runners.
AUTOSCALE_SOURCE_WORKERS = 3
AUTOSCALE_RECOVERY_FLOOR = 1.1
AUTOSCALE_HOT_ETYPES = ("T00", "T01", "T02")
AUTOSCALE_REPEATS = 3

#: timed engine runs per path — fresh engine each repeat, best elapsed
#: kept, record identity asserted across every repeat (same best-of-N
#: convention as the worker sweep). Five repeats because the fast path's
#: whole timed section is ~10ms at smoke scale, well inside scheduler
#: noise on a shared sandbox.
ENGINE_REPEATS = 5

#: CI-guarded floor for the machine-independent seed/fast speedup ratio.
#: Raised from 4x after the columnar batch-kernel PR: the fused chunk
#: loop + trivial-leaf insert kernels measure ~11x at smoke scale
#: (interleaved best-of-5, GC off), so 8x holds the same proportional
#: slack for runner jitter the old 4x floor held against ~6.5x measured.
SPEEDUP_FLOOR = 8.0

#: the ``telemetry`` section: pull-based metric collection must stay
#: effectively free. The CI-guarded figure is the average cost of one
#: ``engine.metrics().collect()`` per metric family on the loaded
#: end-of-stream engine: 18-26 us over 33 families on the 2-vCPU
#: sandbox, so the ceiling leaves ~4x for slower runners and still
#: catches a collect() that starts walking per-match state. The same
#: cost amortised over a realistic emission cadence (every
#: :data:`TELEMETRY_CADENCE_EVENTS` events) against the fast path's
#: per-event cost is reported but not gated — that ratio tightens
#: whenever the engine gets faster with collect() itself untouched. At
#: smoke scale the whole timed stream is ~10ms, so an in-loop on-vs-off
#: delta would be pure scheduler noise (it is still measured and
#: reported, with record identity asserted).
TELEMETRY_CADENCE_EVENTS = 5_000
TELEMETRY_COLLECT_US_PER_FAMILY_CEILING = 100.0
TELEMETRY_COLLECT_SAMPLES = 25
TELEMETRY_DENSE_SEGMENTS = 10


def worker_counts_from_env() -> Optional[Tuple[int, ...]]:
    """Parse ``REPRO_BENCH_WORKERS``; ``None`` means "skip the sweep"."""
    raw = os.environ.get("REPRO_BENCH_WORKERS")
    if raw is None:
        return DEFAULT_WORKER_COUNTS
    raw = raw.strip().lower()
    if raw in ("", "0", "none", "skip", "off"):
        return None
    counts = tuple(int(part) for part in raw.split(","))
    if not counts or any(count < 1 for count in counts):
        raise ValueError(
            f"REPRO_BENCH_WORKERS={raw!r}: expected a comma list of "
            "positive ints, or 0/none/skip to disable the sweep"
        )
    return counts


def make_stream(events: int, seed: int = 7) -> List[EdgeEvent]:
    """Uniform random stream over a square-root-sized vertex population."""
    return mixed_etype_stream(events, num_etypes=NUM_ETYPES, seed=seed)


def make_queries() -> List[QueryGraph]:
    """10 small path/fork queries, each over its own slice of the alphabet.

    Shared with the sharded-equivalence acceptance test via
    :func:`repro.analysis.experiments.mixed_etype_queries`, so the bench
    and the test always validate the same workload shape.
    """
    return mixed_etype_queries(NUM_QUERIES, NUM_ETYPES)


def _run_engine_once(
    stream: List[EdgeEvent],
    warmup: List[EdgeEvent],
    queries: List[QueryGraph],
    *,
    fast: bool,
) -> Tuple[dict, list]:
    """One full engine run; returns (timings dict, record identities).

    The seed path reproduces the seed engine's execution shape end to
    end — per-event API, no dispatch, interpretive matcher, phase timers
    on — while the fast path takes the modern defaults and the fused
    batch loop. The fast path warms the dispatch-program LUT inside the
    register phase (``warm_kernels``), so the timed stream section pays
    no one-time compilation. The collector is disabled around the timed
    stream section for *both* paths (pytest-benchmark's convention): GC
    pauses are workload-independent noise worth ~2µs/edge here, and
    paying them in one path but not the other would skew the ratio.
    """
    t0 = time.perf_counter()
    engine = ContinuousQueryEngine(
        window=WINDOW, dispatch=fast, profile_phases=not fast
    )
    engine.warmup(warmup)
    t1 = time.perf_counter()
    for query in queries:
        options = {} if fast else {"compiled_plans": False}
        engine.register(query, strategy="Single", name=query.name, **options)
    if fast:
        engine.warm_kernels()
    gc.collect()  # start the timed section from a clean heap
    t2 = time.perf_counter()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        if fast:
            records = engine.process_events(stream)
        else:
            records = []
            for event in stream:
                records.extend(engine.process_event(event))
    finally:
        if gc_was_enabled:
            gc.enable()
    t3 = time.perf_counter()
    gc.collect()
    identities = [(r.query_name, r.match.fingerprint, r.completed_at) for r in records]
    timings = {
        "elapsed_seconds": t3 - t2,
        "phases": {
            "warmup_seconds": round(t1 - t0, 4),
            "register_seconds": round(t2 - t1, 4),
            "stream_seconds": round(t3 - t2, 4),
        },
    }
    return timings, identities


def run_engine_pair(
    stream: List[EdgeEvent],
    warmup: List[EdgeEvent],
    queries: List[QueryGraph],
) -> Tuple[Tuple[dict, list], Tuple[dict, list]]:
    """Best-of-:data:`ENGINE_REPEATS` timing for both paths, interleaved.

    Each repeat builds a fresh engine per path and replays the identical
    workload; the minimum elapsed per path is reported (the minimum is
    the least-noise estimate of the code's cost) and every repeat's
    record stream must be identical. The paths alternate fast/seed
    within each repeat — on a shared sandbox the whole machine's speed
    drifts over seconds, so timing the two paths in separate blocks
    would let that drift masquerade as a speedup change; interleaving
    makes both minima sample the same noise epochs and stabilises the
    CI-guarded ratio.
    """
    best = {True: None, False: None}
    reference = {True: None, False: None}
    for _ in range(ENGINE_REPEATS):
        for fast in (True, False):
            timings, identities = _run_engine_once(
                stream, warmup, queries, fast=fast
            )
            if reference[fast] is None:
                reference[fast] = identities
            else:
                assert identities == reference[fast], (
                    f"{'fast' if fast else 'seed'} path is nondeterministic: "
                    f"{len(identities)} vs {len(reference[fast])} records "
                    "across repeats"
                )
            prior = best[fast]
            if prior is None or timings["elapsed_seconds"] < prior["elapsed_seconds"]:
                best[fast] = timings
    for timing in best.values():
        timing["repeats"] = ENGINE_REPEATS
    return (best[False], reference[False]), (best[True], reference[True])


def measure_memory(
    stream: List[EdgeEvent],
    warmup: List[EdgeEvent],
    queries: List[QueryGraph],
    *,
    fast: bool,
) -> dict:
    """Peak/live tracemalloc stats for one path (separate untimed run).

    The tracer slows execution severalfold, so memory is measured on its
    own replay of the identical workload rather than inside the timed
    runs. ``peak_traced_bytes`` is the allocation high-water mark across
    the stream phase; ``overhead_bytes`` is what is still live at end of
    stream (graph window + partial-match state + records).
    """
    engine = ContinuousQueryEngine(
        window=WINDOW, dispatch=fast, profile_phases=not fast
    )
    engine.warmup(warmup)
    for query in queries:
        options = {} if fast else {"compiled_plans": False}
        engine.register(query, strategy="Single", name=query.name, **options)
    tracemalloc.start()
    if fast:
        records = engine.process_events(stream)
    else:
        records = []
        for event in stream:
            records.extend(engine.process_event(event))
    current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del records
    return {"peak_traced_bytes": peak, "overhead_bytes": current}


def measure_kernels(
    stream: List[EdgeEvent],
    warmup: List[EdgeEvent],
    queries: List[QueryGraph],
) -> dict:
    """Per-stage kernel timings from a separate profiled replay.

    Runs the fast configuration once more with ``profile_phases=True``:
    every chunk then replays through the per-event reference path, which
    credits each edge's evict / ingest / dispatch (route lookup) stage
    time to ``engine.kernel_profile``, while the per-query algorithms
    attribute anchored-isomorphism vs SJ-Tree join time per edge. These
    seconds describe *where* time goes on that path, not the fused
    loop's absolute speed — the timed sections above are the throughput
    claim.
    """
    engine = ContinuousQueryEngine(window=WINDOW, dispatch=True, profile_phases=True)
    engine.warmup(warmup)
    for query in queries:
        engine.register(query, strategy="Single", name=query.name)
    engine.warm_kernels()
    engine.process_events(stream)
    stages = {
        name: {
            "seconds": round(timer.seconds, 4),
            "credited_edges": timer.calls,
        }
        for name, timer in sorted(engine.kernel_profile.phases.items())
    }
    match_phases: dict = {}
    for registered in engine.queries.values():
        for name, timer in registered.algorithm.profile.phases.items():
            # the paper's split: "iso" is anchored subgraph isomorphism
            # around the new edge, "join" is SJ-Tree maintenance
            label = "anchor" if name == "iso" else name
            entry = match_phases.setdefault(label, {"seconds": 0.0, "calls": 0})
            entry["seconds"] += timer.seconds
            entry["calls"] += timer.calls
    for entry in match_phases.values():
        entry["seconds"] = round(entry["seconds"], 4)
    return {
        "backend": backend_name(),
        "chunk_size": engine.chunk_size,
        "chunks_processed": engine._chunks_processed,
        "stages": stages,
        "match_phases": match_phases,
        "note": (
            "separate profiled replay through the per-event path (the "
            "fused chunk loop does not run), so stage seconds are a "
            "breakdown, not a rate"
        ),
    }


def measure_telemetry(
    stream: List[EdgeEvent],
    warmup: List[EdgeEvent],
    queries: List[QueryGraph],
    fast_elapsed: float,
) -> dict:
    """Cost of armed telemetry on the fast path, two ways.

    *Dense interleaved runs*: the stream is cut into
    :data:`TELEMETRY_DENSE_SEGMENTS` segments and replayed twice per
    repeat — identical segmentation, with and without an
    ``engine.metrics().collect()`` at every boundary — best-of-repeats,
    record identity asserted. At smoke scale this difference sits inside
    scheduler noise, so it is reported, not gated.

    *Collect cost*: the average wall cost of one ``collect()`` on the
    loaded end-of-stream engine, per metric family — the CI gate, at
    :data:`TELEMETRY_COLLECT_US_PER_FAMILY_CEILING` microseconds — and,
    reported only, as a percentage of the fast path's cost to process
    :data:`TELEMETRY_CADENCE_EVENTS` events, i.e. the overhead a run
    emitting snapshots every 5000 events actually pays. The always-on
    hot-path counters (dispatch hits, table probes/expiries) need no
    separate gate: they are inside the timed fast path already guarded
    by :data:`SPEEDUP_FLOOR`.
    """
    n = len(stream)
    seg = max(n // TELEMETRY_DENSE_SEGMENTS, 1)
    segments = [stream[i : i + seg] for i in range(0, n, seg)]

    def run_once(collect: bool):
        engine = ContinuousQueryEngine(window=WINDOW, dispatch=True)
        engine.warmup(warmup)
        for query in queries:
            engine.register(query, strategy="Single", name=query.name)
        engine.warm_kernels()
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        try:
            records = []
            for segment in segments:
                records.extend(engine.process_events(segment))
                if collect:
                    engine.metrics().collect()
        finally:
            if gc_was_enabled:
                gc.enable()
        elapsed = time.perf_counter() - started
        identities = [
            (r.query_name, r.match.fingerprint, r.completed_at) for r in records
        ]
        return elapsed, identities, engine

    best = {True: math.inf, False: math.inf}
    reference = None
    end_state = None
    for _ in range(ENGINE_REPEATS):
        for collect in (False, True):
            elapsed, identities, engine = run_once(collect)
            if reference is None:
                reference = identities
            else:
                assert identities == reference, (
                    "metrics collection changed the record stream: "
                    f"{len(identities)} vs {len(reference)} records "
                    f"(collect={collect})"
                )
            best[collect] = min(best[collect], elapsed)
            if collect:
                end_state = engine

    started = time.perf_counter()
    for _ in range(TELEMETRY_COLLECT_SAMPLES):
        snapshot = end_state.metrics().collect()
    collect_seconds_avg = (
        time.perf_counter() - started
    ) / TELEMETRY_COLLECT_SAMPLES

    per_event = fast_elapsed / n
    overhead_pct = (
        collect_seconds_avg / (TELEMETRY_CADENCE_EVENTS * per_event) * 100.0
    )
    return {
        "record_identity": "asserted",
        "collect_seconds_avg": round(collect_seconds_avg, 6),
        "collect_samples": TELEMETRY_COLLECT_SAMPLES,
        "families": len(snapshot),
        "collect_us_per_family": round(
            collect_seconds_avg * 1e6 / len(snapshot), 2
        ),
        "collect_us_per_family_ceiling": TELEMETRY_COLLECT_US_PER_FAMILY_CEILING,
        "cadence_events": TELEMETRY_CADENCE_EVENTS,
        "overhead_pct_at_default_cadence": round(overhead_pct, 3),
        "dense": {
            "segments": len(segments),
            "metrics_off_seconds": round(best[False], 4),
            "metrics_on_seconds": round(best[True], 4),
            "overhead_pct": round(
                (best[True] - best[False]) / best[False] * 100.0, 2
            ),
            "note": (
                "collect() at every segment boundary; noise-dominated at "
                "smoke scale, reported for trend only"
            ),
        },
    }


def run_sharded(
    stream: List[EdgeEvent],
    warmup: List[EdgeEvent],
    queries: List[QueryGraph],
    workers: int,
) -> Tuple[float, list]:
    """One sharded run; startup/registration excluded from the timing."""
    engine = ShardedEngine(window=WINDOW, workers=workers, batch_size=WORKER_BATCH)
    engine.warmup(warmup)
    for query in queries:
        engine.register(query, strategy="Single", name=query.name)
    try:
        engine.start()
        result = engine.run(stream)
    finally:
        engine.close()
    identities = [
        (r.query_name, r.match.fingerprint, r.completed_at) for r in result.records
    ]
    return result.elapsed_seconds, identities


def sweep_workers(
    stream: List[EdgeEvent],
    warmup: List[EdgeEvent],
    queries: List[QueryGraph],
    reference: list,
    counts: Tuple[int, ...],
) -> dict:
    """Best-of-N sharded throughput per worker count, identity-checked."""
    n = len(stream)
    series = {}
    for workers in counts:
        best = math.inf
        for _ in range(WORKER_REPEATS):
            elapsed, identities = run_sharded(stream, warmup, queries, workers)
            assert identities == reference, (
                f"sharded run (workers={workers}) diverged from the "
                f"single-process engine: {len(identities)} vs "
                f"{len(reference)} records"
            )
            best = min(best, elapsed)
        series[str(workers)] = {
            "elapsed_seconds": round(best, 4),
            "edges_per_sec": round(n / best, 1),
        }
    result = {
        "cpu_count": os.cpu_count(),
        "batch_size": WORKER_BATCH,
        "repeats": WORKER_REPEATS,
        "series": series,
    }
    # Only claim the 4-over-1 ratio when both endpoints were actually
    # measured — REPRO_BENCH_WORKERS may sweep any set of counts.
    if "1" in series and "4" in series:
        result["speedup_workers4_over_1"] = round(
            series["1"]["elapsed_seconds"] / series["4"]["elapsed_seconds"], 2
        )
    return result


def measure_migration(
    stream: List[EdgeEvent],
    warmup: List[EdgeEvent],
    queries: List[QueryGraph],
    reference: list,
) -> dict:
    """Mid-stream N→M checkpoint migration: identity + wall time.

    A :data:`MIGRATION_SOURCE_WORKERS`-worker run is killed halfway
    through the stream (checkpoint + close), the checkpoint directory is
    re-cut for each target worker count, and a fresh engine resumes the
    remainder. The concatenated records must equal the uninterrupted
    single-process reference — the same bar ``tests/test_migration.py``
    enforces — and the artefact records what a live rebalance costs
    (snapshot split/merge/compose plus worker respawn) at this scale.
    """
    from repro.persistence.migrate import migrate_checkpoint

    cut = len(stream) // 2
    targets = {}
    for target in MIGRATION_TARGETS:
        root = Path(tempfile.mkdtemp(prefix="repro-bench-migrate-"))
        try:
            directory = root / "ck"
            engine = ShardedEngine(
                window=WINDOW,
                workers=MIGRATION_SOURCE_WORKERS,
                batch_size=WORKER_BATCH,
            )
            engine.warmup(warmup)
            for query in queries:
                engine.register(query, strategy="Single", name=query.name)
            try:
                first = engine.run(stream[:cut])
                engine.checkpoint(directory, cursor=cut)
            finally:
                engine.close()
            identities = [
                (r.query_name, r.match.fingerprint, r.completed_at)
                for r in first.records
            ]
            t0 = time.perf_counter()
            migrate_checkpoint(directory, queries, workers=target)
            t1 = time.perf_counter()
            resumed = ShardedEngine.resume(directory, queries)
            t2 = time.perf_counter()
            try:
                rest = resumed.run(stream[cut:])
            finally:
                resumed.close()
            identities += [
                (r.query_name, r.match.fingerprint, r.completed_at)
                for r in rest.records
            ]
            assert identities == reference, (
                f"{MIGRATION_SOURCE_WORKERS}->{target} migration diverged "
                f"from the single-process engine: {len(identities)} vs "
                f"{len(reference)} records"
            )
            targets[str(target)] = {
                "migrate_seconds": round(t1 - t0, 4),
                "resume_seconds": round(t2 - t1, 4),
            }
        finally:
            shutil.rmtree(root, ignore_errors=True)
    return {
        "source_workers": MIGRATION_SOURCE_WORKERS,
        "cut_event": cut,
        "record_identity": "asserted",
        "targets": targets,
    }


def measure_autoscaling(scale: BenchScale) -> dict:
    """Elastic skew recovery on the two-phase hot-type workload.

    A :data:`AUTOSCALE_SOURCE_WORKERS`-worker engine runs the
    :func:`skewed_etype_stream` workload in three segments — uniform,
    hot-pivot, steady (still hot) — once with a fixed layout and once
    with the autoscale controller armed (``min_workers=1``, ticks sized
    so several evaluations land inside the hot phase). The section
    asserts three things: full-stream record identity against the serial
    reference for *both* engines, at least one controller-initiated
    scale decision on every autoscaled repeat, and steady-phase
    throughput-per-worker recovering to at least
    :data:`AUTOSCALE_RECOVERY_FLOOR` x the fixed layout's. The decision
    trail ships in the artefact so a trajectory reader can see what the
    controller actually did.
    """
    events = scale.stream_events
    full = skewed_etype_stream(
        events, num_etypes=NUM_ETYPES, hot_etypes=AUTOSCALE_HOT_ETYPES
    )
    warm_n = max(int(events * scale.warmup_fraction), 1)
    warmup, stream = full[:warm_n], full[warm_n:]
    queries = make_queries()
    # Segment boundaries relative to the processing suffix: the generator
    # pivots at events/2, the steady phase is the back half of the hot
    # phase (layout churn settled, skew persistent).
    pivot = events // 2 - warm_n
    steady_from = pivot + (len(stream) - pivot) // 2
    segments = [stream[:pivot], stream[pivot:steady_from], stream[steady_from:]]
    steady_events = len(segments[2])
    # Four evaluation ticks inside the skew segment — the controller
    # reacts at the first hot tick — then a cooldown long enough that no
    # further action (each one a checkpoint + respawn) can land inside
    # the timed steady segment and pollute the throughput measurement.
    evaluate_every = max((steady_from - pivot) // 4, 1)
    ticks_after_skew_onset = (len(stream) - pivot) // evaluate_every
    cooldown = ticks_after_skew_onset + 1

    _, reference = run_sharded(stream, warmup, queries, 1)

    def split_run(policy: Optional[AutoscalePolicy]) -> dict:
        engine = ShardedEngine(
            window=WINDOW,
            workers=AUTOSCALE_SOURCE_WORKERS,
            batch_size=WORKER_BATCH,
            autoscale=policy,
        )
        engine.warmup(warmup)
        for query in queries:
            engine.register(query, strategy="Single", name=query.name)
        identities = []
        try:
            engine.start()
            steady_seconds = 0.0
            for index, segment in enumerate(segments):
                # The armed engine internally slices run() into
                # evaluation-sized sub-runs; feed the fixed engine the
                # same slices so both paths pay identical flush/merge
                # barriers and the steady-phase ratio compares *layouts*,
                # not batching granularity.
                if policy is None:
                    slices = [
                        segment[at : at + evaluate_every]
                        for at in range(0, len(segment), evaluate_every)
                    ]
                else:
                    slices = [segment]
                t0 = time.perf_counter()
                results = [engine.run(part) for part in slices]
                if index == len(segments) - 1:
                    steady_seconds = time.perf_counter() - t0
                identities += [
                    (r.query_name, r.match.fingerprint, r.completed_at)
                    for result in results
                    for r in result.records
                ]
            controller = engine.autoscaler
            outcome = {
                "steady_seconds": steady_seconds,
                "final_workers": engine.workers,
                "evaluations": controller.evaluations if controller else 0,
                "decisions": (
                    [d.as_dict() for d in controller.actions()]
                    if controller
                    else []
                ),
            }
        finally:
            engine.close()
        label = "autoscaled" if policy is not None else "fixed-layout"
        assert identities == reference, (
            f"{label} run diverged from the single-process engine: "
            f"{len(identities)} vs {len(reference)} records"
        )
        return outcome

    policy = AutoscalePolicy(
        min_workers=1,
        max_workers=AUTOSCALE_SOURCE_WORKERS,
        evaluate_every=evaluate_every,
        cooldown=cooldown,
    )
    best_fixed = None
    best_auto = None
    best_auto_tpw = -math.inf
    for _ in range(AUTOSCALE_REPEATS):
        fixed = split_run(None)
        if (
            best_fixed is None
            or fixed["steady_seconds"] < best_fixed["steady_seconds"]
        ):
            best_fixed = fixed
        auto = split_run(policy)
        assert auto["decisions"], (
            f"controller never scaled on the skewed workload "
            f"({auto['evaluations']} evaluations)"
        )
        tpw = steady_events / auto["steady_seconds"] / auto["final_workers"]
        if tpw > best_auto_tpw:
            best_auto_tpw = tpw
            best_auto = auto
    tpw_fixed = (
        steady_events / best_fixed["steady_seconds"] / AUTOSCALE_SOURCE_WORKERS
    )
    recovery = best_auto_tpw / tpw_fixed
    assert recovery >= AUTOSCALE_RECOVERY_FLOOR, (
        f"autoscaled steady-phase throughput/worker only {recovery:.2f}x the "
        f"fixed {AUTOSCALE_SOURCE_WORKERS}-worker layout's "
        f"({best_auto_tpw:.0f} vs {tpw_fixed:.0f} e/s/worker); "
        f"floor is {AUTOSCALE_RECOVERY_FLOOR}x"
    )
    return {
        "workload": "skewed_etype_stream",
        "hot_etypes": list(AUTOSCALE_HOT_ETYPES),
        "source_workers": AUTOSCALE_SOURCE_WORKERS,
        "policy": {
            "min_workers": policy.min_workers,
            "max_workers": policy.max_workers,
            "evaluate_every": policy.evaluate_every,
            "cooldown": policy.cooldown,
        },
        "phases": {
            "uniform_events": len(segments[0]),
            "skew_events": len(segments[1]),
            "steady_events": steady_events,
        },
        "record_identity": "asserted",
        "repeats": AUTOSCALE_REPEATS,
        "evaluations": best_auto["evaluations"],
        "decisions": len(best_auto["decisions"]),
        "decision_trail": best_auto["decisions"],
        "final_workers": best_auto["final_workers"],
        "fixed": {
            "steady_seconds": round(best_fixed["steady_seconds"], 4),
            "throughput_per_worker": round(tpw_fixed, 1),
        },
        "autoscaled": {
            "steady_seconds": round(best_auto["steady_seconds"], 4),
            "throughput_per_worker": round(best_auto_tpw, 1),
        },
        "recovery_ratio": round(recovery, 2),
        "recovery_floor": AUTOSCALE_RECOVERY_FLOOR,
    }


def run(write: bool = True) -> dict:
    scale = BenchScale.from_env()
    events = scale.stream_events
    full = make_stream(events)
    warm_n = max(int(events * scale.warmup_fraction), 1)
    warmup, stream = full[:warm_n], full[warm_n:]
    queries = make_queries()

    (seed_timing, seed_records), (fast_timing, fast_records) = run_engine_pair(
        stream, warmup, queries
    )

    assert fast_records == seed_records, (
        "fast path diverged from seed path: "
        f"{len(fast_records)} vs {len(seed_records)} records"
    )

    seed_memory = measure_memory(stream, warmup, queries, fast=False)
    fast_memory = measure_memory(stream, warmup, queries, fast=True)
    kernels = measure_kernels(stream, warmup, queries)
    telemetry = measure_telemetry(
        stream, warmup, queries, fast_timing["elapsed_seconds"]
    )

    counts = worker_counts_from_env()
    if counts is None:
        skipped = {
            "skipped": True,
            "reason": "REPRO_BENCH_WORKERS disabled the sweep",
            "cpu_count": os.cpu_count(),
        }
        worker_scaling = skipped
        shard_migration = dict(skipped)
        autoscaling = dict(skipped)
    else:
        worker_scaling = sweep_workers(stream, warmup, queries, fast_records, counts)
        shard_migration = measure_migration(stream, warmup, queries, fast_records)
        autoscaling = measure_autoscaling(scale)

    n = len(stream)
    seed_elapsed = seed_timing["elapsed_seconds"]
    fast_elapsed = fast_timing["elapsed_seconds"]
    result = {
        "benchmark": "throughput",
        "scale": os.environ.get("REPRO_BENCH_SCALE", "small").lower(),
        "workload": {
            "queries": NUM_QUERIES,
            "etypes": NUM_ETYPES,
            "stream_events": n,
            "warmup_events": warm_n,
            "window": WINDOW,
            "strategy": "Single",
        },
        "methodology": {
            "engine_repeats": ENGINE_REPEATS,
            "timing": (
                "best elapsed over interleaved fast/seed repeats, "
                "identity asserted per run"
            ),
            "gc_disabled_in_timed_stream": True,
            "kernels_warmed_before_timing": True,
        },
        "matches": len(fast_records),
        "seed_path": {
            "elapsed_seconds": round(seed_elapsed, 4),
            "edges_per_sec": round(n / seed_elapsed, 1),
            "phases": seed_timing["phases"],
            "memory": seed_memory,
        },
        "fast_path": {
            "elapsed_seconds": round(fast_elapsed, 4),
            "edges_per_sec": round(n / fast_elapsed, 1),
            "phases": fast_timing["phases"],
            "memory": fast_memory,
        },
        "speedup": round(seed_elapsed / fast_elapsed, 2),
        "kernels": kernels,
        "telemetry": telemetry,
        "memory": {
            # process-wide peak RSS (KiB on Linux); monotone over the
            # whole benchmark, so it caps every path measured above
            "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "peak_traced_ratio_fast_over_seed": round(
                fast_memory["peak_traced_bytes"]
                / max(seed_memory["peak_traced_bytes"], 1),
                3,
            ),
        },
        "worker_scaling": worker_scaling,
        "shard_migration": shard_migration,
        "autoscaling": autoscaling,
    }
    if write:
        ARTEFACT.write_text(json.dumps(result, indent=2) + "\n")
    return result


def test_throughput_fast_path_speedup():
    """Smoke-checkable claim: the fast path beats the seed configuration
    on the 10-query mixed-etype workload, with identical match output and
    no more traced peak memory."""
    result = run()
    print(json.dumps(result, indent=2))
    assert result["speedup"] >= SPEEDUP_FLOOR, (
        f"fast path only {result['speedup']}x over seed path "
        f"({result['fast_path']['edges_per_sec']} vs "
        f"{result['seed_path']['edges_per_sec']} edges/sec); "
        f"CI floor is {SPEEDUP_FLOOR}x"
    )
    assert (
        result["fast_path"]["memory"]["peak_traced_bytes"]
        <= result["seed_path"]["memory"]["peak_traced_bytes"]
    ), "fast path peak allocation exceeded the seed path's"
    telemetry = result["telemetry"]
    assert (
        telemetry["collect_us_per_family"]
        <= TELEMETRY_COLLECT_US_PER_FAMILY_CEILING
    ), (
        f"one metrics collect() costs {telemetry['collect_us_per_family']}us "
        f"per family over {telemetry['families']} families; "
        f"ceiling is {TELEMETRY_COLLECT_US_PER_FAMILY_CEILING}us"
    )
    scaling = result["worker_scaling"]
    if scaling.get("skipped"):
        return
    # Output identity was already asserted inside sweep_workers for every
    # worker count. The throughput claim needs hardware that can actually
    # run 4 workers concurrently; on a 1-CPU sandbox the sweep records the
    # (necessarily <= 1x) numbers without pretending they mean scaling.
    if (scaling["cpu_count"] or 1) >= 4 and "speedup_workers4_over_1" in scaling:
        assert scaling["speedup_workers4_over_1"] >= 1.5, (
            f"sharded runtime only {scaling['speedup_workers4_over_1']}x at "
            f"workers=4 over workers=1 ({scaling['series']})"
        )


if __name__ == "__main__":
    outcome = run()
    print(json.dumps(outcome, indent=2))
    print(
        f"\nseed path: {outcome['seed_path']['edges_per_sec']:.0f} edges/s   "
        f"fast path: {outcome['fast_path']['edges_per_sec']:.0f} edges/s   "
        f"speedup: {outcome['speedup']:.2f}x   "
        f"(chunk backend: {outcome['kernels']['backend']})"
    )
    print(
        "peak traced memory: "
        f"seed {outcome['seed_path']['memory']['peak_traced_bytes']/1e6:.2f} MB   "
        f"fast {outcome['fast_path']['memory']['peak_traced_bytes']/1e6:.2f} MB   "
        f"(fast/seed {outcome['memory']['peak_traced_ratio_fast_over_seed']:.2f})"
    )
    telemetry = outcome["telemetry"]
    print(
        f"telemetry: collect {telemetry['collect_seconds_avg']*1e3:.2f}ms over "
        f"{telemetry['families']} families = "
        f"{telemetry['collect_us_per_family']:.1f}us/family "
        f"(ceiling {telemetry['collect_us_per_family_ceiling']}us); "
        f"{telemetry['overhead_pct_at_default_cadence']:.3f}% at a "
        f"{telemetry['cadence_events']}-event cadence (not gated)"
    )
    scaling = outcome["worker_scaling"]
    if scaling.get("skipped"):
        print("worker scaling: skipped (REPRO_BENCH_WORKERS)")
    else:
        per_worker = "   ".join(
            f"w={w}: {entry['edges_per_sec']:.0f} e/s"
            for w, entry in scaling["series"].items()
        )
        ratio = scaling.get("speedup_workers4_over_1")
        suffix = f"   (4w/1w: {ratio:.2f}x)" if ratio is not None else ""
        print(f"worker scaling ({scaling['cpu_count']} CPUs): {per_worker}{suffix}")
    migration = outcome["shard_migration"]
    if migration.get("skipped"):
        print("shard migration: skipped (REPRO_BENCH_WORKERS)")
    else:
        per_target = "   ".join(
            f"2->{target}: migrate {entry['migrate_seconds']*1000:.0f}ms"
            f" + resume {entry['resume_seconds']*1000:.0f}ms"
            for target, entry in migration["targets"].items()
        )
        print(
            f"shard migration (cut @{migration['cut_event']}, "
            f"records identical): {per_target}"
        )
    autoscaling = outcome["autoscaling"]
    if autoscaling.get("skipped"):
        print("autoscaling: skipped (REPRO_BENCH_WORKERS)")
    else:
        print(
            f"autoscaling: {autoscaling['decisions']} scale decision(s) over "
            f"{autoscaling['evaluations']} evaluation(s), workers "
            f"{autoscaling['source_workers']}->{autoscaling['final_workers']}, "
            f"steady throughput/worker {autoscaling['recovery_ratio']:.2f}x "
            f"the fixed layout (floor {autoscaling['recovery_floor']}x, "
            f"records identical)"
        )
