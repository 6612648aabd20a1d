"""End-to-end measurement: inputs, the two ways the program is driven, the
closed-loop and open-loop phases, and the record-stream check.

Every workload runs rounds of the same two phases on its own inputs: a
closed-loop repeat on a fresh engine (``setup_s``, ``events_per_s``,
``cpu_us_per_event``) and an open-loop segment that hands a fresh engine
whatever is due on a fixed schedule (``emit_latency_*``). Tracing is off here
unless the traced pass hands a :class:`spans.Tracer` in.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import itertools
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import spans
from workloads import WARMUP_FRACTION, Workload, stream_digest

from repro.datasets.io import count_stream_events, read_stream, write_stream
from repro.graph.types import EdgeEvent
from repro.query.parser import format_query, parse_query
from repro.query.query_graph import QueryGraph
from repro.runtime.sharded import ShardedEngine
from repro.search.engine import ContinuousQueryEngine
from repro.stats import SelectivityEstimator

#: most events one open-loop call hands the engine
PACED_BATCH = 512
#: wire batch and worker count of the sharded drive (what the CLI defaults to)
SHARD_BATCH = 512
SHARD_WORKERS = 2
#: wall length of one open-loop segment of the end-to-end pass
OPEN_SEGMENT_S = 1.0
#: a rung is sustainable when its p99 stays under this and no backlog is left
LATENCY_LIMIT_S = 0.200


# ---------------------------------------------------------------------------
# small statistics helpers
# ---------------------------------------------------------------------------


def percentile(ordered: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    rank = max(math.ceil(share * len(ordered)), 1)
    return ordered[rank - 1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def program_env() -> Dict[str, str]:
    """Environment for child interpreters that must import the program."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    inherited = os.environ.get("PYTHONPATH")
    path = src + (os.pathsep + inherited if inherited else "")
    return {**os.environ, "PYTHONPATH": path}


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mib() -> float:
    """High-water RSS of this process plus its largest reaped child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    workload: Workload
    seed: int
    warm: List[EdgeEvent]
    timed: List[EdgeEvent]
    queries: List[QueryGraph]
    gen_s: float
    stream_sha: str
    #: TSV of warm + timed and one DSL file per query (written on demand)
    tsv_path: Optional[str] = None
    query_paths: List[str] = field(default_factory=list)


def build_inputs(workload: Workload, seed: int, scale: float = 1.0) -> Inputs:
    """Generate a workload's events and queries from ``seed`` alone."""
    started = time.perf_counter()
    total = max(int(workload.events * scale), 400)
    events = workload.make_stream(total, seed)
    queries = workload.make_queries()
    gen_s = time.perf_counter() - started
    warm_n = int(total * WARMUP_FRACTION)
    return Inputs(
        workload=workload,
        seed=seed,
        warm=events[:warm_n],
        timed=events[warm_n:],
        queries=queries,
        gen_s=gen_s,
        stream_sha=stream_digest(events),
    )


def write_files(inputs: Inputs, directory: str) -> None:
    """Write the stream TSV and the query files the file-driven paths read."""
    os.makedirs(directory, exist_ok=True)
    inputs.tsv_path = os.path.join(directory, "stream.tsv")
    write_stream(inputs.tsv_path, inputs.warm + inputs.timed)
    inputs.query_paths = []
    for query in inputs.queries:
        path = os.path.join(directory, f"{query.name}.txt")
        Path(path).write_text(format_query(query), encoding="utf-8")
        inputs.query_paths.append(path)


# ---------------------------------------------------------------------------
# the two ways the program is driven
# ---------------------------------------------------------------------------


class SerialTarget:
    """``ContinuousQueryEngine`` over in-memory events (library callers)."""

    def __init__(
        self,
        inputs: Inputs,
        tracer=spans.OFF,
        strategies: Optional[Sequence[str]] = None,
        estimator: Optional[SelectivityEstimator] = None,
    ) -> None:
        self.inputs = inputs
        self.tracer = tracer
        #: an already warm estimator to share instead of warming a fresh one
        #: (per-layer passes that do not report set-up time)
        self.estimator = estimator
        self.strategies = list(
            strategies or [inputs.workload.strategy] * len(inputs.queries)
        )
        #: strategies as resolved by the last ``open()`` ("auto" decided)
        self.resolved: List[str] = []

    def open(self) -> ContinuousQueryEngine:
        span = self.tracer.span
        with span("engine.construct"):
            engine = ContinuousQueryEngine(
                window=self.inputs.workload.window, estimator=self.estimator
            )
        if self.estimator is None:
            with span("stats.warmup"):
                engine.warmup(self.inputs.warm)
        with span("engine.register"):
            for query, strategy in zip(self.inputs.queries, self.strategies):
                engine.register(query, strategy=strategy, name=query.name)
        with span("engine.warm_kernels"):
            engine.warm_kernels()
        self.resolved = [reg.strategy for reg in engine.queries.values()]
        return engine

    def drain(self, engine: ContinuousQueryEngine) -> list:
        """Process the whole timed suffix; return the emitted records.

        One ``run()`` call, unless the workload is ragged (512-event calls)
        or the pass is traced: then the suite cuts the stream into the
        engine's own chunk size so that every chunk is a span.
        """
        timed = self.inputs.timed
        ragged = self.inputs.workload.ragged
        if not ragged and not self.tracer.enabled:
            return engine.run(timed).records
        size = PACED_BATCH if ragged else engine.chunk_size
        span = self.tracer.span
        records: list = []
        for at in range(0, len(timed), size):
            with span("engine.process_events"):
                records.extend(engine.process_events(timed[at : at + size]))
        return records

    def feed(self, engine: ContinuousQueryEngine, batch: list) -> list:
        return engine.process_events(batch)

    def close(self, engine: ContinuousQueryEngine) -> None:
        return None


class ShardedTarget:
    """TSV + query files through ``ShardedEngine`` — the calls
    ``cli._cmd_run`` composes for ``--workers N``: count pass, one parse
    iterator shared by warmup and run, register, start, run, close."""

    def __init__(
        self, inputs: Inputs, tracer=spans.OFF, workers: int = SHARD_WORKERS
    ) -> None:
        self.inputs = inputs
        self.tracer = tracer
        self.workers = workers
        self.resolved: List[str] = []

    def open(self) -> Tuple[ShardedEngine, object]:
        span = self.tracer.span
        inputs = self.inputs
        with span("io.count_pass"):
            total = count_stream_events(inputs.tsv_path)
        events = read_stream(inputs.tsv_path)
        with span("sharded.construct"):
            engine = ShardedEngine(
                window=inputs.workload.window,
                workers=self.workers,
                batch_size=SHARD_BATCH,
            )
        with span("stats.warmup"):
            engine.warmup(itertools.islice(events, int(total * WARMUP_FRACTION)))
        with span("engine.register"):
            for path in inputs.query_paths:
                query = parse_query(Path(path).read_text(encoding="utf-8"))
                engine.register(
                    query, strategy=inputs.workload.strategy, name=Path(path).stem
                )
        with span("sharded.start"):
            engine.start()
        self.resolved = [spec.strategy for spec in engine.specs]
        return engine, events

    def drain(self, session) -> list:
        engine, events = session
        return engine.run(events).records

    def feed(self, session, batch: list) -> list:
        return session[0].run(batch).records

    def close(self, session) -> None:
        engine, events = session
        events.close()
        engine.close()


def make_target(inputs: Inputs):
    return ShardedTarget(inputs) if inputs.workload.sharded else SerialTarget(inputs)


# ---------------------------------------------------------------------------
# record-stream check
# ---------------------------------------------------------------------------

Digest = Tuple[int, str]


def record_digest(records: Sequence) -> Digest:
    """(count, sha256) of the ordered ``(query, strategy, fingerprint,
    completed_at)`` stream."""
    digest = hashlib.sha256()
    for r in records:
        digest.update(
            repr((r.query_name, r.strategy, r.match.fingerprint, r.completed_at))
            .encode()
        )
    return len(records), digest.hexdigest()


def stamp_digest(stamps: Sequence[Tuple[str, float]]) -> Digest:
    """(count, sha256) of the ordered ``(query, completed_at)`` projection.

    The open-loop consumer drops each record as soon as it has taken this
    pair from it: holding ~10^5 records would hand the collector a heap the
    program never builds, and its pauses would be the latency measured.
    """
    return len(stamps), hashlib.sha256(repr(stamps).encode()).hexdigest()


@dataclass(frozen=True)
class Reference:
    full: Digest
    #: ordered ``(query, completed_at)`` of every expected record
    stamps: List[Tuple[str, float]]
    #: per query, what the workload's strategy resolved to ("auto" decided)
    strategies: List[str]

    def stamps_upto(self, timestamp: float) -> Digest:
        """Digest of the records completed by events up to ``timestamp`` —
        what a pass over that prefix of the timed stream must emit."""
        cut = bisect.bisect_right([at for _, at in self.stamps], timestamp)
        return stamp_digest(self.stamps[:cut])


def reference_run(inputs: Inputs) -> Reference:
    """The paper-faithful configuration over the same inputs: no dispatch,
    interpretive matcher, one ``process_event`` per edge. A measured engine
    that resolved other strategies measured something else: callers count
    that as a failure."""
    workload = inputs.workload
    engine = ContinuousQueryEngine(window=workload.window, dispatch=False)
    engine.warmup(inputs.warm)
    for query in inputs.queries:
        engine.register(
            query, strategy=workload.strategy, name=query.name, compiled_plans=False
        )
    records: list = []
    for event in inputs.timed:
        records.extend(engine.process_event(event))
    return Reference(
        record_digest(records),
        [(r.query_name, r.completed_at) for r in records],
        [registered.strategy for registered in engine.queries.values()],
    )


@dataclass
class Tally:
    """Attempted / failed operations of a run (events + expected records)."""

    attempted: int = 0
    failed: int = 0

    def check(self, events: int, got: Digest, expected: Digest) -> None:
        """Count one pass over ``events`` events against the expected stream:
        a count gap fails that many records, an ordered-digest mismatch at
        equal counts fails every record of the pass."""
        self.attempted += events + expected[0]
        if got[0] != expected[0]:
            self.failed += abs(got[0] - expected[0])
        elif got[1] != expected[1]:
            self.failed += max(expected[0], 1)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------


@dataclass
class Repeat:
    setup_s: float
    wall_s: float
    cpu_s: float
    digest: Digest


def closed_repeat(target) -> Repeat:
    """One fresh engine over the whole timed suffix.

    GC stays at interpreter defaults; a full collection before each timed
    section starts every repeat from the same heap state.
    """
    gc.collect()
    started = time.perf_counter()
    session = target.open()
    setup_s = time.perf_counter() - started
    gc.collect()
    cpu_before = cpu_seconds()
    started = time.perf_counter()
    records = target.drain(session)
    wall_s = time.perf_counter() - started
    # children are accounted when reaped, so the CPU window spans close()
    target.close(session)
    cpu_s = cpu_seconds() - cpu_before
    return Repeat(setup_s, wall_s, cpu_s, record_digest(records))


# ---------------------------------------------------------------------------
# open loop
# ---------------------------------------------------------------------------


@dataclass
class PacedResult:
    rate: int
    setup_s: float
    #: per event: return of the call that consumed it minus its due time
    event_latency_s: List[float]
    #: one entry per emitted record, same clock
    record_latency_s: List[float]
    #: how late the driver woke after each idle wait
    gen_late_s: List[float]
    #: events due but not yet handed over when the schedule ended
    final_backlog: int
    digest: Digest

    def latency_ms(self, share: float) -> float:
        return percentile(sorted(self.event_latency_s), share) * 1e3

    def sustainable(self) -> bool:
        """p99 within the limit and no backlog left when the schedule ended."""
        return (
            self.latency_ms(0.99) <= LATENCY_LIMIT_S * 1e3
            and self.final_backlog < PACED_BATCH
        )


def paced_phase(
    target, events: List[EdgeEvent], rate: int, tracer=spans.OFF
) -> PacedResult:
    """Open loop: event ``k`` is due at ``start + k / rate``; the driver hands
    the engine whatever is due (at most ``PACED_BATCH``) and sleeps only when
    nothing is. Time is counted from *due*, so a stall taxes later events."""
    gc.collect()
    started = time.perf_counter()
    session = target.open()
    setup_s = time.perf_counter() - started
    gc.collect()
    total = len(events)
    calls: List[Tuple[int, int, float, int]] = []  # first, upto, done, records
    stamps: List[Tuple[str, float]] = []
    gen_late: List[float] = []
    feed = target.feed
    span = tracer.span
    clock = time.perf_counter
    at = 0
    idle = False
    start = clock()
    while at < total:
        now = clock()
        due = min(int((now - start) * rate) + 1, total)
        if due <= at:
            time.sleep(max(start + at / rate - now, 0.0))
            idle = True
            continue
        if idle:
            gen_late.append(now - (start + at / rate))
            idle = False
        upto = min(due, at + PACED_BATCH)
        with span("paced.feed"):
            records = feed(session, events[at:upto])
        done = clock()
        stamps.extend([(r.query_name, r.completed_at) for r in records])
        calls.append((at, upto, done, len(records)))
        at = upto
    target.close(session)

    schedule_end = start + total / rate
    position = {event.timestamp: k for k, event in enumerate(events)}
    event_latency: List[float] = []
    record_latency: List[float] = []
    handed_in_time = 0
    seen = 0
    for first, upto, done, emitted in calls:
        event_latency.extend(done - (start + k / rate) for k in range(first, upto))
        record_latency.extend(
            done - (start + position[stamp] / rate)
            for _, stamp in stamps[seen : seen + emitted]
        )
        seen += emitted
        if done <= schedule_end:
            handed_in_time = upto
    return PacedResult(
        rate=rate,
        setup_s=setup_s,
        event_latency_s=event_latency,
        record_latency_s=record_latency,
        gen_late_s=gen_late or [0.0],
        final_backlog=total - handed_in_time,
        digest=stamp_digest(stamps),
    )


# ---------------------------------------------------------------------------
# the end-to-end pass
# ---------------------------------------------------------------------------


def calm(times: Sequence[float], tolerance: float) -> List[int]:
    """Indices of the samples within ``tolerance`` of the fastest one.

    Disturbance on a shared host is one-sided — it only ever slows a round —
    and lasts seconds to minutes (this sandbox: ~1.5x for ~6 s every ~30 s,
    and minute-long stretches at up to 2x), so a median over all rounds of a
    run inherits whatever share of it was disturbed. The rounds close to
    the run's own fastest are the ones the machine left alone.
    """
    limit = min(times) * (1.0 + tolerance)
    return [k for k, value in enumerate(times) if value <= limit]


#: a closed-loop repeat (or a set-up) counts as undisturbed within this share
#: of the run's fastest; calm runs scatter by ~3 %
CALM_WALL = 0.10
#: an open-loop segment counts as undisturbed when its median latency is
#: within this share of the run's lowest segment median
CALM_LATENCY = 0.25


@dataclass
class EndToEnd:
    #: one closed-loop repeat and one open-loop segment per round
    rounds: List[Tuple[Repeat, PacedResult]]
    peak_rss_mib: float
    reference: Reference
    tally: Tally
    timed_events: int

    def series(self) -> Dict[str, List[float]]:
        """Every round's raw samples, disturbed or not (printed, not gated)."""
        events = self.timed_events
        repeats = [repeat for repeat, _ in self.rounds]
        segments = [segment for _, segment in self.rounds]
        return {
            "setup_s": [r.setup_s for r in repeats] + [s.setup_s for s in segments],
            "events_per_s": [events / r.wall_s for r in repeats],
            "cpu_us_per_event": [r.cpu_s / events * 1e6 for r in repeats],
            "emit_latency_p50_ms": [s.latency_ms(0.5) for s in segments],
            "emit_latency_p99_ms": [s.latency_ms(0.99) for s in segments],
        }

    def estimates(self) -> Dict[str, Tuple[float, int]]:
        """Metric -> (median over the undisturbed samples, how many those
        are); see :func:`calm`."""
        events = self.timed_events
        repeats = [repeat for repeat, _ in self.rounds]
        setups = [r.setup_s for r in repeats] + [s.setup_s for _, s in self.rounds]
        calm_setups = [setups[k] for k in calm(setups, CALM_WALL)]
        walls = [r.wall_s for r in repeats]
        calm_repeats = [repeats[k] for k in calm(walls, CALM_WALL)]
        calm_segments = self.calm_segments()
        median = statistics.median
        return {
            "setup_s": (median(calm_setups), len(calm_setups)),
            "events_per_s": (
                events / median(r.wall_s for r in calm_repeats),
                len(calm_repeats),
            ),
            "cpu_us_per_event": (
                median(r.cpu_s for r in calm_repeats) / events * 1e6,
                len(calm_repeats),
            ),
            "emit_latency_p50_ms": (
                median(s.latency_ms(0.5) for s in calm_segments),
                len(calm_segments),
            ),
        }

    def calm_segments(self) -> List[PacedResult]:
        segments = [segment for _, segment in self.rounds]
        medians = [segment.latency_ms(0.5) for segment in segments]
        return [segments[k] for k in calm(medians, CALM_LATENCY)]

    def pooled_p99_ms(self) -> float:
        """p99 over the pooled latencies of the undisturbed segments (one 1 s
        segment holds too few of the stalls that make up the tail). Printed,
        not gated: it did not repeat within any admissible bound."""
        pooled = sorted(
            latency for s in self.calm_segments() for latency in s.event_latency_s
        )
        return percentile(pooled, 0.99) * 1e3


def run_end_to_end(inputs: Inputs, seconds: float, min_rounds: int = 3) -> EndToEnd:
    """Rounds of one closed-loop repeat and one open-loop segment until the
    budget is spent, then the check.

    The two phases alternate so that a disturbance lasting a few seconds lands
    on some rounds of both rather than on the whole of one phase, which leaves
    :func:`calm` undisturbed rounds of each to pick.
    """
    workload = inputs.workload
    target = make_target(inputs)
    rate = workload.paced_rate
    segment = inputs.timed[: max(int(rate * OPEN_SEGMENT_S), PACED_BATCH)]
    rounds: List[Tuple[Repeat, PacedResult]] = []
    started = time.perf_counter()
    while True:
        lap = time.perf_counter()
        rounds.append((closed_repeat(target), paced_phase(target, segment, rate)))
        now = time.perf_counter()
        if len(rounds) >= min_rounds and (now - started) + (now - lap) > seconds:
            break
    rss = peak_rss_mib()  # before the reference engine below can raise it

    reference = reference_run(inputs)
    expected_segment = reference.stamps_upto(segment[-1].timestamp)
    tally = Tally()
    for repeat, paced in rounds:
        tally.check(len(inputs.timed), repeat.digest, reference.full)
        tally.check(len(segment), paced.digest, expected_segment)
    if target.resolved != reference.strategies:
        tally.failed += len(inputs.timed)
    return EndToEnd(
        rounds=rounds,
        peak_rss_mib=rss,
        reference=reference,
        tally=tally,
        timed_events=len(inputs.timed),
    )
