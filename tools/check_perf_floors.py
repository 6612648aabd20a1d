"""Guard: the engine's performance floors hold on this host.

Each floor compares two measurements taken in this process on one
workload, so a slow runner and a fast one are held to the same number:

* **hub eviction** — the window's per-(vertex, type) buckets are lists,
  and eviction deletes their front element. A list bucket that eviction
  finds longer than ``PROMOTE_AT`` becomes a deque first; without that,
  every eviction from a hub's bucket would shift the whole list. Two
  streams of the same length go through the same window: *hub*, where
  every edge enters one vertex from 5 000 sources, and *spread*, where
  each edge enters one of 5 000 vertices. Both ingest bodies are timed
  (the engine's fused chunk loop with no query registered, and the
  reference ``StreamingGraph.add_events``), best of three CPU-time runs
  each; the floor is the larger hub/spread ratio of the two.
* **seed/fast** — the seed engine's configuration (no dispatch, the
  interpretive matcher, phase timers on, one ``process_event`` call per
  event) against the defaults (dispatch, compiled plans, the fused chunk
  loop, kernels warmed by ``warm_kernels``). Wall time of the stream
  section, best of five interleaved runs, the cyclic collector off in
  both.
* **collect** — one ``metrics().collect()`` on the loaded end-of-stream
  engine, per metric family: a collect that starts walking per-match
  state crosses it.
* **autoscale** — a 3-worker engine with the controller armed faces the
  two-phase skewed stream; its steady-phase throughput per worker must
  beat the fixed layout's, best of three, and every armed run must scale.

The allocation floor (fast-path peak traced bytes at most the seed
path's) is deterministic, so it is a tier-1 test on the same workload
(``tests/test_peak_allocation.py``), as is the record identity of every
path timed here.

Prints one line per floor with its measured value and exits 1 when any
floor is violated. Run::

    PYTHONPATH=src python tools/check_perf_floors.py
"""

from __future__ import annotations

import gc
import math
import sys
import time
from typing import Callable, List, Optional, Tuple

from repro import ContinuousQueryEngine, QueryGraph, ShardedEngine
from repro.analysis.experiments import (
    mixed_etype_queries,
    mixed_etype_stream,
    skewed_etype_stream,
)
from repro.graph import EdgeEvent, StreamingGraph
from repro.runtime import AutoscalePolicy

#: the hub-eviction streams
HUB_EVENTS = 200_000
HUB_WINDOW = 50_000.0
HUB_SOURCES = 5_000
HUB_REPEATS = 3

#: the seed/fast, collect and autoscale workload: 24 edge types, so each
#: edge is relevant to only a couple of the 10 queries (the dispatch
#: layer's target regime); the first quarter of the stream warms the
#: window before registration
EVENTS = 2_000
WARMUP_FRACTION = 0.25
NUM_ETYPES = 24
NUM_QUERIES = 10
WINDOW = 40.0
STREAM_SEED = 7

#: seed/fast: five repeats, because the fast path's whole timed section
#: is ~10 ms, well inside scheduler noise on a shared host
ENGINE_REPEATS = 5

#: collect: one collect() at each of ten segment boundaries while the
#: stream runs, then the timed samples on the loaded engine
COLLECT_SEGMENTS = 10
COLLECT_SAMPLES = 25

#: autoscale: the steady phase is a few hundred events at this size
AUTOSCALE_WORKERS = 3
AUTOSCALE_HOT_ETYPES = ("T00", "T01", "T02")
AUTOSCALE_REPEATS = 3
WORKER_BATCH = 256


class FloorError(Exception):
    """The workload behind a floor misbehaved, so there is no value."""


Measured = Tuple[float, str]


# ----------------------------------------------------------------------
# hub eviction
# ----------------------------------------------------------------------


def hub_stream(hub: bool) -> List[EdgeEvent]:
    return [
        EdgeEvent(
            f"s{i % HUB_SOURCES}",
            "hub" if hub else f"d{i % HUB_SOURCES}",
            "T",
            float(i),
        )
        for i in range(HUB_EVENTS)
    ]


def engine_ingest(events: List[EdgeEvent]) -> None:
    ContinuousQueryEngine(window=HUB_WINDOW).process_events(events)


def reference_ingest(events: List[EdgeEvent]) -> None:
    StreamingGraph(window=HUB_WINDOW).add_events(events)


def best_us_per_event(ingest, events: List[EdgeEvent]) -> float:
    best = math.inf
    for _ in range(HUB_REPEATS):
        started = time.process_time()
        ingest(events)
        best = min(best, time.process_time() - started)
    return best / len(events) * 1e6


def hub_eviction_ratio() -> Measured:
    hub, spread = hub_stream(hub=True), hub_stream(hub=False)
    ratios, details = [], []
    for name, ingest in (("engine", engine_ingest), ("reference", reference_ingest)):
        hub_us = best_us_per_event(ingest, hub)
        spread_us = best_us_per_event(ingest, spread)
        ratios.append(hub_us / spread_us)
        details.append(f"{name} hub {hub_us:.2f} / spread {spread_us:.2f} us/event")
    return max(ratios), "; ".join(details)


# ----------------------------------------------------------------------
# the seed/fast workload
# ----------------------------------------------------------------------


def workload() -> Tuple[List[EdgeEvent], List[EdgeEvent], List[QueryGraph]]:
    """``(warmup, stream, queries)`` of the seed/fast and collect floors."""
    full = mixed_etype_stream(EVENTS, num_etypes=NUM_ETYPES, seed=STREAM_SEED)
    warm = int(EVENTS * WARMUP_FRACTION)
    return full[:warm], full[warm:], mixed_etype_queries(NUM_QUERIES, NUM_ETYPES)


def registered_engine(
    warmup: List[EdgeEvent], queries: List[QueryGraph], *, fast: bool
) -> ContinuousQueryEngine:
    """A warmed engine on the fast path or the seed path, queries registered."""
    engine = ContinuousQueryEngine(
        window=WINDOW, dispatch=fast, profile_phases=not fast
    )
    engine.warmup(warmup)
    options = {} if fast else {"compiled_plans": False}
    for query in queries:
        engine.register(query, strategy="Single", name=query.name, **options)
    if fast:
        engine.warm_kernels()
    return engine


def feed(engine: ContinuousQueryEngine, stream: List[EdgeEvent], *, fast: bool) -> list:
    """The stream section: the fused chunk loop, or one call per event."""
    if fast:
        return engine.process_events(stream)
    records = []
    for event in stream:
        records.extend(engine.process_event(event))
    return records


def identities(records) -> list:
    """What record identity compares: query, matched edges, completion time."""
    return [(r.query_name, r.match.fingerprint, r.completed_at) for r in records]


def seed_fast_ratio() -> Measured:
    warmup, stream, queries = workload()
    best = {True: math.inf, False: math.inf}
    for _ in range(ENGINE_REPEATS):
        # interleaved: both minima sample the same epochs of host drift
        for fast in (True, False):
            engine = registered_engine(warmup, queries, fast=fast)
            gc.collect()
            gc.disable()
            started = time.perf_counter()
            try:
                records = feed(engine, stream, fast=fast)
            finally:
                gc.enable()
            best[fast] = min(best[fast], time.perf_counter() - started)
            del records  # freed here, not by the next timed assignment
    return (
        best[False] / best[True],
        f"seed {best[False] * 1e3:.1f} ms, fast {best[True] * 1e3:.1f} ms "
        f"over {len(stream)} events",
    )


def collect_us_per_family() -> Measured:
    warmup, stream, queries = workload()
    engine = registered_engine(warmup, queries, fast=True)
    step = max(len(stream) // COLLECT_SEGMENTS, 1)
    for at in range(0, len(stream), step):
        engine.process_events(stream[at : at + step])
        engine.metrics().collect()
    started = time.perf_counter()
    for _ in range(COLLECT_SAMPLES):
        snapshot = engine.metrics().collect()
    seconds = (time.perf_counter() - started) / COLLECT_SAMPLES
    return (
        seconds * 1e6 / len(snapshot),
        f"{seconds * 1e3:.2f} ms per collect over {len(snapshot)} families",
    )


# ----------------------------------------------------------------------
# autoscale skew recovery
# ----------------------------------------------------------------------


def autoscale_recovery() -> Measured:
    """Steady-phase throughput per worker, armed over fixed.

    The stream runs in three segments — uniform, hot pivot, steady (still
    hot) — once with a fixed 3-worker layout and once with the controller
    armed (``min_workers=1``). Both runs must stay record-identical to a
    one-worker reference, and every armed run must scale.
    """
    full = skewed_etype_stream(
        EVENTS, num_etypes=NUM_ETYPES, hot_etypes=AUTOSCALE_HOT_ETYPES
    )
    warm_n = int(EVENTS * WARMUP_FRACTION)
    warmup, stream = full[:warm_n], full[warm_n:]
    queries = mixed_etype_queries(NUM_QUERIES, NUM_ETYPES)
    # the generator pivots at EVENTS / 2; the steady phase is the back
    # half of the hot phase (layout churn settled, skew persistent)
    pivot = EVENTS // 2 - warm_n
    steady_from = pivot + (len(stream) - pivot) // 2
    segments = [stream[:pivot], stream[pivot:steady_from], stream[steady_from:]]
    steady_events = len(segments[2])
    # four evaluation ticks inside the skew segment (the controller reacts
    # at the first hot one), then a cooldown long enough that no further
    # action (each a checkpoint and respawn) lands in the timed segment
    evaluate_every = max((steady_from - pivot) // 4, 1)
    cooldown = (len(stream) - pivot) // evaluate_every + 1

    def run(workers: int, policy: Optional[AutoscalePolicy]):
        engine = ShardedEngine(
            window=WINDOW, workers=workers, batch_size=WORKER_BATCH, autoscale=policy
        )
        engine.warmup(warmup)
        for query in queries:
            engine.register(query, strategy="Single", name=query.name)
        records: list = []
        try:
            engine.start()
            steady_seconds = 0.0
            for index, segment in enumerate(segments):
                # the armed engine slices run() into evaluation-sized
                # sub-runs itself; the fixed one gets the same slices, so
                # both pay the same flush/merge barriers and the ratio
                # compares layouts, not batching
                if policy is None:
                    slices = [
                        segment[at : at + evaluate_every]
                        for at in range(0, len(segment), evaluate_every)
                    ]
                else:
                    slices = [segment]
                started = time.perf_counter()
                results = [engine.run(part) for part in slices]
                if index == len(segments) - 1:
                    steady_seconds = time.perf_counter() - started
                for result in results:
                    records += result.records
            controller = engine.autoscaler
            outcome = (
                steady_seconds,
                engine.workers,
                controller.actions() if controller else [],
            )
        finally:
            engine.close()
        return identities(records), outcome

    reference, _ = run(1, None)
    policy = AutoscalePolicy(
        min_workers=1,
        max_workers=AUTOSCALE_WORKERS,
        evaluate_every=evaluate_every,
        cooldown=cooldown,
    )
    best_fixed = math.inf
    best_armed = -math.inf
    for _ in range(AUTOSCALE_REPEATS):
        for armed in (None, policy):
            records, (seconds, workers, actions) = run(AUTOSCALE_WORKERS, armed)
            label = "fixed" if armed is None else "autoscaled"
            if records != reference:
                raise FloorError(
                    f"{label} run diverged from the one-worker reference: "
                    f"{len(records)} vs {len(reference)} records"
                )
            if armed is None:
                best_fixed = min(best_fixed, seconds)
            elif not actions:
                raise FloorError("the controller never scaled on the skewed stream")
            else:
                best_armed = max(best_armed, steady_events / seconds / workers)
    fixed = steady_events / best_fixed / AUTOSCALE_WORKERS
    return (
        best_armed / fixed,
        f"{best_armed:.0f} vs {fixed:.0f} events/s per worker "
        f"over {steady_events} steady events",
    )


#: ``(name, measure, limit, at_most)``: a floor holds when its measured
#: value is at most ``limit`` (``at_most``) or at least ``limit``.
FLOORS: Tuple[Tuple[str, Callable[[], Measured], float, bool], ...] = (
    ("hub/spread eviction CPU", hub_eviction_ratio, 1.5, True),
    ("seed/fast wall time", seed_fast_ratio, 8.0, False),
    ("collect us per family", collect_us_per_family, 100.0, True),
    ("autoscale skew recovery", autoscale_recovery, 1.1, False),
)


def main() -> int:
    failed = False
    for name, measure, limit, at_most in FLOORS:
        bound = f"{'<=' if at_most else '>='} {limit}"
        try:
            value, detail = measure()
        except FloorError as error:
            failed = True
            print(f"{name}: FAIL ({error}; floor {bound})")
            continue
        ok = value <= limit if at_most else value >= limit
        failed |= not ok
        print(f"{name}: {value:.2f} (floor {bound}) {'ok' if ok else 'FAIL'}; {detail}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
