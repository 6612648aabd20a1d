"""The fast path allocates no more at peak than the seed path, and its
peak does not grow with the stream.

The seed-path comparison runs the seed/fast floor's workload in
``tools/check_perf_floors.py``: 1 500 events over 24 edge types into ten
``Single`` queries, window 40. The growth check runs the same queries
over a stream whose vertex population is fixed. tracemalloc counts
bytes, not time, so unlike that script's timings the comparisons are
deterministic and run in tier-1.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.analysis.experiments import mixed_etype_queries, mixed_etype_stream
from repro.search.engine import ContinuousQueryEngine
from tools.check_perf_floors import feed, identities, registered_engine, workload

#: peak traced bytes the engine may add per extra stream event once its
#: window is full; a healthy engine reads ~4.5, one that keeps every
#: encoded chunk alive ~27
RETAINED_BYTES_PER_EVENT = 12


def traced_run(warmup, stream, queries, *, fast):
    """Peak traced bytes of one stream section, and its records."""
    engine = registered_engine(warmup, queries, fast=fast)
    tracemalloc.start()
    try:
        records = feed(engine, stream, fast=fast)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, identities(records)


def test_fast_path_peak_is_at_most_the_seed_paths():
    warmup, stream, queries = workload()
    # One untraced run of each path first. A process's first run pays for
    # one-time state (lazy imports, code caches, interned strings) that a
    # steady-state engine never allocates again; at this size that is
    # several times the stream section's own peak.
    for fast in (True, False):
        feed(registered_engine(warmup, queries, fast=fast), stream, fast=fast)
    seed_peak, seed_records = traced_run(warmup, stream, queries, fast=False)
    fast_peak, fast_records = traced_run(warmup, stream, queries, fast=True)
    assert fast_records == seed_records
    assert fast_records, "the workload must emit records"
    assert fast_peak <= seed_peak, (
        f"fast path peaks at {fast_peak} traced bytes, the seed path at {seed_peak}"
    )


def steady_peak(stream, warm: int, events: int) -> int:
    """Peak traced bytes of feeding ``events`` events past a warm window,
    in 250-event calls whose records are dropped at once."""
    engine = ContinuousQueryEngine(window=40.0)
    engine.warmup(stream[:warm])
    for query in mixed_etype_queries(10, 24):
        engine.register(query, strategy="Single", name=query.name)
    engine.warm_kernels()
    engine.process_events(stream[:warm])
    gc.collect()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        for start in range(warm, warm + events, 250):
            engine.process_events(stream[start : start + 250])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base


def test_fast_path_peak_does_not_grow_with_the_stream():
    # The seed-path comparison above cannot see retention below ~60 KB; a
    # leak that scales with the stream shows as a slope between two
    # lengths instead. A fixed vertex population keeps the window's own
    # state stationary, so a healthy engine's peak barely moves.
    warm, short, long = 1500, 1500, 3000
    stream = mixed_etype_stream(warm + long, num_etypes=24, seed=3, population=80)
    steady_peak(stream, warm, short)  # one-time state, as above
    slope = (steady_peak(stream, warm, long) - steady_peak(stream, warm, short)) / (
        long - short
    )
    assert slope <= RETAINED_BYTES_PER_EVENT, (
        f"peak grows {slope:.1f} traced bytes per event "
        f"(bound {RETAINED_BYTES_PER_EVENT})"
    )
