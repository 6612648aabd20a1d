"""The fast path allocates no more at peak than the seed path.

The workload is the seed/fast floor's in ``tools/check_perf_floors.py``:
1 500 events over 24 edge types into ten ``Single`` queries, window 40.
tracemalloc counts bytes, not time, so unlike that script's timings the
comparison is deterministic and runs in tier-1.
"""

from __future__ import annotations

import tracemalloc

from tools.check_perf_floors import feed, identities, registered_engine, workload


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
