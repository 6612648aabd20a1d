"""Guard: a hub vertex's adjacency bucket keeps O(1) eviction.

The window's per-(vertex, type) buckets are lists, and eviction deletes
their front element. A list bucket that eviction finds longer than
``PROMOTE_AT`` becomes a deque first; without that, every eviction from
a hub's bucket would shift the whole list. This script times the ingest
of two streams of the same length through the same window:

* **hub** — every edge enters one vertex, from 5 000 sources;
* **spread** — the same sources, each edge into one of 5 000 vertices.

It times both ingest bodies (the engine's fused chunk loop, with no
query registered, and the reference ``StreamingGraph.add_event``), takes
the best of three CPU-time runs of each, and exits 1 when hub CPU per
event exceeds 1.5 times spread on either. Run::

    PYTHONPATH=src python tools/check_hub_eviction.py
"""

from __future__ import annotations

import sys
import time
from typing import List

from repro import ContinuousQueryEngine
from repro.graph import EdgeEvent, StreamingGraph

EVENTS = 200_000
WINDOW = 50_000.0
SOURCES = 5_000
REPEATS = 3
MAX_RATIO = 1.5


def stream(hub: bool) -> List[EdgeEvent]:
    return [
        EdgeEvent(f"s{i % SOURCES}", "hub" if hub else f"d{i % SOURCES}", "T", float(i))
        for i in range(EVENTS)
    ]


def engine_ingest(events: List[EdgeEvent]) -> None:
    ContinuousQueryEngine(window=WINDOW).process_events(events)


def reference_ingest(events: List[EdgeEvent]) -> None:
    StreamingGraph(window=WINDOW).add_events(events)


def best_us_per_event(ingest, events: List[EdgeEvent]) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        started = time.process_time()
        ingest(events)
        best = min(best, time.process_time() - started)
    return best / len(events) * 1e6


def main() -> int:
    hub = stream(hub=True)
    spread = stream(hub=False)
    failed = False
    for name, ingest in (("engine", engine_ingest), ("reference", reference_ingest)):
        hub_us = best_us_per_event(ingest, hub)
        spread_us = best_us_per_event(ingest, spread)
        ratio = hub_us / spread_us
        ok = ratio <= MAX_RATIO
        failed |= not ok
        print(
            f"{name}: hub {hub_us:.2f} us/event, spread {spread_us:.2f} us/event, "
            f"ratio {ratio:.2f} (limit {MAX_RATIO}) {'ok' if ok else 'FAIL'}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
