"""Runtime telemetry: metrics registry, instrumentation, exposition.

Dependency-free observability for the streaming engine.  Collection is
pull-based — see :mod:`repro.telemetry.instrument` — so arming metrics
costs the per-edge hot path nothing beyond a few always-on integer
counters; `ContinuousQueryEngine.metrics()` and `ShardedEngine.metrics()`
assemble registries on demand, and the CLI can stream snapshots to JSONL
(``--metrics-out``) or serve them over HTTP (``--metrics-port``).
"""

from .exposition import MetricsHTTPServer, MetricsJSONLWriter
from .registry import (
    CheckpointStats,
    CounterSlot,
    GaugeSlot,
    HistogramSlot,
    MetricFamily,
    MetricsRegistry,
    render_prometheus,
)
from .schema import (
    BYTES_BUCKETS,
    REQUIRED_AUTOSCALE_FAMILIES,
    REQUIRED_ENGINE_FAMILIES,
    REQUIRED_RUNTIME_FAMILIES,
    SECONDS_BUCKETS,
    validate_jsonl_file,
    validate_jsonl_lines,
    validate_snapshot,
)

__all__ = [
    "BYTES_BUCKETS",
    "SECONDS_BUCKETS",
    "CheckpointStats",
    "CounterSlot",
    "GaugeSlot",
    "HistogramSlot",
    "MetricFamily",
    "MetricsHTTPServer",
    "MetricsJSONLWriter",
    "MetricsRegistry",
    "REQUIRED_AUTOSCALE_FAMILIES",
    "REQUIRED_ENGINE_FAMILIES",
    "REQUIRED_RUNTIME_FAMILIES",
    "render_prometheus",
    "validate_jsonl_file",
    "validate_jsonl_lines",
    "validate_snapshot",
]
