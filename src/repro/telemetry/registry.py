"""Dependency-free metrics primitives: counters, gauges, histograms.

The registry is built for a single-writer, pull-based collection model:
hot paths touch plain preallocated slots (an ``int``/``float`` attribute
bump, no locks, no dict lookups when the caller caches the slot), and a
point-in-time snapshot is assembled only when someone asks for it via
:meth:`MetricsRegistry.collect`.

Snapshots are plain JSON-able dicts so they can cross process boundaries
over the existing multiprocessing queues, be merged by the coordinator
(:meth:`MetricsRegistry.merge_snapshots`), appended to a JSONL file, or
rendered in the Prometheus text exposition format.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterable, List, Sequence, Tuple

from .schema import BYTES_BUCKETS, KNOWN_FAMILIES, SECONDS_BUCKETS

__all__ = [
    "CounterSlot",
    "GaugeSlot",
    "HistogramSlot",
    "CheckpointStats",
    "MetricFamily",
    "MetricsRegistry",
]


class CounterSlot:
    """Monotonically increasing value owned by a single writer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class GaugeSlot:
    """Point-in-time value; set wins, no history."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class HistogramSlot:
    """Fixed-bucket histogram: per-bucket counts plus sum/count.

    ``counts`` holds one slot per bound plus a final overflow slot, in
    non-cumulative form (the Prometheus renderer accumulates on the way
    out).  ``observe`` is a bisect plus two adds — cheap enough to sit on
    checkpoint and batch-dispatch paths without skewing them.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Sequence[float]) -> None:
        self.bounds: Tuple[float, ...] = tuple(sorted(float(b) for b in bounds))
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        # Prometheus buckets are inclusive upper bounds (v <= le), so an
        # observation equal to a bound lands in that bound's bucket.
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def merge(self, other: "HistogramSlot") -> None:
        if self.bounds != other.bounds:
            raise ValueError(
                f"histogram bucket bounds differ: {self.bounds} vs {other.bounds}"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.sum += other.sum
        self.count += other.count


class CheckpointStats:
    """Persistence telemetry an engine accumulates across checkpoints.

    Lives on the engine (not in a registry) so snapshots stay pull-based:
    the registry builder reads these slots at collect time.
    """

    __slots__ = ("count", "seconds", "bytes", "last_seconds", "last_bytes")

    def __init__(self) -> None:
        self.count = 0
        self.seconds = HistogramSlot(SECONDS_BUCKETS)
        self.bytes = HistogramSlot(BYTES_BUCKETS)
        self.last_seconds = 0.0
        self.last_bytes = 0

    def record(self, elapsed: float, size_bytes: int) -> None:
        self.count += 1
        self.seconds.observe(elapsed)
        self.bytes.observe(float(size_bytes))
        self.last_seconds = elapsed
        self.last_bytes = size_bytes


class MetricFamily:
    """A declared metric family plus its labelled sample slots."""

    __slots__ = ("name", "spec", "_slots")

    def __init__(self, name: str) -> None:
        spec = KNOWN_FAMILIES.get(name)
        if spec is None:
            raise ValueError(
                f"{name!r} is not a declared metric family "
                "(declare it in repro.telemetry.schema.KNOWN_FAMILIES)"
            )
        self.name = name
        self.spec = spec
        self._slots: Dict[Tuple[str, ...], object] = {}

    def labels(self, *values: object):
        """Return (creating on first use) the slot for a label combination."""
        key = tuple(str(v) for v in values)
        spec = self.spec
        if len(key) != len(spec.labels):
            raise ValueError(
                f"{self.name}: expected {len(spec.labels)} label values, "
                f"got {len(key)}"
            )
        slot = self._slots.get(key)
        if slot is None:
            if spec.kind == "counter":
                slot = CounterSlot()
            elif spec.kind == "gauge":
                slot = GaugeSlot()
            else:
                slot = HistogramSlot(spec.bounds)
            self._slots[key] = slot
        return slot

    @property
    def slot(self):
        """The unlabelled slot, for families without label dimensions."""
        return self.labels()

    def samples(self) -> List[dict]:
        out = []
        for key in sorted(self._slots):
            slot = self._slots[key]
            sample: dict = {"labels": list(key)}
            if self.spec.kind == "histogram":
                assert isinstance(slot, HistogramSlot)
                sample["bounds"] = list(slot.bounds)
                sample["counts"] = list(slot.counts)
                sample["sum"] = slot.sum
                sample["count"] = slot.count
            else:
                sample["value"] = slot.value  # type: ignore[union-attr]
            out.append(sample)
        return out


class MetricsRegistry:
    """An ordered collection of metric families.

    Construction is cheap; the sharded coordinator and the engine both
    build a fresh registry per :meth:`collect` call from state the
    runtime already maintains, so nothing on the per-edge path pays for
    telemetry being armed.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    def family(self, name: str) -> MetricFamily:
        """The family ``name``, built from its catalog declaration on first
        use; an undeclared name raises :class:`ValueError`."""
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = MetricFamily(name)
        return family

    # -- snapshots ----------------------------------------------------------

    def collect(self) -> Dict[str, dict]:
        """Point-in-time snapshot as a plain JSON-able dict."""
        snap: Dict[str, dict] = {}
        for name, family in self._families.items():
            spec = family.spec
            entry: dict = {
                "type": spec.kind,
                "help": spec.help,
                "labels": list(spec.labels),
                "samples": family.samples(),
            }
            if spec.kind == "gauge":
                entry["agg"] = spec.agg
            snap[name] = entry
        return snap

    @classmethod
    def from_snapshot(cls, snapshot: Dict[str, dict]) -> "MetricsRegistry":
        """Rebuild a registry (e.g. coordinator-side) from a snapshot dict.

        Families come from the catalog by name; the snapshot supplies
        only the samples.
        """
        registry = cls()
        for name, entry in snapshot.items():
            family = registry.family(name)
            histogram = family.spec.kind == "histogram"
            for sample in entry["samples"]:
                slot = family.labels(*sample["labels"])
                if histogram:
                    assert isinstance(slot, HistogramSlot)
                    slot.counts = list(sample["counts"])
                    slot.sum = sample["sum"]
                    slot.count = sample["count"]
                else:
                    slot.value = sample["value"]  # type: ignore[union-attr]
        return registry

    @staticmethod
    def merge_snapshots(snapshots: Iterable[Dict[str, dict]]) -> Dict[str, dict]:
        """Merge per-worker snapshots into one aggregated snapshot.

        Counters and histograms sum; gauges follow their family's ``agg``
        policy.  Label sets union — distinct label combinations from
        different workers land as distinct samples.
        """
        merged: Dict[str, dict] = {}
        index: Dict[str, Dict[Tuple[str, ...], dict]] = {}
        for snap in snapshots:
            for name, entry in snap.items():
                target = merged.get(name)
                if target is None:
                    target = {
                        "type": entry["type"],
                        "help": entry.get("help", ""),
                        "labels": list(entry.get("labels", ())),
                        "samples": [],
                    }
                    if entry["type"] == "gauge":
                        target["agg"] = entry.get("agg", "sum")
                    merged[name] = target
                    index[name] = {}
                by_labels = index[name]
                kind = target["type"]
                agg = target.get("agg", "sum")
                for sample in entry["samples"]:
                    key = tuple(sample["labels"])
                    existing = by_labels.get(key)
                    if existing is None:
                        copy = dict(sample)
                        if kind == "histogram":
                            copy["bounds"] = list(sample["bounds"])
                            copy["counts"] = list(sample["counts"])
                        copy["labels"] = list(key)
                        by_labels[key] = copy
                        target["samples"].append(copy)
                        continue
                    if kind == "histogram":
                        if existing["bounds"] != sample["bounds"]:
                            raise ValueError(
                                f"{name}: histogram bounds differ across snapshots"
                            )
                        existing["counts"] = [
                            a + b
                            for a, b in zip(existing["counts"], sample["counts"])
                        ]
                        existing["sum"] += sample["sum"]
                        existing["count"] += sample["count"]
                    elif kind == "counter" or agg == "sum":
                        existing["value"] += sample["value"]
                    elif agg == "max":
                        existing["value"] = max(existing["value"], sample["value"])
                    else:  # min
                        existing["value"] = min(existing["value"], sample["value"])
        for entry in merged.values():
            entry["samples"].sort(key=lambda s: s["labels"])
        return merged

    # -- prometheus rendering -----------------------------------------------

    def render_prometheus(self) -> str:
        return render_prometheus(self.collect())


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(names: Sequence[str], values: Sequence[str], extra: str = "") -> str:
    parts = [
        '%s="%s"'
        % (n, str(v).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n"))
        for n, v in zip(names, values)
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def render_prometheus(snapshot: Dict[str, dict]) -> str:
    """Render a snapshot in the Prometheus text exposition format."""
    lines: List[str] = []
    for name, entry in snapshot.items():
        kind = entry["type"]
        if entry.get("help"):
            lines.append(f"# HELP {name} {entry['help']}")
        lines.append(f"# TYPE {name} {kind}")
        label_names = entry.get("labels", ())
        for sample in entry["samples"]:
            values = sample["labels"]
            if kind == "histogram":
                cumulative = 0
                for bound, count in zip(sample["bounds"], sample["counts"]):
                    cumulative += count
                    le = _format_labels(
                        label_names, values, f'le="{_format_value(bound)}"'
                    )
                    lines.append(f"{name}_bucket{le} {cumulative}")
                cumulative += sample["counts"][len(sample["bounds"])]
                le = _format_labels(label_names, values, 'le="+Inf"')
                lines.append(f"{name}_bucket{le} {cumulative}")
                plain = _format_labels(label_names, values)
                lines.append(f"{name}_sum{plain} {_format_value(sample['sum'])}")
                lines.append(f"{name}_count{plain} {sample['count']}")
            else:
                plain = _format_labels(label_names, values)
                lines.append(f"{name}{plain} {_format_value(sample['value'])}")
    return "\n".join(lines) + "\n"
