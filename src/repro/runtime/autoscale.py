"""Elastic autoscaling — the controller that closes the rebalance loop.

PR 5 built the mechanism (``ShardedEngine.rebalance()``: online
checkpoint → live-statistics re-cut → respawn), PR 7 the sensors (the
coordinator's ``repro_runtime_*`` telemetry: per-worker routed load,
batch-put latency, heartbeats), and PR 8 the actuator hardening
(supervised stop-and-restart). This module adds the missing piece: a
coordinator-side controller that watches those signals *while the
stream runs* and triggers the rebalance itself, turning the static
launch-time shard placement into one that tracks the stream — the
adaptive-repartitioning direction the related streaming-subgraph
systems motivate.

Signals, per evaluation tick (one tick = ``evaluate_every`` events):

* **skew** — :func:`skew_score` over per-worker load (events routed +
  records emitted since the last tick). ``1 − mean/max``: 0 when the
  shards are perfectly balanced, →1 when one worker carries everything.
  Invariant under worker relabeling (a property test pins this).
* **drift** — :func:`~repro.stats.stability.drift_score` between the
  live edge-type mix (a :class:`~repro.stats.WindowedSelectivityEstimator`
  over the engine's own window, §6.3 rank-stability machinery) and the
  mix the current layout was cut from. High drift means the placement
  statistics have gone stale even if load still *looks* balanced.
* **backpressure** — mean blocking batch-put latency this tick, read
  from the coordinator's ``repro_runtime_batch_put_seconds`` histogram
  slot. Sustained puts mean every queue is full: the tier is saturated,
  not merely skewed.
* **starvation** — workers whose share of the tick's load falls below
  ``starve_fraction`` of a fair share. Paying a process for ~nothing is
  the scale-*down* signal.

Decision order (first match wins, after the cooldown gate):
backpressure → scale up one worker; starvation → scale down to the
busy count; skew or drift above threshold → rebalance at the same
worker count. Every action runs through the ordinary
:meth:`~repro.runtime.sharded.ShardedEngine.rebalance` path, so the
merged output stays record-identical to a fixed-layout run — the
unchanged correctness bar, enforced by ``tests/test_autoscale.py``.

Every evaluation (acting or not) is appended to a structured decision
trail (:class:`AutoscaleDecision`), surfaced through ``describe()``,
the CLI run summary and the ``repro_runtime_autoscale_*`` telemetry
families.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..stats.stability import drift_score
from ..stats.windowed import WindowedSelectivityEstimator

__all__ = [
    "AutoscaleController",
    "AutoscaleDecision",
    "AutoscalePolicy",
    "skew_score",
]

#: Actions that change the layout (vs "none"/"hold" observations).
SCALE_ACTIONS = ("scale_up", "scale_down", "rebalance")


def skew_score(loads: Iterable[float]) -> float:
    """Load imbalance in [0, 1): ``1 − mean/max`` over per-worker loads.

    0.0 for an empty tick, a single worker, or perfectly balanced
    shards; approaches 1 as one worker carries everything. Depends only
    on the multiset of loads, so it is invariant under any relabeling
    of the workers (property-tested with hypothesis).
    """
    values = [max(0.0, float(v)) for v in loads]
    peak = max(values, default=0.0)
    if peak <= 0.0:
        return 0.0
    # mean/peak can exceed 1 by one ulp when every load is equal (the
    # division does not round-trip sum/len exactly), which would leak a
    # tiny negative out of the documented [0, 1) interval.
    return max(0.0, 1.0 - (sum(values) / len(values)) / peak)


@dataclass(frozen=True)
class AutoscalePolicy:
    """Declarative autoscaling policy for :class:`ShardedEngine`.

    Frozen and validated up front (mirroring
    :class:`~repro.runtime.supervisor.RestartPolicy`) so a bad knob
    fails at arm time, not thousands of events into a stream.

    Parameters
    ----------
    min_workers / max_workers:
        Inclusive bounds the controller may scale between. The engine's
        launch ``workers`` must lie inside them.
    evaluate_every:
        Events between evaluation ticks. Also the sub-segment size the
        armed engine uses internally, so ticks land at exact stream
        positions regardless of how callers batch their ``run()`` calls.
    cooldown:
        Evaluation ticks to hold after an action before acting again —
        a rebalance perturbs every signal (fresh queues, re-cut loads),
        so reacting to the immediate aftermath oscillates.
    skew_threshold:
        Tick skew score above which a same-count rebalance fires.
    drift_threshold:
        Drift (vs the mix the layout was cut from) above which a
        same-count rebalance fires even when load still looks balanced.
    backpressure_seconds:
        Mean blocking batch-put latency above which the tier is deemed
        saturated and one worker is added (up to ``max_workers``).
    starve_fraction:
        A worker whose share of the tick load is below
        ``starve_fraction / live_workers`` counts as starved; starved
        workers trigger a scale-down to the busy count (down to
        ``min_workers``).
    ignore_below:
        Drop edge types with fewer than this many live-window
        occurrences from the drift ranking (the §6.3 low-frequency
        tail guard).
    partitioner:
        Partitioner for controller-initiated re-cuts; ``None`` (the
        default) threads the engine's *active* partitioner through, so
        controller and manual rebalances agree.
    """

    min_workers: int = 1
    max_workers: int = 8
    evaluate_every: int = 4096
    cooldown: int = 2
    skew_threshold: float = 0.35
    drift_threshold: float = 0.6
    backpressure_seconds: float = 0.05
    starve_fraction: float = 0.25
    ignore_below: int = 0
    partitioner: Optional[str] = None

    def __post_init__(self) -> None:
        if self.min_workers < 1:
            raise ValueError(f"min_workers must be >= 1, got {self.min_workers}")
        if self.max_workers < self.min_workers:
            raise ValueError(
                f"max_workers ({self.max_workers}) must be >= "
                f"min_workers ({self.min_workers})"
            )
        if self.evaluate_every < 1:
            raise ValueError(
                f"evaluate_every must be >= 1, got {self.evaluate_every}"
            )
        if self.cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {self.cooldown}")
        if not 0.0 < self.skew_threshold <= 1.0:
            raise ValueError(
                f"skew_threshold must be in (0, 1], got {self.skew_threshold}"
            )
        if not 0.0 < self.drift_threshold <= 1.0:
            raise ValueError(
                f"drift_threshold must be in (0, 1], got {self.drift_threshold}"
            )
        if self.backpressure_seconds <= 0.0:
            raise ValueError(
                "backpressure_seconds must be positive, got "
                f"{self.backpressure_seconds}"
            )
        if not 0.0 < self.starve_fraction < 1.0:
            raise ValueError(
                f"starve_fraction must be in (0, 1), got {self.starve_fraction}"
            )
        if self.ignore_below < 0:
            raise ValueError(f"ignore_below must be >= 0, got {self.ignore_below}")
        if self.partitioner is not None and self.partitioner not in (
            "cost",
            "round-robin",
        ):
            raise ValueError(
                f"unknown partitioner {self.partitioner!r}; "
                "expected 'cost', 'round-robin' or None (engine's active)"
            )


@dataclass(frozen=True)
class AutoscaleDecision:
    """One evaluation tick of the controller — the decision-trail entry.

    ``action`` is ``"scale_up"``/``"scale_down"``/``"rebalance"`` when
    the controller re-cut the layout, ``"hold"`` when the cooldown gate
    suppressed an otherwise-armed controller, and ``"none"`` when no
    threshold tripped. ``old_layout``/``new_layout`` map worker id to
    the tuple of query names it owns (identical unless the action
    changed the layout).
    """

    tick: int
    events_streamed: int
    action: str
    reason: str
    skew: float
    drift: float
    backpressure_seconds: float
    old_workers: int
    new_workers: int
    old_layout: Dict[int, Tuple[str, ...]] = field(default_factory=dict)
    new_layout: Dict[int, Tuple[str, ...]] = field(default_factory=dict)

    @property
    def scaled(self) -> bool:
        return self.action in SCALE_ACTIONS

    def summary(self) -> str:
        """One human-readable trail line (describe() / CLI format)."""
        head = (
            f"tick {self.tick} @ {self.events_streamed} events: {self.action}"
            f" [skew={self.skew:.3f} drift={self.drift:.3f}"
            f" backpressure={self.backpressure_seconds * 1000.0:.2f}ms]"
        )
        if self.scaled:
            head += f" workers {self.old_workers}->{self.new_workers}"
        if self.reason:
            head += f" ({self.reason})"
        return head

    def as_dict(self) -> dict:
        """JSON-ready form (bench artefact / tooling)."""
        return {
            "tick": self.tick,
            "events_streamed": self.events_streamed,
            "action": self.action,
            "reason": self.reason,
            "skew": self.skew,
            "drift": self.drift,
            "backpressure_seconds": self.backpressure_seconds,
            "old_workers": self.old_workers,
            "new_workers": self.new_workers,
            "old_layout": {str(k): list(v) for k, v in self.old_layout.items()},
            "new_layout": {str(k): list(v) for k, v in self.new_layout.items()},
        }


class AutoscaleController:
    """Coordinator-side controller driving one :class:`ShardedEngine`.

    The armed engine slices its ``run()`` stream into
    ``policy.evaluate_every``-event segments and calls
    :meth:`note_segment` + :meth:`evaluate` at each boundary; tick
    progress persists across ``run()`` calls, so CLI checkpoint/metrics
    segmentation composes with the controller's cadence.

    The controller only needs the engine surface a test stub can fake:
    ``workers``, ``window``, ``partitioner``, ``_shards`` (for worker
    ids and layout), ``_batch_put`` (put-latency slot),
    ``_events_streamed``, ``specs`` and ``rebalance()``.
    """

    #: Systematic 1-in-N event sample fed to the windowed mix estimator.
    #: The drift signal is a rank correlation over the tick-granular
    #: edge-type mix, which a stride sample preserves. Observing every
    #: event would charge the coordinator's ingest loop the estimator's
    #: per-edge bookkeeping, which the benchmark suite's traced pass
    #: reads as ``stats.observe_ns_per_edge`` ≈ 0.8–1.2 µs since the
    #: statistics became O(1) per edge (the ~30 µs that set this stride
    #: predates that rewrite).
    MIX_SAMPLE_STRIDE = 8

    def __init__(self, engine, policy: AutoscalePolicy) -> None:
        self.engine = engine
        self.policy = policy
        self.decisions: List[AutoscaleDecision] = []
        self.evaluations = 0
        self._cooldown_left = 0
        self._tick_events = 0
        self._tick_loads: Counter = Counter()
        self._mix_seen = 0
        # Live edge-type mix over the engine's own window — the drift
        # sensor. An unbounded engine window degrades gracefully to the
        # all-time mix (nothing ever retracts).
        self._mix = WindowedSelectivityEstimator(window=engine.window)
        # Mix snapshot the current layout was cut from; re-anchored on
        # every action so drift measures staleness *of this layout*.
        self._baseline_mix: Optional[Dict[str, int]] = None
        self._batch_put_mark: Tuple[int, float] = (0, 0.0)
        self.last_skew = 0.0
        self.last_drift = 0.0
        self.last_backpressure = 0.0

    # -- segment accounting -------------------------------------------------

    def take(self) -> int:
        """Events the armed engine should run before the next tick."""
        return max(self.policy.evaluate_every - self._tick_events, 1)

    def due(self) -> bool:
        return self._tick_events >= self.policy.evaluate_every

    def note_segment(self, events, worker_stats) -> None:
        """Fold one processed segment into the tick accumulators."""
        # Rolling offset keeps the 1-in-N sample systematic across
        # segment boundaries, whatever sizes the engine slices.
        offset = (-self._mix_seen) % self.MIX_SAMPLE_STRIDE
        self._mix.observe_events(events[offset :: self.MIX_SAMPLE_STRIDE])
        self._mix_seen += len(events)
        self._tick_events += len(events)
        for stats in worker_stats:
            self._tick_loads[stats.worker_id] += (
                stats.events_routed + stats.records
            )

    # -- evaluation ---------------------------------------------------------

    def _layout(self) -> Dict[int, Tuple[str, ...]]:
        engine = self.engine
        shards = engine._shards or []
        return {
            shard.worker_id: tuple(
                engine.specs[position].name for position in shard.positions
            )
            for shard in shards
        }

    def _signals(self) -> Tuple[Dict[int, float], float, float, float]:
        engine = self.engine
        shard_ids = [shard.worker_id for shard in (engine._shards or [])] or [0]
        loads = {
            worker_id: float(self._tick_loads.get(worker_id, 0))
            for worker_id in shard_ids
        }
        skew = skew_score(loads.values())
        mix = dict(self._mix.edge_histogram.as_dict())
        if self._baseline_mix is None:
            self._baseline_mix = mix
        drift = drift_score(
            self._baseline_mix, mix, ignore_below=self.policy.ignore_below
        )
        slot = engine._batch_put
        seen_count, seen_sum = self._batch_put_mark
        puts = slot.count - seen_count
        backpressure = (slot.sum - seen_sum) / puts if puts > 0 else 0.0
        self._batch_put_mark = (slot.count, slot.sum)
        return loads, skew, drift, backpressure

    def _decide(
        self, loads: Dict[int, float], skew: float, drift: float, backpressure: float
    ) -> Tuple[str, int, str]:
        """Pick (action, target_workers, reason) for this tick."""
        policy = self.policy
        current = self.engine.workers
        if self._cooldown_left > 0:
            return "hold", current, f"cooldown ({self._cooldown_left} tick(s) left)"
        if backpressure > policy.backpressure_seconds and current < policy.max_workers:
            return (
                "scale_up",
                current + 1,
                f"mean batch-put {backpressure * 1000.0:.2f}ms > "
                f"{policy.backpressure_seconds * 1000.0:.2f}ms",
            )
        total = sum(loads.values())
        if total > 0 and len(loads) > 1 and current > policy.min_workers:
            fair = policy.starve_fraction / len(loads)
            starved = [w for w, load in loads.items() if load / total < fair]
            busy = len(loads) - len(starved)
            target = max(busy, policy.min_workers)
            if starved and target < current:
                return (
                    "scale_down",
                    target,
                    f"{len(starved)} worker(s) below {fair:.1%} load share",
                )
        if len(loads) > 1:
            if skew > policy.skew_threshold:
                return (
                    "rebalance",
                    current,
                    f"skew {skew:.3f} > {policy.skew_threshold}",
                )
            if drift > policy.drift_threshold:
                return (
                    "rebalance",
                    current,
                    f"drift {drift:.3f} > {policy.drift_threshold}",
                )
        return "none", current, ""

    def evaluate(self, *, cursor: Optional[int] = None) -> AutoscaleDecision:
        """Close the current tick: score signals, maybe re-cut the layout.

        Called by the armed engine at tick boundaries (between segment
        ``run()`` calls, where the merge is clean). ``cursor`` is the
        caller's source-stream position, forwarded to the checkpoint
        the rebalance cycle writes.
        """
        engine = self.engine
        policy = self.policy
        self.evaluations += 1
        loads, skew, drift, backpressure = self._signals()
        action, target, reason = self._decide(loads, skew, drift, backpressure)
        old_workers = engine.workers
        old_layout = self._layout()
        if action in SCALE_ACTIONS:
            engine.rebalance(
                workers=target,
                # None means "keep the engine's active partitioner" —
                # rebalance() threads self.partitioner through explicitly,
                # so controller-initiated and manual re-cuts agree.
                partitioner=policy.partitioner,
                cursor=cursor,
            )
            self._cooldown_left = policy.cooldown
            # Drift now measures staleness of the layout we just cut.
            self._baseline_mix = dict(self._mix.edge_histogram.as_dict())
        elif self._cooldown_left > 0:
            self._cooldown_left -= 1
        decision = AutoscaleDecision(
            tick=self.evaluations,
            events_streamed=engine._events_streamed,
            action=action,
            reason=reason,
            skew=skew,
            drift=drift,
            backpressure_seconds=backpressure,
            old_workers=old_workers,
            new_workers=engine.workers,
            old_layout=old_layout,
            new_layout=self._layout(),
        )
        self.decisions.append(decision)
        self.last_skew = skew
        self.last_drift = drift
        self.last_backpressure = backpressure
        self._tick_events = 0
        self._tick_loads = Counter()
        return decision

    # -- reporting ----------------------------------------------------------

    def actions(self) -> List[AutoscaleDecision]:
        """Decisions that changed the layout (the interesting trail)."""
        return [decision for decision in self.decisions if decision.scaled]

    def describe_lines(self) -> List[str]:
        """Decision-trail block for ``ShardedEngine.describe()``."""
        policy = self.policy
        actions = self.actions()
        lines = [
            "  autoscale: armed "
            f"[{policy.min_workers}..{policy.max_workers}] workers, "
            f"every {policy.evaluate_every} events, cooldown {policy.cooldown}; "
            f"{self.evaluations} evaluation(s), {len(actions)} scale decision(s)"
        ]
        lines.extend(f"    {decision.summary()}" for decision in actions)
        return lines

    def telemetry(self) -> dict:
        """Snapshot for the ``repro_runtime_autoscale_*`` families."""
        action_counts: Counter = Counter(
            decision.action for decision in self.decisions if decision.scaled
        )
        return {
            "workers": self.engine.workers,
            "min_workers": self.policy.min_workers,
            "max_workers": self.policy.max_workers,
            "evaluations": self.evaluations,
            "decisions": dict(action_counts),
            "skew": self.last_skew,
            "drift": self.last_drift,
            "backpressure_seconds": self.last_backpressure,
            "cooldown_ticks": self._cooldown_left,
        }
