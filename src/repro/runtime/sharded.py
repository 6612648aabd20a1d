"""Query-sharded multi-worker execution — the parallel runtime.

The paper's multi-query deployment (StreamWorks registers many standing
queries over one edge stream) parallelises naturally along the *query*
axis: each registered query is an independently maintainable view of the
stream, so a worker that owns a full :class:`ContinuousQueryEngine` with a
subset of the queries produces exactly the records those queries would
have produced in a single process. :class:`ShardedEngine` is the
coordinator:

* **Registration** mirrors the single-process engine (``warmup`` →
  ``register`` → ``run``) but records query *specs*; ``"auto"`` strategies
  are resolved at registration time against the coordinator's estimator so
  every worker sees the same decision the single-process engine would.
* **Partitioning** places queries on workers with the greedy
  cost-balanced policy from :mod:`repro.runtime.partition` (or round
  robin), using per-query cost predicted by the warmed estimator.
* **Ingest** streams edges to workers in *type-filtered batches*: a
  worker only receives events whose edge type is in its shard's combined
  alphabet (the union of its queries'
  :meth:`~repro.search.base.SearchAlgorithm.relevant_etypes`), so the
  per-worker graph holds just the slice of the stream its queries can
  match. A shard containing a query that must observe every edge
  (``PeriodicVF2``) receives the unfiltered stream.
* **Merge**: every coordinator↔worker message is a typed
  :mod:`repro.runtime.protocol` tuple. A worker answers each ``Collect``
  with a ``Collected`` body: its records as flat rows plus a per-reply
  edge dictionary (:mod:`repro.runtime.wire`), every row tagged with
  ``(stream index, global query registration position)``; a stable sort
  over those tags reconstructs the exact emission order of the
  single-process engine, and only then are ``Edge`` / ``Match`` /
  ``MatchRecord`` objects built — record-identical output, enforced by
  ``tests/test_sharded_equivalence.py``.

``workers=1`` (or a single query) short-circuits to an in-process engine
(no subprocesses, no pickling — the zero-overhead serial fallback,
reported by :attr:`ShardedEngine.in_process`), so callers can adopt
:class:`ShardedEngine` unconditionally; the CLI drives every run
through it.

Worker processes and their queues belong to a
:class:`~repro.runtime.supervisor.Supervisor`, the one transport every
multi-process run puts tasks and reads replies through. With
``supervise=True`` it also heals: worker death (crash, OOM kill,
injected fault) is detected, the worker is respawned from its last
recovery checkpoint, the since-checkpoint delta is replayed from a
bounded buffer, and the merged output stays record-identical to an
uninterrupted run. Without it a death raises
:class:`~repro.errors.WorkerError`. ``fault_plan`` arms deterministic
fault injection (:mod:`repro.runtime.faults`) for chaos testing.

Correctness of type filtering
-----------------------------
Stream timestamps are non-decreasing, so when a worker processes an edge
its window clock equals the single-process clock at that same edge: every
eviction and staleness decision made *while processing a relevant edge*
is identical, and edges the worker never sees can only have affected the
clock between relevant edges, where no decisions are made. Matching never
touches foreign-type adjacency (anchored plans and VF2 expand only along
query-alphabet types). One caveat: vertex types are assigned on first
sight, so a stream that re-declares a vertex with *conflicting* vertex
types across events of different edge types could type it differently in
a filtered worker; the bundled datasets (and any sane stream) declare
vertex types consistently.
"""

from __future__ import annotations

import itertools
import multiprocessing
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..errors import QueryError, ReproRuntimeError
from ..graph.types import EdgeEvent
from ..isomorphism.match import MatchShape, shape_for_fragment
from ..query.query_graph import QueryGraph
from ..search.engine import (
    ContinuousQueryEngine,
    EngineConfig,
    RunResult,
    algorithm_class,
)
from ..search.strategy import StrategyDecision, choose_strategy
from ..stats.estimator import SelectivityEstimator
from ..telemetry.registry import HistogramSlot, MetricsRegistry
from ..telemetry.schema import SECONDS_BUCKETS
from .autoscale import AutoscaleController, AutoscalePolicy
from .faults import FaultPlan
from .partition import ShardPlan, estimate_query_cost, greedy_balanced, round_robin
from .protocol import (
    Batch,
    Checkpoint,
    CheckpointDone,
    Close,
    Collect,
    Collected,
    Describe,
    Described,
    Failed,
    Metrics,
    MetricsSnapshot,
    Ready,
    Reply,
    ReplyBody,
    check_handlers,
)
from .supervisor import RestartPolicy, Supervisor
from .wire import EdgeRow, RecordRow, SourcedBatch, decode_records, encode_records


@dataclass(frozen=True)
class QuerySpec:
    """A registered query awaiting shard placement."""

    position: int
    name: str
    query: QueryGraph
    strategy: str
    options: Dict[str, object]
    decision: Optional[StrategyDecision] = None

    def alphabet(self) -> Optional[FrozenSet[str]]:
        """Edge types this query's algorithm will consume; None = all.

        Computed from the algorithm *class* the strategy maps to
        (``static_relevant_etypes``), before any worker-side instance
        exists — the same source the live engine's dispatch uses, so a
        strategy that must see every edge (PeriodicVF2) can never be
        starved by the shard router.
        """
        return algorithm_class(self.strategy).static_relevant_etypes(self.query)


@dataclass
class WorkerStats:
    """Per-worker tallies from the last :meth:`ShardedEngine.run`."""

    worker_id: int
    events_routed: int = 0
    records: int = 0
    partial_matches: int = 0
    query_names: Tuple[str, ...] = ()


@dataclass(frozen=True)
class _WorkerInit:
    """Pickled once per worker at spawn time.

    ``restore_path`` switches the worker from cold registration to
    restoring its engine (queries, graph window, partial-match state)
    from a checkpoint snapshot written by a previous incarnation.
    """

    worker_id: int
    config: EngineConfig
    estimator: SelectivityEstimator
    specs: Tuple[QuerySpec, ...]
    restore_path: Optional[str] = None
    #: deterministic fault plan (:mod:`repro.runtime.faults`); the worker
    #: arms only the faults matching its id and incarnation
    fault_plan: Optional[FaultPlan] = None
    #: worker epoch: 0 at first spawn, bumped by each supervised restart.
    #: Tags every reply (so the coordinator can drop stale chatter from a
    #: dead incarnation) and scopes fault triggers to one incarnation.
    incarnation: int = 0


def _open_engine(
    config: EngineConfig,
    estimator: SelectivityEstimator,
    specs: Iterable[QuerySpec],
    restore_path: Optional[str],
) -> ContinuousQueryEngine:
    """One shard's engine, for a worker or the in-process fallback.

    Restored from ``restore_path`` when given — the snapshot supplies
    the window and all state, ``config`` every other setting — else
    built cold from ``config`` and ``estimator`` with ``specs``
    registered in order.
    """
    if restore_path is not None:
        return ContinuousQueryEngine.restore(
            restore_path, [spec.query for spec in specs], config=config
        )
    engine = ContinuousQueryEngine(estimator=estimator, config=config)
    for spec in specs:
        engine.register(
            spec.query, strategy=spec.strategy, name=spec.name, **spec.options
        )
    return engine


class _Worker:
    """One worker process's state, shared by its task handlers."""

    def __init__(self, init: _WorkerInit, engine, injector, result_queue) -> None:
        self.init = init
        self.engine = engine
        self.injector = injector
        self.result_queue = result_queue
        self.position = {spec.name: spec.position for spec in init.specs}
        # The reply under construction, in wire form (see runtime/wire.py):
        # records are encoded batch by batch as they are found, so the
        # worker never retains MatchRecord objects between collects.
        self.edge_rows: Dict[int, EdgeRow] = {}
        self.record_rows: List[RecordRow] = []
        self.running = True


def _failed(init: _WorkerInit, context: str, **extra) -> Failed:
    """The report of the exception being handled (call from ``except``)."""
    exc = sys.exc_info()[1]
    return Failed(
        worker_id=init.worker_id,
        context=context,
        queries=[spec.name for spec in init.specs],
        type=type(exc).__name__,
        message=str(exc),
        traceback=traceback.format_exc(),
        **extra,
    )


def _on_batch(worker: _Worker, task: Batch) -> Optional[Failed]:
    rows = task.rows
    injector = worker.injector
    die = False
    if injector is not None:
        rows, die = injector.intercept(rows)
    try:
        # process_rows pins each edge_id to the global stream index, so
        # the worker's (filtered) graph assigns the same edge ids as the
        # single-process graph — match fingerprints must be byte-identical
        # across execution paths. The returned (index, record) tags,
        # extended with the query's global registration position,
        # reconstruct exact emission order.
        encode_records(
            worker.engine.process_rows(rows),
            worker.position,
            worker.edge_rows,
            worker.record_rows,
        )
    except BaseException:
        worker.running = False
        return _failed(
            worker.init,
            type(task).__name__.lower(),
            batch_events=len(rows),
            first_edge_id=rows[0][0] if rows else None,
        )
    if die:
        # Flush and join the result queue's feeder thread before
        # hard-exiting: os._exit at an arbitrary moment can sever the
        # feeder inside the write lock *shared by every worker*, leaving
        # the semaphore orphaned — survivors' replies would then never
        # reach the coordinator and the run would wedge. The injected
        # death models a crash between events, not a corrupted IPC layer.
        worker.result_queue.close()
        worker.result_queue.join_thread()
        injector.kill_now()
    return None


def _on_collect(worker: _Worker, task: Collect) -> Collected:
    reply = Collected(
        task.seq,
        list(worker.edge_rows.values()),
        worker.record_rows,
        worker.engine.partial_match_count(),
    )
    worker.edge_rows = {}
    worker.record_rows = []
    return reply


def _on_checkpoint(worker: _Worker, task: Checkpoint) -> CheckpointDone:
    # Queue order guarantees every batch streamed before the checkpoint
    # request has been folded in; the coordinator collects before
    # checkpointing, so no record is pending and the snapshot is a clean
    # between-events cut. A failed write must NOT kill the worker — its
    # in-memory window state is exactly what the caller will want to
    # snapshot again once the disk recovers — so the failure rides back
    # in the reply and the worker keeps processing.
    injector = worker.injector
    try:
        if injector is not None:
            injector.before_checkpoint()
        worker.engine.checkpoint(task.path)
        if injector is not None:
            injector.after_checkpoint(task.path)
    except Exception as exc:
        return CheckpointDone(str(exc))
    return CheckpointDone(None)


def _on_describe(worker: _Worker, task: Describe) -> Described:
    return Described(worker.engine.describe())


def _on_metrics(worker: _Worker, task: Metrics) -> MetricsSnapshot:
    # Queue order means the snapshot reflects every batch sent before the
    # request, exactly like describe.
    return MetricsSnapshot(len(worker.record_rows), worker.engine.metrics().collect())


def _on_close(worker: _Worker, task: Close) -> None:
    worker.running = False


_HANDLERS = {
    Batch: _on_batch,
    Collect: _on_collect,
    Checkpoint: _on_checkpoint,
    Describe: _on_describe,
    Metrics: _on_metrics,
    Close: _on_close,
}
check_handlers(_HANDLERS)


def _worker_main(init: _WorkerInit, task_queue, result_queue) -> None:
    """Subprocess entry point: one engine, one query shard, task loop.

    Each task goes to its handler in :data:`_HANDLERS`; whatever body the
    handler returns is sent back in a :class:`Reply` stamped with
    ``init.incarnation``, so a supervising coordinator can tell this
    incarnation's replies from stale chatter a dead predecessor left in
    the result queue's pipe.
    """

    def send(body: ReplyBody) -> None:
        result_queue.put(Reply(init.worker_id, init.incarnation, body))

    injector = None
    if init.fault_plan is not None:
        injector = init.fault_plan.injector(init.worker_id, init.incarnation) or None
    try:
        engine = _open_engine(
            init.config, init.estimator, init.specs, init.restore_path
        )
    except BaseException:  # surfaced by the coordinator's gather
        send(_failed(init, "startup"))
        return
    send(Ready())
    worker = _Worker(init, engine, injector, result_queue)
    while worker.running:
        task = task_queue.get()
        body = _HANDLERS[type(task)](worker, task)
        if body is not None:
            send(body)


class ShardedEngine:
    """Coordinator for query-sharded parallel continuous query execution.

    Drop-in alternative front door to :class:`ContinuousQueryEngine` for
    multi-query workloads::

        engine = ShardedEngine(window=3600.0, workers=4)
        engine.warmup(prefix_events)
        for query in queries:
            engine.register(query, strategy="auto")
        result = engine.run(stream)      # record-identical to 1 process
        engine.close()

    Also usable as a context manager (``with ShardedEngine(...) as e:``).

    Parameters
    ----------
    config, **settings:
        The engine settings every worker engine runs with — an
        :class:`~repro.search.engine.EngineConfig` and/or its fields as
        keywords (``window=``, ``chunk_size=`` …), exactly as for
        :class:`ContinuousQueryEngine`. ``chunk_size`` is independent of
        ``batch_size``: the wire batch bounds queue latency, the chunk
        bounds each worker's fused ingest loop.
    workers:
        Number of worker processes. ``1`` (the default) runs fully
        in-process with zero multiprocessing overhead; empty shards are
        never spawned, so ``workers`` above the query count is harmless.
    batch_size:
        Events per worker message. Larger batches amortise pickling;
        smaller ones reduce end-of-stream latency skew.
    partitioner:
        ``"cost"`` (greedy selectivity-balanced, the default) or
        ``"round-robin"``.
    mp_context:
        A :mod:`multiprocessing` context; defaults to ``fork`` where
        available (Linux) and the platform default elsewhere.
    supervise:
        Arm the self-healing layer (:mod:`repro.runtime.supervisor`): a
        worker that dies, errors or stalls is restarted from its last
        recovery checkpoint and its lost events are replayed, keeping
        the merged output byte-identical to an uninterrupted run.
        Without it (the default) any worker failure raises
        :class:`~repro.errors.WorkerError`. No effect on the serial
        (``workers=1``) fallback — there is no process to supervise.
    restart_policy:
        The :class:`~repro.runtime.supervisor.RestartPolicy` governing
        restart budget, backoff and recovery-checkpoint cadence
        (defaults apply when ``None``).
    fault_plan:
        A deterministic :class:`~repro.runtime.faults.FaultPlan` shipped
        to every worker — the chaos-testing hook; ``None`` in production.
    autoscale:
        An :class:`~repro.runtime.autoscale.AutoscalePolicy` arming the
        elastic controller: :meth:`run` then slices the stream into
        ``evaluate_every``-event segments and, at each tick, scores
        skew/drift/backpressure/starvation and may drive
        :meth:`rebalance` to scale the worker count or re-place queries
        from live statistics. Output stays record-identical to a
        fixed-layout run. The controller lives at ``self.autoscaler``
        (decision trail, telemetry).
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        batch_size: int = 256,
        estimator: Optional[SelectivityEstimator] = None,
        partitioner: str = "cost",
        mp_context=None,
        supervise: bool = False,
        restart_policy: Optional[RestartPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        autoscale: Optional[AutoscalePolicy] = None,
        config: Optional[EngineConfig] = None,
        **settings,
    ) -> None:
        self.config = EngineConfig.of(config, **settings)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if partitioner not in ("cost", "round-robin"):
            raise ValueError(
                f"unknown partitioner {partitioner!r}; "
                "expected 'cost' or 'round-robin'"
            )
        self.window = self.config.window
        self.workers = workers
        self.batch_size = batch_size
        self.partitioner = partitioner
        self.estimator = estimator if estimator is not None else SelectivityEstimator()
        self.specs: List[QuerySpec] = []
        self.last_worker_stats: List[WorkerStats] = []
        self._mp_context = mp_context
        self._started = False
        self._finished = False
        self._serial_engine: Optional[ContinuousQueryEngine] = None
        self._shards: List[ShardPlan] = []
        self._routes: Dict[str, Tuple[int, ...]] = {}
        self._default_route: Tuple[int, ...] = ()
        # position -> (query name, full-query MatchShape): what the merge
        # needs to rebuild a record from its wire row; resolved at start().
        self._record_shapes: Dict[int, Tuple[str, MatchShape]] = {}
        # Global stream position across run() calls — doubles as the edge
        # id every worker graph assigns (matching the single-process ids).
        self._events_streamed = 0
        # Rolling-checkpoint sequence (monotone across checkpoint() calls)
        # and, when this engine was built by resume(), the frozen shard
        # layout + per-shard snapshot files start() must restore from.
        self._checkpoint_seq = 0
        self._restore_shards: Optional[List[ShardPlan]] = None
        self._restore_files: Dict[int, str] = {}
        # The worker transport: built by start() on the multi-process
        # path, it owns the workers and their queues and mediates every
        # queue interaction; supervise arms its recovery.
        self.supervise = supervise
        self.restart_policy = restart_policy
        self._fault_plan = fault_plan
        self._supervisor: Optional[Supervisor] = None
        # Coordinator-side telemetry (repro_runtime_* family). All plain
        # single-writer slots, maintained off the per-edge path: batch
        # granularity for the put latency/batch tallies, collect
        # granularity for records.
        self._batch_put = HistogramSlot(SECONDS_BUCKETS)
        self._routed_total: Dict[int, int] = {}
        self._records_total: Dict[int, int] = {}
        self._batches_total: Dict[int, int] = {}
        # Completed online rebalance() cycles (manual cadence or
        # controller-initiated). Exposed as a coordinator counter so
        # downstream consumers (the JSONL validator) can tell a layout
        # migration — which renormalizes worker-side lifetime counters —
        # from a genuinely broken counter regression.
        self._rebalances_total = 0
        # Elastic autoscaling: controller armed at construction; run()
        # then routes through the tick-segmented loop.
        if autoscale is not None and not (
            autoscale.min_workers <= workers <= autoscale.max_workers
        ):
            raise ValueError(
                f"workers={workers} outside the autoscale band "
                f"[{autoscale.min_workers}, {autoscale.max_workers}]"
            )
        self.autoscaler: Optional[AutoscaleController] = (
            AutoscaleController(self, autoscale) if autoscale is not None else None
        )

    # ------------------------------------------------------------------
    # registration (mirrors ContinuousQueryEngine)
    # ------------------------------------------------------------------

    def warmup(self, events: Iterable[EdgeEvent]) -> int:
        """Feed a stream prefix to the coordinator's selectivity estimator
        (an iterator is advanced by exactly the events counted)."""
        if self._started or self._finished:
            raise QueryError("cannot warm up after streaming has started")
        return self.estimator.observe_events(events)

    def register(
        self,
        query: QueryGraph,
        strategy: str = "auto",
        name: Optional[str] = None,
        **options,
    ) -> QuerySpec:
        """Record a query for execution; placement happens at start().

        ``"auto"`` is resolved immediately against the coordinator's
        estimator (identical inputs to the single-process engine, hence
        identical decisions); the returned spec carries the
        :class:`StrategyDecision` for inspection.
        """
        if self._started or self._finished:
            raise QueryError(
                "cannot register new queries after streaming has started; "
                "create a new ShardedEngine"
            )
        if not query.is_connected():
            raise QueryError(
                "continuous queries must be connected "
                "(the decomposition join order requires shared vertices)"
            )
        query_name = name or query.name or f"q{len(self.specs)}"
        if any(spec.name == query_name for spec in self.specs):
            raise QueryError(f"query name {query_name!r} already registered")
        decision: Optional[StrategyDecision] = None
        if strategy == "auto":
            decision = choose_strategy(query, self.estimator)
            strategy = decision.chosen
        else:
            algorithm_class(strategy)  # unknown names fail here, not in a worker
        spec = QuerySpec(
            position=len(self.specs),
            name=query_name,
            query=query,
            strategy=strategy,
            options=dict(options),
            decision=decision,
        )
        self.specs.append(spec)
        return spec

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------

    def plan(self) -> List[ShardPlan]:
        """Partition registered queries into shards (no side effects)."""
        if self.partitioner == "round-robin":
            return round_robin(len(self.specs), self.workers)
        costs = [estimate_query_cost(spec.query, self.estimator) for spec in self.specs]
        return greedy_balanced(costs, self.workers)

    def shard_alphabet(self, shard: ShardPlan) -> Optional[FrozenSet[str]]:
        """Combined edge-type alphabet of one shard; ``None`` = all edges."""
        combined: set = set()
        for position in shard.positions:
            alphabet = self.specs[position].alphabet()
            if alphabet is None:
                return None
            combined |= alphabet
        return frozenset(combined)

    def _compile_routes(self) -> None:
        """Build the ``etype -> (worker slot, ...)`` coordinator dispatch."""
        routes: Dict[str, List[int]] = {}
        default: List[int] = []
        for slot, shard in enumerate(self._shards):
            alphabet = self.shard_alphabet(shard)
            if alphabet is None:
                default.append(slot)
                continue
            for etype in alphabet:
                routes.setdefault(etype, []).append(slot)
        for slots in routes.values():
            slots.extend(default)
        self._default_route = tuple(default)
        self._routes = {etype: tuple(sorted(slots)) for etype, slots in routes.items()}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Spawn and initialise workers (idempotent).

        Called implicitly by :meth:`run`; call it explicitly to exclude
        process startup and SJ-Tree construction from run timing.
        """
        if self._started:
            return
        if self._finished:
            # Worker window/graph state died with the workers; silently
            # respawning empty ones would break the record-identity
            # contract (edge ids keep counting, state does not).
            raise ReproRuntimeError(
                "ShardedEngine cannot be restarted after close(); "
                "create a new engine"
            )
        restoring = self._restore_shards is not None
        self._shards = self._restore_shards if restoring else self.plan()
        if self.workers == 1 or len(self._shards) <= 1:
            self._serial_engine = _open_engine(
                self.config,
                self.estimator,
                self.specs,
                self._restore_files[self._shards[0].worker_id] if restoring else None,
            )
            self._started = True
            return

        ctx = self._mp_context
        if ctx is None:
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
        self._compile_routes()
        self._record_shapes = {
            spec.position: (spec.name, shape_for_fragment(spec.query))
            for spec in self.specs
        }
        inits = [
            _WorkerInit(
                worker_id=shard.worker_id,
                config=self.config,
                estimator=self.estimator,
                specs=tuple(self.specs[position] for position in shard.positions),
                restore_path=self._restore_files.get(shard.worker_id),
                fault_plan=self._fault_plan,
            )
            for shard in self._shards
        ]
        policy = (self.restart_policy or RestartPolicy()) if self.supervise else None
        # Attached before the workers spawn, so close() reaps a pool whose
        # ready handshake failed.
        self._supervisor = Supervisor(
            ctx, _worker_main, inits, policy, cursor=self._events_streamed - 1
        )
        self._supervisor.start()
        self._started = True

    @property
    def in_process(self) -> bool:
        """Whether the started engine runs its shard in this process.

        True at ``workers=1``, for a single query on any worker count,
        and after a re-cut (or autoscale decision) onto one shard; False
        before :meth:`start` and while worker processes serve the shards.
        """
        return self._serial_engine is not None

    def close(self) -> None:
        """Shut workers down; idempotent and safe after worker failure.

        A closed engine cannot be restarted — the workers' window state
        is gone, so a later :meth:`run` would not be record-identical to
        a continuous single-process run. :meth:`start` raises instead.
        """
        if self._started:
            self._finished = True
        self._shutdown_workers()
        self._serial_engine = None
        self._started = False

    def _shutdown_workers(self) -> None:
        """Stop the worker processes (engine flags untouched).

        Shared by :meth:`close` and :meth:`rebalance` (which respawns a
        new layout afterwards).
        """
        if self._supervisor is not None:
            self._supervisor.shutdown()
            self._supervisor = None

    def __enter__(self) -> "ShardedEngine":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # processing
    # ------------------------------------------------------------------

    def run(
        self,
        events: Iterable[EdgeEvent],
        limit: Optional[int] = None,
    ) -> RunResult:
        """Process a stream; return a single-process-identical RunResult.

        Records come back in exactly the order the single-process engine
        would have emitted them (per event: registration order of the
        queries, then per-query discovery order). Per-worker end-of-run
        state lands in :attr:`last_worker_stats`.

        With an :class:`~repro.runtime.autoscale.AutoscalePolicy` armed,
        the stream is processed in ``evaluate_every``-event segments and
        the controller may rebalance between them — each segment fully
        collects before the cut, so concatenated records are identical
        to a fixed-layout run. Tick progress persists across ``run()``
        calls (segmented CLI drives compose with the controller cadence).
        """
        self.start()
        if self.autoscaler is not None:
            return self._run_autoscaled(events, limit)
        return self._run_direct(events, limit)

    def _run_autoscaled(
        self,
        events: Iterable[EdgeEvent],
        limit: Optional[int],
    ) -> RunResult:
        """Tick-segmented drive loop for an autoscale-armed engine."""
        controller = self.autoscaler
        if limit is not None:
            events = itertools.islice(events, limit)
        events = iter(events)
        started = time.perf_counter()
        merged = RunResult()
        while True:
            take = controller.take()
            segment = list(itertools.islice(events, take))
            if not segment:
                break
            result = self._run_direct(segment, None)
            merged.records.extend(result.records)
            merged.edges_processed += result.edges_processed
            controller.note_segment(segment, self.last_worker_stats)
            if controller.due():
                controller.evaluate()
            if len(segment) < take:
                break
        merged.elapsed_seconds = time.perf_counter() - started
        return merged

    def _run_direct(
        self,
        events: Iterable[EdgeEvent],
        limit: Optional[int] = None,
    ) -> RunResult:
        """One uninterrupted route/collect/merge cycle (no autoscale ticks)."""
        self.start()
        if self._serial_engine is not None:
            result = self._serial_engine.run(events, limit=limit)
            # Track the global stream position here too: after a shard-
            # layout migration onto workers=1 the serial graph's lifetime
            # counters are window-renormalized, so the engine's own count
            # is the only exact cursor source for the next checkpoint.
            self._events_streamed += result.edges_processed
            worker_id = self._shards[0].worker_id if self._shards else 0
            self._routed_total[worker_id] = (
                self._routed_total.get(worker_id, 0) + result.edges_processed
            )
            self._records_total[worker_id] = self._records_total.get(
                worker_id, 0
            ) + len(result.records)
            self.last_worker_stats = [
                WorkerStats(
                    worker_id=0,
                    events_routed=result.edges_processed,
                    records=len(result.records),
                    partial_matches=self._serial_engine.partial_match_count(),
                    query_names=tuple(spec.name for spec in self.specs),
                )
            ]
            return result

        started = time.perf_counter()
        supervisor = self._supervisor
        batch_size = self.batch_size
        routes = self._routes
        default_route = self._default_route
        pending: List[List[tuple]] = [[] for _ in self._shards]
        routed_counts = [0] * len(self._shards)
        processed = 0
        if limit is not None:
            events = itertools.islice(events, limit)
        for event in events:
            processed += 1
            self._events_streamed += 1
            row = (
                self._events_streamed - 1,
                event.src,
                event.dst,
                event.etype,
                event.timestamp,
                event.src_type,
                event.dst_type,
            )
            for slot in routes.get(event.etype, default_route):
                batch = pending[slot]
                batch.append(row)
                if len(batch) >= batch_size:
                    self._put_batch(slot, batch)
                    routed_counts[slot] += len(batch)
                    pending[slot] = []
        for slot, batch in enumerate(pending):
            if batch:
                self._put_batch(slot, batch)
                routed_counts[slot] += len(batch)
        seq = supervisor.next_seq()
        replies = supervisor.request(lambda slot: Collect(seq))
        # Records drained by the supervisor's recovery checkpoints are
        # part of this segment's output: the final collect only returns
        # what each worker produced since its last recovery cut.
        stash = supervisor.drain_stash()

        batches: List[SourcedBatch] = []
        stats: List[WorkerStats] = []
        for slot, shard in enumerate(self._shards):
            collected = replies[shard.worker_id]
            if collected.seq != seq:
                raise ReproRuntimeError(
                    f"worker {shard.worker_id} answered collect "
                    f"{collected.seq}, expected {seq}"
                )
            # per worker in collection order: stashed recovery cuts, then
            # the final reply (the merge's stable sort relies on it)
            batch = (collected.edge_rows, collected.record_rows)
            mine = [*stash.get(shard.worker_id, ()), (shard.worker_id, seq, batch)]
            worker_records = sum(len(rows) for _, _, (_, rows) in mine)
            batches += mine
            self._routed_total[shard.worker_id] = (
                self._routed_total.get(shard.worker_id, 0) + routed_counts[slot]
            )
            self._records_total[shard.worker_id] = (
                self._records_total.get(shard.worker_id, 0) + worker_records
            )
            stats.append(
                WorkerStats(
                    worker_id=shard.worker_id,
                    events_routed=routed_counts[slot],
                    records=worker_records,
                    partial_matches=collected.partial_matches,
                    query_names=tuple(
                        self.specs[position].name for position in shard.positions
                    ),
                )
            )
        self.last_worker_stats = stats

        result = RunResult()
        result.records = decode_records(batches, self._record_shapes)
        result.edges_processed = processed
        result.elapsed_seconds = time.perf_counter() - started
        return result

    # ------------------------------------------------------------------
    # durability (rolling per-shard checkpoints + coordinator manifest)
    # ------------------------------------------------------------------

    def checkpoint(self, directory, *, cursor: Optional[int] = None) -> dict:
        """Write a rolling checkpoint of every shard plus a manifest.

        Each worker snapshots its full engine state (see
        :meth:`ContinuousQueryEngine.checkpoint`) into the checkpoint
        directory; the coordinator then atomically publishes
        ``manifest.json`` recording the global stream position, the shard
        layout and the per-shard snapshot files, and prunes snapshots
        from older sequences. Call between :meth:`run` invocations — a
        completed ``run()`` has collected all worker records, so the cut
        is clean. ``cursor`` is the caller's source-stream position (for
        the CLI: absolute events consumed, warmup included); it defaults
        to the coordinator's internal event count. Returns the manifest.
        """
        from ..errors import CheckpointError
        from ..persistence import manifest as manifest_mod

        if not self._started or self._finished:
            raise CheckpointError(
                "checkpoint requires a started (and not closed) engine; "
                "call run() or start() first"
            )
        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        sequence = self._checkpoint_seq + 1
        events_streamed = self._events_streamed
        shards_entry = []
        if self._serial_engine is not None:
            worker_id = self._shards[0].worker_id if self._shards else 0
            filename = manifest_mod.shard_filename(sequence, worker_id)
            self._serial_engine.checkpoint(root / filename)
            shards_entry.append(
                {
                    "worker_id": worker_id,
                    "file": filename,
                    "positions": [spec.position for spec in self.specs],
                }
            )
        else:
            files = [
                manifest_mod.shard_filename(sequence, shard.worker_id)
                for shard in self._shards
            ]
            replies = self._supervisor.request(
                lambda slot: Checkpoint(str(root / files[slot]))
            )
            for shard, filename in zip(self._shards, files):
                shards_entry.append(
                    {
                        "worker_id": shard.worker_id,
                        "file": filename,
                        "positions": list(shard.positions),
                    }
                )
            failures = {
                worker_id: done.error
                for worker_id, done in replies.items()
                if done.error is not None
            }
            if failures:
                details = "; ".join(
                    f"worker {worker_id}: {message}"
                    for worker_id, message in sorted(failures.items())
                )
                raise CheckpointError(
                    f"checkpoint to {root} failed ({details}); worker "
                    "state is intact — fix the directory and retry"
                )
        manifest = manifest_mod.sharded_manifest(
            sequence=sequence,
            cursor=events_streamed if cursor is None else cursor,
            events_streamed=events_streamed,
            window=manifest_mod.window_to_json(self.window),
            workers=self.workers,
            batch_size=self.batch_size,
            partitioner=self.partitioner,
            queries=manifest_mod.query_entries(self.specs),
            shards=shards_entry,
        )
        manifest_mod.write_manifest(root, manifest)
        self._checkpoint_seq = sequence
        return manifest

    @classmethod
    def resume(
        cls,
        directory,
        queries: Iterable[QueryGraph],
        mp_context=None,
        *,
        workers: Optional[int] = None,
        partitioner: Optional[str] = None,
        supervise: bool = False,
        restart_policy: Optional[RestartPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        config: Optional[EngineConfig] = None,
        **settings,
    ) -> "ShardedEngine":
        """Rebuild a started engine from a :meth:`checkpoint` directory.

        ``queries`` must be the checkpoint's query set (matched by name,
        validated by edge signature — mismatches raise
        :class:`~repro.errors.CheckpointError`). By default the shard
        layout, worker count, strategies and batch size are taken from
        the manifest, and every worker restores its graph window and
        partial-match state from its shard snapshot, so the next
        :meth:`run` call continues the stream with emissions identical
        to a never-stopped engine. The window width comes from the
        checkpoint; every other engine setting from ``config`` /
        ``settings`` (defaults when omitted), as for the constructor.

        Checkpoints are **layout-independent**: pass ``workers`` (any
        ``M >= 1``, including ``M=1`` for an in-process continuation of
        a multi-worker run) and/or ``partitioner`` to resume a
        checkpoint taken at a *different* worker count — the directory
        is first re-cut in place by
        :func:`~repro.persistence.migrate.migrate_checkpoint`
        (per-query state slices recombined into the new layout,
        repartitioned from the statistics the checkpoint carries), then
        resumed normally. Emissions stay byte-identical to the
        uninterrupted run regardless of the N→M choice. A ``single``-
        mode directory from an older build resumes as the one-shard
        layout it is (:func:`~repro.persistence.manifest.read_manifest`).

        The returned engine is already started; registration and warmup
        are closed (exactly as after a normal :meth:`start`).
        """
        from ..persistence import manifest as manifest_mod
        from ..persistence.migrate import migrate_checkpoint

        queries = list(queries)
        root = Path(directory)
        manifest = manifest_mod.read_manifest(root)
        target = workers if workers is not None else manifest["workers"]
        if partitioner is not None or target != manifest["workers"]:
            manifest = migrate_checkpoint(
                root, queries, workers=target, partitioner=partitioner
            )
        ordered = manifest_mod.match_queries(manifest, queries)
        entries = sorted(manifest["queries"], key=lambda e: e["position"])
        engine = cls(
            workers=manifest["workers"],
            batch_size=manifest["batch_size"],
            partitioner=manifest["partitioner"],
            mp_context=mp_context,
            supervise=supervise,
            restart_policy=restart_policy,
            fault_plan=fault_plan,
            config=EngineConfig.of(
                config,
                window=manifest_mod.window_from_json(manifest["window"]),
                **settings,
            ),
        )
        engine.specs = [
            QuerySpec(
                position=entry["position"],
                name=entry["name"],
                query=query,
                strategy=entry["strategy"],
                options={},
            )
            for entry, query in zip(entries, ordered)
        ]
        engine._adopt_manifest(manifest, root)
        engine.start()
        return engine

    def _adopt_manifest(self, manifest: dict, root: Path) -> None:
        """Take a checkpoint's layout and stream position as this engine's.

        The next :meth:`start` then restores every shard from its
        snapshot file under ``root``.
        """
        self.workers = manifest["workers"]
        self.partitioner = manifest["partitioner"]
        self.batch_size = manifest["batch_size"]
        self._events_streamed = manifest["events_streamed"]
        self._checkpoint_seq = manifest["sequence"]
        shards = sorted(manifest["shards"], key=lambda e: e["worker_id"])
        self._restore_shards = [
            ShardPlan(
                worker_id=entry["worker_id"],
                positions=tuple(entry["positions"]),
                cost=0.0,
            )
            for entry in shards
        ]
        self._restore_files = {
            entry["worker_id"]: str(root / entry["file"]) for entry in shards
        }

    def rebalance(
        self,
        workers: Optional[int] = None,
        partitioner: Optional[str] = None,
        directory=None,
        *,
        cursor: Optional[int] = None,
    ) -> dict:
        """Re-cut the live engine onto a new shard layout, in place.

        Long-running deployments drift: per-query selectivity — and with
        it per-shard load — changes as the stream's edge-type mix moves,
        and a layout pinned at launch stops being balanced. ``rebalance``
        runs an online checkpoint → repartition → resume cycle on this
        engine: every worker snapshots its state into ``directory`` (a
        throwaway temp directory by default),
        :func:`~repro.persistence.migrate.migrate_checkpoint` re-cuts
        the checkpoint for ``workers`` shards (default: the current
        count) using the *live* statistics it carries — the warmed
        estimator plus the current window mix, not the launch-time
        estimate — and fresh workers are spawned from the new layout.
        The engine keeps its identity, registration order and global
        stream position, so the next :meth:`run` continues with
        emissions byte-identical to a never-rebalanced engine.

        Call between :meth:`run` invocations (a completed run has
        collected all worker records, making the cut clean). ``cursor``
        is the caller's source-stream position, as for
        :meth:`checkpoint`. Returns the new checkpoint manifest; when
        ``directory`` is given the checkpoint is left on disk as a
        normal resumable directory, otherwise the temp directory is
        removed when the new workers shut down (at once when the new
        layout runs in-process).
        """
        from ..errors import CheckpointError
        from ..persistence.migrate import migrate_checkpoint

        if not self._started or self._finished:
            raise CheckpointError(
                "rebalance requires a started (and not closed) engine; "
                "call run() or start() first"
            )
        keep = directory is not None
        root = (
            Path(directory)
            if keep
            else Path(tempfile.mkdtemp(prefix="repro-rebalance-"))
        )
        # Until the old workers are stopped, any failure leaves the engine
        # running on its current layout (the temp directory may leak, which
        # beats losing state). The checkpoint records the active
        # partitioner, which migrate keeps unless the caller overrides it,
        # so controller-initiated re-cuts (autoscale) and manual ones agree.
        self.checkpoint(root, cursor=cursor)
        manifest = migrate_checkpoint(
            root,
            [spec.query for spec in self.specs],
            workers=workers if workers is not None else self.workers,
            partitioner=partitioner,
        )
        self._shutdown_workers()
        self._serial_engine = None
        self._started = False
        self._adopt_manifest(manifest, root)
        try:
            self.start()
        except BaseException as exc:
            # Past this point the old workers are gone — the re-cut
            # checkpoint is the ONLY copy of the stream state, so it must
            # never be deleted on failure; point the caller at it instead.
            raise CheckpointError(
                "rebalance failed while restarting workers; the engine "
                f"state is preserved in the checkpoint at {root} — "
                "recover it with ShardedEngine.resume(directory, queries)"
            ) from exc
        if not keep:
            if self._supervisor is None:
                shutil.rmtree(root, ignore_errors=True)
            else:
                # the shard files stay each worker's respawn snapshot
                # until its first recovery checkpoint
                self._supervisor.adopt_scratch(root)
        self._rebalances_total += 1
        return manifest

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def describe(self) -> str:
        """Multi-line shard/placement summary (plus worker state if live)."""
        shards = self._shards if self._started else self.plan()
        lines = [
            f"sharded engine: {len(self.specs)} queries, "
            f"workers={self.workers} ({len(shards)} shard(s)), "
            f"batch_size={self.batch_size}, partitioner={self.partitioner}"
        ]
        if self.autoscaler is not None:
            lines.extend(self.autoscaler.describe_lines())
        for shard in shards:
            alphabet = self.shard_alphabet(shard)
            names = ", ".join(self.specs[p].name for p in shard.positions)
            etypes = "*" if alphabet is None else str(len(alphabet))
            lines.append(
                f"  shard {shard.worker_id}: cost={shard.cost:.4g} "
                f"etypes={etypes} queries=[{names}]"
            )
        if self._serial_engine is not None:
            lines.append(self._serial_engine.describe())
        elif self._started:
            replies = self._supervisor.request(lambda slot: Describe())
            for shard in self._shards:
                lines.append(f"  worker {shard.worker_id}:")
                lines.extend(
                    "    " + line for line in replies[shard.worker_id].text.splitlines()
                )
        return "\n".join(lines)

    def metrics(self) -> MetricsRegistry:
        """Aggregated cross-shard :class:`~repro.telemetry.MetricsRegistry`.

        Every worker snapshots its full engine registry (engine, graph,
        sjtree, persistence families) in answer to a ``Metrics`` task —
        the same request/reply path as describe, so snapshots reflect
        every batch dispatched before the call — and the coordinator
        merges them (counters/histograms sum, gauges follow their
        aggregation policy) together with its own ``repro_runtime_*``
        family: per-worker task-queue depth, liveness and heartbeat age,
        routed events/records/batches, batch-put latency and merge-buffer
        lag. Starts the engine if needed (same contract as :meth:`run`);
        call between ``run()`` invocations, not concurrently with one —
        the queue protocol is single-threaded by design, which is why the
        HTTP exposition serves cached snapshots instead of calling this
        live.
        """
        if self._finished:
            raise ReproRuntimeError(
                "metrics requires a live engine; this one was closed"
            )
        self.start()
        shards = len(self._shards) if self._shards else 1
        if self._serial_engine is not None:
            worker_id = self._shards[0].worker_id if self._shards else 0
            rows = {
                worker_id: {
                    "alive": True,
                    "queue_depth": 0,
                    "heartbeat_age_seconds": 0.0,
                    "events_routed": self._routed_total.get(worker_id, 0),
                    "records": self._records_total.get(worker_id, 0),
                    "batches": self._batches_total.get(worker_id, 0),
                    "merge_buffer_records": 0,
                }
            }
            snapshots = [self._serial_engine.metrics().collect()]
        else:
            supervisor = self._supervisor
            # Depth before posting the request: counts pending batches,
            # not the metrics message itself.
            depths = supervisor.queue_depths()
            replies = supervisor.request(lambda slot: Metrics())
            now = time.monotonic()
            rows = {}
            snapshots = []
            for slot, shard in enumerate(self._shards):
                snapshot = replies[shard.worker_id]
                snapshots.append(snapshot.families)
                heartbeat = supervisor.heartbeats.get(shard.worker_id, now)
                rows[shard.worker_id] = {
                    "alive": supervisor.procs[slot].is_alive(),
                    "queue_depth": depths[slot],
                    "heartbeat_age_seconds": max(now - heartbeat, 0.0),
                    "events_routed": self._routed_total.get(shard.worker_id, 0),
                    "records": self._records_total.get(shard.worker_id, 0),
                    "batches": self._batches_total.get(shard.worker_id, 0),
                    "merge_buffer_records": snapshot.pending_records,
                }
        from ..telemetry.instrument import runtime_registry

        snapshots.append(
            runtime_registry(
                workers=self.workers,
                shards=shards,
                events_streamed=self._events_streamed,
                worker_rows=rows,
                batch_put=self._batch_put,
                rebalances=self._rebalances_total,
                supervisor=(
                    self._supervisor.telemetry()
                    if self._supervisor is not None
                    else None
                ),
                autoscaler=(
                    self.autoscaler.telemetry()
                    if self.autoscaler is not None
                    else None
                ),
            ).collect()
        )
        return MetricsRegistry.from_snapshot(
            MetricsRegistry.merge_snapshots(snapshots)
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _put_batch(self, slot: int, batch: list) -> None:
        """Timed batch dispatch: a long put means the worker is saturated.

        The observed latency — near zero while the bounded task queue has
        room, up to the worker's drain time when backpressure engages —
        feeds ``repro_runtime_batch_put_seconds``, the coordinator's lag
        histogram. Two clock reads per *batch* (not per edge), so the
        fast path keeps its budget.
        """
        worker_id = self._shards[slot].worker_id
        started = time.perf_counter()
        self._supervisor.put(slot, Batch(batch))
        self._batch_put.observe(time.perf_counter() - started)
        self._batches_total[worker_id] = self._batches_total.get(worker_id, 0) + 1
        self._supervisor.note_batch(slot, batch)
