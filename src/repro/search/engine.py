"""Continuous query engine — the public front door of the library.

Mirrors the paper's two-step workflow (§6.1):

1. **Query decomposition** — warm the selectivity estimator on a stream
   prefix, register queries (strategy chosen automatically via Relative
   Selectivity unless pinned), optionally persist the SJ-Tree to ASCII.
2. **Query processing** — start from an empty data graph and stream edges
   through; every registered query folds each edge in incrementally and
   emits complete matches as :class:`~repro.search.base.MatchRecord`.

Example
-------
>>> engine = ContinuousQueryEngine(window=3600.0)
>>> engine.warmup(prefix_events)                       # doctest: +SKIP
>>> engine.register(query, strategy="auto")            # doctest: +SKIP
>>> for record in engine.run(stream).records:          # doctest: +SKIP
...     print(record.query_name, record.match)
"""

from __future__ import annotations

import gc
import itertools
import math
import operator
import os
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional

from collections import deque

from ..analysis.profiling import ProfileCounters
from ..errors import GraphError, QueryError, StrategyError
from ..graph.columnar import EdgeChunk, backend_name
from ..graph.streaming_graph import PROMOTE_AT, StreamingGraph
from ..graph.types import VOCABULARY, Edge, EdgeEvent
from ..query.query_graph import QueryGraph
from ..sjtree.builder import build_sj_tree
from ..sjtree.tree import SJTree
from ..stats.estimator import SelectivityEstimator
from ..stats.paths import EdgeMapFn, default_edge_map
from ..telemetry.registry import CheckpointStats
from .base import MatchRecord, SearchAlgorithm
from .baseline import IncIsoMatchSearch, PeriodicVF2Search, VF2PerEdgeSearch
from .dynamic import DynamicGraphSearch
from .lazy import LazySearch
from .strategy import STRATEGY_NAMES, StrategyDecision, choose_strategy

#: dispatch-LUT slot for "program not compiled yet" (distinct from None,
#: which is a compiled "no routed query consumes this code").
_UNSEEN = object()

#: the six edge fields the chunk loop reads, in one call per element: an
#: :class:`EdgeEvent`'s attributes, or positions 1-6 of a wire row
_EVENT_FIELDS = operator.attrgetter(
    "src", "dst", "etype", "timestamp", "src_type", "dst_type"
)
_ROW_FIELDS = operator.itemgetter(1, 2, 3, 4, 5, 6)

#: housekeeping sweeps per window width of stream time: a partial match
#: stays in its table at most a quarter window after it expired (joins
#: skip it meanwhile), whatever the edge rate
SWEEPS_PER_WINDOW = 4


def algorithm_class(strategy: str) -> type:
    """The :class:`SearchAlgorithm` subclass a strategy name maps to.

    Shared by :meth:`ContinuousQueryEngine._build_algorithm` and the
    sharded runtime's pre-spawn alphabet computation, so a new strategy
    (or a changed ``relevant_etypes`` override) cannot diverge between
    the single-process and sharded paths.
    """
    if strategy in ("Single", "Path"):
        return DynamicGraphSearch
    if strategy in ("SingleLazy", "PathLazy"):
        return LazySearch
    if strategy == "VF2":
        return VF2PerEdgeSearch
    if strategy == "IncIso":
        return IncIsoMatchSearch
    if strategy == "PeriodicVF2":
        return PeriodicVF2Search
    raise StrategyError(
        f"unknown strategy {strategy!r}; expected 'auto' or one of "
        f"{STRATEGY_NAMES}"
    )


@dataclass(frozen=True)
class EngineConfig:
    """The run settings of one engine — everything but its queries and state.

    The single declaration of each setting's name, default and check:
    :class:`ContinuousQueryEngine`, the sharded coordinator and its
    workers, the snapshot's config section and the CLI all carry this
    object. Apart from ``window``, no setting changes an emitted record.
    """

    #: sliding-window width tW; ``math.inf`` never evicts
    window: float = math.inf
    #: type-indexed multi-query dispatch: route each edge only to the
    #: queries whose alphabet contains its type. ``False`` offers every
    #: edge to every query (the seed behaviour the equivalence tests
    #: compare against).
    dispatch: bool = True
    #: keep the per-edge stage (evict/ingest/dispatch) and per-query
    #: iso/join timers running (the §6.4.1 split). Profiled chunks replay
    #: through :meth:`ContinuousQueryEngine.process_event`; the timers
    #: cost several clock reads per edge.
    profile_phases: bool = False
    #: batch width of the chunked ingest loop; only constant-hoisting
    #: amortization depends on it (the equivalence suite sweeps it)
    chunk_size: int = 1024

    def __post_init__(self) -> None:
        if not self.window > 0:
            raise ValueError(f"window must be positive, got {self.window}")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")

    @classmethod
    def of(cls, config: Optional["EngineConfig"] = None, **settings) -> "EngineConfig":
        """``config`` (all defaults when ``None``) with ``settings`` applied."""
        return cls(**settings) if config is None else replace(config, **settings)


@dataclass
class RegisteredQuery:
    """A query under execution inside the engine."""

    name: str
    query: QueryGraph
    strategy: str
    algorithm: SearchAlgorithm
    tree: Optional[SJTree] = None
    decision: Optional[StrategyDecision] = None

    @property
    def profile(self) -> ProfileCounters:
        return self.algorithm.profile


@dataclass
class RunResult:
    """Outcome of :meth:`ContinuousQueryEngine.run`."""

    records: List[MatchRecord] = field(default_factory=list)
    edges_processed: int = 0
    elapsed_seconds: float = 0.0

    @property
    def matches(self) -> int:
        return len(self.records)

    def by_query(self) -> Dict[str, List[MatchRecord]]:
        grouped: Dict[str, List[MatchRecord]] = {}
        for record in self.records:
            grouped.setdefault(record.query_name, []).append(record)
        return grouped


class ContinuousQueryEngine:
    """Multi-query continuous pattern detection over one streaming graph.

    The run settings are one :class:`EngineConfig`: pass it as ``config``,
    or pass its fields (``window=``, ``chunk_size=`` …) as keywords, which
    override ``config`` when both are given.
    """

    def __init__(
        self,
        *,
        estimator: Optional[SelectivityEstimator] = None,
        map_edge: EdgeMapFn = default_edge_map,
        config: Optional[EngineConfig] = None,
        **settings,
    ) -> None:
        self.config = config = EngineConfig.of(config, **settings)
        # Plain copies of the settings the per-edge paths read; the config
        # is frozen, so they are fixed for the engine's lifetime.
        self.dispatch = config.dispatch
        self.profile_phases = config.profile_phases
        self.chunk_size = config.chunk_size
        self.graph = StreamingGraph(config.window)
        self.estimator = (
            estimator if estimator is not None else SelectivityEstimator(map_edge)
        )
        self.queries: Dict[str, RegisteredQuery] = {}
        #: the sweep schedule, in window-cutoff space: the first edge whose
        #: cutoff reaches ``_sweep_at`` sweeps before it is matched (see
        #: :meth:`sweep`)
        self._sweep_every = config.window / SWEEPS_PER_WINDOW
        self._schedule_sweep()
        #: when True, the estimator keeps observing the live stream (the
        #: paper assumes a stable selectivity order, so default off).
        self.update_statistics = False
        # interned etype code -> compiled dispatch program, dense-list LUT
        # (see _compile_program); cleared whenever routing could change.
        self._program_lut: List = []
        #: chunks processed by the batched loop (describe() batch stats).
        self._chunks_processed = 0
        #: engine-level stage timers (evict / ingest / dispatch), credited
        #: per edge by :meth:`process_event` when ``profile_phases`` is on;
        #: per-query iso/join time lives in each registered query's own
        #: profile.
        self.kernel_profile = ProfileCounters()
        #: housekeeping sweeps run (telemetry)
        self._sweeps = 0
        #: edges whose compiled dispatch program is not ``None`` (some
        #: routed query consumes the edge's type) — the same count on the
        #: chunk loop and the per-event path.
        self._dispatch_hits = 0
        #: checkpoint duration/bytes accumulators (repro_persistence_*).
        self._checkpoint_stats = CheckpointStats()
        # interned etype code -> registered queries that can consume it
        # (registration order), rebuilt on register/refresh.
        # ``_route_default`` holds the queries that must see *every* edge
        # (relevant_etypes() is None); it doubles as the route for edge
        # types no query declares.
        self._routes: Dict[int, List[RegisteredQuery]] = {}
        self._route_default: List[RegisteredQuery] = []

    # ------------------------------------------------------------------
    # step 1: decomposition
    # ------------------------------------------------------------------

    def warmup(self, events: Iterable[EdgeEvent]) -> int:
        """Feed a stream prefix to the selectivity estimator only.

        An iterator is advanced by exactly the events counted, so the
        caller can go on to ``run()`` the rest of it.
        """
        return self.estimator.observe_events(events)

    def register(
        self,
        query: QueryGraph,
        strategy: str = "auto",
        name: Optional[str] = None,
        **options,
    ) -> RegisteredQuery:
        """Register a continuous query.

        ``strategy`` is one of :data:`~repro.search.strategy.STRATEGY_NAMES`
        or ``"auto"`` (Relative-Selectivity rule). ``options`` are passed to
        the algorithm constructor (e.g. ``retrospective=False`` for the
        lazy ablation, ``period=...`` for PeriodicVF2).

        A query registered on a live window starts from that window: it is
        warmed by the same replay :meth:`refresh_query` runs, and the
        matches the replay completes are not emitted (the window held them
        before the query existed). So every strategy sees the same partial
        state, and emits the same records from here on, whatever its
        decomposition.
        """
        if not query.is_connected():
            raise QueryError(
                "continuous queries must be connected "
                "(the decomposition join order requires shared vertices)"
            )
        query_name = name or query.name or f"q{len(self.queries)}"
        if query_name in self.queries:
            raise QueryError(f"query name {query_name!r} already registered")

        decision: Optional[StrategyDecision] = None
        if strategy == "auto":
            decision = choose_strategy(query, self.estimator)
            strategy = decision.chosen

        registered = RegisteredQuery(
            name=query_name,
            query=query,
            strategy=strategy,
            algorithm=self._build_algorithm(query, strategy, **options),
            decision=decision,
        )
        if self.graph.num_edges:
            from .adaptive import replay_window

            replay_window(self.graph, registered.algorithm)
            registered.algorithm.matches_emitted = 0
        registered.algorithm.profile.enabled = self.profile_phases
        if isinstance(registered.algorithm, (DynamicGraphSearch, LazySearch)):
            registered.tree = registered.algorithm.tree
        self.queries[query_name] = registered
        self._rebuild_dispatch()
        return registered

    def _rebuild_dispatch(self) -> None:
        """Recompile the ``etype code -> [registered query]`` dispatch index.

        Keys are :data:`~repro.graph.types.VOCABULARY` codes so the
        per-edge lookup hashes an int (the code stamped on the edge at
        ingest), not a string. Registration order is preserved within
        every route so record emission order is identical with dispatch on
        or off (skipped queries contribute no records).
        """
        self._program_lut = []  # routes changed: recompile programs lazily
        alphabet: set[str] = set()
        etype_sets: Dict[str, Optional[frozenset]] = {}
        default: List[RegisteredQuery] = []
        for registered in self.queries.values():
            etypes = registered.algorithm.relevant_etypes()
            etype_sets[registered.name] = etypes
            if etypes is None:
                default.append(registered)
            else:
                alphabet |= etypes
        self._route_default = default
        self._routes = {
            VOCABULARY.etype_code(etype): [
                registered
                for registered in self.queries.values()
                if (ets := etype_sets[registered.name]) is None or etype in ets
            ]
            # sorted(): alphabet is a set; keep the route-table build
            # independent of the interpreter hash seed.
            for etype in sorted(alphabet)
        }

    def _build_algorithm(
        self, query: QueryGraph, strategy: str, **options
    ) -> SearchAlgorithm:
        window = self.graph.window
        if strategy in ("Single", "SingleLazy", "Path", "PathLazy"):
            self.estimator.require_warm()
            flavour = "single" if strategy.startswith("Single") else "path"
            tree = build_sj_tree(query, self.estimator, flavour)
            if strategy.endswith("Lazy"):
                return LazySearch(self.graph, tree, window, name=strategy, **options)
            return DynamicGraphSearch(
                self.graph, tree, window, name=strategy, **options
            )
        return algorithm_class(strategy)(self.graph, query, window, **options)

    # ------------------------------------------------------------------
    # step 2: processing
    # ------------------------------------------------------------------

    def process_event(
        self, event: EdgeEvent, *, edge_id: Optional[int] = None
    ) -> List[MatchRecord]:
        """Insert one stream event; return all newly completed matches.

        The paper-faithful reference path — insert, anchor, then
        UPDATE-SJ-TREE through each routed query's ``process_edge`` — that
        the chunk loop is held record- and counter-identical to.
        ``edge_id`` optionally pins the stored edge's id (see
        :meth:`StreamingGraph.add_event`); sharded workers pass the global
        stream position so fingerprints match the single-process engine.
        With :attr:`profile_phases` on, the three stages are credited to
        :attr:`kernel_profile`: ``evict`` (window advance + expiry, before
        the insert as in ``add_event``), ``ingest`` and ``dispatch`` (the
        route lookup).
        """
        graph = self.graph
        profiling = self.profile_phases
        if profiling:
            clock = time.perf_counter
            started = clock()
            # skipped when add_event is about to reject the event, which
            # must leave the graph exactly as it was
            if graph.last_timestamp <= event.timestamp < math.inf and (
                edge_id is None or edge_id >= graph._next_edge_id
            ):
                graph.window.advance(event.timestamp)
                graph.maybe_evict()
            evicted = clock()
            edge = graph.add_event(event, edge_id=edge_id, evict=False)
            ingested = clock()
        else:
            edge = graph.add_event(event, edge_id=edge_id)
        code = edge.etype_code
        if self.dispatch:
            targets = self._routes.get(code, self._route_default)
        else:
            targets = self.queries.values()
        # a hit is an edge some routed query's compiled program consumes —
        # the same definition the chunk loop counts
        if self._program(code) is not None:
            self._dispatch_hits += 1
        if profiling:
            kernel_profile = self.kernel_profile
            kernel_profile.phase_add("evict", evicted - started)
            kernel_profile.phase_add("ingest", ingested - evicted)
            kernel_profile.phase_add("dispatch", clock() - ingested)
        if graph.window._cutoff >= self._sweep_at:
            self.sweep()
        if self.update_statistics:
            self.estimator.observe(edge)
        records: List[MatchRecord] = []
        for registered in targets:
            name, strategy = registered.name, registered.strategy
            for match in registered.algorithm.process_edge(edge):
                records.append(MatchRecord(name, strategy, match, edge.timestamp))
        return records

    def process_events(self, events: Iterable[EdgeEvent]) -> List[MatchRecord]:
        """Process a batch of stream events; return all completed matches.

        The chunked ``encode → evict → route → match`` hot loop: the
        stream is consumed :attr:`chunk_size` events at a time, each chunk
        encoded once into parallel columns (:class:`EdgeChunk`) shared by
        the monotonicity, eviction and dispatch kernels. Semantically
        identical to calling :meth:`process_event` per element (same clock
        advancement, eviction points, sweep points, counters and
        record order — events are still folded in one at a time, because
        matching must observe the graph exactly as of each edge's
        arrival); only the per-event overhead — type interning, order
        validation, route lookup, handler selection — is hoisted to chunk
        scope. :meth:`run`, the chunked CLI ingest and the sharded
        runtime's serial fallback all drive this path.
        """
        return self._process_stream(events, EdgeChunk.from_events)

    def process_rows(self, rows: Iterable[tuple]) -> List[tuple[int, MatchRecord]]:
        """:meth:`process_events` over pinned stream rows (sharded workers).

        ``rows`` are ``(edge_id, src, dst, etype, timestamp, src_type,
        dst_type)`` tuples — the wire format of the sharded runtime, where
        ``edge_id`` is the global stream position (see
        :meth:`StreamingGraph.add_event` on id pinning). Returns
        ``(edge_id, record)`` pairs so the coordinator can merge worker
        outputs back into exact single-process emission order.
        """
        return self._process_stream(rows, EdgeChunk.from_rows)

    def _process_stream(self, items: Iterable, encode) -> list:
        """Chunk ``items`` and feed each chunk to :meth:`_process_chunk`."""
        out: list = []
        it = iter(items)
        chunk_size = self.chunk_size
        islice = itertools.islice
        while batch := list(islice(it, chunk_size)):
            self._process_chunk(encode(batch), out)
        return out

    # ------------------------------------------------------------------
    # batch kernels
    # ------------------------------------------------------------------

    def _compile_program(self, code: int):
        """Compile the dispatch program for one interned etype code.

        A program is a tuple of ``(query_name, strategy, handler)``
        triples — one per routed query whose algorithm consumes the code,
        in registration order — or ``None`` when no routed query does (the
        batched loop then skips matching for the edge entirely; by the
        :meth:`~repro.search.base.SearchAlgorithm.compile_code_handler`
        contract that is record- and counter-identical to calling every
        routed ``process_edge`` and collecting nothing).
        """
        if self.dispatch:
            targets = self._routes.get(code, self._route_default)
        else:
            targets = list(self.queries.values())
        program = [
            (registered.name, registered.strategy, handler)
            for registered in targets
            if (handler := registered.algorithm.compile_code_handler(code))
            is not None
        ]
        return tuple(program) if program else None

    def _program(self, code: int):
        """The dispatch program for one code, compiled on first use.

        Programs live in a dense LUT indexed by code, grown to the current
        vocabulary on demand, so the chunk loop dispatches each edge with
        a single list load.
        """
        lut = self._program_lut
        if code >= len(lut):
            lut.extend([_UNSEEN] * (VOCABULARY.num_etypes() - len(lut)))
        program = lut[code]
        if program is _UNSEEN:
            program = lut[code] = self._compile_program(code)
        return program

    def warm_kernels(self) -> int:
        """Eagerly compile dispatch programs for every interned etype code.

        The batched loop compiles programs lazily, on the first chunk that
        contains a code — correct, but it books the one-time compilation
        cost against the first chunk's wall time. Latency-sensitive
        callers (and the throughput bench, which times the stream section
        in isolation) can call this after registration to hoist the work
        out of the measured path. Codes interned later still compile
        lazily. Returns the number of programs compiled.
        """
        lut = self._program_lut
        unseen = [
            code
            for code in range(VOCABULARY.num_etypes())
            if code >= len(lut) or lut[code] is _UNSEEN
        ]
        for code in unseen:
            self._program(code)
        return len(unseen)

    def _process_chunk(self, chunk: EdgeChunk, out: list) -> None:
        """The fused batch kernel, one body for events and rows.

        Validates the whole chunk's timestamp order in one pass, resolves
        dispatch programs once per distinct etype code, then folds edges
        in one at a time with the graph-ingest step **inlined**: the loop
        mirrors :meth:`StreamingGraph.add_prepared` (and, for eviction,
        :meth:`StreamingGraph._remove`) field for field — those methods
        stay the reference implementation, the equivalence suite drives
        both — with every index hoisted into a chunk-scope local, because
        at the targeted edge rates the ``self.``-attribute traffic and
        call frame of a per-edge method are the dominant cost. The copy
        keeps the window's layout: list buckets, promoted to a deque by an
        eviction past ``PROMOTE_AT``; a vertex dropped with its last
        bucket; a new vertex typed with one dict lookup, interning only an
        unseen type name. The six edge fields are read through a getter
        chosen once per chunk (attributes of an :class:`EdgeEvent`,
        positions of a wire row), and events take ids from
        ``range(next id, …)`` so the pinned-id check runs unchanged in
        both modes. Graph scalar counters are
        written back in ``finally`` so an exception mid-chunk (a pinned id
        going backwards) leaves the prefix fully ingested, exactly like
        the per-event path. Chunks the kernel does not take — profiled
        ones, out-of-order timestamps, short wire rows — replay through
        :meth:`_process_chunk_fallback`.

        The cyclic collector is paused for the loop and restored in the
        same ``finally`` (left alone when the caller had it off). Every
        per-edge path allocates no reference cycles — a guarded invariant,
        see ``tests/test_collector.py`` — so a collection mid-chunk would
        find nothing to free; deferring it to the chunk end bounds the
        deferred work by ``chunk_size`` edges. The pause is process-wide:
        other threads (the metrics server) see it too, for one chunk.
        """
        graph = self.graph
        rows = chunk.rows
        if (
            self.profile_phases
            or not chunk.presorted(graph.last_timestamp)
            or (rows is not None and not chunk.full_rows)
        ):
            self._process_chunk_fallback(chunk, out)
            return
        program_for = self._program
        for code in chunk.distinct_codes():
            program_for(code)
        lut = self._program_lut
        append = out.append
        update_stats = self.update_statistics
        observe = self.estimator.observe
        sweep_at = self._sweep_at
        # --- hoisted graph internals (mirror of add_prepared/_remove) ---
        window = graph.window
        width = window.width
        finite = not math.isinf(width)
        t_last = window.t_last
        cutoff = window.cutoff
        arrival = graph._arrival
        out_idx = graph._out
        in_idx = graph._in
        by_type = graph._by_type
        vertex_types = graph._vertex_types
        loops = graph._loops
        known_vtype = VOCABULARY._vtype_codes.get
        vtype_code = VOCABULARY.vtype_code
        next_eid = graph._next_edge_id
        if rows is None:
            items = chunk.events
            fields = _EVENT_FIELDS
            edge_ids = range(next_eid, next_eid + chunk.n)
        else:
            items = rows
            fields = _ROW_FIELDS
            edge_ids = chunk.edge_ids
        pinned = rows is not None
        inserted = 0
        evicted = 0
        hits = 0
        last_ts = graph._last_timestamp
        Edge_ = Edge
        deque_ = deque
        promote_at = PROMOTE_AT
        collecting = gc.isenabled()
        try:
            if collecting:
                gc.disable()
            for eid, item, code in zip(edge_ids, items, chunk.codes):
                src, dst, etype, timestamp, src_type, dst_type = fields(item)
                if eid < next_eid:
                    raise GraphError(
                        f"edge id {eid} goes backwards (next auto id is "
                        f"{next_eid}); explicit ids must be increasing"
                    )
                if timestamp > t_last:
                    t_last = timestamp
                    window._t_last = timestamp
                    if finite:
                        cutoff = timestamp - width
                        window._cutoff = cutoff
                while arrival and arrival[0].timestamp < cutoff:
                    old = arrival.popleft()
                    osrc = old.src
                    odst = old.dst
                    ocode = old.etype_code
                    by_code = out_idx[osrc]
                    segment = by_code[ocode]
                    if len(segment) > 1:
                        if len(segment) > promote_at and type(segment) is list:
                            segment = by_code[ocode] = deque_(segment)
                        del segment[0]
                    elif len(by_code) > 1:
                        del by_code[ocode]
                    else:
                        del out_idx[osrc]
                        if osrc not in in_idx:
                            del vertex_types[osrc]
                    by_code = in_idx[odst]
                    segment = by_code[ocode]
                    if len(segment) > 1:
                        if len(segment) > promote_at and type(segment) is list:
                            segment = by_code[ocode] = deque_(segment)
                        del segment[0]
                    elif len(by_code) > 1:
                        del by_code[ocode]
                    else:
                        del in_idx[odst]
                        if odst not in out_idx:
                            del vertex_types[odst]
                    segment = by_type[ocode]
                    segment.popleft()
                    if not segment:
                        del by_type[ocode]
                    if odst == osrc:
                        loops[ocode] -= 1
                    evicted += 1
                next_eid = eid + 1
                inserted += 1
                last_ts = timestamp
                edge = Edge_(eid, src, dst, etype, timestamp, code)
                arrival.append(edge)
                by_code = out_idx.get(src)
                if by_code is None:
                    out_idx[src] = {code: [edge]}
                    if src not in vertex_types:
                        vcode = known_vtype(src_type)  # code 0 is valid: no `or`
                        if vcode is None:
                            vcode = vtype_code(src_type)
                        vertex_types[src] = vcode
                elif (segment := by_code.get(code)) is None:
                    by_code[code] = [edge]
                else:
                    segment.append(edge)
                by_code = in_idx.get(dst)
                if by_code is None:
                    in_idx[dst] = {code: [edge]}
                    if dst not in vertex_types:
                        vcode = known_vtype(dst_type)  # code 0 is valid: no `or`
                        if vcode is None:
                            vcode = vtype_code(dst_type)
                        vertex_types[dst] = vcode
                elif (segment := by_code.get(code)) is None:
                    by_code[code] = [edge]
                else:
                    segment.append(edge)
                segment = by_type.get(code)
                if segment is None:
                    by_type[code] = deque_((edge,))
                else:
                    segment.append(edge)
                if dst == src:
                    loops[code] = loops.get(code, 0) + 1
                # --- ingest done; sweep when due, then dispatch via the LUT ---
                if cutoff >= sweep_at:
                    self.sweep()
                    sweep_at = self._sweep_at
                if update_stats:
                    observe(edge)
                program = lut[code]
                if program is not None:
                    hits += 1
                    for name, strategy, handler in program:
                        matches = handler(edge)
                        if matches:
                            for match in matches:
                                record = MatchRecord(name, strategy, match, timestamp)
                                append((eid, record) if pinned else record)
        finally:
            if collecting:
                gc.enable()
            graph._next_edge_id = next_eid
            graph._total_inserted += inserted
            graph._evicted_count += evicted
            graph._last_timestamp = last_ts
            self._dispatch_hits += hits
        self._chunks_processed += 1

    def _process_chunk_fallback(self, chunk: EdgeChunk, out: list) -> None:
        """Per-element replay through the reference :meth:`process_event`.

        Taken by profiled chunks (``process_event`` credits the stage
        timers, and every query's ``process_edge`` its own iso/join
        phases), by out-of-order chunks, which must raise
        :class:`~repro.errors.GraphError` at the exact offending element
        with the in-order prefix fully ingested, and by short wire rows,
        which need :class:`EdgeEvent` defaults.
        """
        process_event = self.process_event
        if chunk.rows is None:
            for event in chunk.events:
                out.extend(process_event(event))
        else:
            for row in chunk.rows:
                pinned_id = row[0]
                for record in process_event(EdgeEvent(*row[1:]), edge_id=pinned_id):
                    out.append((pinned_id, record))
        self._chunks_processed += 1

    def run(
        self,
        events: Iterable[EdgeEvent],
        limit: Optional[int] = None,
    ) -> RunResult:
        """Process a whole stream through :meth:`process_events`; collect
        the records, the edge count and the wall time."""
        started = time.perf_counter()
        if limit is not None:
            events = itertools.islice(events, limit)
        before = self.graph.total_edges_seen
        records = self.process_events(events)
        return RunResult(
            records,
            self.graph.total_edges_seen - before,
            time.perf_counter() - started,
        )

    def sweep(self) -> None:
        """Expire stale partial state in all queries (and the bitmaps).

        Both ingest paths call this on stream time, not edge count: at the
        first edge whose window cutoff has crossed the next multiple of a
        :data:`SWEEPS_PER_WINDOW`-th of the window, after the edge is
        ingested and before it is matched — so at most once per edge, and
        never under an infinite window, where nothing expires. The grid
        is fixed in stream time, so every ingest path, and an engine
        restored from a checkpoint, sweeps at the same edges as one that
        never stopped. Table expiry changes no record (joins skip stale
        entries either way). Lazy Search's bitmap compaction does: a
        vertex that left the window and returns is re-enabled by a
        backfill instead of still being enabled, which can reorder the
        records one edge completes. Hence a schedule that depends on
        stream time alone.
        """
        self._sweeps += 1
        self._schedule_sweep()
        for registered in self.queries.values():
            registered.algorithm.housekeeping()

    def _schedule_sweep(self) -> None:
        """Due the next sweep at the first grid line above the cutoff."""
        every = self._sweep_every
        cutoff = self.graph.window.cutoff
        if math.isinf(every):
            self._sweep_at = math.inf  # nothing ever expires
        elif math.isinf(cutoff):
            self._sweep_at = -math.inf  # no edge yet: the first one sweeps
        else:
            self._sweep_at = (cutoff // every + 1) * every

    # ------------------------------------------------------------------
    # durability (checkpoint / restore — repro.persistence)
    # ------------------------------------------------------------------

    def checkpoint(self, path, *, cursor: Optional[int] = None) -> None:
        """Write a versioned binary snapshot of the full engine state.

        Captures the graph window, every query's SJ-Tree/bitmap/baseline
        state, the selectivity statistics and (optionally) a stream
        ``cursor`` — the number of source events consumed so far, which
        :meth:`restore` hands back so a resume knows where to continue
        reading. The write is atomic (tmp file + rename), so a crash
        mid-checkpoint never corrupts the previous snapshot at ``path``.
        """
        from ..persistence.snapshot import save_engine

        started = time.perf_counter()
        save_engine(self, path, cursor=cursor)
        elapsed = time.perf_counter() - started
        try:
            size = os.stat(path).st_size
        except OSError:
            size = 0
        self._checkpoint_stats.record(elapsed, size)

    @classmethod
    def restore(
        cls,
        path,
        queries: Iterable[QueryGraph],
        *,
        config: Optional[EngineConfig] = None,
        **settings,
    ) -> "ContinuousQueryEngine":
        """Rebuild an engine from a :meth:`checkpoint` snapshot.

        ``queries`` must be the same query graphs the snapshot was taken
        with (matched by name, validated by edge signature — a
        mismatched query set raises
        :class:`~repro.errors.CheckpointError`, never a cryptic
        traceback). A snapshot is state: the window width comes from it,
        every other setting from ``config`` / ``settings`` as for the
        constructor (defaults when omitted), whatever the checkpointed
        engine ran with. The restored engine continues the stream with
        emissions identical to an engine that was never stopped; use
        :func:`repro.persistence.load_engine` instead when the saved
        stream cursor is needed alongside the engine.
        """
        from ..persistence.snapshot import load_engine

        engine, _ = load_engine(path, list(queries), config=config, **settings)
        return engine

    # ------------------------------------------------------------------
    # adaptation (§7 future work, implemented — see repro.search.adaptive)
    # ------------------------------------------------------------------

    def refresh_query(self, name: str, strategy: str = "auto", **options):
        """Re-derive a query's decomposition from *current* statistics and
        migrate its state by replaying the live window.

        Useful after the selectivity order has drifted (enable
        ``update_statistics`` so the estimator keeps tracking the live
        stream). Returns a :class:`~repro.search.adaptive.RefreshReport`;
        matches rediscovered during the replay were already reported when
        they first completed and are suppressed, not re-emitted.
        """
        from .adaptive import migrate

        try:
            registered = self.queries[name]
        except KeyError:
            raise QueryError(f"no registered query named {name!r}") from None

        decision: Optional[StrategyDecision] = None
        if strategy == "auto":
            decision = choose_strategy(registered.query, self.estimator)
            strategy = decision.chosen
        replacement = self._build_algorithm(registered.query, strategy, **options)
        replacement.profile.enabled = self.profile_phases
        report = migrate(self.graph, registered.algorithm, replacement, name)

        registered.algorithm = replacement
        registered.strategy = strategy
        registered.decision = decision
        registered.tree = (
            replacement.tree
            if isinstance(replacement, (DynamicGraphSearch, LazySearch))
            else None
        )
        self._rebuild_dispatch()
        return report

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def partial_match_count(self) -> int:
        """Live partial matches across all registered queries."""
        return sum(
            registered.algorithm.partial_match_count()
            for registered in self.queries.values()
        )

    def metrics(self):
        """Point-in-time :class:`~repro.telemetry.MetricsRegistry`.

        Pull-based: assembles counters, gauges and histograms from state
        the engine already maintains (graph scalar counters, match-table
        totals, phase profiles, checkpoint stats), so the per-edge hot
        path pays nothing for telemetry being armed. Safe to call at any
        chunk boundary; ``registry.collect()`` yields the JSON-able
        snapshot the CLI emitters and the sharded aggregation use.
        """
        from ..telemetry.instrument import engine_registry

        return engine_registry(self)

    def query_alphabets(self) -> Dict[str, Optional[frozenset]]:
        """Per-query consumable edge types (``None`` = every edge).

        The alphabet export behind shard planning: the sharded runtime
        streams a worker only the edge types in its queries' combined
        alphabet, so this is exactly the information that makes
        type-filtered batching sound.
        """
        return {
            name: registered.algorithm.relevant_etypes()
            for name, registered in self.queries.items()
        }

    def route_counts(self) -> Dict[str, Optional[int]]:
        """Per-query count of edge types the dispatch table routes to it.

        ``None`` means the query sits on the default route and receives
        every edge (e.g. PeriodicVF2). Exposed so shard balance and
        dispatch fan-out are debuggable without poking at ``_routes``.
        """
        counts: Dict[str, Optional[int]] = {}
        for name, registered in self.queries.items():
            if registered in self._route_default:
                counts[name] = None
            else:
                counts[name] = sum(
                    1 for route in self._routes.values() if registered in route
                )
        return counts

    def describe(self) -> str:
        """Multi-line status summary (CLI / examples)."""
        lines = [
            f"graph: {self.graph.num_vertices} vertices, "
            f"{self.graph.num_edges} live edges "
            f"({self.graph.total_edges_seen} seen, window="
            f"{self.graph.window.width:g})"
        ]
        lines.append(
            f"batch: chunk_size={self.chunk_size} "
            f"chunks={self._chunks_processed} "
            f"kernels={backend_name()}"
        )
        routes = self.route_counts()
        for registered in self.queries.values():
            emitted = registered.algorithm.matches_emitted
            fan_in = routes[registered.name]
            routed = "*" if fan_in is None else str(fan_in)
            partial = registered.algorithm.partial_match_count()
            lines.append(
                f"  {registered.name}: strategy={registered.strategy} "
                f"matches={emitted} partial={partial} "
                f"routes={routed}"
            )
            if registered.decision is not None:
                lines.append(f"    {registered.decision.explain()}")
        return "\n".join(lines)
