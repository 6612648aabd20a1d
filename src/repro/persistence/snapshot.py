"""Versioned binary snapshots of live :class:`ContinuousQueryEngine` state.

This is the engine-level half of the durability subsystem (the directory
/ manifest layer lives in :mod:`repro.persistence.manifest`). A snapshot
captures everything a restarted process needs to continue a stream and
emit **exactly** the records an uninterrupted engine would have emitted:

* the interned :class:`~repro.graph.types.Vocabulary` slice the engine
  uses (snapshot-local codes; restore re-interns through the live
  process-wide pool, so snapshots are portable across processes),
* the :class:`~repro.graph.StreamingGraph` window — live edges in
  arrival order with their pinned ids, vertex types, the window clock
  and the lifetime counters,
* per registered query: name, resolved strategy, reconstruction options,
  the exact SJ-Tree leaf partition (extending
  :mod:`repro.sjtree.serialize`'s query-shape identity check to live
  state), and every node's :class:`~repro.sjtree.node.MatchTable`
  content, each bucket in insertion order (flat data-edge-id tuples —
  the compact positional encoding round-trips naturally). A graph-backed
  leaf (:class:`~repro.sjtree.node.GraphLeafView`) is written as the
  FIFO table it replaced — its live edges, one per match, in arrival
  order — and on restore its entries are only checked against the
  window, which holds them already,
* Lazy Search's enablement bitmap rows and the baselines' dedup /
  period state,
* the warmed selectivity estimator (1-edge histogram + 2-edge path
  counter), and
* an optional stream ``cursor`` (events consumed from the source) so a
  resume knows where to pick the stream back up.

Format version 2 (the current writer) makes snapshots
**layout-independent**: the engine-wide sections (config, graph window,
estimator) and every query's state are stored as length-prefixed slices,
so :func:`split_snapshot` can take a set of per-shard snapshots apart
and :func:`merge_shard_slices` / :func:`compose_snapshot` can recombine
the *per-query* slices into snapshots for a completely different shard
layout — the mechanism behind
:meth:`~repro.runtime.sharded.ShardedEngine.resume` with a new worker
count and :meth:`~repro.runtime.sharded.ShardedEngine.rebalance`. The
key property making that sound is that a query slice references graph
state only through pinned global edge ids, never through snapshot-local
vocabulary codes.

A snapshot is state, not settings. The config section records the
writer's :class:`~repro.search.engine.EngineConfig`, but a restore takes
only the window width from it; every other setting comes from whoever
opens the engine. The section keeps the version-2 byte layout, including
three retired slots (once ``housekeeping_every``, ``partial_sample_every``
and the edges since the last sweep) that are written as constants and
skipped on read. The sweep schedule is not state either: it is a grid in
stream time, fixed again from the restored clock.

What is deliberately *not* captured: profile timers (they restart from
zero) and ``StrategyDecision`` explanations (registration-time
artefacts). A custom ``map_edge`` estimator hook cannot be serialized —
restored engines use :func:`~repro.stats.paths.default_edge_map`.

Consistency note: entries whose ``min_time`` fell below the window
cutoff but which no expiry sweep has reclaimed yet are skipped at save
time. They are invisible to joins (probe-time cutoff filtering) and can
never be rediscovered (their edges left the graph), so dropping them
changes no future emission — it only means a restored engine starts with
the housekeeping sweep effectively "caught up".

All structural failures raise :class:`~repro.errors.CheckpointError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import CheckpointError
from ..graph.types import VOCABULARY, Edge, EdgeEvent
from ..isomorphism.match import Match
from ..query.query_graph import QueryGraph
from ..search.baseline import (
    IncIsoMatchSearch,
    PeriodicVF2Search,
    VF2PerEdgeSearch,
)
from ..search.dynamic import DynamicGraphSearch
from ..search.engine import ContinuousQueryEngine, EngineConfig, RegisteredQuery
from ..search.lazy import LazySearch
from ..sjtree.node import GraphLeafView
from ..sjtree.serialize import edge_signature
from ..sjtree.tree import SJTree, leaf_partition_of
from ..stats.estimator import SelectivityEstimator
from ..stats.selectivity import LeafSelectivity
from . import durable
from .binary import BinaryReader, BinaryWriter

SNAPSHOT_MAGIC = b"RGSNAP"
SNAPSHOT_VERSION = 2
#: Versions :func:`engine_from_bytes` can read.
READABLE_VERSIONS = (2,)

_KIND_TREE = 0  # DynamicGraphSearch (eager)
_KIND_TREE_LAZY = 1  # LazySearch (tree + bitmap)
_KIND_VF2 = 2  # VF2PerEdgeSearch (stateless)
_KIND_SEEN = 3  # IncIsoMatchSearch (dedup set)
_KIND_PERIODIC = 4  # PeriodicVF2Search (dedup set + counter)


# ---------------------------------------------------------------------------
# parsed slice model (the unit of shard-layout migration)
# ---------------------------------------------------------------------------


@dataclass
class GraphState:
    """Decoded graph-window section: plain strings, no snapshot codes."""

    #: ``(edge_id, src, dst, etype, timestamp)`` in arrival order
    #: (ascending pinned edge id == global stream position).
    edges: List[Tuple[int, object, object, str, float]]
    vertex_types: Dict[object, str]
    next_edge_id: int
    total_inserted: int
    evicted: int
    last_timestamp: float
    t_last: float


@dataclass
class SnapshotSlices:
    """One snapshot taken apart into recombinable slices.

    ``estimator`` and the per-query ``queries`` values are kept as raw
    section bytes: both encodings are self-contained (strings and global
    edge ids only — no snapshot-local vocabulary codes), so they can be
    copied verbatim into a snapshot for a different shard layout.
    ``config`` is the writer's settings (``chunk_size`` is not stored, so
    it reads back as the default); ``update_statistics`` is the config
    section's one state field.
    """

    cursor: Optional[int]
    config: EngineConfig
    update_statistics: bool
    graph: GraphState
    estimator: bytes
    queries: Dict[str, bytes] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# save
# ---------------------------------------------------------------------------


def engine_to_bytes(
    engine: ContinuousQueryEngine, *, cursor: Optional[int] = None
) -> bytes:
    """Serialize the full live state of ``engine`` (see module docstring)."""
    return compose_snapshot(engine_to_slices(engine, cursor=cursor))


def engine_to_slices(
    engine: ContinuousQueryEngine, *, cursor: Optional[int] = None
) -> SnapshotSlices:
    """Extract the slice decomposition of ``engine``'s live state."""
    graph = engine.graph
    estimator = BinaryWriter()
    _dump_estimator(estimator, engine.estimator)
    cutoff = graph.window.cutoff
    queries: Dict[str, bytes] = {}
    for registered in engine.queries.values():
        blob = BinaryWriter()
        _dump_query_state(blob, registered, cutoff)
        queries[registered.name] = blob.getvalue()
    return SnapshotSlices(
        cursor=cursor,
        config=engine.config,
        update_statistics=engine.update_statistics,
        graph=GraphState(
            edges=[
                (edge.edge_id, edge.src, edge.dst, edge.etype, edge.timestamp)
                for edge in graph.edges()  # arrival order == ascending id
            ],
            vertex_types={
                vertex: VOCABULARY.vtype_name(code)
                for vertex, code in graph._vertex_types.items()
            },
            next_edge_id=graph._next_edge_id,
            total_inserted=graph.total_edges_seen,
            evicted=graph.evicted_edges,
            last_timestamp=graph._last_timestamp,
            t_last=graph.window.t_last,
        ),
        estimator=estimator.getvalue(),
        queries=queries,
    )


def compose_snapshot(slices: SnapshotSlices) -> bytes:
    """Assemble version-:data:`SNAPSHOT_VERSION` snapshot bytes from slices."""
    etype_codes = _Interner()
    vtype_codes = _Interner()
    config = BinaryWriter()
    _dump_engine_config(config, slices)
    graph = BinaryWriter()
    _dump_graph_state(graph, slices.graph, etype_codes, vtype_codes)

    writer = BinaryWriter()
    writer.write_bytes_raw(SNAPSHOT_MAGIC)
    writer.write_varint(SNAPSHOT_VERSION)
    writer.write_value(slices.cursor)
    writer.write_varint(len(etype_codes.names))
    for name in etype_codes.names:
        writer.write_str(name)
    writer.write_varint(len(vtype_codes.names))
    for name in vtype_codes.names:
        writer.write_str(name)
    for section in (config.getvalue(), graph.getvalue(), slices.estimator):
        writer.write_varint(len(section))
        writer.write_bytes_raw(section)
    writer.write_varint(len(slices.queries))
    for name, blob in slices.queries.items():
        writer.write_str(name)
        writer.write_varint(len(blob))
        writer.write_bytes_raw(blob)
    return writer.getvalue()


def save_engine(
    engine: ContinuousQueryEngine,
    path: Union[str, Path],
    *,
    cursor: Optional[int] = None,
) -> None:
    """Write :func:`engine_to_bytes` to ``path`` atomically.

    I/O failures surface as :class:`CheckpointError` (the engine itself
    is untouched — a caller may retry once the disk recovers).
    """
    write_snapshot_bytes(engine_to_bytes(engine, cursor=cursor), path)


def write_snapshot_bytes(data: bytes, path: Union[str, Path]) -> None:
    """Durably publish snapshot ``data`` at ``path``.

    Full crash-safety dance (see :mod:`repro.persistence.durable`): the
    payload gets a CRC-32 integrity trailer, is written to a tmp file,
    fsynced, atomically renamed over ``path``, and the directory entry is
    fsynced — so a power cut can never leave a manifest pointing at a
    snapshot whose bytes did not reach the disk, and torn bytes are
    detected deterministically at restore time. ``REPRO_NO_FSYNC=1``
    skips the fsyncs (tests); the rename stays atomic regardless.
    """
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    try:
        durable.write_durable_bytes(tmp, durable.frame_payload(data))
        durable.durable_replace(tmp, target)
    except OSError as exc:
        raise CheckpointError(f"cannot write snapshot {target}: {exc}") from exc


class _Interner:
    """First-appearance string → dense snapshot-local code."""

    __slots__ = ("codes", "names")

    def __init__(self) -> None:
        self.codes: Dict[str, int] = {}
        self.names: List[str] = []

    def code(self, name: str) -> int:
        code = self.codes.get(name)
        if code is None:
            code = len(self.names)
            self.codes[name] = code
            self.names.append(name)
        return code


def _dump_engine_config(w: BinaryWriter, slices: SnapshotSlices) -> None:
    config = slices.config
    w.write_f64(config.window)
    # the retired slots keep the layout readable both ways
    w.write_varint(2048)  # once housekeeping_every: its old default
    w.write_u8(1 if config.dispatch else 0)
    w.write_value(None)  # once partial_sample_every
    w.write_u8(1 if config.profile_phases else 0)
    w.write_u8(1 if slices.update_statistics else 0)
    w.write_varint(0)  # once the edges since the last sweep


def _dump_graph_state(
    w: BinaryWriter,
    state: GraphState,
    etypes: _Interner,
    vtypes: _Interner,
) -> None:
    w.write_varint(len(state.edges))
    for edge_id, src, dst, etype, timestamp in state.edges:
        w.write_varint(edge_id)
        w.write_value(src)
        w.write_value(dst)
        w.write_varint(etypes.code(etype))
        w.write_f64(timestamp)
    w.write_varint(len(state.vertex_types))
    for vertex, vtype in state.vertex_types.items():
        w.write_value(vertex)
        w.write_varint(vtypes.code(vtype))
    w.write_varint(state.next_edge_id)
    w.write_varint(state.total_inserted)
    w.write_varint(state.evicted)
    w.write_f64(state.last_timestamp)
    w.write_f64(state.t_last)


def _dump_estimator(w: BinaryWriter, estimator: SelectivityEstimator) -> None:
    w.write_varint(estimator.events_observed)
    histogram = estimator.edge_histogram.as_dict()
    w.write_varint(len(histogram))
    for etype, count in sorted(histogram.items()):
        w.write_str(etype)
        w.write_varint(count)
    per_vertex, table = estimator.path_counter.export_state()
    w.write_varint(len(per_vertex))
    for vertex, tokens in per_vertex:
        w.write_value(vertex)
        w.write_varint(len(tokens))
        for (direction, label), count in tokens:
            w.write_str(direction)
            w.write_str(label)
            w.write_varint(count)
    w.write_varint(len(table))
    for (token_a, token_b), count in table:
        w.write_str(token_a[0])
        w.write_str(token_a[1])
        w.write_str(token_b[0])
        w.write_str(token_b[1])
        w.write_varint(count)


def _dump_query_state(
    w: BinaryWriter, registered: RegisteredQuery, cutoff: float
) -> None:
    """One query's self-contained state blob (no snapshot-local codes)."""
    w.write_str(registered.strategy)
    w.write_str(edge_signature(registered.query))
    algorithm = registered.algorithm
    options = _algorithm_options(algorithm)
    w.write_varint(len(options))
    for key, value in options.items():
        w.write_str(key)
        w.write_value(value)
    w.write_varint(algorithm.matches_emitted)
    if isinstance(algorithm, LazySearch):
        w.write_u8(_KIND_TREE_LAZY)
        _dump_tree_state(w, algorithm.tree, cutoff)
        rows = algorithm.bitmap._rows
        w.write_varint(len(rows))
        for vertex, mask in rows.items():
            w.write_value(vertex)
            w.write_varint(mask)
    elif isinstance(algorithm, DynamicGraphSearch):
        w.write_u8(_KIND_TREE)
        _dump_tree_state(w, algorithm.tree, cutoff)
    elif isinstance(algorithm, VF2PerEdgeSearch):
        w.write_u8(_KIND_VF2)
    elif isinstance(algorithm, IncIsoMatchSearch):
        w.write_u8(_KIND_SEEN)
        _dump_seen(w, algorithm._seen)
    elif isinstance(algorithm, PeriodicVF2Search):
        w.write_u8(_KIND_PERIODIC)
        _dump_seen(w, algorithm._seen)
        w.write_varint(algorithm._since_last)
    else:
        raise CheckpointError(
            f"query {registered.name!r} uses strategy "
            f"{registered.strategy!r} ({type(algorithm).__name__}), "
            "which does not support checkpointing"
        )


def _algorithm_options(algorithm) -> Dict[str, object]:
    """Constructor kwargs needed to rebuild ``algorithm`` identically.

    Derived from live attributes rather than remembered at registration,
    so hand-constructed algorithms snapshot correctly too.
    """
    if isinstance(algorithm, LazySearch):
        return {
            "retrospective": algorithm.retrospective,
            "compiled_plans": algorithm.compiled_plans,
        }
    if isinstance(algorithm, DynamicGraphSearch):
        return {"compiled_plans": algorithm.compiled_plans}
    if isinstance(algorithm, PeriodicVF2Search):
        return {"period": algorithm.period}
    return {}


def _dump_tree_state(w: BinaryWriter, tree: SJTree, cutoff: float) -> None:
    partition = leaf_partition_of(tree)
    w.write_varint(len(partition))
    for edge_ids in partition:
        w.write_varint(len(edge_ids))
        for edge_id in edge_ids:
            w.write_varint(edge_id)
    for leaf in tree.leaves():
        w.write_str(leaf.leaf_label)
        w.write_value(leaf.leaf_selectivity)
    w.write_varint(tree.complete_matches)
    w.write_varint(len(tree.nodes))
    for node in tree.nodes:
        table = node.table
        w.write_varint(table.inserted_total)
        if type(table) is GraphLeafView:
            ids = _fifo_order(table, cutoff)
            w.write_varint(len(ids))
            for edge_id in ids:
                w.write_varint(edge_id)
            continue
        live = [
            match
            for match in _matches_in_insertion_order(table)
            if match.min_time >= cutoff
        ]
        w.write_varint(len(live))
        for match in live:
            for edge in match.edges:
                w.write_varint(edge.edge_id)


def _fifo_order(view: GraphLeafView, cutoff: float) -> List[int]:
    """A graph-backed leaf's live edge ids, listed as the
    :class:`~repro.sjtree.node.FIFOLeafTable` it replaced listed them:
    in arrival order (its ring), or without a ring (``tW = ∞``) bucket by
    bucket, buckets in the order their keys first appeared."""
    edges = [edge for edge in view.edges() if edge.timestamp >= cutoff]
    if view.track_expiry:
        return [edge.edge_id for edge in edges]
    buckets: Dict[object, List[int]] = {}
    for edge in edges:
        key = edge.src if view.key_is_src else edge.dst
        buckets.setdefault(key, []).append(edge.edge_id)
    return [edge_id for bucket in buckets.values() for edge_id in bucket]


def _matches_in_insertion_order(table):
    """Live matches of one stored table, every bucket in insertion order.

    Per-bucket order is the only order a probe observes, so a
    ``MatchTable`` is written bucket by bucket. ``FIFOLeafTable`` also
    *expires* in global insertion order, which its match ring records
    (and a restore, inserting in file order, rebuilds).
    """
    ring = getattr(table, "_ring_matches", None)
    if ring is not None and table.track_expiry:
        return list(ring)
    return list(table)


def _dump_seen(w: BinaryWriter, seen) -> None:
    # Fingerprints are tuples of (query_edge_id, data_edge_id) pairs.
    # Sorted for determinism — set identity is order-free.
    fingerprints = sorted(seen)
    w.write_varint(len(fingerprints))
    for fingerprint in fingerprints:
        w.write_varint(len(fingerprint))
        for qeid, data_eid in fingerprint:
            w.write_varint(qeid)
            w.write_varint(data_eid)


# ---------------------------------------------------------------------------
# restore
# ---------------------------------------------------------------------------


def engine_from_bytes(
    data: bytes,
    queries: Sequence[QueryGraph],
    *,
    config: Optional[EngineConfig] = None,
    **settings,
) -> Tuple[ContinuousQueryEngine, Optional[int]]:
    """Rebuild an engine from :func:`engine_to_bytes` output.

    ``queries`` must contain exactly the query graphs the snapshot was
    taken with (matched by name, validated structurally by edge
    signature); order is free. The window width comes from the
    snapshot; every other setting from ``config`` / ``settings``, as for
    the :class:`ContinuousQueryEngine` constructor. Returns
    ``(engine, cursor)``.
    """
    r = BinaryReader(data)
    cursor, etype_names, vtype_names = _read_header(r)
    by_name = _queries_by_name(queries)
    matched: set = set()

    written, update_statistics = _read_engine_config(r)
    engine = ContinuousQueryEngine(
        config=EngineConfig.of(config, window=written.window, **settings)
    )
    engine.update_statistics = update_statistics
    graph_section = _section_reader(r, "graph window")
    _apply_graph_state(
        engine, _read_graph_state(graph_section, etype_names, vtype_names)
    )
    engine._schedule_sweep()  # the restored clock fixes the sweep grid
    graph_section.expect_end("graph window")
    estimator_section = _section_reader(r, "estimator")
    _load_estimator(estimator_section, engine.estimator)
    estimator_section.expect_end("estimator state")
    # every restored match edge resolves through one map, not a ring search
    window_edges = {edge.edge_id: edge for edge in engine.graph.edges()}
    for _ in range(r.read_varint()):
        name = r.read_str()
        blob = _section_reader(r, f"query {name!r}")
        _restore_query(blob, engine, by_name, matched, name, window_edges)
        blob.expect_end(f"query {name!r} state")

    extra = set(by_name) - matched
    if extra:
        raise CheckpointError(
            f"queries {sorted(extra)} were passed to restore() but are "
            "not in the snapshot; the query set must match exactly"
        )
    engine._rebuild_dispatch()
    r.expect_end("query state")
    return engine, cursor


def load_engine(
    path: Union[str, Path],
    queries: Sequence[QueryGraph],
    *,
    config: Optional[EngineConfig] = None,
    **settings,
) -> Tuple[ContinuousQueryEngine, Optional[int]]:
    """Read a snapshot file back; see :func:`engine_from_bytes`."""
    return engine_from_bytes(
        read_snapshot_bytes(path), queries, config=config, **settings
    )


def read_snapshot_bytes(path: Union[str, Path]) -> bytes:
    """Read a snapshot file, surfacing I/O failures as CheckpointError.

    Verifies and strips the CRC-32 integrity trailer when present
    (every file written by the current :func:`write_snapshot_bytes`
    carries one); corrupted bytes raise :class:`CheckpointError` here,
    before the structural decoder ever runs. Trailer-less files from
    older builds pass through to the structural checks unchanged.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read snapshot {path}: {exc}") from exc
    try:
        return durable.unframe_payload(data)
    except ValueError as exc:
        raise CheckpointError(f"corrupt snapshot {path}: {exc}") from exc


def _read_header(r: BinaryReader) -> Tuple[Optional[int], List[str], List[str]]:
    magic = r.read_bytes_raw(len(SNAPSHOT_MAGIC))
    if magic != SNAPSHOT_MAGIC:
        raise CheckpointError(
            "not an engine snapshot (bad magic header); expected a file "
            "written by ContinuousQueryEngine.checkpoint()"
        )
    version = r.read_varint()
    if version not in READABLE_VERSIONS:
        raise CheckpointError(
            f"unsupported snapshot version {version}; this build reads "
            f"versions {READABLE_VERSIONS} — re-create the checkpoint "
            "with the running version"
        )
    cursor = r.read_value()
    if cursor is not None and not isinstance(cursor, int):
        raise CheckpointError(f"malformed stream cursor {cursor!r}")
    etype_names = [r.read_str() for _ in range(r.read_varint())]
    vtype_names = [r.read_str() for _ in range(r.read_varint())]
    return cursor, etype_names, vtype_names


def _section_reader(r: BinaryReader, what: str) -> BinaryReader:
    """Cut one length-prefixed section out of a snapshot."""
    length = r.read_varint()
    try:
        return BinaryReader(r.read_bytes_raw(length))
    except CheckpointError:
        raise CheckpointError(
            f"truncated snapshot: {what} section of {length} bytes "
            "extends past end of file"
        ) from None


def _queries_by_name(queries: Sequence[QueryGraph]) -> Dict[str, QueryGraph]:
    by_name: Dict[str, QueryGraph] = {}
    for query in queries:
        if not query.name:
            raise CheckpointError(
                "every query passed to restore() must carry a name "
                "(snapshot state is matched to queries by name)"
            )
        if query.name in by_name:
            raise CheckpointError(f"duplicate query name {query.name!r}")
        by_name[query.name] = query
    return by_name


def _read_engine_config(r: BinaryReader) -> Tuple[EngineConfig, bool]:
    """Cut and parse the config section: the writer's settings, then the
    state field ``update_statistics``; the retired slots are skipped."""
    section = _section_reader(r, "engine config")
    window = section.read_f64()
    section.read_varint()  # retired: housekeeping_every
    dispatch = bool(section.read_u8())
    section.read_value()  # retired: partial_sample_every
    profile_phases = bool(section.read_u8())
    try:
        config = EngineConfig(
            window=window, dispatch=dispatch, profile_phases=profile_phases
        )
    except ValueError as exc:
        raise CheckpointError(f"snapshot engine config is corrupt: {exc}") from exc
    update_statistics = bool(section.read_u8())
    section.read_varint()  # retired: edges since the last sweep
    section.expect_end("engine config")
    return config, update_statistics


def _read_graph_state(
    r: BinaryReader, etype_names: List[str], vtype_names: List[str]
) -> GraphState:
    edges = [
        (
            r.read_varint(),
            r.read_value(),
            r.read_value(),
            _name(etype_names, r.read_varint(), "edge type"),
            r.read_f64(),
        )
        for _ in range(r.read_varint())
    ]
    vertex_types: Dict[object, str] = {}
    for _ in range(r.read_varint()):
        vertex = r.read_value()
        vertex_types[vertex] = _name(vtype_names, r.read_varint(), "vertex type")
    return GraphState(
        edges=edges,
        vertex_types=vertex_types,
        next_edge_id=r.read_varint(),
        total_inserted=r.read_varint(),
        evicted=r.read_varint(),
        last_timestamp=r.read_f64(),
        t_last=r.read_f64(),
    )


def _apply_graph_state(engine: ContinuousQueryEngine, state: GraphState) -> None:
    graph = engine.graph
    # Replay the live window in arrival order with pinned ids. Vertex
    # types come from the saved λV map (first sight during the replay is
    # first sight of a *live* edge, which is exactly what λV holds for
    # every live vertex). No replayed edge can be evicted: all live edges
    # sit at or above the final cutoff, which the intermediate cutoffs
    # never exceed.
    for edge_id, src, dst, etype, timestamp in state.edges:
        try:
            src_type = state.vertex_types[src]
            dst_type = state.vertex_types[dst]
        except KeyError as exc:
            raise CheckpointError(
                f"snapshot edge {edge_id} references vertex {exc.args[0]!r} "
                "with no recorded type; file is corrupt"
            ) from exc
        event = EdgeEvent(
            src=src,
            dst=dst,
            etype=etype,
            timestamp=timestamp,
            src_type=src_type,
            dst_type=dst_type,
        )
        graph.add_event(event, evict=False, edge_id=edge_id)
    graph._next_edge_id = state.next_edge_id
    graph._total_inserted = state.total_inserted
    graph._evicted_count = state.evicted
    graph._last_timestamp = state.last_timestamp
    graph.window.advance(state.t_last)


def _name(names: List[str], code: int, what: str) -> str:
    try:
        return names[code]
    except IndexError:
        raise CheckpointError(
            f"snapshot references {what} code {code} outside its own "
            f"vocabulary ({len(names)} entries); file is corrupt"
        ) from None


def _load_estimator(r: BinaryReader, estimator: SelectivityEstimator) -> None:
    estimator._events_observed = r.read_varint()
    histogram = estimator.edge_histogram
    for _ in range(r.read_varint()):
        histogram.add(r.read_str(), r.read_varint())
    per_vertex = []
    for _ in range(r.read_varint()):
        vertex = r.read_value()
        tokens = []
        for _ in range(r.read_varint()):
            token = (r.read_str(), r.read_str())
            tokens.append((token, r.read_varint()))
        per_vertex.append((vertex, tokens))
    table = []
    for _ in range(r.read_varint()):
        token_a = (r.read_str(), r.read_str())
        token_b = (r.read_str(), r.read_str())
        table.append(((token_a, token_b), r.read_varint()))
    try:
        estimator.path_counter.load_state(per_vertex, table)
    except ValueError as exc:
        raise CheckpointError(f"snapshot estimator state is corrupt: {exc}") from exc


def estimator_from_section(data: bytes) -> SelectivityEstimator:
    """Decode one raw estimator slice into a fresh estimator.

    Used by shard-layout migration to repartition from the statistics a
    checkpoint actually carries, without rebuilding a whole engine.
    """
    estimator = SelectivityEstimator()
    r = BinaryReader(data)
    _load_estimator(r, estimator)
    r.expect_end("estimator state")
    return estimator


def _restore_query(
    r: BinaryReader,
    engine: ContinuousQueryEngine,
    by_name: Dict[str, QueryGraph],
    matched: set,
    name: str,
    window_edges: Dict[int, Edge],
) -> RegisteredQuery:
    """Parse one query-state blob and register it on ``engine``.

    ``window_edges`` maps the restored window's edge ids to its edges.
    """
    strategy = r.read_str()
    signature = r.read_str()
    options = {r.read_str(): r.read_value() for _ in range(r.read_varint())}
    matches_emitted = r.read_varint()
    query = by_name.get(name)
    if query is None:
        raise CheckpointError(
            f"snapshot contains query {name!r} but it was not passed "
            f"to restore(); provided: {sorted(by_name)}"
        )
    actual = edge_signature(query)
    if actual != signature:
        raise CheckpointError(
            f"query {name!r} does not match the snapshot: snapshot "
            f"has edges {signature!r}, provided query has {actual!r}"
        )
    matched.add(name)
    algorithm = _load_algorithm(r, engine, query, strategy, options, window_edges)
    algorithm.matches_emitted = matches_emitted
    algorithm.profile.enabled = engine.profile_phases
    registered = RegisteredQuery(
        name=name,
        query=query,
        strategy=strategy,
        algorithm=algorithm,
        tree=getattr(algorithm, "tree", None),
    )
    engine.queries[name] = registered
    return registered


def _load_algorithm(
    r: BinaryReader,
    engine: ContinuousQueryEngine,
    query: QueryGraph,
    strategy: str,
    options: Dict[str, object],
    window_edges: Dict[int, Edge],
):
    kind = r.read_u8()
    graph = engine.graph
    window = graph.window
    if kind in (_KIND_TREE, _KIND_TREE_LAZY):
        tree = _load_tree(r, graph, query)
        cls = LazySearch if kind == _KIND_TREE_LAZY else DynamicGraphSearch
        algorithm = cls(graph, tree, window, name=strategy, **options)
        _load_tables(r, tree, window_edges)
        if kind == _KIND_TREE_LAZY:
            rows = {r.read_value(): r.read_varint() for _ in range(r.read_varint())}
            algorithm.bitmap.load(rows)
        return algorithm
    if kind == _KIND_VF2:
        return VF2PerEdgeSearch(graph, query, window, **options)
    if kind == _KIND_SEEN:
        algorithm = IncIsoMatchSearch(graph, query, window, **options)
        algorithm._seen = _load_seen(r)
        return algorithm
    if kind == _KIND_PERIODIC:
        algorithm = PeriodicVF2Search(graph, query, window, **options)
        algorithm._seen = _load_seen(r)
        algorithm._since_last = r.read_varint()
        return algorithm
    raise CheckpointError(f"unknown algorithm state kind {kind} in snapshot")


def _load_tree(r: BinaryReader, graph, query: QueryGraph) -> SJTree:
    partition = [
        tuple(r.read_varint() for _ in range(r.read_varint()))
        for _ in range(r.read_varint())
    ]
    meta = [
        LeafSelectivity(
            description=r.read_str(),
            selectivity=_leaf_selectivity(r.read_value()),
            num_edges=len(edge_ids),
        )
        for edge_ids in partition
    ]
    tree = SJTree.from_leaf_partition(query, partition, meta)
    tree.complete_matches = r.read_varint()
    return tree


def _leaf_selectivity(value) -> float:
    # LeafSelectivity wants a float; "unknown" was stored as None and the
    # convention elsewhere (serialize.loads) maps it to 1.0.
    return 1.0 if value is None else float(value)


def _load_tables(r: BinaryReader, tree: SJTree, window_edges: Dict[int, Edge]) -> None:
    node_count = r.read_varint()
    if node_count != len(tree.nodes):
        raise CheckpointError(
            f"snapshot has state for {node_count} SJ-Tree nodes but the "
            f"rebuilt tree has {len(tree.nodes)}; file is corrupt"
        )
    for node in tree.nodes:
        inserted_total = r.read_varint()
        shape = node.match_shape()
        qeids = shape.qeids
        width = len(qeids)
        key_plan = node.compiled_key_plan()
        table = node.table
        graph_backed = type(table) is GraphLeafView
        for _ in range(r.read_varint()):
            edge_ids = [r.read_varint() for _ in range(width)]
            try:
                edges = tuple([window_edges[eid] for eid in edge_ids])
            except KeyError as exc:
                raise CheckpointError(
                    f"snapshot match references edge ids {edge_ids} not in "
                    f"the restored window (edge {exc.args[0]} is missing)"
                ) from None
            _check_fits(node, shape, edges)
            if graph_backed:
                continue  # the restored window already holds the entry
            stamps = [edge.timestamp for edge in edges]
            match = Match(qeids, edges, min(stamps), max(stamps), shape=shape)
            if len(key_plan) == 1:
                # single-vertex keys are bare, mirroring SJTree.compile_insert
                slot0, is_src0 = key_plan[0]
                e = edges[slot0]
                key = e.src if is_src0 else e.dst
            else:
                key = tuple(
                    edges[slot].src if is_src else edges[slot].dst
                    for slot, is_src in key_plan
                )
            table.insert(key, match)
        table.inserted_total = inserted_total


def _check_fits(node, shape, edges) -> None:
    """Reject a restored match that its node could never have stored: a
    slot bound to an edge of another type, or a self-loop bound to a
    non-loop query edge (or the reverse)."""
    for slot, edge in enumerate(edges):
        src_role, dst_role = shape.edge_roles[slot]
        if edge.etype != shape.etypes[slot]:
            problem = f"has type {edge.etype!r}, not {shape.etypes[slot]!r}"
        elif (edge.src == edge.dst) != (src_role == dst_role):
            problem = "is a self-loop" if edge.src == edge.dst else "is not a self-loop"
        else:
            continue
        raise CheckpointError(
            f"snapshot match at SJ-Tree node {node.node_id} binds edge "
            f"{edge.edge_id} to query edge {shape.qeids[slot]}, but the edge "
            f"{problem}; file is corrupt"
        )


def _load_seen(r: BinaryReader) -> set:
    seen = set()
    for _ in range(r.read_varint()):
        pairs = tuple(
            (r.read_varint(), r.read_varint()) for _ in range(r.read_varint())
        )
        seen.add(pairs)
    return seen


# ---------------------------------------------------------------------------
# shard-layout migration primitives (split / merge)
# ---------------------------------------------------------------------------


def split_snapshot(data: bytes) -> SnapshotSlices:
    """Take one snapshot apart into :class:`SnapshotSlices` by pure byte
    slicing (the sections are length-prefixed)."""
    r = BinaryReader(data)
    cursor, etype_names, vtype_names = _read_header(r)
    config, update_statistics = _read_engine_config(r)
    graph_section = _section_reader(r, "graph window")
    graph = _read_graph_state(graph_section, etype_names, vtype_names)
    graph_section.expect_end("graph window")
    estimator = _section_reader(r, "estimator")._data
    blobs: Dict[str, bytes] = {}
    for _ in range(r.read_varint()):
        name = r.read_str()
        blobs[name] = _section_reader(r, f"query {name!r}")._data
    r.expect_end("query state")
    return SnapshotSlices(
        cursor=cursor,
        config=config,
        update_statistics=update_statistics,
        graph=graph,
        estimator=estimator,
        queries=blobs,
    )


def merge_shard_slices(
    parts: Sequence[SnapshotSlices],
    names: Sequence[str],
    owner: Dict[str, int],
    *,
    alphabet,
    next_edge_id: int,
    cursor: Optional[int],
) -> SnapshotSlices:
    """Recombine per-query slices from ``parts`` into one new shard.

    ``names`` are the query names placed on the new shard, in global
    registration order; ``owner`` maps each name to the index in
    ``parts`` whose snapshot holds its state. ``alphabet`` is the new
    shard's combined edge-type alphabet (``None`` = the shard must see
    every edge) and decides which live edges the merged graph window
    keeps — exactly the edges the coordinator will route to this shard
    from now on. ``next_edge_id`` must be the global stream position
    (manifest ``events_streamed``) so a serial resume keeps numbering
    edges like the uninterrupted single-process run.

    Correctness: a query slice references graph state only through
    global edge ids, and every id it references is a live edge of the
    query's own alphabet — present in its source shard's window, hence
    in the union, hence kept by any alphabet that contains the query.
    The window clock is the most advanced clock across ``parts``; edges
    a lagging shard still held below that cutoff are replayed but
    evicted before the next probe, matching the uninterrupted run.

    Lifetime counters cannot be reconstructed exactly for a *filtered*
    layout that never existed (evicted-edge history per edge type is not
    recorded), so a filtered merged shard restarts them at the live
    window; an unfiltered shard keeps the exact global figures. Either
    way they are reporting-only — no emission depends on them.
    """
    if not parts:
        raise CheckpointError("cannot merge an empty set of snapshot slices")
    union: Dict[int, Tuple[int, object, object, str, float]] = {}
    vertex_types: Dict[object, str] = {}
    for part in parts:
        union.update(
            (edge[0], edge)
            for edge in part.graph.edges
            if alphabet is None or edge[3] in alphabet
        )
        for vertex, vtype in part.graph.vertex_types.items():
            vertex_types.setdefault(vertex, vtype)
    edges = [union[edge_id] for edge_id in sorted(union)]
    endpoints = {edge[1] for edge in edges} | {edge[2] for edge in edges}
    if alphabet is None:
        total = max(part.graph.total_inserted for part in parts)
        evicted = total - len(edges)
    else:
        total = len(edges)
        evicted = 0
    graph = GraphState(
        edges=edges,
        vertex_types={
            vertex: vtype
            for vertex, vtype in vertex_types.items()
            if vertex in endpoints
        },
        next_edge_id=max([next_edge_id] + [part.graph.next_edge_id for part in parts]),
        total_inserted=total,
        evicted=evicted,
        last_timestamp=max(part.graph.last_timestamp for part in parts),
        t_last=max(part.graph.t_last for part in parts),
    )
    blobs: Dict[str, bytes] = {}
    for name in names:
        part = parts[owner[name]]
        blob = part.queries.get(name)
        if blob is None:
            raise CheckpointError(
                f"query {name!r} is missing from the shard snapshot that "
                "the checkpoint manifest places it on; checkpoint is "
                "inconsistent"
            )
        blobs[name] = blob
    return SnapshotSlices(
        cursor=cursor,
        config=parts[0].config,
        update_statistics=parts[0].update_statistics,
        graph=graph,
        estimator=parts[0].estimator,
        queries=blobs,
    )
