"""Shared experiment harness used by the benchmark suite.

Encapsulates the paper's evaluation protocol (§6.1, §6.4):

1. generate a dataset stream, split into a warmup prefix (selectivity
   estimation) and a processing suffix;
2. generate a *query group* (same kind and size), drop queries containing
   unseen 2-edge paths, and sample the survivors near-uniformly over
   Expected Selectivity;
3. run each query under each strategy against the same suffix, under an
   optional per-run time budget (the VF2 baseline would otherwise take
   hours in pure Python — budget-exceeded runs are extrapolated linearly
   per edge and flagged);
4. report averaged runtimes per (group, strategy) — the Fig. 9 series.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import envknobs
from ..datasets.base import StreamGenerator, split_stream
from ..graph.types import EdgeEvent
from ..query.generator import (
    QueryGenerator,
    filter_valid,
    sample_by_expected_selectivity,
)
from ..query.query_graph import QueryGraph
from ..search.engine import ContinuousQueryEngine
from ..stats.estimator import SelectivityEstimator
from .profiling import ProfileCounters

#: Strategies plotted in Fig. 9 (the paper's four + the VF2 baseline).
FIG9_STRATEGIES: tuple[str, ...] = ("Path", "Single", "PathLazy", "SingleLazy", "VF2")


def mixed_etype_stream(
    num_events: int,
    num_etypes: int = 24,
    seed: int = 7,
    population: Optional[int] = None,
) -> List[EdgeEvent]:
    """Uniform random stream over a wide, sparse edge-type alphabet.

    The multi-query workload of the seed/fast and collect floors
    (``tools/check_perf_floors.py``) and the sharded-equivalence
    acceptance test — single definition so they cannot drift: each edge
    type lands on only a couple of registered query alphabets, the
    type-dispatch/shard-routing target regime. ``population`` defaults to
    a square-root-sized vertex set so density grows with stream length.
    """
    rng = random.Random(seed)
    if population is None:
        population = max(int(math.sqrt(num_events)) * 2, 32)
    stream: List[EdgeEvent] = []
    t = 0.0
    for _ in range(num_events):
        t += rng.random() * 0.2
        src = rng.randrange(population)
        dst = rng.randrange(population)
        if src == dst:
            dst = (dst + 1) % population
        etype = f"T{rng.randrange(num_etypes):02d}"
        stream.append(EdgeEvent(f"v{src}", f"v{dst}", etype, t))
    return stream


def mixed_etype_queries(
    num_queries: int = 10, num_etypes: int = 24
) -> List[QueryGraph]:
    """Small path/fork queries, each over its own slice of the alphabet.

    Query ``i`` uses types ``2i..2i+2`` (mod ``num_etypes``), so adjacent
    queries overlap on one type; every third query is a fork for shape
    variety. Companion to :func:`mixed_etype_stream`.
    """
    etype = lambda i: f"T{i % num_etypes:02d}"  # noqa: E731
    queries = []
    for i in range(num_queries):
        kinds = [etype(2 * i), etype(2 * i + 1), etype(2 * i + 2)]
        if i % 3 == 2:
            query = QueryGraph(name=f"q{i}")
            query.add_edge(1, 0, kinds[0])
            query.add_edge(0, 2, kinds[1])
            query.add_edge(0, 3, kinds[2])
        else:
            query = QueryGraph.path(kinds, name=f"q{i}")
        queries.append(query)
    return queries


def skewed_etype_stream(
    num_events: int,
    num_etypes: int = 24,
    hot_etypes: Sequence[str] = ("T00", "T01", "T02"),
    hot_fraction: float = 0.85,
    skew_from: float = 0.5,
    seed: int = 11,
    population: Optional[int] = None,
) -> List[EdgeEvent]:
    """Two-phase stream: uniform mix that pivots onto a hot-type set.

    The autoscaling workload (the autoscale floor in
    ``tools/check_perf_floors.py``, CI ``autoscale-smoke``): events
    before ``skew_from`` (a fraction of the stream) draw edge types
    uniformly, exactly like
    :func:`mixed_etype_stream`; from there on, ``hot_fraction`` of the
    events land on ``hot_etypes`` and the rest stay uniform. A shard
    layout cut on the uniform phase goes badly skewed in the hot phase —
    workers owning no hot-adjacent query starve — which is precisely the
    signal the elastic controller must detect and correct.
    """
    rng = random.Random(seed)
    if population is None:
        population = max(int(math.sqrt(num_events)) * 2, 32)
    pivot = int(num_events * skew_from)
    stream: List[EdgeEvent] = []
    t = 0.0
    for i in range(num_events):
        t += rng.random() * 0.2
        src = rng.randrange(population)
        dst = rng.randrange(population)
        if src == dst:
            dst = (dst + 1) % population
        if i >= pivot and rng.random() < hot_fraction:
            etype = hot_etypes[rng.randrange(len(hot_etypes))]
        else:
            etype = f"T{rng.randrange(num_etypes):02d}"
        stream.append(EdgeEvent(f"v{src}", f"v{dst}", etype, t))
    return stream


def mixed_etype_workload(
    num_events: int,
    num_queries: int = 10,
    num_etypes: int = 24,
    seed: int = 7,
    population: Optional[int] = None,
) -> Tuple[List[EdgeEvent], List[QueryGraph]]:
    """Stream and query set together (the common case)."""
    return (
        mixed_etype_stream(num_events, num_etypes, seed, population),
        mixed_etype_queries(num_queries, num_etypes),
    )


@dataclass(frozen=True)
class BenchScale:
    """Stream/query sizes per ``REPRO_BENCH_SCALE`` level."""

    stream_events: int
    warmup_fraction: float
    queries_per_group: int
    budget_seconds: float

    @classmethod
    def from_env(cls) -> "BenchScale":
        level = (envknobs.read("REPRO_BENCH_SCALE") or "small").lower()
        presets = {
            "smoke": cls(2_000, 0.25, 2, 5.0),
            "small": cls(8_000, 0.25, 3, 20.0),
            "medium": cls(30_000, 0.25, 5, 60.0),
            "large": cls(120_000, 0.25, 8, 300.0),
        }
        if level not in presets:
            raise ValueError(
                f"REPRO_BENCH_SCALE={level!r}; expected one of {sorted(presets)}"
            )
        return presets[level]


@dataclass
class StrategyRunStats:
    """Measured outcome of one (query, strategy) run."""

    query_name: str
    strategy: str
    runtime_seconds: float
    matches: int
    edges_processed: int
    total_edges: int
    peak_partial_matches: int = 0
    extrapolated: bool = False
    profile: Optional[ProfileCounters] = None

    @property
    def per_edge_seconds(self) -> float:
        if self.edges_processed == 0:
            return 0.0
        return self.runtime_seconds / self.edges_processed

    @property
    def projected_seconds(self) -> float:
        """Runtime projected to the full stream (equals runtime when the
        run completed; linear-per-edge extrapolation otherwise)."""
        if not self.extrapolated:
            return self.runtime_seconds
        return self.per_edge_seconds * self.total_edges


def run_query(
    warmup: Sequence[EdgeEvent],
    stream: Sequence[EdgeEvent],
    query: QueryGraph,
    strategy: str,
    window: float = math.inf,
    budget_seconds: Optional[float] = None,
    check_every: int = 32,
    **options,
) -> StrategyRunStats:
    """Run one query under one strategy over one stream."""
    # profile_phases: the Fig. 9/10 reporting reads the §6.4.1 iso/join
    # split, so these runs keep the per-edge phase timers on.
    engine = ContinuousQueryEngine(window=window, profile_phases=True)
    engine.warmup(warmup)
    registered = engine.register(query, strategy=strategy, **options)

    matches = 0
    processed = 0
    peak_partial = 0
    started = time.perf_counter()
    deadline = None if budget_seconds is None else started + budget_seconds
    truncated = False
    for event in stream:
        matches += len(engine.process_event(event))
        processed += 1
        if processed % check_every == 0:
            peak_partial = max(peak_partial, engine.partial_match_count())
            if deadline is not None and time.perf_counter() > deadline:
                truncated = True
                break
    elapsed = time.perf_counter() - started
    peak_partial = max(peak_partial, engine.partial_match_count())
    return StrategyRunStats(
        query_name=query.name,
        strategy=registered.strategy,
        runtime_seconds=elapsed,
        matches=matches,
        edges_processed=processed,
        total_edges=len(stream),
        peak_partial_matches=peak_partial,
        extrapolated=truncated,
        profile=registered.profile,
    )


@dataclass
class GroupResult:
    """Averaged runtimes for one query group under several strategies."""

    kind: str
    size: int
    per_strategy: Dict[str, List[StrategyRunStats]] = field(default_factory=dict)

    def mean_projected_seconds(self, strategy: str) -> float:
        runs = self.per_strategy.get(strategy, [])
        if not runs:
            return float("nan")
        return sum(r.projected_seconds for r in runs) / len(runs)

    def any_extrapolated(self, strategy: str) -> bool:
        return any(r.extrapolated for r in self.per_strategy.get(strategy, []))


def build_query_group(
    generator: StreamGenerator,
    estimator: SelectivityEstimator,
    kind: str,
    size: int,
    count: int,
    seed: int = 0,
    oversample: int = 12,
) -> List[QueryGraph]:
    """§6.4 query-set construction for one (kind, size) group."""
    if kind in ("spath", "stree"):
        qgen = QueryGenerator(triples=generator.schema_triples(), seed=seed)
    else:
        qgen = QueryGenerator(
            etypes=generator.etypes(),
            vertex_type=_uniform_vertex_type(generator),
            seed=seed,
        )
    raw = qgen.generate_group(kind, size, count * oversample)
    valid = filter_valid(raw, estimator)
    return sample_by_expected_selectivity(valid, estimator, count)


def _uniform_vertex_type(generator: StreamGenerator) -> Optional[str]:
    """The single vertex type of a homogeneous dataset (netflow: 'ip')."""
    types = {t.src_type for t in generator.schema_triples()} | {
        t.dst_type for t in generator.schema_triples()
    }
    return next(iter(types)) if len(types) == 1 else None


def sweep_group(
    warmup: Sequence[EdgeEvent],
    stream: Sequence[EdgeEvent],
    queries: Sequence[QueryGraph],
    strategies: Sequence[str],
    kind: str,
    size: int,
    window: float = math.inf,
    budget_seconds: Optional[float] = None,
) -> GroupResult:
    """Run every (query, strategy) pair; aggregate into a GroupResult."""
    result = GroupResult(kind=kind, size=size)
    for query in queries:
        for strategy in strategies:
            stats = run_query(
                warmup,
                stream,
                query,
                strategy,
                window=window,
                budget_seconds=budget_seconds,
            )
            result.per_strategy.setdefault(strategy, []).append(stats)
    return result


def prepare_dataset(
    generator: StreamGenerator,
    warmup_fraction: float,
) -> tuple[List[EdgeEvent], List[EdgeEvent], SelectivityEstimator]:
    """Materialise a stream, split it and warm an estimator on the prefix."""
    events = generator.generate()
    warmup, stream = split_stream(events, warmup_fraction)
    estimator = SelectivityEstimator()
    estimator.observe_events(warmup)
    return warmup, stream, estimator
