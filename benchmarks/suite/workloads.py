"""The suite's own input generators and the five workload definitions.

The generators are deliberate *copies* of the repo's
``mixed_etype_stream`` / ``mixed_etype_queries`` and a compact Zipf flow
generator, not imports: a later edit under ``src/repro/datasets`` or
``analysis/experiments.py`` must not be able to shift a workload. The
program under test only ever sees the generated events and queries.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Callable, List, Sequence

from repro.graph.types import EdgeEvent
from repro.query.query_graph import QueryGraph

DEFAULT_SEED = 11
#: share of every stream fed to the selectivity estimator, never timed
WARMUP_FRACTION = 0.25
#: the paper's netflow protocol skew (Fig. 6b ordering)
PROTOCOL_WEIGHTS = (
    ("TCP", 0.42),
    ("UDP", 0.27),
    ("ICMP", 0.13),
    ("IPv6", 0.08),
    ("GRE", 0.05),
    ("ESP", 0.03),
    ("AH", 0.02),
)


def mixed_etype_stream(
    num_events: int, seed: int, num_etypes: int = 24
) -> List[EdgeEvent]:
    """Uniform stream over a wide alphabet and a sqrt(n)-sized vertex set."""
    rng = random.Random(seed)
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
    """Query ``i`` is a path (every third one a fork) over types 2i..2i+2."""
    queries = []
    for i in range(num_queries):
        kinds = [f"T{(2 * i + k) % num_etypes:02d}" for k in range(3)]
        if i % 3 == 2:
            query = QueryGraph(name=f"q{i}")
            query.add_edge(1, 0, kinds[0])
            query.add_edge(0, 2, kinds[1])
            query.add_edge(0, 3, kinds[2])
        else:
            query = path_query(f"q{i}", kinds)
        queries.append(query)
    return queries


def _quota(weights: Sequence[float], count: int) -> List[int]:
    """``count`` indices, index ``i`` appearing ``count * w_i / sum(w)`` times
    (largest remainders rounded up)."""
    total = sum(weights)
    exact = [count * weight / total for weight in weights]
    counts = [int(share) for share in exact]
    by_remainder = sorted(
        range(len(weights)), key=lambda i: exact[i] - counts[i], reverse=True
    )
    for i in by_remainder[: count - sum(counts)]:
        counts[i] += 1
    return [i for i, times in enumerate(counts) for _ in range(times)]


def flow_stream(
    num_events: int,
    seed: int,
    hosts: int,
    zipf_exponent: float,
    rate: float = 100.0,
) -> List[EdgeEvent]:
    """Netflow-like stream: Zipf host popularity, skewed protocols, Poisson
    arrivals at ``rate`` events per unit of stream time.

    Hosts and protocols are dealt by quota and shuffled, not drawn one by one:
    every seed gives a different stream with the same degree sequence, so
    the work per event varies less from seed to seed (record-count CV 8 % ->
    5 % on ``dense_join``) and a run says more about the program.
    """
    rng = random.Random(seed)
    popularity = [1.0 / rank**zipf_exponent for rank in range(1, hosts + 1)]
    srcs = _quota(popularity, num_events)
    dsts = _quota(popularity, num_events)
    protocols = _quota([weight for _, weight in PROTOCOL_WEIGHTS], num_events)
    for column in (srcs, dsts, protocols):
        rng.shuffle(column)
    stream: List[EdgeEvent] = []
    t = 0.0
    for src, dst, protocol in zip(srcs, dsts, protocols):
        t += rng.expovariate(rate)
        if src == dst:
            dst = (dst + 1) % hosts
        etype = PROTOCOL_WEIGHTS[protocol][0]
        stream.append(EdgeEvent(f"h{src}", f"h{dst}", etype, t, "ip", "ip"))
    return stream


def path_query(name: str, etypes: Sequence[str]) -> QueryGraph:
    query = QueryGraph(name=name)
    for position, etype in enumerate(etypes):
        query.add_edge(position, position + 1, etype)
    return query


def _dense_stream(num_events: int, seed: int) -> List[EdgeEvent]:
    return flow_stream(num_events, seed, hosts=5000, zipf_exponent=1.05)


def _dense_queries() -> List[QueryGraph]:
    return [
        path_query("d0", ["TCP", "UDP", "TCP"]),
        path_query("d1", ["UDP", "TCP", "ICMP"]),
        path_query("d2", ["TCP", "TCP", "UDP", "ICMP"]),
        path_query("d3", ["ICMP", "TCP", "UDP"]),
    ]


def _selective_stream(num_events: int, seed: int) -> List[EdgeEvent]:
    return flow_stream(num_events, seed, hosts=3000, zipf_exponent=0.6)


def _selective_queries() -> List[QueryGraph]:
    return [
        path_query("s0", ["TCP", "UDP", "AH", "TCP"]),
        path_query("s1", ["UDP", "TCP", "ESP", "UDP"]),
        path_query("s2", ["TCP", "GRE", "TCP", "UDP"]),
        path_query("s3", ["TCP", "UDP", "TCP", "AH", "UDP"]),
        path_query("s4", ["UDP", "ESP", "TCP", "TCP"]),
        path_query("s5", ["TCP", "TCP", "GRE", "UDP", "TCP"]),
    ]


@dataclass(frozen=True)
class Workload:
    """One set of inputs plus how the program is driven over it.

    ``events`` is the stream length at scale 1 (the first quarter warms the
    estimator, the rest is timed); it is the knob to scale when the run
    budget changes — never the number of workloads or repeats. ``paced_rate``
    is the open-loop rung (events/s) the latency metrics are taken at.
    """

    name: str
    events: int
    window: float
    strategy: str
    paced_rate: int
    make_stream: Callable[[int, int], List[EdgeEvent]]
    make_queries: Callable[[], List[QueryGraph]]
    #: drive through TSV files and ``ShardedEngine`` instead of the serial engine
    sharded: bool = False
    #: closed loop hands the engine 512-event batches instead of one ``run()``
    ragged: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sparse_dispatch",
            events=60_000,
            window=40.0,
            strategy="Single",
            paced_rate=30_000,
            make_stream=mixed_etype_stream,
            make_queries=mixed_etype_queries,
        ),
        Workload(
            name="dense_join",
            events=12_000,
            window=2.0,
            strategy="Single",
            paced_rate=5_000,
            make_stream=_dense_stream,
            make_queries=_dense_queries,
        ),
        Workload(
            name="selective_auto",
            events=30_000,
            window=6.0,
            strategy="auto",
            paced_rate=10_000,
            make_stream=_selective_stream,
            make_queries=_selective_queries,
        ),
        Workload(
            name="file_sharded",
            events=8_000,
            window=2.0,
            strategy="Single",
            paced_rate=2_000,
            make_stream=_dense_stream,
            make_queries=_dense_queries,
            sharded=True,
        ),
        Workload(
            name="paced_latency",
            events=16_000,
            window=2.0,
            strategy="Single",
            paced_rate=6_000,
            make_stream=_dense_stream,
            make_queries=_dense_queries,
            ragged=True,
        ),
    )
}


def stream_digest(events: Sequence[EdgeEvent]) -> str:
    """sha256 over every field of every event, in order: what goldens.json
    pins, so that a generator change is caught before anything is timed."""
    digest = hashlib.sha256()
    for e in events:
        digest.update(
            repr((e.timestamp, e.src, e.src_type, e.etype, e.dst, e.dst_type)).encode()
        )
    return digest.hexdigest()
