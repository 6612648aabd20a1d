"""The traced pass: per-layer numbers for one workload.

Everything here is taken from outside the program — spans around calls into
each layer's public functions, micro-timings of those functions on the
workload's own data, and counts the program already keeps
(``engine.metrics().collect()``, ``last_worker_stats``). Nothing is gated.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import multiprocessing
import os
import pickle
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, Sequence

import measure
import spans
from measure import Inputs, SerialTarget, ShardedTarget

from repro.datasets.io import count_stream_events, read_stream, write_stream
from repro.graph.columnar import EdgeChunk, backend_name
from repro.graph.streaming_graph import StreamingGraph
from repro.isomorphism.anchored import find_anchored_matches
from repro.isomorphism.match import JoinPlan, Match, MatchShape
from repro.isomorphism.plan import compile_fragment_plans, execute_plans
from repro.query.query_graph import QueryGraph
from repro.search.base import MatchRecord
from repro.search.engine import ContinuousQueryEngine
from repro.search.strategy import choose_strategy
from repro.sjtree.node import FIFOLeafTable, MatchTable

#: events (at scale 1) of the slice every workload's sharded / CLI section runs
SHARD_SLICE = 8_000
#: edges the match / table / anchor micro-timings are built from
MICRO_EDGES = 4096
CHUNK = 1024
#: open-loop rungs, as multiples of the workload's nominal rate
LADDER = (0.5, 1.0, 2.0, 4.0)


def timed_loop(
    run: Callable, min_time: float, make: Callable = lambda: None
) -> float:
    """Mean seconds per ``run(make())`` call, repeated to ``min_time`` of
    timed work; ``make`` rebuilds per-call state outside the clock."""
    total = 0.0
    calls = 0
    while total < min_time or calls == 0:
        state = make()
        started = time.perf_counter()
        run(state)
        total += time.perf_counter() - started
        calls += 1
    return total / calls


def _sample_sum(snapshot: dict, family: str, key: str = "value") -> float:
    return sum(sample[key] for sample in snapshot[family]["samples"])


class LayerPass:
    """Collects ``name -> (value, unit)`` for one workload's traced run."""

    def __init__(
        self, inputs: Inputs, seconds: float, scratch: str, scale: float = 1.0
    ) -> None:
        self.inputs = inputs
        self.workload = inputs.workload
        self.scratch = scratch
        self.scale = scale
        #: timed work each micro-timing repeats to
        self.micro_s = 0.01 * seconds
        #: wall length of each extra open-loop rung
        self.rung_s = 0.075 * seconds
        self.tracer = spans.Tracer(self.workload.name)
        self.metrics: Dict[str, tuple] = {}
        self.tally = measure.Tally()
        #: warmed once by the first pass that needs one, shared by the passes
        #: that report no set-up time
        self.estimator = None

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    # ------------------------------------------------------------------

    def run(self) -> Dict[str, tuple]:
        inputs = self.inputs
        self.put("suite.gen_s", inputs.gen_s, "s")
        self.put("columnar.backend", float(backend_name() == "numpy"), "is_numpy")
        # The reference goes first: it also takes the process through its
        # first-pass costs (allocator growth) before anything is timed.
        self.reference = self.section(measure.reference_run, inputs)
        self.section(self.state_pass, self.reference.strategies)
        self.section(self.engine_passes)
        for digest in self.closed_digests:
            self.tally.check(len(inputs.timed), digest, self.reference.full)
        self.section(self.io_and_encode)
        self.section(self.match_and_tables)
        self.section(self.sharded_section)
        self.section(self.cli_section)
        self.section(self.open_loop)
        self.put("failed_share", self.tally.failed_share, "share")
        self.budget()
        return self.metrics

    def section(self, method: Callable, *args):
        """Run one part of the pass from a collected heap, under its own span
        (the trace then also shows where the traced run itself spent time)."""
        gc.collect()
        with self.tracer.span(f"section.{method.__name__}"):
            return method(*args)

    # ------------------------------------------------------------------
    # search.engine / stats: the traced twin of the closed loop
    # ------------------------------------------------------------------

    def engine_passes(self) -> None:
        """One untraced and one traced repeat of the serial engine over the
        workload's stream; the difference is the tracing overhead."""
        inputs = self.inputs
        timed = len(inputs.timed)
        plain = measure.closed_repeat(SerialTarget(inputs))
        tracer = self.tracer
        target = SerialTarget(inputs, tracer)
        tracer.repeat = 1
        with tracer.span("repeat"):
            with tracer.span("setup"):
                engine = target.open()
            with tracer.span("engine.run"):
                records = target.drain(engine)
        traced_wall = tracer.durations("engine.run")[0]
        self.closed_digests = [plain.digest, measure.record_digest(records)]
        snapshot = engine.metrics().collect()
        self.records = len(records)
        del records

        full_ns = plain.wall_s / timed * 1e9
        self.put("engine.full_ns_per_edge", full_ns, "ns")
        self.put(
            "suite.trace_overhead_pct", (traced_wall / plain.wall_s - 1) * 100, "%"
        )
        chunk_ms = sorted(d * 1e3 for d in tracer.durations("engine.process_events"))
        self.put("engine.chunk_ms_p50", measure.percentile(chunk_ms, 0.5), "ms")
        self.put("engine.chunk_ms_p99", measure.percentile(chunk_ms, 0.99), "ms")
        self.put("engine.register_s", tracer.durations("engine.register")[0], "s")
        self.put(
            "engine.warm_kernels_s", tracer.durations("engine.warm_kernels")[0], "s"
        )
        self.put(
            "stats.observe_ns_per_edge",
            tracer.durations("stats.warmup")[0] / max(len(inputs.warm), 1) * 1e9,
            "ns",
        )
        self.put(
            "engine.dispatch_hit_ratio",
            _sample_sum(snapshot, "repro_engine_dispatch_hits_total") / timed,
            "ratio",
        )
        self.put(
            "graph.evicted_edges",
            _sample_sum(snapshot, "repro_engine_edges_evicted_total"),
            "count",
        )

        def no_query(_state) -> None:
            ContinuousQueryEngine(window=self.workload.window).run(inputs.timed)

        idle_ns = timed_loop(no_query, self.micro_s) / timed * 1e9
        self.put("engine.no_query_ns_per_edge", idle_ns, "ns")
        self.put("engine.match_ns_per_edge", full_ns - idle_ns, "ns")

        estimator = engine.estimator
        decide = timed_loop(
            lambda _s: [choose_strategy(q, estimator) for q in inputs.queries],
            self.micro_s,
        )
        self.put("search.decide_s", decide, "s")
        lazy = sum(1 for name in target.resolved if name.endswith("Lazy"))
        self.put("search.strategy_mix", lazy / len(target.resolved), "lazy_share")
        if target.resolved != self.reference.strategies:
            self.tally.failed += timed  # measured something else than was checked

        collect_s = timed_loop(lambda _s: engine.metrics().collect(), self.micro_s)
        self.put("telemetry.collect_ms", collect_s * 1e3, "ms")
        self.put("telemetry.families", float(len(snapshot)), "count")
        self.sjtree_counts(snapshot)

    def sjtree_counts(self, snapshot: dict) -> None:
        leaf = join = 0.0
        for sample in snapshot["repro_sjtree_node_inserts_total"]["samples"]:
            if sample["labels"][1].endswith(":join"):
                join += sample["value"]
            else:
                leaf += sample["value"]
        self.leaf_inserts, self.join_inserts = leaf, join
        self.put("sjtree.inserts", leaf + join, "count")
        self.probes = _sample_sum(snapshot, "repro_sjtree_node_probes_total")
        self.expired = _sample_sum(snapshot, "repro_sjtree_node_expired_total")
        self.put("sjtree.probes", self.probes, "count")
        self.put("sjtree.expired", self.expired, "count")
        self.put("sjtree.useful_ratio", self.records / max(leaf, 1.0), "ratio")

    # ------------------------------------------------------------------
    # search.lazy / persistence: state size, sampled between chunks
    # ------------------------------------------------------------------

    def state_pass(self, resolved: Sequence[str]) -> None:
        """Peak retained state under the resolved strategies and, when any is
        lazy, under the same queries forced eager; a checkpoint and a restore
        at the midpoint of the first run."""
        peak, live = self._sampled_run(resolved, checkpoint=True)
        self.put("search.partial_matches_peak", float(peak), "count")
        self.put("graph.live_edges_peak", float(live), "count")
        eager = [name.removesuffix("Lazy") for name in resolved]
        if eager != list(resolved):
            peak, _ = self._sampled_run(eager, checkpoint=False)
        self.put("search.partial_matches_peak_eager", float(peak), "count")

    def _sampled_run(self, strategies: Sequence[str], checkpoint: bool):
        inputs = self.inputs
        timed = inputs.timed
        engine = SerialTarget(
            inputs, strategies=strategies, estimator=self.estimator
        ).open()
        self.estimator = engine.estimator
        peak = live = 0
        midpoint = (len(timed) // 2 // CHUNK) * CHUNK
        for at in range(0, len(timed), CHUNK):
            if checkpoint and at == midpoint:
                self.snapshot_section(engine)
            engine.process_events(timed[at : at + CHUNK])
            peak = max(peak, engine.partial_match_count())
            live = max(live, engine.graph.num_edges)
        return peak, live

    def snapshot_section(self, engine: ContinuousQueryEngine) -> None:
        path = os.path.join(self.scratch, "midpoint.snap")
        with self.tracer.span("snapshot.write"):
            engine.checkpoint(path)
        with self.tracer.span("snapshot.restore"):
            ContinuousQueryEngine.restore(path, self.inputs.queries)
        self.put("snapshot.write_s", self.tracer.durations("snapshot.write")[0], "s")
        self.put(
            "snapshot.restore_s", self.tracer.durations("snapshot.restore")[0], "s"
        )
        self.put("snapshot.bytes", float(os.path.getsize(path)), "bytes")

    # ------------------------------------------------------------------
    # datasets.io / graph.columnar / graph.streaming_graph
    # ------------------------------------------------------------------

    def io_and_encode(self) -> None:
        inputs = self.inputs
        sample = (inputs.warm + inputs.timed)[: 4 * MICRO_EDGES]
        lines = len(sample)
        path = os.path.join(self.scratch, "micro.tsv")
        per_line = 1e9 / lines
        self.put(
            "io.write_ns_per_line",
            timed_loop(lambda _s: write_stream(path, sample), self.micro_s) * per_line,
            "ns",
        )
        self.put(
            "io.parse_ns_per_line",
            timed_loop(lambda _s: list(read_stream(path)), self.micro_s) * per_line,
            "ns",
        )
        self.put(
            "io.count_pass_ns_per_line",
            timed_loop(lambda _s: count_stream_events(path), self.micro_s) * per_line,
            "ns",
        )

        chunks = [sample[at : at + CHUNK] for at in range(0, lines, CHUNK)]
        rows = [
            [
                (k, e.src, e.dst, e.etype, e.timestamp, e.src_type, e.dst_type)
                for k, e in enumerate(chunk)
            ]
            for chunk in chunks
        ]
        self.put(
            "columnar.encode_events_ns_per_edge",
            timed_loop(
                lambda _s: [EdgeChunk.from_events(c) for c in chunks], self.micro_s
            )
            * per_line,
            "ns",
        )
        self.put(
            "columnar.encode_rows_ns_per_edge",
            timed_loop(lambda _s: [EdgeChunk.from_rows(r) for r in rows], self.micro_s)
            * per_line,
            "ns",
        )
        window = self.workload.window
        self.put(
            "graph.ingest_evict_ns_per_edge",
            timed_loop(
                lambda graph: graph.add_events(sample),
                self.micro_s,
                make=lambda: StreamingGraph(window),
            )
            * per_line,
            "ns",
        )
        self.rows = rows

    # ------------------------------------------------------------------
    # isomorphism.plan / isomorphism.match / sjtree.node
    # ------------------------------------------------------------------

    def match_and_tables(self) -> None:
        inputs = self.inputs
        micro_s = self.micro_s
        graph = StreamingGraph(self.workload.window)
        graph.add_events(inputs.timed[:MICRO_EDGES])
        live = list(graph.edges())

        # leaf anchoring: the first query's first two edges as a fragment
        first = inputs.queries[0]
        fragment = QueryGraph(name="fragment")
        for edge in first.edges[:2]:
            fragment.add_edge(edge.src, edge.dst, edge.etype)
        plans = compile_fragment_plans(fragment)
        found = [0]

        def anchor_compiled(_state) -> None:
            found[0] = sum(len(execute_plans(graph, plans, e)) for e in live)

        def anchor_interpreted(_state) -> None:
            for e in live:
                find_anchored_matches(graph, fragment, e)

        per_call = 1e9 / len(live)
        self.put(
            "plan.anchor_ns_per_call", timed_loop(anchor_compiled, micro_s) * per_call,
            "ns",
        )
        self.put("plan.anchor_matches_per_call", found[0] / len(live), "count")
        self.put(
            "plan.anchor_interp_ns_per_call",
            timed_loop(anchor_interpreted, micro_s) * per_call,
            "ns",
        )

        # joins: every (in-edge, out-edge) pair meeting at a vertex of the
        # unwindowed sample, as 1-edge matches of a 2-edge path
        sample = StreamingGraph(math.inf).add_events(inputs.timed[:MICRO_EDGES])
        by_src: Dict[object, list] = {}
        for edge in sample:
            by_src.setdefault(edge.src, []).append(edge)
        path = QueryGraph(name="pair")
        left_edge = path.add_edge(0, 1, "x")
        right_edge = path.add_edge(1, 2, "y")
        left_shape = MatchShape([left_edge])
        right_shape = MatchShape([right_edge])
        plan = JoinPlan(left_shape, right_shape, MatchShape([left_edge, right_edge]))

        def leaf_match(edge, qeid: int, shape: MatchShape) -> Match:
            return Match((qeid,), (edge,), edge.timestamp, edge.timestamp, shape=shape)

        pairs = [
            (leaf_match(a, 0, left_shape), leaf_match(b, 1, right_shape))
            for a in sample
            for b in by_src.get(a.dst, ())[:4]
        ][:MICRO_EDGES]
        per_pair = 1e9 / max(len(pairs), 1)
        join = plan.join
        self.put(
            "match.join_ns",
            timed_loop(lambda _s: [join(a, b) for a, b in pairs], micro_s) * per_pair,
            "ns",
        )
        per_edge = 1e9 / len(sample)
        self.put(
            "match.key_ns",
            timed_loop(
                lambda fresh: [m.key_for((1,)) for m in fresh],
                micro_s,
                make=lambda: [leaf_match(e, 0, left_shape) for e in sample],
            )
            * per_edge,
            "ns",
        )
        matches = [leaf_match(e, 0, left_shape) for e in sample]
        self.put(
            "match.record_ns",
            timed_loop(
                lambda _s: [
                    MatchRecord("pair", "Single", m, m.max_time) for m in matches
                ],
                micro_s,
            )
            * per_edge,
            "ns",
        )

        keyed = [((m.edges[0].dst,), m) for m in matches]
        for table_class, suffix in ((MatchTable, ""), (FIFOLeafTable, "_fifo")):

            def filled(table_class=table_class):
                table = table_class()
                for key, match in keyed:
                    table.insert(key, match)
                return table

            def insert_all(table) -> None:
                for key, match in keyed:
                    table.insert(key, match)

            table = filled()
            self.put(
                f"table.insert_ns{suffix}",
                timed_loop(insert_all, micro_s, make=table_class) * per_edge,
                "ns",
            )
            self.put(
                f"table.probe_ns{suffix}",
                timed_loop(lambda _s: [table.probe(k) for k, _ in keyed], micro_s)
                * per_edge,
                "ns",
            )
            self.put(
                f"table.expire_ns_per_match{suffix}",
                timed_loop(lambda t: t.expire(math.inf), micro_s, make=filled)
                * per_edge,
                "ns",
            )

    # ------------------------------------------------------------------
    # runtime.sharded
    # ------------------------------------------------------------------

    def sliced_inputs(self) -> Inputs:
        """The first ``SHARD_SLICE`` events of the workload, with files."""
        inputs = self.inputs
        size = max(int(SHARD_SLICE * self.scale), 400)
        events = (inputs.warm + inputs.timed)[:size]
        warm_n = int(len(events) * measure.WARMUP_FRACTION)
        sliced = dataclasses.replace(
            inputs, warm=events[:warm_n], timed=events[warm_n:]
        )
        measure.write_files(sliced, os.path.join(self.scratch, "slice"))
        return sliced

    def sharded_section(self) -> None:
        """The slice through ``ShardedEngine`` at one worker (the in-process
        fallback) and at two; the two record streams must be identical."""
        sliced = self.sliced = self.sliced_inputs()
        run_s = {}
        digests = []
        for workers in (1, measure.SHARD_WORKERS):
            gc.collect()
            tracer = spans.Tracer(self.workload.name)
            target = ShardedTarget(sliced, tracer, workers=workers)
            session = target.open()
            engine = session[0]
            with tracer.span("sharded.run"):
                records = target.drain(session)
            stats = engine.last_worker_stats
            put_wait = _sample_sum(
                engine.metrics().collect(), "repro_runtime_batch_put_seconds", "sum"
            )
            with tracer.span("sharded.close"):
                target.close(session)
            run_s[workers] = tracer.durations("sharded.run")[0]
            digests.append(measure.record_digest(records))
        self.tally.check(len(sliced.timed), digests[1], digests[0])
        self.put("sharded.start_s", tracer.durations("sharded.start")[0], "s")
        self.put("sharded.run_s", run_s[measure.SHARD_WORKERS], "s")
        self.put("sharded.close_s", tracer.durations("sharded.close")[0], "s")
        self.put("sharded.put_wait_s", put_wait, "s")
        ratio = run_s[measure.SHARD_WORKERS] / run_s[1]
        self.put("sharded.over_serial_ratio", ratio, "ratio")
        for name, loads in (
            ("sharded.worker_event_skew", [s.events_routed for s in stats]),
            ("sharded.worker_record_skew", [s.records for s in stats]),
        ):
            self.put(name, max(loads) / max(statistics.mean(loads), 1e-9), "ratio")

        # what crosses the process boundary, pickled the way the queues do
        batches = [
            rows[at : at + measure.SHARD_BATCH]
            for rows in self.rows
            for at in range(0, len(rows), measure.SHARD_BATCH)
        ]
        edges = sum(len(batch) for batch in batches)
        dumps = pickle.dumps
        self.put(
            "sharded.rows_pickle_ns_per_edge",
            timed_loop(lambda _s: [dumps(b) for b in batches], self.micro_s)
            / edges
            * 1e9,
            "ns",
        )
        self.put(
            "sharded.rows_pickle_bytes_per_edge",
            sum(len(dumps(b)) for b in batches) / edges,
            "bytes",
        )
        tagged = [(k, record) for k, record in enumerate(records[:MICRO_EDGES])]
        if tagged:
            per_record = 1.0 / len(tagged)
            self.put(
                "sharded.records_pickle_ns_per_record",
                timed_loop(lambda _s: dumps(tagged), self.micro_s) * per_record * 1e9,
                "ns",
            )
            self.put(
                "sharded.records_pickle_bytes_per_record",
                len(dumps(tagged)) * per_record,
                "bytes",
            )
        else:  # a slice that emitted nothing has no record transit to time
            self.put("sharded.records_pickle_ns_per_record", 0.0, "ns")
            self.put("sharded.records_pickle_bytes_per_record", 0.0, "bytes")
        self.put(
            "sharded.queue_roundtrip_us",
            queue_roundtrip(batches[0], self.micro_s) * 1e6,
            "us",
        )

    # ------------------------------------------------------------------
    # cli
    # ------------------------------------------------------------------

    def cli_section(self) -> None:
        """The real CLI on the sliced files; only the exit code is read."""
        sliced = self.sliced
        workload = self.workload
        base = [sys.executable, "-m", "repro.cli"]
        command = [
            *base, "run", "--stream", sliced.tsv_path,
            "--workers", str(measure.SHARD_WORKERS),
            "--batch-size", str(measure.SHARD_BATCH),
            "--window", repr(workload.window),
            "--strategy", workload.strategy,
            "--max-print", "0",
        ]  # fmt: skip
        for path in sliced.query_paths:
            command += ["--query", path]
        runs = (("cli.run_wall_s", command), ("cli.startup_s", [*base, "--help"]))
        for name, argv in runs:
            with self.tracer.span(name):
                done = subprocess.run(
                    argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                    timeout=120, check=False, env=measure.program_env(),
                )  # fmt: skip
            if done.returncode != 0:
                self.tally.attempted += 1
                self.tally.failed += 1
            self.put(name, self.tracer.durations(name)[0], "s")

    # ------------------------------------------------------------------
    # open loop: the nominal rung, then the ladder around it
    # ------------------------------------------------------------------

    def open_loop(self) -> None:
        """Every rung of the ladder for ``rung_s`` on a fresh engine; the
        highest one that keeps up is the sustainable rate."""
        inputs = self.inputs
        sustainable = 0.0
        for factor in LADDER:
            rate = int(self.workload.paced_rate * factor)
            nominal = factor == 1.0
            tracer = self.tracer if nominal else spans.OFF
            # a rung above capacity shows its backlog early: cap its schedule
            # so that it cannot run for several times ``rung_s``
            due = min(rate, 2 * self.workload.paced_rate) * self.rung_s
            events = inputs.timed[: max(int(due), measure.PACED_BATCH)]
            result = measure.paced_phase(
                SerialTarget(inputs, tracer, estimator=self.estimator),
                events,
                rate,
                tracer,
            )
            if result.sustainable():
                sustainable = float(rate)
            if nominal:
                late = sorted(result.gen_late_s)
                self.put(
                    "suite.gen_late_ms_p99", measure.percentile(late, 0.99) * 1e3, "ms"
                )
                self.put("emit_latency_p99_ms", result.latency_ms(0.99), "ms")
                # a rung that emitted nothing falls back to its events
                samples = sorted(result.record_latency_s or result.event_latency_s)
                self.put(
                    "latency.record_p99_ms",
                    measure.percentile(samples, 0.99) * 1e3,
                    "ms",
                )
        self.put("sustainable_rate_eps", sustainable, "events/s")

    # ------------------------------------------------------------------
    # budget
    # ------------------------------------------------------------------

    def budget(self) -> None:
        """Share of ``engine.full_ns_per_edge`` the separately timed layers do
        not explain: each layer's unit cost times the count the engine kept."""
        value = {name: metric[0] for name, metric in self.metrics.items()}
        timed = len(self.inputs.timed)
        fifo = "" if value["search.strategy_mix"] > 0 else "_fifo"
        joins = self.join_inserts + self.records
        per_edge = (
            value["columnar.encode_events_ns_per_edge"]
            + value["graph.ingest_evict_ns_per_edge"]
            + (
                self.leaf_inserts * value[f"table.insert_ns{fifo}"]
                + self.join_inserts * value["table.insert_ns"]
                + self.probes * value["table.probe_ns"]
                + self.expired * value[f"table.expire_ns_per_match{fifo}"]
                + joins * (value["match.join_ns"] + value["match.key_ns"])
                + self.records * value["match.record_ns"]
            )
            / timed
        )
        self.put(
            "budget.unattributed_pct",
            (1 - per_edge / value["engine.full_ns_per_edge"]) * 100,
            "%",
        )


def _echo(inbound, outbound) -> None:
    while True:
        item = inbound.get()
        if item is None:
            return
        outbound.put(item)


def queue_roundtrip(batch: list, min_time: float) -> float:
    """Seconds for one wire batch to cross an ``mp.Queue`` pair and back."""
    context = multiprocessing.get_context("fork")
    outbound, inbound = context.Queue(), context.Queue()
    child = context.Process(target=_echo, args=(outbound, inbound), daemon=True)
    child.start()
    try:

        def roundtrip(_state) -> None:
            outbound.put(batch)
            inbound.get(timeout=30)

        roundtrip(None)  # first crossing pays the feeder-thread start
        return timed_loop(roundtrip, min_time)
    finally:
        outbound.put(None)
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()


def traced_pass(
    inputs: Inputs, seconds: float, out_dir: str, scratch: str, scale: float = 1.0
) -> LayerPass:
    """Run the whole per-layer pass and write ``trace-<workload>.jsonl``."""
    layer_pass = LayerPass(inputs, seconds, scratch, scale)
    layer_pass.run()
    layer_pass.tracer.write(
        os.path.join(out_dir, f"trace-{inputs.workload.name}.jsonl")
    )
    return layer_pass
