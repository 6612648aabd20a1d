"""The per-edge path, the record decoder and the cyclic collector.

The chunk kernel pauses CPython's cyclic collector for each chunk, and
the sharded coordinator's record decoder for each decode. That is safe
only while nothing collectable accumulates during the pause: the
per-edge path must allocate no reference cycles, for every strategy and
on both ingest entry points, and neither may decoding. These tests guard
that rule, and that both leave the collector as their caller had it —
on, off, or after an error raised inside.
"""

from __future__ import annotations

import gc
import math
import random

import pytest

from repro import ContinuousQueryEngine
from repro.errors import GraphError
from repro.errors import ReproRuntimeError
from repro.graph import EdgeEvent
from repro.isomorphism.match import shape_for_fragment
from repro.query import QueryGraph
from repro.runtime import wire
from repro.search import DynamicGraphSearch, LazySearch
from repro.search.engine import algorithm_class
from repro.search.strategy import STRATEGY_NAMES

from .test_lazy_search import stats_rows
from .util import events_from_tuples

WARM = 80  # one chunk: it pays for one-time lazy set-up (its own garbage)


def _events(n: int = 240, seed: int = 3) -> list[EdgeEvent]:
    rng = random.Random(seed)
    return [
        EdgeEvent(
            f"v{rng.randrange(12)}",
            f"v{rng.randrange(12)}",
            rng.choice(["ESP", "TCP", "TCP", "ICMP"]),
            float(at),
        )
        for at in range(n)
    ]


def _rows(events: list[EdgeEvent]) -> list[tuple]:
    """Wire rows pinned to their stream position."""
    return [
        (i, e.src, e.dst, e.etype, e.timestamp, e.src_type, e.dst_type)
        for i, e in enumerate(events)
    ]


def _engine(strategy: str, window: float, reference: bool = False):
    settings = {"dispatch": False, "profile_phases": True} if reference else {}
    engine = ContinuousQueryEngine(window=window, chunk_size=WARM, **settings)
    engine.warmup(events_from_tuples(stats_rows()))
    options = {}
    if reference and algorithm_class(strategy) in (DynamicGraphSearch, LazySearch):
        options["compiled_plans"] = False
    engine.register(
        QueryGraph.path(["ESP", "TCP", "ICMP"]), strategy=strategy, name="q", **options
    )
    return engine


def _ingest_is_cycle_free(engine, feed: str) -> None:
    items = _events() if feed == "process_events" else _rows(_events())
    ingest = getattr(engine, feed)
    records = ingest(items[:WARM])
    gc.collect()
    gc.disable()
    try:
        records += ingest(items[WARM:])
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert records  # matching, joins and (for Lazy) backfill did run
    # and housekeeping, inside the pause too (none under an infinite window)
    assert engine._sweeps >= 2 or math.isinf(engine.graph.window.width)
    assert unreachable == 0


class TestCycleFree:
    """``gc.collect()`` finds nothing after ingest with the collector off.

    Regressions this caught: the Lazy insert hook was a closure per edge
    that passed itself to the backfill, and VF2's edge assignment was a
    nested recursive closure, each a function <-> cell cycle per edge.
    """

    @pytest.mark.parametrize("feed", ["process_events", "process_rows"])
    @pytest.mark.parametrize("window", [30.0, math.inf], ids=["finite", "inf"])
    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_ingest_is_cycle_free(self, strategy, window, feed):
        _ingest_is_cycle_free(_engine(strategy, window), feed)

    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_reference_configuration_is_cycle_free(self, strategy):
        """No dispatch, the interpretive matcher, profiled per-event replay."""
        _ingest_is_cycle_free(_engine(strategy, 30.0, reference=True), "process_events")

    def test_live_statistics_are_cycle_free(self):
        engine = _engine("Single", 30.0)
        engine.update_statistics = True
        _ingest_is_cycle_free(engine, "process_events")


def _spy_on_kernel(engine) -> list[bool]:
    """Record ``gc.isenabled()`` each time the query's compiled handler runs."""
    seen: list[bool] = []
    algorithm = engine.queries["q"].algorithm
    compile_code_handler = algorithm.compile_code_handler

    def spying_compile(code):
        handler = compile_code_handler(code)
        if handler is None:
            return None

        def spying_handler(edge):
            seen.append(gc.isenabled())
            return handler(edge)

        return spying_handler

    algorithm.compile_code_handler = spying_compile
    return seen


class TestCollectorState:
    @pytest.mark.parametrize("entry", ["run", "process_events", "process_rows"])
    def test_paused_inside_the_kernel_and_back_on_after(self, entry):
        engine = _engine("Single", 30.0)
        seen = _spy_on_kernel(engine)
        events = _events()
        assert gc.isenabled()
        if entry == "run":
            assert engine.run(iter(events)).records
        elif entry == "process_events":
            assert engine.process_events(events)
        else:
            assert engine.process_rows(_rows(events))
        assert gc.isenabled()
        assert seen and not any(seen)

    @pytest.mark.parametrize("entry", ["run", "process_events", "process_rows"])
    def test_left_off_when_the_caller_had_it_off(self, entry):
        engine = _engine("Single", 30.0)
        events = _events()
        gc.disable()
        try:
            if entry == "run":
                engine.run(iter(events))
            elif entry == "process_events":
                engine.process_events(events)
            else:
                engine.process_rows(_rows(events))
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_reference_path_keeps_the_collector_on(self):
        """``process_event`` and the profiled fallback replay do not pause."""
        engine = _engine("Single", 30.0, reference=True)
        seen: list[bool] = []
        algorithm = engine.queries["q"].algorithm
        process_edge = algorithm.process_edge

        def spying_process_edge(edge):
            seen.append(gc.isenabled())
            return process_edge(edge)

        algorithm.process_edge = spying_process_edge
        events = _events()
        engine.process_event(events[0])
        engine.process_events(events[1:])
        assert len(seen) == len(events) and all(seen)

    def test_back_on_after_a_kernel_error(self):
        """A pinned id going backwards raises mid-chunk inside the kernel;
        the collector is back on and the in-order prefix stays ingested."""
        at = 150
        rows = _rows(_events())
        rows[at] = (at - 1, *rows[at][1:])
        engine = _engine("Single", 30.0)
        seen = _spy_on_kernel(engine)
        with pytest.raises(GraphError, match="goes backwards"):
            engine.process_rows(rows)
        assert gc.isenabled()
        assert seen and not any(seen)  # the error came from inside the kernel
        assert engine.graph.total_edges_seen == at


def _collected_batches():
    """Two workers' record batches for one run, as the coordinator gets
    them, and the shapes to decode them with."""
    queries = [QueryGraph.path(["ESP", "TCP", "ICMP"]), QueryGraph.path(["TCP", "TCP"])]
    engine = ContinuousQueryEngine(window=30.0)
    engine.warmup(_events())
    for position, query in enumerate(queries):
        engine.register(query, strategy="Single", name=f"q{position}")
    tagged = engine.process_rows(_rows(_events()))
    positions = {f"q{i}": i for i in range(len(queries))}
    batches = []
    for worker in (0, 1):
        edges, rows = {}, []
        wire.encode_records(tagged[worker::2], positions, edges, rows)
        batches.append((worker, 1, (list(edges.values()), rows)))
    shapes = {i: (f"q{i}", shape_for_fragment(q)) for i, q in enumerate(queries)}
    return batches, shapes


class TestDecode:
    def test_decode_is_cycle_free(self):
        batches, shapes = _collected_batches()
        gc.collect()
        gc.disable()
        try:
            records = wire.decode_records(batches, shapes)
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert len(records) > 100
        assert unreachable == 0

    @pytest.mark.parametrize("caller_had_it_on", [True, False])
    def test_paused_inside_and_restored_after(self, caller_had_it_on, monkeypatch):
        batches, shapes = _collected_batches()
        seen: list[bool] = []
        decode = wire._decode

        def spying_decode(*args):
            seen.append(gc.isenabled())
            return decode(*args)

        monkeypatch.setattr(wire, "_decode", spying_decode)
        if not caller_had_it_on:
            gc.disable()
        try:
            assert wire.decode_records(batches, shapes)
            assert gc.isenabled() == caller_had_it_on
        finally:
            gc.enable()
        assert seen == [False]

    def test_back_on_after_a_malformed_batch(self):
        batches, shapes = _collected_batches()
        rows = batches[0][2][1]
        rows[0] = rows[0][:-1]  # a record row one edge id short
        with pytest.raises(ReproRuntimeError, match="malformed"):
            wire.decode_records(batches, shapes)
        assert gc.isenabled()
