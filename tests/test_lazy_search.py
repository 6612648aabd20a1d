"""Unit tests for LAZY-SEARCH (Algorithm 3)."""

import math

import pytest

from repro.graph import StreamingGraph
from repro.query import QueryGraph
from repro.search import LazySearch
from repro.sjtree import SJTree, build_sj_tree
from repro.stats import SelectivityEstimator

from .util import events_from_tuples, fingerprints


def stats_rows():
    """ESP rare, TCP common — forces leaf order [ESP, TCP, ...]."""
    rows = [("s0", "s1", "ESP"), ("s1", "s2", "ICMP")]
    rows += [(f"t{i}", f"t{i+1}", "TCP") for i in range(20)]
    rows += [(f"u{i}", f"u{i+1}", "ICMP") for i in range(5)]
    rows += [("s2", "s3", "ESP"), ("q0", "q1", "TCP"), ("q1", "q2", "ESP")]
    return rows


def make_lazy(query, window=math.inf, strategy="single", retrospective=True):
    estimator = SelectivityEstimator()
    estimator.observe_events(events_from_tuples(stats_rows()))
    graph = StreamingGraph(window)
    tree = build_sj_tree(query, estimator, strategy)
    return graph, LazySearch(
        graph, tree, name="SingleLazy", retrospective=retrospective
    )


class TestLeafGating:
    def test_most_selective_leaf_is_first(self):
        query = QueryGraph.path(["TCP", "ESP"])
        _, search = make_lazy(query)
        first_leaf = search.tree.leaves()[0]
        types = {e.etype for e in first_leaf.fragment.edges}
        assert types == {"ESP"}

    def test_non_first_leaves_skipped_until_enabled(self):
        query = QueryGraph.path(["ESP", "TCP"])
        graph, search = make_lazy(query)
        # a TCP edge with no ESP context: leaf for TCP is disabled everywhere
        edge = graph.add_edge("x", "y", "TCP", 1.0)
        assert search.process_edge(edge) == []
        assert search.profile.counters.get("leaf_matches", 0) == 0

    def test_enablement_after_selective_match(self):
        query = QueryGraph.path(["ESP", "TCP"])
        graph, search = make_lazy(query)
        esp = graph.add_edge("a", "b", "ESP", 1.0)
        search.process_edge(esp)
        assert search.bitmap.enabled("a", 1)
        assert search.bitmap.enabled("b", 1)
        tcp = graph.add_edge("b", "c", "TCP", 2.0)
        results = search.process_edge(tcp)
        assert len(results) == 1
        assert results[0].vertex_map == {0: "a", 1: "b", 2: "c"}

    def test_chain_of_enablements(self):
        query = QueryGraph.path(["ESP", "TCP", "ICMP"])
        graph, search = make_lazy(query)
        found = []
        for src, dst, etype, ts in [
            ("a", "b", "ESP", 1.0),
            ("b", "c", "TCP", 2.0),
            ("c", "d", "ICMP", 3.0),
        ]:
            found.extend(search.process_edge(graph.add_edge(src, dst, etype, ts)))
        assert len(found) == 1


class TestArrivalOrderRobustness:
    def test_retrospective_search_finds_earlier_arrivals(self):
        query = QueryGraph.path(["ESP", "TCP"])
        graph, search = make_lazy(query)
        # TCP arrives BEFORE the selective ESP edge
        tcp = graph.add_edge("b", "c", "TCP", 1.0)
        assert search.process_edge(tcp) == []
        esp = graph.add_edge("a", "b", "ESP", 2.0)
        results = search.process_edge(esp)
        assert len(results) == 1
        assert search.profile.counters.get("retro_matches", 0) >= 1

    def test_without_retrospective_the_match_is_missed(self):
        query = QueryGraph.path(["ESP", "TCP"])
        graph, search = make_lazy(query, retrospective=False)
        search.process_edge(graph.add_edge("b", "c", "TCP", 1.0))
        results = search.process_edge(graph.add_edge("a", "b", "ESP", 2.0))
        assert results == []  # the §4 failure mode, reproduced

    def test_any_arrival_permutation_of_three(self):
        import itertools

        query = QueryGraph.path(["ESP", "TCP", "ICMP"])
        edges = [
            ("a", "b", "ESP"),
            ("b", "c", "TCP"),
            ("c", "d", "ICMP"),
        ]
        for perm in itertools.permutations(range(3)):
            graph, search = make_lazy(query)
            found = []
            for ts, index in enumerate(perm):
                src, dst, etype = edges[index]
                found.extend(
                    search.process_edge(graph.add_edge(src, dst, etype, float(ts)))
                )
            assert len(fingerprints(found)) == 1, perm

    def test_no_duplicate_emissions(self):
        query = QueryGraph.path(["ESP", "TCP"])
        graph, search = make_lazy(query)
        found = []
        # several overlapping matches sharing the ESP edge
        found.extend(search.process_edge(graph.add_edge("b", "c1", "TCP", 1.0)))
        found.extend(search.process_edge(graph.add_edge("b", "c2", "TCP", 2.0)))
        found.extend(search.process_edge(graph.add_edge("a", "b", "ESP", 3.0)))
        found.extend(search.process_edge(graph.add_edge("b", "c3", "TCP", 4.0)))
        prints = [m.fingerprint for m in found]
        assert len(prints) == len(set(prints)) == 3


class TestSharedVertexScenario:
    def test_second_selective_match_reuses_enabled_partner(self):
        """Two ESP matches sharing vertex b must both pair with the TCP edge."""
        query = QueryGraph.path(["ESP", "TCP"])
        graph, search = make_lazy(query)
        found = []
        found.extend(search.process_edge(graph.add_edge("a1", "b", "ESP", 1.0)))
        found.extend(search.process_edge(graph.add_edge("b", "c", "TCP", 2.0)))
        found.extend(search.process_edge(graph.add_edge("a2", "b", "ESP", 3.0)))
        assert len(fingerprints(found)) == 2


class TestWindowing:
    def test_expired_partials_do_not_join(self):
        query = QueryGraph.path(["ESP", "TCP"])
        graph, search = make_lazy(query, window=10.0)
        search.process_edge(graph.add_edge("a", "b", "ESP", 0.0))
        results = search.process_edge(graph.add_edge("b", "c", "TCP", 100.0))
        assert results == []

    def test_housekeeping_compacts_state(self):
        query = QueryGraph.path(["ESP", "TCP"])
        graph, search = make_lazy(query, window=10.0)
        search.process_edge(graph.add_edge("a", "b", "ESP", 0.0))
        graph.add_edge("zz", "zy", "TCP", 1000.0)
        search.housekeeping()
        assert search.partial_match_count() == 0
        assert search.bitmap.rows() == 0  # a, b evicted with their edges


class TestJoinOrderPrecondition:
    """Lazy Search requires a frontier-connected leaf order; this surfaced
    as lost matches in the join-order ablation before the guard existed."""

    def test_disconnected_join_order_rejected_by_lazy(self):
        from repro.errors import DecompositionError
        from repro.sjtree import SJTree
        from repro.graph import StreamingGraph

        query = QueryGraph.path(["ESP", "TCP", "ICMP"])
        # leaf0 {e0: v0-v1} and leaf1 {e2: v2-v3} share no vertex
        tree = SJTree.from_leaf_partition(query, [(0,), (2,), (1,)])
        assert not tree.is_join_order_connected()
        with pytest.raises(DecompositionError, match="frontier-connected"):
            LazySearch(StreamingGraph(), tree)

    def test_eager_accepts_and_stays_exact_on_disconnected_order(self):
        from repro.search import DynamicGraphSearch
        from repro.sjtree import SJTree
        from repro.graph import StreamingGraph

        query = QueryGraph.path(["ESP", "TCP", "ICMP"])
        connected = SJTree.from_leaf_partition(query, [(0,), (1,), (2,)])
        disconnected = SJTree.from_leaf_partition(query, [(0,), (2,), (1,)])
        stream = [
            ("a", "b", "ESP", 1.0),
            ("b", "c", "TCP", 2.0),
            ("c", "d", "ICMP", 3.0),
            ("x", "b", "ESP", 4.0),
        ]
        results = {}
        for label, tree in (("good", connected), ("bad", disconnected)):
            graph = StreamingGraph()
            search = DynamicGraphSearch(graph, tree)
            found = []
            for src, dst, etype, ts in stream:
                found.extend(search.process_edge(graph.add_edge(src, dst, etype, ts)))
            results[label] = fingerprints(found)
        assert results["good"] == results["bad"] != set()

    def test_builder_trees_always_satisfy_the_precondition(self):
        query = QueryGraph.path(["ESP", "TCP", "ICMP", "GRE"])
        graph, search = make_lazy(query)  # built via build_sj_tree
        assert search.tree.is_join_order_connected()


class TestLazyVsEagerEquivalence:
    def test_same_matches_on_a_small_stream(self):
        from repro.search import DynamicGraphSearch

        query = QueryGraph.path(["ESP", "TCP", "ICMP"])
        stream = [
            ("a", "b", "ESP", 1.0),
            ("b", "c", "TCP", 2.0),
            ("x", "b", "ESP", 3.0),
            ("c", "d", "ICMP", 4.0),
            ("c", "e", "ICMP", 5.0),
            ("b", "f", "TCP", 6.0),
            ("f", "g", "ICMP", 7.0),
        ]
        results = {}
        for lazy in (False, True):
            estimator = SelectivityEstimator()
            estimator.observe_events(events_from_tuples(stats_rows()))
            graph = StreamingGraph()
            tree = build_sj_tree(query, estimator, "single")
            search = (
                LazySearch(graph, tree)
                if lazy
                else DynamicGraphSearch(graph, tree)
            )
            found = []
            for src, dst, etype, ts in stream:
                found.extend(search.process_edge(graph.add_edge(src, dst, etype, ts)))
            results[lazy] = fingerprints(found)
        assert results[True] == results[False] != set()


def _fork_query():
    query = QueryGraph(name="fork")
    query.add_edge(1, 0, "A")  # src role above dst role
    query.add_edge(0, 2, "B")
    query.add_edge(0, 3, "C")
    return query


def _reversed_path_query():
    query = QueryGraph(name="rpath")
    query.add_edge(3, 2, "A")
    query.add_edge(2, 1, "B")
    query.add_edge(1, 0, "C")
    return query


def _abc_stream(seed, n=150):
    import random

    from repro.graph import EdgeEvent

    rng = random.Random(seed)
    return [
        EdgeEvent(
            f"v{rng.randrange(12)}", f"v{rng.randrange(12)}", rng.choice("ABC"), float(t)
        )
        for t in range(n)
    ]


def _lazy_engine(
    events, query, strategy, compiled, retrospective=True, **engine_options
):
    from repro import ContinuousQueryEngine

    engine = ContinuousQueryEngine(dispatch=compiled, **engine_options)
    engine.warmup(events[:100])
    options = {"retrospective": retrospective}
    if not compiled:
        options["compiled_plans"] = False
    engine.register(query, strategy=strategy, name="q", **options)
    return engine


class TestCompiledMatchesReference:
    """The compiled engine (dispatch, compiled leaf and vertex plans) must
    emit the reference engine's records in the reference's order."""

    @pytest.mark.parametrize(
        "make_query, seed",
        [(_fork_query, 18), (_reversed_path_query, 5), (_reversed_path_query, 59)],
        ids=["fork-18", "rpath-5", "rpath-59"],
    )
    @pytest.mark.parametrize("chunked", [False, True], ids=["per-event", "chunked"])
    def test_reversed_role_leaves_emit_in_reference_order(
        self, make_query, seed, chunked
    ):
        """Regression: a shape-backed match walked its vertices in
        first-appearance role order, a map-backed one in sorted role order.
        Lazy enables and backfills in that order, so on ``1 -> 0`` leaves
        the compiled engine emitted the reference's records reordered."""
        events = _abc_stream(seed)
        reference = _lazy_engine(events, make_query(), "PathLazy", compiled=False)
        expected = [
            (r.match.fingerprint, r.completed_at)
            for event in events
            for r in reference.process_event(event)
        ]
        engine = _lazy_engine(events, make_query(), "PathLazy", compiled=True)
        if chunked:
            records = engine.process_events(events)
        else:
            records = [r for event in events for r in engine.process_event(event)]
        assert expected
        assert [(r.match.fingerprint, r.completed_at) for r in records] == expected

    def test_gate_rereads_the_bitmap_per_leaf(self):
        """An earlier leaf's insert can enable a later leaf at the same
        edge's endpoints. With the backfill off only the gate can then
        offer the edge to that leaf, so the batched handler must read the
        bitmap per leaf, as the reference path does."""
        query = QueryGraph.path(["A", "A", "B"])
        events = _abc_stream(4, n=300)
        records = {}
        for compiled in (True, False):
            engine = _lazy_engine(
                events, query, "SingleLazy", compiled, retrospective=False
            )
            records[compiled] = [
                (r.match.fingerprint, r.completed_at)
                for r in engine.process_events(events)
            ]
        assert records[False]
        assert records[True] == records[False]

    @pytest.mark.parametrize("strategy", ["SingleLazy", "PathLazy"])
    @pytest.mark.parametrize("make_query", [_fork_query, _reversed_path_query])
    def test_profile_counters_identical(self, strategy, make_query):
        events = _abc_stream(18, n=300)
        counters = {}
        for compiled in (True, False):
            engine = _lazy_engine(
                events, make_query(), strategy, compiled, window=40.0,
                profile_phases=True,
            )
            engine.process_events(events)
            counters[compiled] = engine.queries["q"].algorithm.profile.counters
        assert counters[True] == counters[False]
        for name in ("enablements", "retro_matches", "leaf_matches"):
            assert counters[True].get(name, 0) > 0, name

    def test_backfill_calls_no_interpretive_matcher(self, monkeypatch):
        from repro.search import lazy as lazy_module

        def forbidden(*args, **kwargs):
            raise AssertionError("interpretive matcher on the compiled path")

        monkeypatch.setattr(lazy_module, "find_vertex_anchored_matches", forbidden)
        monkeypatch.setattr(lazy_module, "find_anchored_matches", forbidden)
        events = _abc_stream(18)
        for profile_phases in (False, True):  # chunk handlers, per-edge path
            engine = _lazy_engine(
                events, _fork_query(), "PathLazy", compiled=True,
                profile_phases=profile_phases,
            )
            assert engine.process_events(events)
        assert engine.queries["q"].algorithm.profile.counters["retro_matches"] > 0


def _suite_workloads():
    """The benchmark suite's input generators (``benchmarks/suite`` is a
    script directory, not a package)."""
    import importlib.util
    import sys
    from pathlib import Path

    name = "suite_workloads"
    if name not in sys.modules:
        suite = Path(__file__).parents[1] / "benchmarks" / "suite"
        spec = importlib.util.spec_from_file_location(name, suite / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # its dataclasses look themselves up there
        spec.loader.exec_module(module)
    return sys.modules[name]


class TestMemoryClaim:
    """The paper's space claim (§5): on selective queries Lazy Search keeps
    far fewer partial matches than eager search. Inputs are the suite's
    ``selective_auto`` workload at scale 0.2 (6 000 events, seed 11).
    Eager single-edge leaves keep no table of their own — they read the
    graph — and must still count, live and lifetime, as if they did."""

    @staticmethod
    def run(workloads, strategy):
        from repro import ContinuousQueryEngine

        w = workloads.WORKLOADS["selective_auto"]
        stream = w.make_stream(int(w.events * 0.2), workloads.DEFAULT_SEED)
        warm = int(len(stream) * workloads.WARMUP_FRACTION)
        engine = ContinuousQueryEngine(window=w.window)
        engine.warmup(stream[:warm])
        for query in w.make_queries():
            engine.register(query, strategy=strategy, name=query.name)
        timed = stream[warm:]
        peak = 0
        for at in range(0, len(timed), 512):
            engine.process_events(timed[at : at + 512])
            peak = max(peak, engine.partial_match_count())
            if strategy == "Single":
                live = [e for e in engine.graph.edges() if e.src != e.dst]
                for registered in engine.queries.values():
                    for leaf in registered.tree.leaves():
                        (etype,) = leaf.match_shape().etypes
                        assert len(leaf.table) == sum(e.etype == etype for e in live)
        lifetime = sum(r.tree.lifetime_inserts() for r in engine.queries.values())
        return engine, timed, peak, lifetime

    def test_lazy_keeps_fewer_partial_matches_than_eager(self):
        workloads = _suite_workloads()
        _, _, lazy_peak, lazy_lifetime = self.run(workloads, "SingleLazy")
        eager, timed, eager_peak, eager_lifetime = self.run(workloads, "Single")
        # 871 vs 4 766 live at the peak, 5 806 vs 34 218 ever stored
        assert 0 < lazy_peak * 3 < eager_peak
        assert 0 < lazy_lifetime * 3 < eager_lifetime
        for registered in eager.queries.values():
            for leaf in registered.tree.leaves():
                (etype,) = leaf.match_shape().etypes
                offered = sum(e.etype == etype and e.src != e.dst for e in timed)
                assert leaf.table.inserted_total == offered
