"""Tests for adaptive strategy refresh (window-replay migration)."""

import math
import random

import pytest

from repro import ContinuousQueryEngine
from repro.errors import QueryError
from repro.graph import EdgeEvent
from repro.query import QueryGraph

from .util import events_from_tuples, fingerprints


def warm_rows():
    rows = [(f"w{i}", f"w{i+1}", "T") for i in range(12)]
    rows += [(f"x{i}", f"x{i+1}", "U") for i in range(4)]
    rows += [("w0", "m0", "T"), ("m0", "m1", "U")]
    return rows


def make_engine(window=math.inf):
    engine = ContinuousQueryEngine(window=window)
    engine.warmup(events_from_tuples(warm_rows()))
    return engine


STREAM_A = events_from_tuples(
    [("a", "b", "T", 100.0), ("b", "c", "U", 101.0), ("c", "d", "T", 102.0)]
)
STREAM_B = events_from_tuples(
    [("d", "e", "U", 103.0), ("x", "b", "T", 104.0), ("b", "z", "U", 105.0)]
)


class TestRefresh:
    def test_refresh_preserves_future_results(self):
        """continuous run == run with a mid-stream refresh."""
        query = QueryGraph.path(["T", "U"], name="q")

        baseline = make_engine()
        baseline.register(query, strategy="SingleLazy")
        base_records = []
        for event in STREAM_A + STREAM_B:
            base_records.extend(baseline.process_event(event))

        refreshed = make_engine()
        refreshed.register(query, strategy="SingleLazy")
        records = []
        for event in STREAM_A:
            records.extend(refreshed.process_event(event))
        report = refreshed.refresh_query("q", strategy="Single")
        assert report.strategy_changed
        assert report.replayed_edges == 3
        for event in STREAM_B:
            records.extend(refreshed.process_event(event))

        assert fingerprints(records) == fingerprints(base_records)
        prints = [r.match.fingerprint for r in records]
        assert len(prints) == len(set(prints)), "refresh re-emitted matches"

    def test_refresh_migrates_partial_state(self):
        query = QueryGraph.path(["T", "U"], name="q")
        engine = make_engine()
        engine.register(query, strategy="Single")
        engine.process_event(EdgeEvent("a", "b", "T", 100.0))
        before = engine.partial_match_count()
        assert before > 0
        report = engine.refresh_query("q", strategy="Single")
        assert report.migrated_partial_matches == before
        # the pending partial still completes after the refresh
        records = engine.process_event(EdgeEvent("b", "c", "U", 101.0))
        assert len(records) == 1

    def test_refresh_suppresses_already_reported_matches(self):
        query = QueryGraph.path(["T", "U"], name="q")
        engine = make_engine()
        engine.register(query, strategy="Single")
        emitted = []
        for event in STREAM_A:
            emitted.extend(engine.process_event(event))
        assert len(emitted) == 1
        report = engine.refresh_query("q", strategy="SingleLazy")
        assert report.suppressed_complete_matches == 1
        assert report.suppressed_fingerprints == (emitted[0].match.fingerprint,)

    def test_refresh_respects_window_contents(self):
        """Edges evicted before the refresh cannot contribute partials."""
        engine = make_engine(window=2.0)
        engine.register(QueryGraph.path(["T", "U"], name="q"), strategy="Single")
        engine.process_event(EdgeEvent("a", "b", "T", 100.0))
        engine.process_event(EdgeEvent("p", "q", "T", 200.0))  # evicts the first
        # pin the eager strategy: lazy would (correctly) store nothing for a
        # lone common-type edge and rely on the retrospective pass instead
        report = engine.refresh_query("q", strategy="Single")
        assert report.replayed_edges == 1
        assert report.migrated_partial_matches == 1

    def test_refresh_auto_records_decision(self):
        engine = make_engine()
        registered = engine.register(QueryGraph.path(["T", "U"], name="q"))
        engine.process_event(EdgeEvent("a", "b", "T", 100.0))
        report = engine.refresh_query("q", strategy="auto")
        assert report.new_strategy in ("SingleLazy", "PathLazy")
        assert engine.queries["q"].decision is not None

    def test_refresh_to_baseline_strategy(self):
        engine = make_engine()
        engine.register(QueryGraph.path(["T", "U"], name="q"))
        report = engine.refresh_query("q", strategy="VF2")
        assert engine.queries["q"].tree is None
        assert report.new_strategy == "VF2"

    def test_unknown_query_rejected(self):
        engine = make_engine()
        with pytest.raises(QueryError, match="no registered query"):
            engine.refresh_query("ghost")

    def test_refresh_after_statistics_drift(self):
        """With update_statistics on, a refresh can flip the decision."""
        engine = make_engine()
        engine.update_statistics = True
        engine.register(QueryGraph.path(["T", "U"], name="q"), strategy="auto")
        first = engine.queries["q"].strategy
        # drift: flood the stream with U edges so selectivities change
        for i in range(300):
            engine.process_event(EdgeEvent(f"u{i}", f"u{i+1}", "U", 200.0 + i))
        report = engine.refresh_query("q", strategy="auto")
        assert report.old_strategy in ("SingleLazy", "PathLazy", first)
        assert engine.queries["q"].strategy == report.new_strategy

    def test_refresh_to_path_does_not_duplicate_multi_edge_leaf_matches(self):
        """The replayed graph already holds *later* edges, so a 2-edge leaf
        match is rediscovered once per constituent edge: the eager tree's
        multi-edge leaves must keep duplicate suppression."""
        query = QueryGraph.path(["T", "U", "T"], name="q")
        engine = make_engine()
        engine.register(query, strategy="Single")
        for event in STREAM_A[:2]:
            assert engine.process_event(event) == []
        engine.refresh_query("q", strategy="Path")
        leaves = engine.queries["q"].tree.leaves()
        assert sorted(len(leaf.edge_ids) for leaf in leaves) == [1, 2]
        records = engine.process_event(STREAM_A[2])
        assert len(records) == 1, "the replay stored a leaf match twice"
        assert engine.partial_match_count() == 3  # T, T, and one (T,U)


class TestLateRegistration:
    """A query registered on a live window is warmed by the window replay,
    so what it emits no longer depends on its decomposition."""

    @staticmethod
    def late_records(strategy):
        rng = random.Random(5)
        events = [
            EdgeEvent(
                f"v{rng.randrange(15)}", f"v{rng.randrange(15)}", rng.choice("ABC"), t
            )
            for t in range(3000)
        ]
        engine = ContinuousQueryEngine(window=40.0)
        engine.warmup(events)
        engine.process_events(events[:1500])
        query = QueryGraph.path(["A", "B", "C", "A"], name="q")
        registered = engine.register(query, strategy=strategy, name="q")
        assert registered.algorithm.matches_emitted == 0  # the replay emits nothing
        records = engine.process_events(events[1500:])
        assert registered.algorithm.matches_emitted == len(records)
        return [(r.match.fingerprint, r.completed_at) for r in records]

    def test_every_strategy_emits_the_same_records(self):
        """Before the warm-up: Single 551 records (single-edge leaves started
        empty), Path 552 (its two-edge leaves anchored on older edges), VF2
        556 (it searches the whole window)."""
        single = self.late_records("Single")
        assert len(single) == 556
        assert self.late_records("Path") == single  # same order, too
        for strategy in ("VF2", "SingleLazy", "PathLazy", "IncIso"):
            assert sorted(self.late_records(strategy)) == sorted(single), strategy

    def test_registration_on_an_empty_window_replays_nothing(self, monkeypatch):
        from repro.search import adaptive

        def no_replay(graph, algorithm):
            raise AssertionError("replayed an empty window")

        monkeypatch.setattr(adaptive, "replay_window", no_replay)
        make_engine().register(QueryGraph.path(["T", "U"], name="q"), strategy="Single")
