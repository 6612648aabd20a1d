"""Unit tests for the ContinuousQueryEngine front-end."""

import math

import pytest

from repro import ContinuousQueryEngine
from repro.errors import QueryError, StrategyError
from repro.graph import EdgeEvent
from repro.query import QueryGraph

from .util import events_from_tuples, fingerprints


def warm_rows():
    rows = [(f"w{i}", f"w{i+1}", "T") for i in range(10)]
    rows += [(f"x{i}", f"x{i+1}", "U") for i in range(4)]
    rows += [("w0", "m0", "T"), ("m0", "m1", "U")]
    return rows


def stream_rows():
    return events_from_tuples(
        [
            ("a", "b", "T", 100.0),
            ("b", "c", "U", 101.0),
            ("c", "d", "T", 102.0),
            ("b", "e", "U", 103.0),
        ]
    )


@pytest.fixture
def engine():
    eng = ContinuousQueryEngine(window=math.inf)
    eng.warmup(events_from_tuples(warm_rows()))
    return eng


class TestRegistration:
    def test_auto_strategy_records_decision(self, engine):
        registered = engine.register(QueryGraph.path(["T", "U"], name="q"))
        assert registered.strategy in ("SingleLazy", "PathLazy")
        assert registered.decision is not None
        assert registered.tree is not None

    def test_explicit_strategies(self, engine):
        for strategy in ("Single", "SingleLazy", "Path", "PathLazy", "VF2", "IncIso"):
            eng = ContinuousQueryEngine()
            eng.warmup(events_from_tuples(warm_rows()))
            registered = eng.register(
                QueryGraph.path(["T", "U"], name="q"), strategy=strategy
            )
            assert registered.strategy == strategy

    def test_unknown_strategy_rejected(self, engine):
        with pytest.raises(StrategyError):
            engine.register(QueryGraph.path(["T"], name="q"), strategy="Magic")

    def test_duplicate_name_rejected(self, engine):
        engine.register(QueryGraph.path(["T"], name="q"))
        with pytest.raises(QueryError, match="already registered"):
            engine.register(QueryGraph.path(["U"], name="q"))

    def test_disconnected_query_rejected(self, engine):
        query = QueryGraph(name="disc")
        query.add_edge(0, 1, "T")
        query.add_edge(2, 3, "U")
        with pytest.raises(QueryError, match="connected"):
            engine.register(query)

    def test_sjtree_strategies_require_warm_stats(self):
        cold = ContinuousQueryEngine()
        with pytest.raises(Exception, match="cold"):
            cold.register(QueryGraph.path(["T"], name="q"), strategy="Single")

    def test_vf2_strategy_works_cold(self):
        cold = ContinuousQueryEngine()
        registered = cold.register(QueryGraph.path(["T"], name="q"), strategy="VF2")
        assert registered.tree is None

    def test_auto_naming(self, engine):
        anonymous = QueryGraph.path(["T"])
        registered = engine.register(anonymous, strategy="VF2")
        assert registered.name == "q0"


class TestProcessing:
    def test_records_carry_context(self, engine):
        engine.register(QueryGraph.path(["T", "U"], name="q"), strategy="SingleLazy")
        records = []
        for event in stream_rows():
            records.extend(engine.process_event(event))
        assert len(records) == 2
        record = records[0]
        assert record.query_name == "q"
        assert record.strategy == "SingleLazy"
        assert record.completed_at == record.match.max_time

    def test_multi_query_fanout(self, engine):
        engine.register(QueryGraph.path(["T", "U"], name="tu"), strategy="SingleLazy")
        engine.register(QueryGraph.path(["U"], name="u"), strategy="Single")
        records = []
        for event in stream_rows():
            records.extend(engine.process_event(event))
        grouped = {}
        for record in records:
            grouped.setdefault(record.query_name, []).append(record)
        assert len(grouped["u"]) == 2
        assert len(grouped["tu"]) == 2

    def test_run_collects_metrics(self, engine):
        engine.register(QueryGraph.path(["T", "U"], name="q"), strategy="Single")
        result = engine.run(stream_rows())
        assert result.edges_processed == 4
        assert result.matches == 2
        assert result.elapsed_seconds >= 0.0
        assert set(result.by_query()) == {"q"}

    def test_run_limit(self, engine):
        engine.register(QueryGraph.path(["T", "U"], name="q"), strategy="Single")
        result = engine.run(stream_rows(), limit=2)
        assert result.edges_processed == 2

    def test_windowed_engine_evicts(self):
        eng = ContinuousQueryEngine(window=5.0)
        eng.warmup(events_from_tuples(warm_rows()))
        eng.register(QueryGraph.path(["T", "U"], name="q"), strategy="SingleLazy")
        records = []
        records.extend(eng.process_event(EdgeEvent("a", "b", "T", 0.0)))
        records.extend(eng.process_event(EdgeEvent("b", "c", "U", 100.0)))
        assert records == []
        assert eng.graph.num_edges == 1  # the old edge was evicted

    def test_update_statistics_flag(self, engine):
        engine.update_statistics = True
        before = engine.estimator.events_observed
        engine.register(QueryGraph.path(["T"], name="q"), strategy="Single")
        engine.process_event(EdgeEvent("a", "b", "T", 100.0))
        assert engine.estimator.events_observed == before + 1

    def test_describe_smoke(self, engine):
        engine.register(QueryGraph.path(["T", "U"], name="q"))
        for event in stream_rows():
            engine.process_event(event)
        text = engine.describe()
        assert "q:" in text and "matches=" in text

    def test_bad_window(self):
        with pytest.raises(ValueError, match="window"):
            ContinuousQueryEngine(window=0)


class TestIntrospection:
    def test_route_counts_and_describe(self, engine):
        engine.register(QueryGraph.path(["T", "U"], name="tu"), strategy="Single")
        engine.register(QueryGraph.path(["U"], name="u"), strategy="Single")
        engine.register(
            QueryGraph.path(["T"], name="all"), strategy="PeriodicVF2", period=4
        )
        counts = engine.route_counts()
        assert counts == {"tu": 2, "u": 1, "all": None}
        text = engine.describe()
        assert "routes=2" in text  # tu
        assert "routes=1" in text  # u
        assert "routes=*" in text  # PeriodicVF2 sees every edge

    def test_query_alphabets_export(self, engine):
        engine.register(QueryGraph.path(["T", "U"], name="tu"), strategy="Single")
        engine.register(
            QueryGraph.path(["T"], name="all"), strategy="PeriodicVF2", period=4
        )
        alphabets = engine.query_alphabets()
        assert alphabets["tu"] == frozenset({"T", "U"})
        assert alphabets["all"] is None

    def test_process_events_batch_matches_per_event(self, engine):
        engine.register(QueryGraph.path(["T", "U"], name="q"), strategy="Single")
        batched = engine.process_events(stream_rows())
        loop = ContinuousQueryEngine(window=math.inf)
        loop.warmup(events_from_tuples(warm_rows()))
        loop.register(QueryGraph.path(["T", "U"], name="q"), strategy="Single")
        unbatched = []
        for event in stream_rows():
            unbatched.extend(loop.process_event(event))
        assert fingerprints(batched) == fingerprints(unbatched)
        assert len(batched) == 2


class TestCrossStrategyAgreement:
    def test_all_strategies_agree_on_stream(self, engine):
        outcomes = {}
        for strategy in ("Single", "SingleLazy", "Path", "PathLazy", "VF2", "IncIso"):
            eng = ContinuousQueryEngine()
            eng.warmup(events_from_tuples(warm_rows()))
            eng.register(QueryGraph.path(["T", "U"], name="q"), strategy=strategy)
            records = []
            for event in stream_rows():
                records.extend(eng.process_event(event))
            outcomes[strategy] = fingerprints(records)
        baseline = outcomes.pop("VF2")
        assert baseline
        for strategy, got in outcomes.items():
            assert got == baseline, strategy
