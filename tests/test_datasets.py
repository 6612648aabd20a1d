"""Unit tests for the synthetic dataset generators and stream I/O."""

import itertools
import json

import pytest

from repro.datasets import (
    LSBENCH_SCHEMA,
    LSBenchGenerator,
    NetflowGenerator,
    NYTGenerator,
    PROTOCOLS,
    WeightedChooser,
    ZipfSampler,
    chunk_events,
    count_stream_events,
    interleave_at,
    read_stream,
    split_stream,
    write_stream,
)
from repro.datasets.io import BadRecordLog
from repro.errors import ParseError
from repro.graph import EdgeEvent
import random


class TestZipfSampler:
    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            ZipfSampler(0)
        with pytest.raises(ValueError):
            ZipfSampler(5, s=-1.0)

    def test_ranks_in_range(self):
        sampler = ZipfSampler(10, 1.2)
        rng = random.Random(1)
        assert all(0 <= sampler.sample(rng) < 10 for _ in range(200))

    def test_skew_towards_low_ranks(self):
        sampler = ZipfSampler(100, 1.2)
        rng = random.Random(2)
        draws = [sampler.sample(rng) for _ in range(3000)]
        top = sum(1 for d in draws if d < 10)
        assert top > len(draws) * 0.4

    def test_exclusion(self):
        sampler = ZipfSampler(2, 1.0)
        rng = random.Random(3)
        assert all(sampler.sample_excluding(rng, 0) == 1 for _ in range(20))

    def test_exclusion_needs_two(self):
        with pytest.raises(ValueError):
            ZipfSampler(1).sample_excluding(random.Random(0), 0)


class TestWeightedChooser:
    def test_weights_respected(self):
        chooser = WeightedChooser([("hot", 0.9), ("cold", 0.1)])
        rng = random.Random(4)
        draws = [chooser.choose(rng) for _ in range(2000)]
        assert draws.count("hot") > 1500

    def test_validates(self):
        with pytest.raises(ValueError):
            WeightedChooser([])
        with pytest.raises(ValueError):
            WeightedChooser([("a", -1.0)])
        with pytest.raises(ValueError):
            WeightedChooser([("a", 0.0)])

    def test_weight_map_sums_to_one(self):
        chooser = WeightedChooser([("a", 2.0), ("b", 6.0)])
        weights = chooser.weight_map()
        assert sum(weights.values()) == pytest.approx(1.0)
        assert weights["b"] == pytest.approx(0.75)


class TestNetflow:
    def test_deterministic_for_seed(self):
        a = NetflowGenerator(num_events=200, seed=5).generate()
        b = NetflowGenerator(num_events=200, seed=5).generate()
        assert a == b
        c = NetflowGenerator(num_events=200, seed=6).generate()
        assert a != c

    def test_event_shape(self):
        events = NetflowGenerator(num_events=100).generate()
        assert len(events) == 100
        for event in events:
            assert event.etype in PROTOCOLS
            assert event.src_type == event.dst_type == "ip"
            assert event.src != event.dst

    def test_timestamps_increase(self):
        events = NetflowGenerator(num_events=300).generate()
        stamps = [e.timestamp for e in events]
        assert stamps == sorted(stamps)

    def test_protocol_skew_matches_fig6b_order(self):
        events = NetflowGenerator(num_events=8000, seed=1).generate()
        counts = {}
        for event in events:
            counts[event.etype] = counts.get(event.etype, 0) + 1
        assert counts["TCP"] > counts["UDP"] > counts["ICMP"]
        assert counts["ICMP"] > counts.get("GRE", 0)
        assert counts.get("AH", 0) < counts["TCP"] / 20

    def test_schema(self):
        gen = NetflowGenerator(num_events=1)
        triples = gen.schema_triples()
        assert len(triples) == 7
        assert all(t.src_type == "ip" and t.dst_type == "ip" for t in triples)
        assert set(gen.etypes()) == set(PROTOCOLS)

    def test_generate_limit(self):
        events = NetflowGenerator(num_events=100).generate(limit=7)
        assert len(events) == 7

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NetflowGenerator(num_events=10, num_hosts=1)
        with pytest.raises(ValueError):
            NetflowGenerator(num_events=10, profile_min=3, profile_max=2)
        with pytest.raises(TypeError):
            NetflowGenerator(NetflowGenerator(num_events=1).config, num_events=2)

    def test_host_profiles_are_deterministic_and_bounded(self):
        gen = NetflowGenerator(num_events=1, seed=4)
        other = NetflowGenerator(num_events=1, seed=4)
        for host in range(50):
            profile = gen.profile(host)
            assert 2 <= len(profile) <= 4
            assert set(profile) <= set(PROTOCOLS)
            assert profile == other.profile(host)
        assert gen.profile(0) != NetflowGenerator(num_events=1, seed=5).profile(0) or (
            gen.profile(1) != NetflowGenerator(num_events=1, seed=5).profile(1)
        )

    def test_edges_respect_source_profiles(self):
        gen = NetflowGenerator(num_events=2000, seed=6)
        for event in gen.generate():
            host = int(str(event.src)[2:])
            assert event.etype in gen.profile(host)

    def test_affinity_can_be_disabled(self):
        gen = NetflowGenerator(num_events=1, seed=7, profile_min=0, profile_max=0)
        assert set(gen.profile(0)) == set(PROTOCOLS)

    def test_affinity_creates_path_skew(self):
        """The point of profiles: some 2-edge protocol chains must be far
        rarer than the product of their edge frequencies predicts."""
        from repro.stats import SelectivityEstimator

        gen = NetflowGenerator(num_events=8000, num_hosts=1000, seed=13)
        estimator = SelectivityEstimator()
        estimator.observe_events(gen.events())
        ratios = []
        for signature, _ in estimator.path_counter.distribution():
            (d1, t1), (d2, t2) = signature
            independent = (
                2 * estimator.edge_selectivity(t1) * estimator.edge_selectivity(t2)
                if t1 != t2
                else estimator.edge_selectivity(t1) ** 2
            )
            if independent > 0:
                ratios.append(estimator.path_selectivity(signature) / independent)
        # under independence all ratios would sit near a common structural
        # constant; affinity must spread them over orders of magnitude
        assert max(ratios) / max(min(ratios), 1e-12) > 50


class TestLSBench:
    def test_schema_has_45_types(self):
        assert len(LSBENCH_SCHEMA) == 45
        assert len({row[0] for row in LSBENCH_SCHEMA}) == 45

    def test_two_phase_distribution_shift(self):
        events = LSBenchGenerator(num_events=6000, seed=2).generate()
        half = len(events) // 2
        first = {e.etype for e in events[:half]}
        second_counts = {}
        for event in events[half:]:
            second_counts[event.etype] = second_counts.get(event.etype, 0) + 1
        assert "knows" in first
        assert "createsPost" not in first  # phase 1 has no activity stream
        assert second_counts.get("likesPost", 0) > 0
        assert second_counts.get("checksInAt", 0) > 0

    def test_events_conform_to_schema(self):
        valid = {(row[0], row[1], row[2]) for row in LSBENCH_SCHEMA}
        events = LSBenchGenerator(num_events=1500, seed=3).generate()
        for event in events:
            assert (event.etype, event.src_type, event.dst_type) in valid

    def test_vertex_ids_carry_type_prefix(self):
        events = LSBenchGenerator(num_events=500, seed=4).generate()
        for event in events:
            assert str(event.src).startswith(event.src_type)
            assert str(event.dst).startswith(event.dst_type)

    def test_no_self_loops(self):
        events = LSBenchGenerator(num_events=2000, seed=5).generate()
        assert all(e.src != e.dst for e in events)

    def test_deterministic(self):
        a = LSBenchGenerator(num_events=300, seed=9).generate()
        b = LSBenchGenerator(num_events=300, seed=9).generate()
        assert a == b


class TestNYT:
    def test_bipartite_article_to_entity(self):
        events = NYTGenerator(num_events=500, seed=6).generate()
        for event in events:
            assert event.src_type == "article"
            assert event.dst_type in {"person", "geoloc", "topic", "org"}

    def test_mention_frequency_order(self):
        events = NYTGenerator(num_events=6000, seed=7).generate()
        counts = {}
        for event in events:
            counts[event.etype] = counts.get(event.etype, 0) + 1
        assert (
            counts["article_mentions_person"]
            > counts["article_mentions_geoloc"]
            > counts["article_mentions_org"]
        )

    def test_articles_do_not_repeat_mentions(self):
        events = NYTGenerator(num_events=2000, seed=8).generate()
        seen = set()
        for event in events:
            key = (event.src, event.dst)
            assert key not in seen
            seen.add(key)

    def test_exact_event_count(self):
        assert len(NYTGenerator(num_events=123, seed=1).generate()) == 123


class TestStreamIO:
    def test_round_trip(self, tmp_path):
        events = NetflowGenerator(num_events=50, seed=11).generate()
        path = tmp_path / "stream.tsv"
        assert write_stream(path, events) == 50
        back = list(read_stream(path))
        assert back == events

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "stream.tsv"
        path.write_text("# header\n\n1.0\ta\tip\tTCP\tb\tip\n")
        assert len(list(read_stream(path))) == 1

    def test_bad_arity_raises(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("1.0\ta\tip\tTCP\n")
        with pytest.raises(Exception, match="fields"):
            list(read_stream(path))

    def test_bad_timestamp_raises(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("soon\ta\tip\tTCP\tb\tip\n")
        with pytest.raises(Exception, match="timestamp"):
            list(read_stream(path))

    @pytest.mark.parametrize("stamp", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_timestamp_is_a_bad_record(self, tmp_path, stamp):
        """nan and ±inf parse as floats, but no window can hold them: they
        take the bad-record path — ParseError, or quarantine."""
        path = tmp_path / "bad.tsv"
        path.write_text(
            "1.0\ta\tip\tTCP\tb\tip\n"
            f"{stamp}\tb\tip\tTCP\tc\tip\n"
            "2.0\tc\tip\tTCP\td\tip\n"
        )
        with pytest.raises(ParseError, match=f"{path}:2: bad timestamp '{stamp}'"):
            list(read_stream(path))
        dead_letters = tmp_path / "dead.jsonl"
        log = BadRecordLog("quarantine", quarantine_path=dead_letters)
        try:
            events = list(read_stream(path, bad_records=log))
        finally:
            log.close()
        assert [event.timestamp for event in events] == [1.0, 2.0]
        assert log.bad_records == 1
        (entry,) = [json.loads(line) for line in dead_letters.read_text().splitlines()]
        assert entry["lineno"] == 2
        assert entry["reason"] == f"bad timestamp '{stamp}'"

    def test_chunked_reading_covers_stream(self, tmp_path):
        events = NetflowGenerator(num_events=53, seed=11).generate()
        path = tmp_path / "stream.tsv"
        write_stream(path, events)
        chunks = list(chunk_events(read_stream(path), 10))
        assert [len(chunk) for chunk in chunks] == [10, 10, 10, 10, 10, 3]
        assert list(itertools.chain.from_iterable(chunks)) == events

    def test_count_stream_events(self, tmp_path):
        events = NetflowGenerator(num_events=17, seed=5).generate()
        path = tmp_path / "stream.tsv"
        write_stream(path, events)
        assert count_stream_events(path) == 17

    def test_chunk_events_shares_an_iterator(self):
        events = NetflowGenerator(num_events=10, seed=5).generate()
        iterator = iter(events)
        warmup = list(itertools.islice(iterator, 4))
        chunks = list(chunk_events(iterator, 3))
        assert warmup == events[:4]
        assert [len(c) for c in chunks] == [3, 3]
        assert list(itertools.chain.from_iterable(chunks)) == events[4:]
        with pytest.raises(ValueError):
            list(chunk_events(events, 0))


class TestStreamHelpers:
    def test_split_stream(self):
        events = NetflowGenerator(num_events=100, seed=1).generate()
        warmup, rest = split_stream(events, 0.25)
        assert len(warmup) == 25 and len(rest) == 75
        assert warmup + rest == events

    def test_split_validates(self):
        with pytest.raises(ValueError):
            split_stream([], 1.5)

    def test_interleave_preserves_monotonicity(self):
        background = NetflowGenerator(num_events=60, seed=2).generate()
        planted = [
            EdgeEvent("evil", "victim", "RDP", 0.0, "ip", "ip"),
            EdgeEvent("victim", "c2", "RDP", 0.0, "ip", "ip"),
        ]
        merged = list(interleave_at(background, planted, [10, 30]))
        assert len(merged) == 62
        stamps = [e.timestamp for e in merged]
        assert stamps == sorted(stamps)
        assert sum(1 for e in merged if e.etype == "RDP") == 2

    def test_interleave_validates(self):
        with pytest.raises(ValueError):
            list(interleave_at([], [EdgeEvent("a", "b", "T", 0.0)], []))

    def test_interleave_appends_leftovers(self):
        background = NetflowGenerator(num_events=5, seed=3).generate()
        planted = [EdgeEvent("x", "y", "T", 0.0)]
        merged = list(interleave_at(background, planted, [99]))
        assert merged[-1].etype == "T"
