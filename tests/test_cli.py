"""End-to-end tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture
def stream_file(tmp_path):
    path = tmp_path / "stream.tsv"
    assert (
        main(
            [
                "generate",
                "--dataset",
                "netflow",
                "--events",
                "1500",
                "--seed",
                "3",
                "--out",
                str(path),
            ]
        )
        == 0
    )
    return path


@pytest.fixture
def query_file(tmp_path):
    path = tmp_path / "query.txt"
    path.write_text("v1:ip -TCP-> v2:ip\nv2 -ICMP-> v3:ip\n")
    return path


@pytest.fixture
def second_query_file(tmp_path):
    path = tmp_path / "udp.txt"
    path.write_text("v1:ip -UDP-> v2:ip\n")
    return path


class TestGenerate:
    def test_writes_stream(self, stream_file):
        lines = [
            line
            for line in stream_file.read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert len(lines) == 1500
        assert any("TCP" in line for line in lines)


class TestStats:
    def test_prints_distributions(self, stream_file, capsys):
        assert main(["stats", "--stream", str(stream_file)]) == 0
        out = capsys.readouterr().out
        assert "observed edges : 1500" in out
        assert "edge types" in out


class TestDecompose:
    def test_prints_and_saves_tree(self, stream_file, query_file, tmp_path, capsys):
        out_file = tmp_path / "q.sjtree"
        code = main(
            [
                "decompose",
                "--stream",
                str(stream_file),
                "--query",
                str(query_file),
                "--strategy",
                "path",
                "--out",
                str(out_file),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SJ-Tree for query" in out
        assert out_file.read_text().startswith("SJTREE v1")


class TestRun:
    @pytest.mark.parametrize("strategy", ["auto", "SingleLazy", "VF2"])
    def test_runs_and_reports(self, stream_file, query_file, capsys, strategy):
        code = main(
            [
                "run",
                "--stream",
                str(stream_file),
                "--query",
                str(query_file),
                "--strategy",
                strategy,
                "--max-print",
                "2",
                "--profile",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "graph:" in out
        assert "profile:" in out
        assert "[kernel stages]" in out

    def test_strategies_agree_on_match_count(self, stream_file, query_file, capsys):
        counts = {}
        for strategy in ("SingleLazy", "VF2"):
            main(
                [
                    "run",
                    "--stream",
                    str(stream_file),
                    "--query",
                    str(query_file),
                    "--strategy",
                    strategy,
                    "--max-print",
                    "0",
                ]
            )
            out = capsys.readouterr().out
            for line in out.splitlines():
                if "matches=" in line:
                    counts[strategy] = int(line.split("matches=")[1].split()[0])
        assert counts["SingleLazy"] == counts["VF2"]


def _match_counts(out):
    """Parse per-query match tallies from describe() output."""
    counts = {}
    for line in out.splitlines():
        if "matches=" in line and "strategy=" in line:
            name = line.split(":")[0].strip()
            counts[name] = int(line.split("matches=")[1].split()[0])
    return counts


class TestRunSharded:
    """generate -> run end-to-end through the parallel runtime flags."""

    def test_multi_query_serial_run(
        self, stream_file, query_file, second_query_file, capsys
    ):
        code = main(
            [
                "run",
                "--stream",
                str(stream_file),
                "--query",
                str(query_file),
                "--query",
                str(second_query_file),
                "--strategy",
                "auto",
                "--batch-size",
                "100",
                "--max-print",
                "0",
                "--profile",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        counts = _match_counts(out)
        assert set(counts) == {"query", "udp"}
        assert "profile:" in out and "[query]" in out and "[udp]" in out
        # each strategy decision prints exactly once
        decisions = [line for line in out.splitlines() if "xi = " in line]
        assert len(decisions) == 2
        assert all(out.count(line) == 1 for line in decisions)

    def test_workers_flag_matches_serial_output(
        self, stream_file, query_file, second_query_file, capsys
    ):
        base = [
            "run",
            "--stream",
            str(stream_file),
            "--query",
            str(query_file),
            "--query",
            str(second_query_file),
            "--strategy",
            "Single",
            "--max-print",
            "0",
        ]
        assert main(base) == 0
        serial_counts = _match_counts(capsys.readouterr().out)

        code = main(base + ["--workers", "2", "--batch-size", "64"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sharded engine" in out
        assert "workers=2" in out
        assert _match_counts(out) == serial_counts
        assert "matches over" in out

    def test_bad_warmup_fraction_rejected(self, stream_file, query_file):
        with pytest.raises(ValueError, match="warmup fraction"):
            main(
                [
                    "run",
                    "--stream",
                    str(stream_file),
                    "--query",
                    str(query_file),
                    "--warmup-fraction",
                    "1.5",
                ]
            )

    def test_same_stem_query_files_get_unique_names(
        self, stream_file, tmp_path, capsys
    ):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "q.txt").write_text("v1:ip -TCP-> v2:ip\n")
        code = main(
            [
                "run",
                "--stream",
                str(stream_file),
                "--query",
                str(tmp_path / "a" / "q.txt"),
                "--query",
                str(tmp_path / "b" / "q.txt"),
                "--strategy",
                "Single",
                "--max-print",
                "0",
            ]
        )
        assert code == 0
        counts = _match_counts(capsys.readouterr().out)
        assert set(counts) == {"q", "q-2"}
        assert counts["q"] == counts["q-2"]

    def test_bad_workers_and_batch_size_rejected(self, stream_file, query_file):
        base = ["run", "--stream", str(stream_file), "--query", str(query_file)]
        with pytest.raises(ValueError, match="--workers"):
            main(base + ["--workers", "0"])
        with pytest.raises(ValueError, match="--batch-size"):
            main(base + ["--batch-size", "0"])

    def test_workers_with_single_query_stays_in_process(
        self, stream_file, query_file, capsys
    ):
        # one query -> one shard -> serial fallback, but flags still accepted
        code = main(
            [
                "run",
                "--stream",
                str(stream_file),
                "--query",
                str(query_file),
                "--strategy",
                "SingleLazy",
                "--workers",
                "4",
                "--batch-size",
                "32",
                "--max-print",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sharded engine" in out
        assert "matches over" in out


def _matches(out):
    return [line for line in out.splitlines() if line.startswith("match ")]


def _run_cli(stream_file, query_files, *extra):
    argv = [
        "run",
        "--stream",
        str(stream_file),
        "--strategy",
        "Single",
        "--window",
        "40",
        "--max-print",
        "100000",
    ]
    for query_file in query_files:
        argv += ["--query", str(query_file)]
    return main(argv + list(extra))


class TestCheckpointResume:
    """run --checkpoint-dir ... / resume end-to-end (the durability CLI)."""

    def _run(self, stream_file, query_files, *extra):
        return _run_cli(stream_file, query_files, *extra)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_kill_resume_equals_uninterrupted(
        self,
        stream_file,
        query_file,
        second_query_file,
        tmp_path,
        capsys,
        workers,
    ):
        query_files = [query_file, second_query_file]
        worker_args = () if workers == 1 else (
            "--workers",
            str(workers),
            "--batch-size",
            "128",
        )
        assert self._run(stream_file, query_files, *worker_args) == 0
        full = _matches(capsys.readouterr().out)
        assert full, "stream must produce matches to be meaningful"

        ckpt = tmp_path / "ckpt"
        assert (
            self._run(
                stream_file,
                query_files,
                *worker_args,
                "--limit",
                "600",
                "--checkpoint-dir",
                str(ckpt),
                "--checkpoint-every",
                "250",
            )
            == 0
        )
        before = _matches(capsys.readouterr().out)
        assert (ckpt / "manifest.json").exists()

        code = main(
            [
                "resume",
                "--stream",
                str(stream_file),
                "--query",
                str(query_file),
                "--query",
                str(second_query_file),
                "--checkpoint-dir",
                str(ckpt),
                "--max-print",
                "100000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        after = _matches(out)
        assert "resumed at event" in out
        assert before + after == full

    def test_resume_with_wrong_query_set_fails_loudly(
        self, stream_file, query_file, second_query_file, tmp_path, capsys
    ):
        from repro.errors import CheckpointError

        ckpt = tmp_path / "ckpt"
        assert (
            self._run(
                stream_file,
                [query_file, second_query_file],
                "--limit",
                "300",
                "--checkpoint-dir",
                str(ckpt),
            )
            == 0
        )
        capsys.readouterr()
        with pytest.raises(CheckpointError, match="query"):
            main(
                [
                    "resume",
                    "--stream",
                    str(stream_file),
                    "--query",
                    str(query_file),
                    "--checkpoint-dir",
                    str(ckpt),
                ]
            )

    def test_resume_with_short_stream_fails_loudly(
        self, stream_file, query_file, tmp_path, capsys
    ):
        from repro.errors import CheckpointError

        ckpt = tmp_path / "ckpt"
        assert (
            self._run(
                stream_file,
                [query_file],
                "--limit",
                "500",
                "--checkpoint-dir",
                str(ckpt),
            )
            == 0
        )
        capsys.readouterr()
        short = tmp_path / "short.tsv"
        short.write_text("# timestamp\tsrc\tsrc_type\tetype\tdst\tdst_type\n")
        with pytest.raises(CheckpointError, match="cursor"):
            main(
                [
                    "resume",
                    "--stream",
                    str(short),
                    "--query",
                    str(query_file),
                    "--checkpoint-dir",
                    str(ckpt),
                ]
            )

    def test_checkpoint_every_requires_dir(self, stream_file, query_file):
        with pytest.raises(ValueError, match="--checkpoint-dir"):
            self._run(stream_file, [query_file], "--checkpoint-every", "100")


class TestCheckpointBoundaries:
    """Pin the --limit x --checkpoint-every cut-boundary behaviour.

    The stream fixture has 1500 events; the default warmup fraction
    (0.25) consumes 375, leaving 1125 post-warmup events. Intended
    behaviour at the boundaries: when --limit lands exactly on a
    checkpoint cut, the cut's checkpoint is the final one (no empty
    double-checkpoint afterwards); when the stream ends exactly on a
    cut, likewise — and the last checkpoint always covers every
    processed event, so a resume replays nothing and skips nothing.
    """

    WARMUP = 375  # 25% of the 1500-event stream fixture

    def _run(self, stream_file, query_files, *extra):
        return _run_cli(stream_file, query_files, *extra)

    def _manifest(self, ckpt):
        import json

        return json.loads((ckpt / "manifest.json").read_text())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_limit_on_cut_checkpoints_exactly_once_per_segment(
        self,
        stream_file,
        query_file,
        second_query_file,
        tmp_path,
        capsys,
        workers,
    ):
        query_files = [query_file, second_query_file]
        worker_args = () if workers == 1 else (
            "--workers",
            str(workers),
            "--batch-size",
            "128",
        )
        assert self._run(stream_file, query_files, *worker_args) == 0
        full = _matches(capsys.readouterr().out)

        ckpt = tmp_path / "ckpt"
        # --limit 800 == 2 x 400: the limit lands exactly on the second
        # cut. Exactly two checkpoints must exist (no empty third), and
        # the cursor must sit at warmup + limit.
        assert (
            self._run(
                stream_file,
                query_files,
                *worker_args,
                "--limit",
                "800",
                "--checkpoint-every",
                "400",
                "--checkpoint-dir",
                str(ckpt),
            )
            == 0
        )
        before = _matches(capsys.readouterr().out)
        manifest = self._manifest(ckpt)
        assert manifest["sequence"] == 2
        assert manifest["cursor"] == self.WARMUP + 800

        code = main(
            [
                "resume",
                "--stream",
                str(stream_file),
                "--query",
                str(query_file),
                "--query",
                str(second_query_file),
                "--checkpoint-dir",
                str(ckpt),
                "--max-print",
                "100000",
            ]
        )
        assert code == 0
        after = _matches(capsys.readouterr().out)
        assert before + after == full

    def test_stream_end_on_cut_skips_empty_final_checkpoint(
        self, stream_file, query_file, tmp_path, capsys
    ):
        ckpt = tmp_path / "ckpt"
        # 1125 post-warmup events == 3 x 375: the stream ends exactly on
        # the third cut, which must also be the final checkpoint.
        assert (
            self._run(
                stream_file,
                [query_file],
                "--checkpoint-every",
                "375",
                "--checkpoint-dir",
                str(ckpt),
            )
            == 0
        )
        capsys.readouterr()
        manifest = self._manifest(ckpt)
        assert manifest["sequence"] == 3
        assert manifest["cursor"] == 1500

    @pytest.mark.parametrize("workers", [1, 2])
    def test_checkpoint_counter_counts_every_checkpoint(
        self, stream_file, query_file, second_query_file, tmp_path, capsys, workers
    ):
        import json

        ckpt = tmp_path / "ckpt"
        metrics = tmp_path / "metrics.jsonl"
        assert (
            self._run(
                stream_file,
                [query_file, second_query_file],
                "--workers",
                str(workers),
                "--checkpoint-every",
                "400",
                "--limit",
                "1200",
                "--checkpoint-dir",
                str(ckpt),
                "--metrics-out",
                str(metrics),
            )
            == 0
        )
        capsys.readouterr()
        # 1125 post-warmup events: cuts at 400 and 800, then end of stream
        assert self._manifest(ckpt)["sequence"] == 3
        final = json.loads(metrics.read_text().splitlines()[-1])
        samples = final["families"]["repro_persistence_checkpoints_total"]["samples"]
        assert sum(sample["value"] for sample in samples) == 3 * workers

    def test_limit_zero_still_writes_one_checkpoint(
        self, stream_file, query_file, tmp_path, capsys
    ):
        ckpt = tmp_path / "ckpt"
        assert (
            self._run(
                stream_file,
                [query_file],
                "--limit",
                "0",
                "--checkpoint-dir",
                str(ckpt),
            )
            == 0
        )
        capsys.readouterr()
        manifest = self._manifest(ckpt)
        assert manifest["sequence"] == 1
        assert manifest["cursor"] == self.WARMUP


class TestShardMigrationCLI:
    """resume --workers M, the rebalance subcommand and --rebalance-every."""

    def _run(self, stream_file, query_files, *extra):
        return _run_cli(stream_file, query_files, *extra)

    def _full(self, stream_file, query_files, capsys):
        worker_args = ("--workers", "2", "--batch-size", "128")
        assert self._run(stream_file, query_files, *worker_args) == 0
        full = _matches(capsys.readouterr().out)
        assert full
        return full

    def _checkpointed(self, stream_file, query_files, ckpt, capsys):
        worker_args = ("--workers", "2", "--batch-size", "128")
        assert (
            self._run(
                stream_file,
                query_files,
                *worker_args,
                "--limit",
                "600",
                "--checkpoint-every",
                "300",
                "--checkpoint-dir",
                str(ckpt),
            )
            == 0
        )
        return _matches(capsys.readouterr().out)

    def _resume(self, stream_file, query_files, ckpt, capsys, *extra):
        argv = [
            "resume",
            "--stream",
            str(stream_file),
            "--checkpoint-dir",
            str(ckpt),
            "--max-print",
            "100000",
        ]
        for query_file in query_files:
            argv += ["--query", str(query_file)]
        assert main(argv + list(extra)) == 0
        return _matches(capsys.readouterr().out)

    @pytest.mark.parametrize("target", ["1", "3"])
    def test_resume_at_other_worker_count(
        self,
        stream_file,
        query_file,
        second_query_file,
        tmp_path,
        capsys,
        target,
    ):
        query_files = [query_file, second_query_file]
        full = self._full(stream_file, query_files, capsys)
        ckpt = tmp_path / "ckpt"
        before = self._checkpointed(stream_file, query_files, ckpt, capsys)
        after = self._resume(
            stream_file, query_files, ckpt, capsys, "--workers", target
        )
        assert before + after == full

    def test_rebalance_subcommand_roundtrip(
        self, stream_file, query_file, second_query_file, tmp_path, capsys
    ):
        query_files = [query_file, second_query_file]
        full = self._full(stream_file, query_files, capsys)
        ckpt = tmp_path / "ckpt"
        out = tmp_path / "recut"
        before = self._checkpointed(stream_file, query_files, ckpt, capsys)
        code = main(
            [
                "rebalance",
                "--checkpoint-dir",
                str(ckpt),
                "--query",
                str(query_file),
                "--query",
                str(second_query_file),
                "--workers",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "2 -> 1 workers" in printed
        assert "shard 0" in printed
        after = self._resume(stream_file, query_files, out, capsys)
        assert before + after == full

    def test_run_with_rebalance_every_matches_plain_run(
        self, stream_file, query_file, second_query_file, capsys
    ):
        query_files = [query_file, second_query_file]
        full = self._full(stream_file, query_files, capsys)
        assert (
            self._run(
                stream_file,
                query_files,
                "--workers",
                "2",
                "--batch-size",
                "128",
                "--rebalance-every",
                "400",
            )
            == 0
        )
        rebalanced = _matches(capsys.readouterr().out)
        assert rebalanced == full

    def test_rebalance_with_checkpoints_stays_record_identical(
        self, stream_file, query_file, second_query_file, tmp_path, capsys
    ):
        # --rebalance-every 200 is deliberately not a multiple of
        # --checkpoint-every 300; the interleaved cuts must neither skew
        # the records nor leave a stale final checkpoint.
        query_files = [query_file, second_query_file]
        full = self._full(stream_file, query_files, capsys)
        ckpt = tmp_path / "ckpt"
        assert (
            self._run(
                stream_file,
                query_files,
                "--workers",
                "2",
                "--batch-size",
                "128",
                "--rebalance-every",
                "200",
                "--limit",
                "900",
                "--checkpoint-every",
                "300",
                "--checkpoint-dir",
                str(ckpt),
            )
            == 0
        )
        before = _matches(capsys.readouterr().out)
        import json

        manifest = json.loads((ckpt / "manifest.json").read_text())
        assert manifest["cursor"] == 375 + 900
        after = self._resume(stream_file, query_files, ckpt, capsys)
        assert before + after == full

    def test_rebalance_every_requires_workers(self, stream_file, query_file):
        with pytest.raises(ValueError, match="--workers"):
            self._run(stream_file, [query_file], "--rebalance-every", "100")
        with pytest.raises(ValueError, match="--rebalance-every"):
            self._run(
                stream_file,
                [query_file],
                "--workers",
                "2",
                "--rebalance-every",
                "0",
            )


class _RecordingEngine:
    """Fake ShardedEngine logging the driver's run/checkpoint/rebalance cuts."""

    def __init__(self):
        self.checkpoints = []
        self.rebalances = []
        self.processed = 0
        self.in_process = False

    def run(self, segment):
        from repro.search.engine import RunResult

        result = RunResult()
        result.edges_processed = sum(1 for _ in segment)
        self.processed += result.edges_processed
        return result

    def checkpoint(self, directory, cursor=None):
        self.checkpoints.append(cursor)

    def rebalance(self, cursor=None):
        self.rebalances.append(cursor)


class TestShardedDriverCadence:
    """Pin _drive_sharded's cut schedule independently of real workers.

    Regression: ``take`` was computed as the full ``--checkpoint-every``
    rather than the distance to the *next* checkpoint, so a rebalance cut
    mid-interval pushed every later checkpoint out (with every=10,
    rebalance=7 the checkpoints drifted to 14/28/42...).
    """

    def _drive(self, events, **options):
        import argparse

        from repro.cli import _drive_sharded

        defaults = {
            "limit": None,
            "checkpoint_every": None,
            "checkpoint_dir": None,
            "rebalance_every": None,
            "max_print": 0,
        }
        defaults.update(options)
        args = argparse.Namespace(**defaults)
        engine = _RecordingEngine()
        processed, _ = _drive_sharded(engine, iter(events), args, cursor_base=0)
        return engine, processed

    def test_rebalance_cuts_do_not_drift_checkpoints(self):
        engine, processed = self._drive(
            range(50),
            checkpoint_every=10,
            checkpoint_dir="unused",
            rebalance_every=7,
        )
        assert processed == 50
        assert engine.checkpoints == [10, 20, 30, 40, 50]
        assert engine.rebalances == [7, 14, 21, 28, 35, 42, 49]

    def test_limit_on_cut_checkpoints_once(self):
        engine, processed = self._drive(
            range(100),
            limit=40,
            checkpoint_every=20,
            checkpoint_dir="unused",
        )
        assert processed == 40
        assert engine.checkpoints == [20, 40]

    def test_rebalance_skipped_once_stream_is_known_exhausted(self):
        # the stream ends mid-interval: the short final segment proves
        # exhaustion, and no pointless re-cut happens before shutdown
        engine, processed = self._drive(range(25), rebalance_every=10)
        assert processed == 25
        assert engine.rebalances == [10, 20]
        assert engine.checkpoints == []


class TestBadRecords:
    @pytest.fixture
    def dirty_stream(self, stream_file):
        with open(stream_file, "a", encoding="utf-8") as handle:
            handle.write("notanumber\ta\tip\tTCP\tb\tip\n")
            handle.write("1.0\ta\tip\n")
        return stream_file

    def _run(self, stream, query, *extra):
        return main(
            [
                "run",
                "--stream",
                str(stream),
                "--query",
                str(query),
                "--strategy",
                "SingleLazy",
                "--max-print",
                "0",
                *extra,
            ]
        )

    def test_fail_is_the_default(self, dirty_stream, query_file):
        from repro.errors import ParseError

        with pytest.raises(ParseError, match="bad timestamp"):
            self._run(dirty_stream, query_file)

    def test_skip_counts_and_samples(self, dirty_stream, query_file, capsys):
        assert self._run(dirty_stream, query_file, "--on-bad-record", "skip") == 0
        out = capsys.readouterr().out
        assert "bad records skipped: 2" in out
        assert "bad timestamp 'notanumber'" in out
        assert "expected 6 tab-separated fields, got 3" in out

    def test_quarantine_writes_dead_letter_jsonl(
        self, dirty_stream, query_file, tmp_path, capsys
    ):
        import json

        dead = tmp_path / "dead.jsonl"
        assert (
            self._run(
                dirty_stream,
                query_file,
                "--on-bad-record",
                "quarantine",
                "--quarantine-file",
                str(dead),
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "bad records quarantined: 2" in out
        entries = [json.loads(line) for line in dead.read_text().splitlines()]
        assert len(entries) == 2
        assert entries[0]["reason"] == "bad timestamp 'notanumber'"
        assert entries[0]["line"] == "notanumber\ta\tip\tTCP\tb\tip"
        assert entries[1]["lineno"] > entries[0]["lineno"]

    def test_quarantine_requires_file(self, dirty_stream, query_file):
        with pytest.raises(ValueError, match="requires --quarantine-file"):
            self._run(dirty_stream, query_file, "--on-bad-record", "quarantine")

    def test_quarantine_file_requires_policy(self, dirty_stream, query_file):
        with pytest.raises(ValueError, match="requires --on-bad-record"):
            self._run(dirty_stream, query_file, "--quarantine-file", "x.jsonl")

    def test_skip_matches_clean_stream_output(
        self, stream_file, query_file, dirty_stream, capsys
    ):
        # dirty_stream appends bad lines to stream_file in place, so run
        # it with skip: the matches must equal a parse of the good lines.
        assert self._run(dirty_stream, query_file, "--on-bad-record", "skip") == 0
        out = capsys.readouterr().out
        assert "bad records skipped: 2" in out
        assert "matches" in out


class TestSupervise:
    def _run_args(self, stream, query, *extra):
        return [
            "run",
            "--stream",
            str(stream),
            "--query",
            str(query),
            "--strategy",
            "SingleLazy",
            "--max-print",
            "200",
            "--window",
            "50",
            *extra,
        ]

    def test_supervise_requires_workers(self, stream_file, query_file):
        with pytest.raises(ValueError, match="--workers >= 2"):
            main(self._run_args(stream_file, query_file, "--supervise"))

    def test_resume_supervise_requires_workers(
        self, stream_file, query_file, second_query_file, tmp_path, capsys
    ):
        # a 2-worker checkpoint re-cut onto one worker resumes in-process,
        # so --supervise is refused on the resolved count, as for run
        ckpt, one = tmp_path / "ckpt", tmp_path / "ckpt1"
        queries = ["--query", str(query_file), "--query", str(second_query_file)]
        run = self._run_args(stream_file, query_file, *queries[2:], "--workers", "2")
        assert main(run + ["--limit", "300", "--checkpoint-dir", str(ckpt)]) == 0
        rebalance = ["rebalance", "--checkpoint-dir", str(ckpt), *queries]
        assert main(rebalance + ["--workers", "1", "--out", str(one)]) == 0
        capsys.readouterr()
        resume = ["resume", "--stream", str(stream_file), *queries, "--supervise"]
        with pytest.raises(ValueError, match="--workers >= 2"):
            main(resume + ["--checkpoint-dir", str(one)])
        with pytest.raises(ValueError, match="--workers >= 2"):
            main(resume + ["--checkpoint-dir", str(ckpt), "--workers", "1"])

    def test_max_restarts_requires_supervise(self, stream_file, query_file):
        with pytest.raises(ValueError, match="requires --supervise"):
            main(
                self._run_args(
                    stream_file, query_file, "--workers", "2", "--max-restarts", "2"
                )
            )

    def test_chaos_run_matches_clean_run(
        self, stream_file, query_file, second_query_file, capsys, monkeypatch
    ):
        """CLI acceptance: REPRO_FAULTS kills both workers mid-stream in
        a supervised run; the printed match lines must be identical to
        the fault-free run and the supervision summary must show the
        restarts."""
        args = self._run_args(
            stream_file,
            query_file,
            "--query",
            str(second_query_file),
            "--workers",
            "2",
            "--supervise",
        )
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert main(args) == 0
        clean = capsys.readouterr().out
        monkeypatch.setenv(
            "REPRO_FAULTS",
            '[{"kind": "kill", "worker": 0, "at_event": 400},'
            ' {"kind": "kill", "worker": 1, "at_event": 700}]',
        )
        assert main(args) == 0
        chaos = capsys.readouterr().out
        def match_lines(text):
            lines = text.splitlines()
            return [line for line in lines if line.startswith("match @")]
        assert match_lines(chaos) == match_lines(clean)
        assert match_lines(chaos), "chaos leg needs matches to be meaningful"
        assert "supervision: 2 worker restart(s)" in chaos
        assert "supervision: 0 worker restart(s)" in clean

    def test_unsupervised_run_reports_no_supervision(
        self, stream_file, query_file, second_query_file, tmp_path, capsys
    ):
        """Worker processes of an unsupervised run are owned by the same
        transport as a supervised run's, yet neither its summary nor its
        metrics carry the supervision line or the recovery families."""
        import json

        metrics = tmp_path / "metrics.jsonl"
        args = self._run_args(
            stream_file,
            query_file,
            "--query",
            str(second_query_file),
            "--workers",
            "2",
            "--metrics-out",
            str(metrics),
        )
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "workers=2 (2 shard(s))" in out
        lines = out.splitlines()
        assert not [line for line in lines if line.startswith("supervision:")]
        snapshots = [json.loads(line) for line in metrics.read_text().splitlines()]
        assert snapshots
        for snapshot in snapshots:
            assert "repro_runtime_worker_alive" in snapshot["families"]
            assert "repro_runtime_worker_restarts_total" not in snapshot["families"]
            assert "repro_runtime_recovery_seconds" not in snapshot["families"]


class TestAutoscaleCLI:
    """--autoscale wiring: validation, summary line, output identity."""

    def _run_args(self, stream, query, *extra):
        return [
            "run",
            "--stream",
            str(stream),
            "--query",
            str(query),
            "--strategy",
            "SingleLazy",
            "--max-print",
            "5000",
            "--window",
            "50",
            *extra,
        ]

    def test_autoscale_requires_workers(self, stream_file, query_file):
        with pytest.raises(ValueError, match="--workers >= 2"):
            main(self._run_args(stream_file, query_file, "--autoscale"))

    def test_autoscale_knobs_require_autoscale(self, stream_file, query_file):
        with pytest.raises(ValueError, match="requires --autoscale"):
            main(
                self._run_args(
                    stream_file,
                    query_file,
                    "--workers",
                    "2",
                    "--autoscale-every",
                    "500",
                )
            )

    def test_autoscaled_run_matches_fixed_and_prints_summary(
        self, stream_file, query_file, second_query_file, capsys
    ):
        base = self._run_args(
            stream_file,
            query_file,
            "--query",
            str(second_query_file),
            "--workers",
            "2",
        )
        assert main(base) == 0
        fixed = capsys.readouterr().out
        assert main(
            base
            + [
                "--autoscale",
                "--autoscale-min",
                "1",
                "--autoscale-every",
                "300",
                "--autoscale-cooldown",
                "1",
            ]
        ) == 0
        armed = capsys.readouterr().out

        def match_lines(text):
            return [l for l in text.splitlines() if l.startswith("match @")]

        assert match_lines(armed) == match_lines(fixed)
        assert "autoscaling: " in armed
        assert "evaluation(s)" in armed
        assert "autoscaling: " not in fixed
