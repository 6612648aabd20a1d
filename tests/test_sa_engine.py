"""Tests for the repo-local invariant lint engine (``tools/sa``).

Covers the engine mechanics (suppressions, baseline round-trip, rule
selection, the undeclared-rule guard), every checker against the
red/green fixture trees under ``tests/sa_fixtures/``, the CLI end to
end, and — the acceptance bar — a clean run over the real repo tree.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.sa import (  # noqa: E402
    Checker,
    DEFAULT_CONFIG,
    Finding,
    SAError,
    load_baseline,
    load_project,
    run_checkers,
    save_baseline,
    split_baselined,
)
from tools.sa.__main__ import main  # noqa: E402
from tools.sa.checkers import all_checkers  # noqa: E402
from tools.sa.core import suppressed_rules  # noqa: E402

FIXTURES = REPO_ROOT / "tests" / "sa_fixtures"


def run_fixture_tree(tree: Path):
    project = load_project([tree], DEFAULT_CONFIG, root=tree)
    return run_checkers(project, all_checkers())


# ---------------------------------------------------------------------------
# engine mechanics
# ---------------------------------------------------------------------------


class TestSuppressions:
    def test_same_line(self):
        lines = ["x = 1  # sa: ignore[determinism]"]
        assert suppressed_rules(lines, 1) == {"determinism"}

    def test_line_above(self):
        lines = ["# sa: ignore[hot-attr]", "x = self.a.b"]
        assert suppressed_rules(lines, 2) == {"hot-attr"}

    def test_multiple_rules(self):
        lines = ["x = 1  # sa: ignore[determinism, hot-try]"]
        assert suppressed_rules(lines, 1) == {"determinism", "hot-try"}

    def test_no_comment(self):
        assert suppressed_rules(["x = 1"], 1) == frozenset()

    def test_does_not_leak_to_other_lines(self):
        lines = ["# sa: ignore[determinism]", "a = 1", "b = 2"]
        assert suppressed_rules(lines, 3) == frozenset()

    def test_end_to_end(self, tmp_path):
        bad = "for v in match.data_vertices():  # sa: ignore[determinism]\n"
        target = tmp_path / "isomorphism" / "mod.py"
        target.parent.mkdir(parents=True)
        target.write_text("def f(match):\n    " + bad + "        pass\n")
        project = load_project([tmp_path], DEFAULT_CONFIG, root=tmp_path)
        assert run_checkers(project, all_checkers()) == []

    def test_wrong_rule_does_not_suppress(self, tmp_path):
        bad = "for v in match.data_vertices():  # sa: ignore[hot-try]\n"
        target = tmp_path / "isomorphism" / "mod.py"
        target.parent.mkdir(parents=True)
        target.write_text("def f(match):\n    " + bad + "        pass\n")
        project = load_project([tmp_path], DEFAULT_CONFIG, root=tmp_path)
        findings = run_checkers(project, all_checkers())
        assert [f.rule for f in findings] == ["determinism"]


class TestBaseline:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        findings = [
            Finding("determinism", "a.py", 3, "iterates a set"),
            Finding("hot-try", "b.py", 7, "try in loop"),
        ]
        save_baseline(path, findings)
        entries = load_baseline(path)
        assert len(entries) == 2
        new, old = split_baselined(findings, entries)
        assert new == [] and len(old) == 2

    def test_missing_file_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == []

    def test_malformed_raises(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"findings": [{"rule": "x"}]}))
        with pytest.raises(SAError):
            load_baseline(path)
        path.write_text("[1, 2]")
        with pytest.raises(SAError):
            load_baseline(path)

    def test_budget_is_a_multiset(self):
        finding = Finding("determinism", "a.py", 3, "iterates a set")
        entries = [{"rule": "determinism", "path": "a.py", "message": "iterates a set"}]
        # The second identical finding exceeds the baseline budget: new.
        new, old = split_baselined([finding, finding], entries)
        assert len(old) == 1 and len(new) == 1

    def test_line_drift_still_matches(self):
        entries = [{"rule": "determinism", "path": "a.py", "message": "m"}]
        drifted = Finding("determinism", "a.py", 99, "m")
        new, old = split_baselined([drifted], entries)
        assert new == [] and old == [drifted]


class TestRunCheckers:
    def test_unknown_rule_select_raises(self, tmp_path):
        (tmp_path / "m.py").write_text("x = 1\n")
        project = load_project([tmp_path], DEFAULT_CONFIG, root=tmp_path)
        with pytest.raises(SAError, match="unknown rule"):
            run_checkers(project, all_checkers(), select=["no-such-rule"])

    def test_select_filters(self):
        findings = run_fixture_tree(FIXTURES / "red")
        project = load_project(
            [FIXTURES / "red"], DEFAULT_CONFIG, root=FIXTURES / "red"
        )
        only = run_checkers(project, all_checkers(), select=["typed-errors"])
        assert {f.rule for f in only} == {"typed-errors"}
        assert len(only) < len(findings)

    def test_undeclared_rule_guard(self, tmp_path):
        class Rogue(Checker):
            name = "rogue"
            rules = ("declared",)

            def check_project(self, project):
                yield Finding("undeclared", "m.py", 1, "boom")

        (tmp_path / "m.py").write_text("x = 1\n")
        project = load_project([tmp_path], DEFAULT_CONFIG, root=tmp_path)
        with pytest.raises(SAError, match="undeclared"):
            run_checkers(project, [Rogue()])

    def test_syntax_error_raises(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        with pytest.raises(SAError, match="cannot parse"):
            load_project([tmp_path], DEFAULT_CONFIG, root=tmp_path)


# ---------------------------------------------------------------------------
# checkers against the fixture trees
# ---------------------------------------------------------------------------


class TestRedFixtures:
    @pytest.fixture(scope="class")
    def findings(self):
        return run_fixture_tree(FIXTURES / "red")

    def test_every_rule_fires(self, findings):
        fired = {f.rule for f in findings}
        assert fired == {
            "determinism",
            "typed-errors",
            "hot-closure",
            "hot-try",
            "hot-strkey",
            "hot-attr",
            "codec-tags",
            "env-knobs",
        }

    def test_pr5_data_vertices_regression(self, findings):
        """The PR 5 incident shape — iterating ``Match.data_vertices()``
        in emission-order-sensitive code — MUST be flagged."""
        hits = [
            f
            for f in findings
            if f.rule == "determinism"
            and f.path == "isomorphism/match_order.py"
            and f.line == 10
        ]
        assert len(hits) == 1
        assert "data_vertices_ordered" in hits[0].message

    def test_determinism_sites(self, findings):
        lines = sorted(
            f.line
            for f in findings
            if f.rule == "determinism" and f.path == "isomorphism/match_order.py"
        )
        assert lines == [10, 16, 21]  # for-loop, comprehension, set.pop()

    def test_typed_error_sites(self, findings):
        assert sorted(
            f.line for f in findings if f.rule == "typed-errors"
        ) == [5, 9]

    def test_hot_path_sites(self, findings):
        by_rule = {
            f.rule: f.line
            for f in findings
            if f.path == "search/engine.py"
        }
        assert by_rule == {
            "hot-closure": 8,
            "hot-try": 11,
            "hot-attr": 12,
            "hot-strkey": 17,
        }

    def test_codec_sites(self, findings):
        codec = [f for f in findings if f.rule == "codec-tags"]
        messages = " | ".join(f.message for f in codec)
        assert "_TAG_ORPHAN" in messages
        assert "_dump_orphan" in messages
        assert len(codec) == 3

    def test_env_knob_sites(self, findings):
        knobs = [f for f in findings if f.rule == "env-knobs"]
        messages = " | ".join(f.message for f in knobs)
        assert "REPRO_ALPHA" in messages  # via a module-level constant
        assert "REPRO_UNDECLARED" in messages
        assert {f.path for f in knobs} == {"config_reader.py"}
        assert len(knobs) == 2

    def test_total(self, findings):
        assert len(findings) == 14


class TestGreenFixtures:
    def test_clean(self):
        assert run_fixture_tree(FIXTURES / "green") == []


# ---------------------------------------------------------------------------
# CLI end to end
# ---------------------------------------------------------------------------


class TestCLI:
    def test_red_exits_nonzero(self, capsys, monkeypatch):
        monkeypatch.chdir(FIXTURES / "red")
        assert main([".", "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "[determinism]" in out and "14 new" in out

    def test_green_exits_zero(self, capsys, monkeypatch):
        monkeypatch.chdir(FIXTURES / "green")
        assert main([".", "--no-baseline"]) == 0
        assert "0 new" in capsys.readouterr().out

    def test_exact_output_single_file(self, capsys, monkeypatch):
        monkeypatch.chdir(FIXTURES / "red")
        code = main(
            ["src/repro/raises.py", "--no-baseline", "--quiet"]
        )
        assert code == 1
        assert capsys.readouterr().out == (
            "src/repro/raises.py:5: [typed-errors] raise RuntimeError in "
            "library code; raise a typed error from the repro.errors "
            "hierarchy instead (embedders catch ReproError)\n"
            "src/repro/raises.py:9: [typed-errors] raise Exception in "
            "library code; raise a typed error from the repro.errors "
            "hierarchy instead (embedders catch ReproError)\n"
        )

    def test_unknown_rule_exits_2(self, capsys, monkeypatch):
        monkeypatch.chdir(FIXTURES / "green")
        assert main([".", "--select", "bogus"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("determinism", "codec-tags", "env-knobs"):
            assert rule in out

    def test_update_baseline_then_clean(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(FIXTURES / "red")
        baseline = tmp_path / "baseline.json"
        assert main([".", "--baseline", str(baseline), "--update-baseline"]) == 0
        capsys.readouterr()
        # With every finding baselined the run passes but reports them.
        assert main([".", "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "14 baselined" in out and "(baselined)" in out


# ---------------------------------------------------------------------------
# the ratchet guard (tools/check_ratchets.py)
# ---------------------------------------------------------------------------


class TestRatchets:
    @staticmethod
    def _make_repo(tmp_path, strict_lines, baseline_findings):
        import subprocess

        (tmp_path / "tools" / "sa").mkdir(parents=True)
        (tmp_path / "tools" / "mypy_strict.txt").write_text(
            "\n".join(strict_lines) + "\n"
        )
        (tmp_path / "tools" / "sa" / "baseline.json").write_text(
            json.dumps({"findings": baseline_findings})
        )
        env = {
            "GIT_AUTHOR_NAME": "t",
            "GIT_AUTHOR_EMAIL": "t@t",
            "GIT_COMMITTER_NAME": "t",
            "GIT_COMMITTER_EMAIL": "t@t",
            "HOME": str(tmp_path),
            "PATH": "/usr/bin:/bin:/usr/local/bin",
        }
        for cmd in (
            ["git", "init", "-q"],
            ["git", "add", "-A"],
            ["git", "commit", "-qm", "seed"],
        ):
            subprocess.run(cmd, cwd=tmp_path, check=True, env=env)
        return tmp_path

    def test_clean_tree_passes(self, tmp_path):
        from tools.check_ratchets import main as ratchet_main

        repo = self._make_repo(tmp_path, ["src/a.py"], [])
        assert ratchet_main(["--repo-root", str(repo)]) == 0

    def test_strict_list_may_grow(self, tmp_path):
        from tools.check_ratchets import main as ratchet_main

        repo = self._make_repo(tmp_path, ["src/a.py"], [])
        (repo / "tools" / "mypy_strict.txt").write_text("src/a.py\nsrc/b.py\n")
        assert ratchet_main(["--repo-root", str(repo)]) == 0

    def test_strict_list_removal_fails(self, tmp_path, capsys):
        from tools.check_ratchets import main as ratchet_main

        repo = self._make_repo(tmp_path, ["src/a.py", "src/b.py"], [])
        (repo / "tools" / "mypy_strict.txt").write_text("src/a.py\n")
        assert ratchet_main(["--repo-root", str(repo)]) == 1
        assert "src/b.py" in capsys.readouterr().err

    def test_baseline_may_shrink_not_grow(self, tmp_path, capsys):
        from tools.check_ratchets import main as ratchet_main

        entry = {"rule": "determinism", "path": "a.py", "message": "m"}
        repo = self._make_repo(tmp_path, ["src/a.py"], [entry])
        baseline = repo / "tools" / "sa" / "baseline.json"
        baseline.write_text(json.dumps({"findings": []}))
        assert ratchet_main(["--repo-root", str(repo)]) == 0
        baseline.write_text(json.dumps({"findings": [entry, entry]}))
        assert ratchet_main(["--repo-root", str(repo)]) == 1
        assert "grew" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the real tree
# ---------------------------------------------------------------------------


class TestRepoTree:
    def test_repo_is_clean(self, capsys, monkeypatch):
        """Acceptance: ``python -m tools.sa src tools benchmarks`` exits 0."""
        monkeypatch.chdir(REPO_ROOT)
        assert main(["src", "tools", "benchmarks"]) == 0

    def test_checked_in_baseline_is_empty(self):
        """The burndown is done; the baseline may only ever shrink, and it
        has already reached zero — keep it there."""
        entries = load_baseline(REPO_ROOT / "tools" / "sa" / "baseline.json")
        assert entries == []
