"""Self-test of the benchmark suite: every workload at 1/100 scale, in-process.

Collected by the tier-1 run (``python -m pytest`` from the repo root). It
checks the suite's own contract — metric names and units against
``BENCHMARK.json``, span nesting, pinned inputs, and that a corrupted record
stream is counted as failed — not the program's speed.
"""

from __future__ import annotations

import json
import os
import re

import measure
import pytest
import run
from workloads import DEFAULT_SEED, WORKLOADS

CONTRACT = run.load_contract()
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
SMOKE_SECONDS = 0.4


def declared(section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in CONTRACT[section]}


def test_contract_lists_the_suites_workloads():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in CONTRACT[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert "setup_s" in declared("end_to_end")


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "traced"])
def test_every_declared_metric_is_emitted_once(name, trace, tmp_path):
    if WORKLOADS[name].sharded and (os.cpu_count() or 1) < measure.SHARD_WORKERS:
        with pytest.raises(SystemExit, match="refusing"):
            run.run_workload(name, DEFAULT_SEED, SMOKE_SECONDS, trace, out=tmp_path)
        return
    result, _ = run.run_workload(
        name, DEFAULT_SEED, SMOKE_SECONDS, trace, scale=run.SMOKE_SCALE, out=tmp_path
    )
    # goldens at smoke scale are checked inside run_workload: a changed input
    # exits before timing, a changed reference stream counts as failed
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {key: entry["unit"] for key, entry in result["metrics"].items()}
    assert emitted == declared("per_layer" if trace else "end_to_end")
    assert all(isinstance(e["value"], float) for e in result["metrics"].values())

    if trace:
        rows = [
            json.loads(line)
            for line in (tmp_path / f"trace-{name}.jsonl").read_text().splitlines()
        ]
        by_id = {row["id"]: row for row in rows}
        assert any(row["parent"] is not None for row in rows)
        for row in rows:
            assert row["workload"] == name
            assert row["self_s"] >= -1e-9
            if row["parent"] is not None:
                parent = by_id[row["parent"]]
                assert parent["start"] <= row["start"] <= row["end"] <= parent["end"]
    assert not [p for p in tmp_path.iterdir() if p.name.startswith("tmp-")]


def test_corrupted_record_stream_counts_as_failed():
    inputs = measure.build_inputs(
        WORKLOADS["dense_join"], DEFAULT_SEED, run.SMOKE_SCALE
    )
    target = measure.SerialTarget(inputs)
    records = target.drain(target.open())
    reference = measure.reference_run(inputs)
    assert len(records) > 2

    clean = measure.Tally()
    clean.check(len(inputs.timed), measure.record_digest(records), reference.full)
    assert clean.failed_share == 0

    dropped = measure.Tally()
    dropped.check(
        len(inputs.timed), measure.record_digest(records[1:]), reference.full
    )
    assert dropped.failed == 1

    swapped = measure.Tally()
    reordered = [records[1], records[0], *records[2:]]
    swapped.check(len(inputs.timed), measure.record_digest(reordered), reference.full)
    assert swapped.failed == len(records) and swapped.failed_share > 0
