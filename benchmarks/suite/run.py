"""The repo's end-to-end + per-layer scoreboard.

    python3 benchmarks/suite/run.py             # every workload, end to end
    python3 benchmarks/suite/run.py --traced    # ... plus the per-layer pass
    python3 benchmarks/suite/run.py --workload dense_join --seed 12
    python3 benchmarks/suite/run.py --aa        # two interleaved sets, same code

With ``--workload`` one workload runs in this process and the last line of
standard output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``): the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. Without it every workload runs in a fresh
subprocess of exactly that form. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
OUT = SUITE / "out"
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import measure  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: scale of the in-process self-test (and of the goldens pinned for it)
SMOKE_SCALE = 0.01


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_goldens() -> dict:
    return json.loads((SUITE / "goldens.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# host record
# ---------------------------------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` directly; the driver's
    checkout is not a repository, which reads as ``unknown``."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text(encoding="utf-8").strip()
        if text.startswith("ref: "):
            text = (ROOT / ".git" / text[5:]).read_text(encoding="utf-8").strip()
        return text
    except OSError:
        return "unknown"


def host_record() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy_version,
        "columnar_backend": layers.backend_name(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "git_sha": git_sha(),
    }


# ---------------------------------------------------------------------------
# one workload, in this process
# ---------------------------------------------------------------------------


def check_goldens(inputs: measure.Inputs, scale: float) -> Optional[dict]:
    """The pinned entry for these inputs, after checking the generated bytes;
    ``None`` when nothing is pinned for this seed and scale."""
    goldens = load_goldens()
    label = {1.0: "full", SMOKE_SCALE: "smoke"}.get(scale)
    if inputs.seed != goldens["seed"] or label is None:
        return None
    entry = goldens[label][inputs.workload.name]
    if entry["stream_sha256"] != inputs.stream_sha:
        sys.exit(
            f"run.py: generated input of {inputs.workload.name} (seed "
            f"{inputs.seed}) no longer matches goldens.json — a generator "
            "changed; nothing was timed"
        )
    return entry


def golden_mismatch(entry: Optional[dict], reference: measure.Reference) -> bool:
    return entry is not None and (
        entry["records"] != reference.full[0]
        or entry["ordered_sha256"] != reference.full[1]
    )


def describe(
    name: str, unit: str, value: float, used: int, samples: List[float]
) -> str:
    q1, median, q3 = measure.quartiles(samples)
    return (
        f"{name:<22} {value:>14.4f} {unit:<9} ({used} undisturbed of "
        f"{len(samples)}; all: q1 {q1:.4f}, median {median:.4f}, q3 {q3:.4f})"
    )


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    out: Path = OUT,
) -> Tuple[dict, List[str]]:
    """Measure one workload; returns the result object and the report lines.

    ``out`` receives the trace file and, while the run lasts, the generated
    stream and query files.
    """
    workload = WORKLOADS[name]
    if workload.sharded and (os.cpu_count() or 1) < measure.SHARD_WORKERS:
        sys.exit(
            f"run.py: {name} drives {measure.SHARD_WORKERS} workers and this "
            f"host has {os.cpu_count()} core(s); refusing to measure it"
        )
    lines = [f"== {name} (seed {seed}, {seconds:g} s, trace {int(trace)}) =="]
    host = host_record()
    inputs = measure.build_inputs(workload, seed, scale)
    pinned = check_goldens(inputs, scale)
    scratch = out / f"tmp-{os.getpid()}"
    # The generated inputs are the suite's, not the program's: keep them out
    # of every collection so GC pauses reflect the engine's own heap.
    gc.freeze()
    try:
        measure.write_files(inputs, str(scratch))
        if trace:
            done = layers.traced_pass(inputs, seconds, str(out), str(scratch), scale)
            metrics = {
                key: {"value": value, "unit": unit}
                for key, (value, unit) in sorted(done.metrics.items())
            }
            tally, reference = done.tally, done.reference
            lines += [
                f"{key:<40} {entry['value']:>16.4f} {entry['unit']}"
                for key, entry in metrics.items()
            ]
        else:
            result = measure.run_end_to_end(inputs, seconds)
            tally, reference = result.tally, result.reference
            metrics, report = end_to_end_metrics(result)
            lines += report
    finally:
        gc.unfreeze()
        shutil.rmtree(scratch, ignore_errors=True)
    if golden_mismatch(pinned, reference):
        lines.append("reference stream differs from goldens.json")
        tally.failed += max(reference.full[0], 1)
    host["loadavg_1m_end"] = os.getloadavg()[0]
    lines.append(
        f"records expected {reference.full[0]}; attempted {tally.attempted}, "
        f"failed {tally.failed} (failed_share {tally.failed_share:.6f})"
    )
    lines.append("host " + json.dumps(host, sort_keys=True))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }, lines


def end_to_end_metrics(result: measure.EndToEnd) -> Tuple[dict, List[str]]:
    units = {m["name"]: m["unit"] for m in load_contract()["end_to_end"]}
    series = result.series()
    estimates = result.estimates()
    metrics = {key: value for key, (value, _) in estimates.items()}
    metrics["peak_rss_mb"] = result.peak_rss_mib
    lines = [
        describe(key, units[key], value, used, series[key])
        for key, (value, used) in estimates.items()
    ]
    lines.append(
        f"{'peak_rss_mb':<22} {result.peak_rss_mib:>14.4f} {units['peak_rss_mb']}"
    )
    lines.append(
        f"{'(emit_latency_p99_ms':<22} {result.pooled_p99_ms():>14.4f} ms        "
        "pooled over the undisturbed segments; not gated, see README)"
    )
    segments = [segment for _, segment in result.rounds]
    late = sorted(late for segment in segments for late in segment.gen_late_s)
    lines.append(
        f"open loop at {segments[0].rate} events/s, {len(segments)} segments of "
        f"{len(segments[0].event_latency_s)} events: backlog at end "
        f"{max(s.final_backlog for s in segments)} at most, driver late p99 "
        f"{measure.percentile(late, 0.99) * 1e3:.3f} ms; "
        f"strategies {sorted(set(result.reference.strategies))}"
    )
    lines.append("samples " + json.dumps(series))
    return {
        key: {"value": metrics[key], "unit": unit} for key, unit in units.items()
    }, lines


# ---------------------------------------------------------------------------
# every workload, each in a fresh subprocess
# ---------------------------------------------------------------------------


def spawn(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload as the driver does; echo its report, return its result."""
    command = [
        sys.executable, str(SUITE / "run.py"),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]  # fmt: skip
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, check=False, timeout=900
    )
    *report, last = done.stdout.rstrip("\n").split("\n")
    print("\n".join(report), flush=True)
    if done.returncode != 0:
        sys.exit(f"run.py: {name} exited with code {done.returncode}")
    return json.loads(last)


def run_all(args: argparse.Namespace) -> int:
    names = list(WORKLOADS)
    summary: Dict[str, dict] = {}
    failed = 0
    for trace in (False, True) if args.traced else (False,):
        for name in names:
            result = spawn(name, args.seed, args.seconds, trace)
            failed += result["failed"]
            summary.setdefault(name, {}).update(result["metrics"])
    print("\n== summary ==")
    for key in sorted({key for metrics in summary.values() for key in metrics}):
        unit = next(m[key]["unit"] for m in summary.values() if key in m)
        cells = "  ".join(f"{summary[name][key]['value']:>14.4f}" for name in names)
        print(f"{key:<40} {unit:<10} {cells}")
    print(f"{'':<51} " + "  ".join(f"{name:>14}" for name in names))
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# A/A: two interleaved sets of the same checkout
# ---------------------------------------------------------------------------


def spread(values: List[float]) -> float:
    q1, median, q3 = measure.quartiles(values)
    return (q3 - q1) / median


def run_aa(args: argparse.Namespace) -> int:
    contract = load_contract()
    sets: Tuple[Dict, Dict] = ({}, {})
    for index in range(args.runs):
        for which in (0, 1) if index % 2 == 0 else (1, 0):
            for name in WORKLOADS:
                result = spawn(name, args.seed + index, args.seconds, False)
                for key, entry in result["metrics"].items():
                    sets[which].setdefault((key, name), []).append(entry["value"])
    verdicts = []
    print(f"\n== A/A over {args.runs} runs per set ==")
    print(
        f"{'metric':<22} {'workload':<16} {'median A':>12} {'median B':>12} "
        f"{'gap':>8} {'spread':>8} {'bound':>6}  verdict"
    )
    for metric in contract["end_to_end"]:
        for name in WORKLOADS:
            a = sets[0][metric["name"], name]
            b = sets[1][metric["name"], name]
            median_a, median_b = statistics.median(a), statistics.median(b)
            gap = abs(median_b - median_a) / median_a
            widest = max(spread(a), spread(b))
            if widest > metric["bound"] and metric["name"] != "setup_s":
                verdict = "unresolved"
            else:
                verdict = "PASS" if gap <= metric["bound"] else "FAIL"
            verdicts.append(verdict)
            print(
                f"{metric['name']:<22} {name:<16} {median_a:>12.4f} "
                f"{median_b:>12.4f} {gap:>8.2%} {widest:>8.2%} "
                f"{metric['bound']:>6.2f}  {verdict}"
            )
    return 0 if all(v == "PASS" for v in verdicts) else 1


# ---------------------------------------------------------------------------
# pinning
# ---------------------------------------------------------------------------


def pin_goldens() -> int:
    """Recompute goldens.json for the default seed with the reference
    configuration, at full scale and at the self-test's scale."""
    goldens: dict = {"seed": DEFAULT_SEED}
    for label, scale in (("full", 1.0), ("smoke", SMOKE_SCALE)):
        goldens[label] = {}
        for name, workload in WORKLOADS.items():
            inputs = measure.build_inputs(workload, DEFAULT_SEED, scale)
            count, sha = measure.reference_run(inputs).full
            goldens[label][name] = {
                "stream_sha256": inputs.stream_sha,
                "records": count,
                "ordered_sha256": sha,
            }
            print(f"pinned {label:<5} {name:<16} {count} records")
    (SUITE / "goldens.json").write_text(
        json.dumps(goldens, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--traced", action="store_true", help="all workloads: add the per-layer pass"
    )
    parser.add_argument("--aa", action="store_true", help="two interleaved sets")
    parser.add_argument("--runs", type=int, default=5, help="runs per A/A set")
    parser.add_argument(
        "--pin", action="store_true", help="rewrite goldens.json for the default seed"
    )
    args = parser.parse_args(argv)
    if args.pin:
        return pin_goldens()
    if args.aa:
        return run_aa(args)
    if args.workload is None:
        return run_all(args)
    result, lines = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
