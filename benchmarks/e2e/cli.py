"""Command line of the end-to-end benchmark.

From the repository root::

    PYTHONPATH=src python -m benchmarks.e2e run [--workload W] [--seed S]
        [--seconds N] [--traced] [--smoke] [--out FILE]
    PYTHONPATH=src python -m benchmarks.e2e compare BASE.jsonl CHANGE.jsonl
    PYTHONPATH=src python -m benchmarks.e2e golden [--smoke]

``run`` without ``--workload`` runs every workload, one after the other,
each in a fresh interpreter.  With ``--workload`` it runs that workload
in this process and prints, last, one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
``BENCHMARK.json``, or its per-layer metrics when traced).  The exit
status is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

from benchmarks.e2e import harness
from benchmarks.e2e.compare import compare_files
from benchmarks.e2e.harness import Golden, Recorder, quartile_spread
from benchmarks.e2e.workloads import WORKLOADS

DEFAULT_SEED = 0
#: Set-up is repeated for its median: at least SETUP_REPS times, and
#: until SETUP_SECONDS have passed (at most SETUP_MAX_REPS times).
SETUP_REPS = 5
SETUP_SECONDS = 0.5
SETUP_MAX_REPS = 50
SMOKE_SECONDS = 1.0
RUN_PY = Path(__file__).resolve().with_name("run.py")

#: Units of the workload-specific diagnostics (not in BENCHMARK.json:
#: every workload must report every metric listed there).
DIAGNOSTIC_UNITS = {
    "openloop.latency_p99_ms": "ms",
    "openloop.latency_max_ms": "ms",
    "loadgen.late_p99_ms": "ms",
    "loadgen.late_max_ms": "ms",
    "loadgen.offered_per_s": "cases/s",
    "loadgen.busy_share": "ratio",
    "loadgen.calls": "count",
    "workers.pool_serve_s": "s",
    "workers.partition_serve_s_max": "s",
    "workers.overhead_s": "s",
    "workers.partition_skew": "ratio",
    "workers.recover_parallel_s": "s",
    "workers.recover_sequential_s": "s",
}


def _summary(values: List[float], **extra: Any) -> Dict[str, Any]:
    entry = {
        "value": statistics.median(values),
        "samples": len(values),
        "spread": quartile_spread(values),
        "values": list(values),
    }
    entry.update(extra)
    return entry


def execute(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    scale: str,
) -> Dict[str, Any]:
    """Run one workload in this process and return its result record."""
    workload = WORKLOADS[name]
    params = workload.params(scale, seconds)
    golden = Golden(harness.GOLDEN_DIR)
    work = harness.Workdir(name)
    try:
        setup_times: List[float] = []
        inputs = None
        while len(setup_times) < SETUP_REPS or (
            sum(setup_times) < SETUP_SECONDS and len(setup_times) < SETUP_MAX_REPS
        ):
            inputs = None
            gc.collect()
            started = perf_counter()
            inputs = workload.setup(seed, params)
            setup_times.append(perf_counter() - started)
        assert inputs is not None
        rec = Recorder(traced)
        min_reps = 1 if traced or scale == "smoke" else workload.min_reps
        started = perf_counter()
        if traced and workload.reference_rep:
            rec.tracer.enabled = False
            gc.collect()
            workload.rep(inputs, rec, work, params)
            rec.tracer.enabled = True
        durations: List[float] = []
        while workload.max_reps is None or len(durations) < workload.max_reps:
            gc.collect()
            rep_started = perf_counter()
            workload.rep(inputs, rec, work, params)
            durations.append(perf_counter() - rep_started)
            elapsed = perf_counter() - started
            if len(durations) >= min_reps and elapsed + statistics.median(durations) > seconds:
                break
        measured = perf_counter() - started
        workload.finish(inputs, rec, golden)
        golden_states = golden.check_states(
            rec, name, scale, seed, params, inputs.state_digests
        )
        rec.check(
            "trace: no span dropped",
            rec.tracer.dropped == 0,
            "%d dropped" % rec.tracer.dropped,
        )
    finally:
        work.close()
    return _record(
        name, workload, seed, seconds, traced, scale, params, inputs, rec,
        setup_times, durations, measured, golden_states,
    )


def _record(name, workload, seed, seconds, traced, scale, params, inputs, rec,
            setup_times, durations, measured, golden_states) -> Dict[str, Any]:
    record: Dict[str, Any] = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "traced": traced,
        "host": harness.host_stamp(),
        "params": params,
        "inputs_sha256": inputs.fingerprint,
        "setup_repetitions": len(setup_times),
        "repetitions": len(durations),
        "measured_s": measured,
        "golden_states": golden_states,
        "correct": rec.correct,
        "checks_passed": sum(1 for check in rec.checks if check.ok),
        "checks_failed": [
            {"name": check.name, "detail": check.detail}
            for check in rec.checks
            if not check.ok
        ],
        "attempted": rec.attempted,
        "failed": rec.failed,
        "trace": {
            "capacity": rec.tracer.capacity,
            "spans": len(rec.tracer.finished_spans()),
            "dropped": rec.tracer.dropped,
        },
    }
    if traced:
        layers = {metric: _summary(values) for metric, values in rec.layers.items()}
        untraced, traced_times = rec.phase_times[False], rec.phase_times[True]
        if untraced and traced_times:
            layers["trace.overhead_ratio"] = {
                "value": statistics.median(traced_times) / statistics.median(untraced) - 1.0,
                "samples": len(traced_times),
                "reference_samples": len(untraced),
            }
        record["layers"] = layers
    else:
        record["metrics"] = {
            "setup_s": _summary(setup_times),
            "weave_s": _summary(rec.e2e["weave_s"]),
            "minimal_constraints": _summary(rec.e2e["minimal_constraints"]),
            "serve_cases_per_s": _summary(rec.e2e["serve_cases_per_s"]),
            "latency_p50_ms": _summary(rec.latency_p50, cases=rec.latency_samples),
            "latency_p90_ms": _summary(rec.latency_p90, cases=rec.latency_samples),
            "recover_s": _summary(rec.e2e["recover_s"]),
            "replay_events_per_s": _summary(rec.e2e["replay_events_per_s"]),
            "completed_ratio": {
                "value": rec.completed / rec.attempted if rec.attempted else 0.0,
                "samples": rec.attempted,
            },
            "peak_rss_mb": {"value": harness.peak_rss_mb(), "samples": 1},
        }
    diagnostics = dict(rec.diagnostics)
    for metric, values in rec.diagnostic_samples.items():
        diagnostics[metric] = _summary(values)
    record["diagnostics"] = diagnostics
    return record


def result_line(record: Dict[str, Any], spec: Dict[str, Any]) -> Dict[str, Any]:
    """The last output line: exactly the metrics ``BENCHMARK.json`` lists."""
    listed = spec["per_layer"] if record["traced"] else spec["end_to_end"]
    measured = record["layers"] if record["traced"] else record["metrics"]
    metrics = {}
    correct = record["correct"]
    for metric in listed:
        entry = measured.get(metric["name"])
        if entry is None:
            correct = False
            continue
        metrics[metric["name"]] = {"value": entry["value"], "unit": metric["unit"]}
    return {
        "correct": correct,
        "attempted": max(1, record["attempted"]),
        "failed": record["failed"],
        "metrics": metrics,
    }


def print_record(record: Dict[str, Any], spec: Dict[str, Any]) -> None:
    host = record["host"]
    print(
        "== %s seed=%d scale=%s seconds=%g %s | %d repetition(s) in %.1f s | "
        "%d cpu(s), python %s, %s"
        % (
            record["workload"],
            record["seed"],
            record["scale"],
            record["seconds"],
            "traced" if record["traced"] else "untraced",
            record["repetitions"],
            record["measured_s"],
            host["cpu_count"],
            host["python"],
            host["git_sha"][:12],
        )
    )
    listed = spec["per_layer"] if record["traced"] else spec["end_to_end"]
    measured = record["layers"] if record["traced"] else record["metrics"]
    for metric in listed:
        entry = measured.get(metric["name"], {})
        print(
            "   %-36s %14.6g %-9s (median of %s, spread %.1f%%)"
            % (
                metric["name"],
                entry.get("value", float("nan")),
                metric["unit"],
                entry.get("samples", 0),
                100.0 * entry.get("spread", 0.0),
            )
        )
    for metric, entry in sorted(record["diagnostics"].items()):
        if isinstance(entry, dict) and "value" in entry and "samples" in entry:
            value, unit = entry["value"], DIAGNOSTIC_UNITS.get(metric, "")
        elif isinstance(entry, (int, float)):
            value, unit = entry, DIAGNOSTIC_UNITS.get(metric, "")
        else:
            print("   %-36s %s" % (metric, json.dumps(entry, sort_keys=True)))
            continue
        print("   %-36s %14.6g %-9s (diagnostic)" % (metric, value, unit))
    print("   golden final states: %s" % record["golden_states"])
    print(
        "   checks: %d passed, %d failed"
        % (record["checks_passed"], len(record["checks_failed"]))
    )
    for failure in record["checks_failed"]:
        print("   FAILED %s: %s" % (failure["name"], failure["detail"]))


def _run(arguments, spec: Dict[str, Any]) -> int:
    traced = arguments.traced
    scale = "smoke" if arguments.smoke else "full"
    seconds = arguments.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if arguments.smoke else float(spec["run_seconds"])
    if arguments.workload is None:
        status = 0
        for name in WORKLOADS:
            command = [sys.executable, str(RUN_PY), "--workload", name,
                       "--seed", str(arguments.seed), "--seconds", str(seconds),
                       "--trace", "1" if traced else "0"]
            if arguments.smoke:
                command.append("--smoke")
            if arguments.out:
                command += ["--out", arguments.out]
            status = max(status, subprocess.run(command).returncode)
        return status
    record = execute(arguments.workload, arguments.seed, seconds, traced, scale)
    print_record(record, spec)
    if arguments.out:
        with open(arguments.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    line = result_line(record, spec)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


def make_golden(scale: str, directory: Path, spec: Dict[str, Any]) -> None:
    """Write the golden digests of the default seed at ``scale``.

    Every final state is served on the mask fast path and on the
    object-walking reference.  Any disagreement aborts before a file is
    written.
    """
    from repro.core.pipeline import DSCWeaver

    seconds = SMOKE_SECONDS if scale == "smoke" else float(spec["run_seconds"])
    minimal_path = directory / "minimal.json"
    states_path = directory / "states.json"
    minimal = json.loads(minimal_path.read_text()) if minimal_path.exists() else {}
    states = json.loads(states_path.read_text()) if states_path.exists() else {}
    states[scale] = {}
    for name, workload in WORKLOADS.items():
        params = workload.params(scale, seconds)
        inputs = workload.setup(DEFAULT_SEED, params)
        for entry, process, cooperation in inputs.corpus:
            result = DSCWeaver().weave(process, cooperation=cooperation)
            minimal[entry] = harness.minimal_digest(result)
        states[scale][name] = {
            "seed": DEFAULT_SEED,
            "params": json.loads(json.dumps(params)),
            **workload.golden_digests(inputs, params),
        }
        print("golden %s/%s: %s" % (scale, name, states[scale][name]))
    directory.mkdir(parents=True, exist_ok=True)
    minimal_path.write_text(json.dumps(minimal, indent=2, sort_keys=True) + "\n")
    states_path.write_text(json.dumps(states, indent=2, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end benchmark with a per-layer ledger.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run workloads and check their outputs")
    run.add_argument("--workload", choices=list(WORKLOADS))
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--seconds", type=float, help="measuring time per workload")
    run.add_argument("--traced", action="store_true", help="per-layer run")
    run.add_argument("--smoke", action="store_true", help="tiny sizes")
    run.add_argument("--out", help="append the run record (JSON line) to this file")
    compare = commands.add_parser("compare", help="classify metric changes")
    compare.add_argument("base")
    compare.add_argument("change")
    golden = commands.add_parser("golden", help="rewrite the golden digests")
    golden.add_argument("--smoke", action="store_true")
    arguments = parser.parse_args(argv)
    spec = harness.load_benchmark_spec()
    if arguments.command == "run":
        return _run(arguments, spec)
    if arguments.command == "compare":
        lines, clean = compare_files(arguments.base, arguments.change, spec)
        print("\n".join(lines))
        return 0 if clean else 1
    make_golden("smoke" if arguments.smoke else "full", harness.GOLDEN_DIR, spec)
    return 0
