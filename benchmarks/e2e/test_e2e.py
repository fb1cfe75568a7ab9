"""Tests of the end-to-end benchmark, at its smoke scale.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.pipeline import DSCWeaver
from repro.runtime import Runtime, SimulatedCrash

from benchmarks.e2e import cli, harness
from benchmarks.e2e.compare import (
    IMPROVED,
    REGRESSED,
    UNCHANGED,
    UNRESOLVED,
    classify,
    compare_files,
)
from benchmarks.e2e.workloads import UNTRACED, WORKLOADS, balanced_plans, bundled

RUN_PY = Path(cli.__file__).with_name("run.py")
SPEC = harness.load_benchmark_spec()


def run_smoke(workload, trace):
    """Run ``run.py`` the way ``BENCHMARK.json`` names it; return (status,
    parsed last line)."""
    completed = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True,
        text=True,
        timeout=170,
        cwd=harness.ROOT,
    )
    lines = completed.stdout.strip().splitlines()
    return completed.returncode, json.loads(lines[-1]) if lines else None


def test_workloads_match_benchmark_json():
    assert list(WORKLOADS) == [w["name"] for w in SPEC["workloads"]]
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [m["name"] for m in SPEC["end_to_end"]][0] == "setup_s"


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_emits_exactly_the_listed_metrics(workload, trace):
    status, line = run_smoke(workload, trace)
    assert status == 0, line
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(line["metrics"]) == [metric["name"] for metric in listed]
    for metric in listed:
        entry = line["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        if not trace:
            assert entry["value"] > 0, metric["name"]


def run_in_process(capsys, workload):
    """Run one smoke workload through ``cli.main``; return (status, last line)."""
    status = cli.main(["run", "--workload", workload, "--smoke", "--seconds", "0.1"])
    return status, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def tampered_golden(tmp_path, monkeypatch, name, tamper):
    golden = tmp_path / "golden"
    shutil.copytree(harness.GOLDEN_DIR, golden)
    payload = json.loads((golden / name).read_text())
    tamper(payload)
    (golden / name).write_text(json.dumps(payload))
    monkeypatch.setattr(harness, "GOLDEN_DIR", golden)


def test_tampered_golden_digest_fails(tmp_path, monkeypatch, capsys):
    def tamper(states):
        states["smoke"]["purchasing-batch"]["final_states_sha256"] = "0" * 64

    tampered_golden(tmp_path, monkeypatch, "states.json", tamper)
    status, line = run_in_process(capsys, "purchasing-batch")
    assert status == 1 and line["correct"] is False


def test_tampered_minimal_set_digest_fails(tmp_path, monkeypatch, capsys):
    def tamper(minimal):
        minimal["orders"]["sha256"] = "0" * 64

    tampered_golden(tmp_path, monkeypatch, "minimal.json", tamper)
    status, line = run_in_process(capsys, "orders-2w")
    assert status == 1 and line["correct"] is False


def _drop_first_start(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if '"lifecycle":"start"' in line)
    Path(path).write_text("".join(lines[:first] + lines[first + 1:]), encoding="utf-8")


def test_tampered_journal_fails(monkeypatch, capsys):
    replay_journals = harness.replay_journals

    def tampering(paths, *args, **kwargs):
        for path in paths:
            _drop_first_start(path)
        return replay_journals(paths, *args, **kwargs)

    monkeypatch.setattr(harness, "replay_journals", tampering)
    status, line = run_in_process(capsys, "purchasing-batch")
    assert status == 1 and line["correct"] is False


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_seed_changes_the_inputs(workload):
    chosen = WORKLOADS[workload]
    params = chosen.params("smoke", cli.SMOKE_SECONDS)
    first = chosen.setup(0, params).fingerprint
    assert chosen.setup(0, params).fingerprint == first
    assert chosen.setup(1, params).fingerprint != first


def test_traced_open_loop_drops_no_span():
    # The full-scale open loop records ~60k spans; the ring must hold them.
    assert harness.TRACE_CAPACITY > 60_000
    record = cli.execute("purchasing-open", 0, cli.SMOKE_SECONDS, True, "smoke")
    assert record["correct"], record["checks_failed"]
    assert record["trace"]["dropped"] == 0 and record["trace"]["spans"] > 100
    assert "trace.overhead_ratio" in record["layers"]


def test_crash_copy_is_the_journal_a_crash_leaves(tmp_path):
    process, cooperation = bundled("purchasing")
    program, _monitor = harness.compile_programs(
        DSCWeaver().weave(process, cooperation=cooperation), UNTRACED
    )
    plans = balanced_plans(process, ["c%d" % i for i in range(40)], random.Random(0))
    full = str(tmp_path / "full.jsonl")
    runtime = Runtime(program, journal_path=full)
    runtime.submit_batch(plans)
    runtime.run()
    runtime.close()
    copied = str(tmp_path / "copy.jsonl")
    keep = harness.crash_copy(full, copied, 0.5)
    crashed = str(tmp_path / "crashed.jsonl")
    runtime = Runtime(program, journal_path=crashed, crash_after=keep)
    runtime.submit_batch(plans)
    with pytest.raises(SimulatedCrash):
        runtime.run()
    assert Path(copied).read_bytes() == Path(crashed).read_bytes()


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(harness.BENCHMARK_JSON, tmp_path)
    shutil.copytree(
        Path(cli.__file__).parent,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "purchasing-batch",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path, env=env,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_classify():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
    faster = [value * 0.8 for value in base]
    slower = [value * 1.2 for value in base]
    assert classify(base, faster, "lower", 0.1)[0] == IMPROVED
    assert classify(base, slower, "lower", 0.1)[0] == REGRESSED
    assert classify(base, slower, "higher", 0.1)[0] == IMPROVED
    assert classify(base, [value * 1.01 for value in base], "lower", 0.1)[0] == UNCHANGED
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert classify(base, noisy, "lower", 0.1)[0] == UNRESOLVED


def run_record(workload, recover_scale=1.0, seed=0, correct=True, failed=0):
    metrics = {
        metric["name"]: {"value": 10.0 * recover_scale if metric["name"] == "recover_s" else 10.0}
        for metric in SPEC["end_to_end"]
    }
    return json.dumps(
        {"workload": workload, "traced": False, "scale": "full", "seed": seed,
         "params": {"cases": 10}, "correct": correct, "failed": failed, "metrics": metrics}
    )


def compare_lines(tmp_path, base_lines, change_lines):
    base = tmp_path / "base.jsonl"
    change = tmp_path / "change.jsonl"
    base.write_text("\n".join(base_lines))
    change.write_text("\n".join(change_lines))
    return compare_files(str(base), str(change), SPEC)


def test_compare_reports_one_row_per_workload(tmp_path):
    lines, clean = compare_lines(
        tmp_path,
        [run_record(w) for w in ("a", "b") for _ in range(5)],
        [run_record("a")] * 5 + [run_record("b", 1.5)] * 5,
    )
    assert not clean
    rows = {line.split()[0]: line for line in lines[1:-1]}
    assert set(rows) == {"a", "b"}
    assert REGRESSED not in rows["a"] and "regressed" in rows["b"]


def test_compare_accepts_identical_runs(tmp_path):
    _lines, clean = compare_lines(tmp_path, [run_record("a")] * 5, [run_record("a")] * 5)
    assert clean


def test_compare_refuses_failed_runs(tmp_path):
    for bad in (run_record("a", correct=False), run_record("a", failed=3)):
        lines, clean = compare_lines(tmp_path, [run_record("a")] * 5, [run_record("a")] * 4 + [bad])
        assert not clean
        assert any("not counted" in line for line in lines)


def test_compare_does_not_pair_other_inputs(tmp_path):
    lines, clean = compare_lines(tmp_path, [run_record("a")] * 5, [run_record("a", seed=1)] * 5)
    assert not clean
    assert sum("missing runs on one side" in line for line in lines) == 2
