"""Shared machinery of the end-to-end benchmark.

Every layer is measured from outside the program: the benchmark calls
the layer's public functions and times the call.  When a run is traced,
each of those calls is also wrapped in a span of the benchmark's own
:class:`~repro.obs.trace.Tracer`, which ``DSCWeaver`` is also handed
for its ``weave.*`` spans; per-layer times are the spans' self times,
computed by :func:`repro.obs.flame.flame_summary` over the
:func:`repro.obs.export.chrome_trace` export of one repetition.  An
untraced run uses a disabled tracer, whose spans are the shared no-op,
and weaves without observability.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.conformance.events import EventLog
from repro.conformance.replay import replay
from repro.core.pipeline import DSCWeaver, WeaveResult
from repro.discover.ingest import log_from_journal
from repro.objects.monitor import ObjectMonitor
from repro.obs import Observability
from repro.obs.export import chrome_trace
from repro.obs.flame import flame_summary
from repro.obs.trace import Span, Tracer
from repro.programs import program_from_weave
from repro.runtime import Runtime, read_journal
from repro.runtime.workers import read_manifest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Span ring size.  The open loop records ~3 spans per case (~60k at the
#: full scale); a repetition's per-layer numbers are only trusted when
#: no span was evicted, so the ring is sized far above that.
TRACE_CAPACITY = 1 << 21

#: Runtime options of ``dscweaver serve`` (its CLI defaults).
SHARDS = 4
BATCH = 8
FLUSH_EVERY = 1

#: Per-layer metrics read from span self times: metric -> span names
#: whose self times add up to it.  The ``weave.*``, ``core.minimize`` and
#: ``core.try_remove`` spans are the ones ``DSCWeaver`` itself emits into
#: the tracer it is given.
SPAN_METRICS = {
    "deps.extract_s": ("weave.extract",),
    "dscl.compile_s": ("weave.compile",),
    "translation.translate_s": ("weave.translate",),
    "minimize.self_s": ("weave.minimize", "core.minimize", "core.try_remove"),
    "program.compile_s": ("program.compile",),
    "coordinator.submit_s": ("coordinator.submit",),
    "coordinator.run_s": ("coordinator.run",),
    "journal.read_s": ("journal.read",),
    "recover.rebuild_s": ("recover.rebuild",),
    "recover.resume_s": ("recover.resume",),
    "conformance.ingest_s": ("conformance.ingest",),
    "conformance.replay_s": ("conformance.replay",),
}

#: Weave-layer metrics are reported per weave of the workload's process
#: set, so they are divided by the number of weaves in a repetition.
PER_WEAVE = frozenset(
    {
        "deps.extract_s",
        "dscl.compile_s",
        "translation.translate_s",
        "minimize.self_s",
        "dscl.merged",
        "translation.asc",
        "minimize.candidates",
        "minimize.removed",
        "minimize.full_checks",
        "minimize.closures_computed",
        "minimize.closure_cache_hits",
    }
)


def load_benchmark_spec() -> Dict[str, Any]:
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as handle:
        return json.load(handle)


def digest(payload: Any) -> str:
    """SHA-256 of ``payload``'s canonical JSON form."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def states_digest(states: Mapping[str, Tuple]) -> str:
    return digest(sorted([case, list(state)] for case, state in states.items()))


def minimal_digest(result: WeaveResult) -> Dict[str, Any]:
    """Count and digest of a weave's minimal set.

    The digest covers the set, not its order: Purchasing's minimal set
    comes out in an order that depends on the interpreter's string hash
    seed (its members do not).
    """
    return {
        "constraints": len(result.minimal),
        "sha256": digest(sorted(str(constraint) for constraint in result.minimal)),
    }


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (the smallest value covering ``fraction``)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (third - first) / abs(median) if median else 0.0


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus that of its largest child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def host_stamp() -> Dict[str, Any]:
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            completed = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            )
            if completed.returncode == 0:
                sha = completed.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_sha": sha,
    }


# -- the recorder ----------------------------------------------------------


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Recorder:
    """Samples, per-layer values and correctness checks of one run.

    End-to-end samples are wall-clock timings taken with
    ``perf_counter`` in every run.  Per-layer values come from spans and
    are only collected while ``tracer`` is enabled.
    """

    traced: bool
    tracer: Tracer = field(init=False)
    e2e: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    latency_p50: List[float] = field(default_factory=list)
    latency_p90: List[float] = field(default_factory=list)
    latency_samples: int = 0
    layers: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    diagnostics: Dict[str, Any] = field(default_factory=dict)
    diagnostic_samples: Dict[str, List[float]] = field(
        default_factory=lambda: defaultdict(list)
    )
    #: end-to-end phase time per repetition, untraced (False) and traced
    #: (True): their ratio is the tracing overhead.
    phase_times: Dict[bool, List[float]] = field(
        default_factory=lambda: {False: [], True: []}
    )
    checks: List[Check] = field(default_factory=list)
    attempted: int = 0
    completed: int = 0
    failed: int = 0
    _counts: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    _first_span: int = 0
    _weaves: int = 1

    def __post_init__(self) -> None:
        self.tracer = Tracer(enabled=self.traced, capacity=TRACE_CAPACITY)

    @property
    def tracing(self) -> bool:
        return self.tracer.enabled

    def span(self, name: str, **attrs: Any):
        return self.tracer.span(name, **attrs)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append(Check(name, bool(ok), detail))
        return bool(ok)

    @property
    def correct(self) -> bool:
        return all(check.ok for check in self.checks)

    def sample(self, metric: str, value: float) -> None:
        self.e2e[metric].append(value)

    def latencies(self, values_ms: Sequence[float]) -> None:
        """One repetition's per-case latencies (ms)."""
        self.latency_p50.append(percentile(values_ms, 0.50))
        self.latency_p90.append(percentile(values_ms, 0.90))
        self.latency_samples += len(values_ms)

    def phase(self, seconds: float) -> None:
        self.phase_times[self.tracing].append(seconds)

    def diagnostics_rep(self, values: Mapping[str, float]) -> None:
        for name, value in values.items():
            self.diagnostic_samples[name].append(value)

    def count(self, name: str, value: float) -> None:
        """Accumulate a per-layer count for the current repetition."""
        self._counts[name] += value

    def cases(self, submitted: int, completed: int, failed: int) -> None:
        self.attempted += submitted
        self.completed += completed
        self.failed += failed

    # -- repetitions ---------------------------------------------------------

    def begin_rep(self, weaves: int = 1) -> None:
        self._counts = defaultdict(float)
        self._first_span = len(self.tracer.finished_spans())
        self._weaves = max(1, weaves)

    def rep_spans(self) -> List[Span]:
        return self.tracer.finished_spans()[self._first_span :]

    def end_rep(self) -> None:
        """Fold one traced repetition's spans and counts into per-layer samples."""
        if not self.tracing:
            return
        spans = self.rep_spans()
        self_us: Dict[str, float] = defaultdict(float)
        for row in flame_summary(chrome_trace(spans), top=0):
            self_us[row.name] = row.self_us
        values: Dict[str, float] = {
            metric: sum(self_us.get(name, 0.0) for name in span_names) / 1e6
            for metric, span_names in SPAN_METRICS.items()
        }
        values.update(self._counts)
        rounds = [s.duration for s in spans if s.name == "coordinator.run"]
        if rounds:
            values["coordinator.round_ms_p50"] = statistics.median(rounds) * 1e3
        for name in list(values):
            if name in PER_WEAVE:
                values[name] /= self._weaves
        _ratios(values)
        for name, value in values.items():
            self.layers[name].append(value)


def _ratio(values: Dict[str, float], name: str, top: str, bottom: str) -> None:
    denominator = values.get(bottom, 0.0)
    values[name] = values.get(top, 0.0) / denominator if denominator else 0.0


def _ratios(values: Dict[str, float]) -> None:
    _ratio(values, "minimize.removed_ratio", "minimize.removed", "minimize.candidates")
    hits = values.get("minimize.closure_cache_hits", 0.0)
    lookups = hits + values.get("minimize.closures_computed", 0.0)
    values["minimize.closure_cache_hit_ratio"] = hits / lookups if lookups else 0.0
    _ratio(
        values,
        "coordinator.checks_per_transition",
        "coordinator.checks",
        "coordinator.transitions",
    )
    _ratio(values, "coordinator.cases_per_round", "coordinator.cases", "coordinator.rounds")
    _ratio(values, "journal.bytes_per_record", "journal.bytes", "journal.records")
    _ratio(values, "journal.read_records_per_s", "journal.read_records", "journal.read_s")
    _ratio(
        values,
        "conformance.checks_per_event",
        "conformance.checks",
        "conformance.events",
    )


# -- pipeline layers ---------------------------------------------------------


def weaver(rec: Optional[Recorder] = None) -> DSCWeaver:
    """``DSCWeaver`` with its defaults.  In a traced run it is given the
    run's tracer and emits its own ``weave.*`` spans into it."""
    if rec is not None and rec.tracing:
        return DSCWeaver(obs=Observability(tracer=rec.tracer))
    return DSCWeaver()


def count_weave(rec: Recorder, result: WeaveResult) -> None:
    """Fold one weave's sizes and kernel counters into the repetition."""
    rec.count("dscl.merged", len(result.merged))
    rec.count("translation.asc", len(result.translation.asc))
    kernel = result.report.kernel_stats or {}
    rec.count("minimize.candidates", kernel.get("candidates", 0))
    rec.count("minimize.removed", kernel.get("removed", 0))
    rec.count("minimize.full_checks", kernel.get("full_checks", 0))
    rec.count("minimize.closures_computed", kernel.get("closures_computed", 0))
    rec.count("minimize.closure_cache_hits", kernel.get("closure_cache_hits", 0))


def compile_programs(result: WeaveResult, tracer: Tracer, rec: Optional[Recorder] = None):
    """Runtime program (with its bitmask view) and monitor program."""
    with tracer.span("program.compile"):
        program = program_from_weave(result, "minimal", target="runtime")
        program.masks()
        monitor = program_from_weave(result, "minimal")
    if rec is not None:
        rec.count("program.activities", len(program.activities))
    return program, monitor


# -- serving -----------------------------------------------------------------


@dataclass
class Served:
    report: Any
    seconds: float
    latencies_ms: List[float]


def serve_sliced(
    program,
    plans: Mapping[str, Mapping[str, str]],
    journal_path: Optional[str],
    rec: Recorder,
    slices: int,
    bindings=None,
    objects=None,
) -> Served:
    """Submit every case at once, as ``dscweaver serve`` does, then drive
    the scheduling loop in ``slices`` calls to ``run_until_completed``.

    The calls return between scheduling rounds, so the event sequence is
    the one ``run()`` produces; the slices only let the benchmark observe
    when each 1/``slices`` of the load had finished.  Case ``k`` (in
    completion order) is charged the time at which the call that brought
    the completed count to at least ``k`` returned.
    """
    tracer = rec.tracer
    runtime = Runtime(
        program,
        shards=SHARDS,
        batch=BATCH,
        flush_every=FLUSH_EVERY,
        journal_path=journal_path,
        objects=objects,
    )
    total = len(plans)
    latencies: List[float] = []
    started = perf_counter()
    with tracer.span("coordinator.submit"):
        runtime.submit_batch(plans, bindings=bindings)
    done = rounds = 0
    for index in range(1, slices + 1):
        target = -(-total * index // slices)
        if target <= done:
            continue
        with tracer.span("coordinator.run"):
            runtime.run_until_completed(target)
        rounds += 1
        elapsed_ms = (perf_counter() - started) * 1e3
        latencies.extend([elapsed_ms] * (target - done))
        done = target
    with tracer.span("coordinator.report"):
        report = runtime.run()
    runtime.close()
    seconds = perf_counter() - started
    rec.count("coordinator.cases", total)
    rec.count("coordinator.rounds", rounds)
    return Served(report, seconds, latencies)


def quiet_serve_s(program, plans, journal_path: Optional[str], slices: int) -> float:
    """Seconds of a :func:`serve_sliced` whose spans and counts go to a
    throwaway untraced recorder, so they do not mix with the repetition's.

    ``journal.write_s`` is a journaled serve's time minus that of the same
    plans served with ``journal_path=None``.
    """
    gc.collect()
    return serve_sliced(program, plans, journal_path, Recorder(False), slices).seconds


def account_serve(
    rec: Recorder, label: str, report, submitted: int, journal_paths: Iterable[str]
) -> None:
    """Check that every submitted case completed, account the cases, and
    fold the serve's counters into the current repetition."""
    metrics = report.metrics
    # Stranded cases end as failed (RT006); barriers_stranded counts barriers.
    failed = metrics.failed + metrics.rejected
    rec.cases(submitted, metrics.completed, failed)
    rec.check(
        "%s: all %d cases completed" % (label, submitted),
        metrics.completed == submitted and failed == 0,
        "completed=%d failed=%d rejected=%d stranded=%d"
        % (metrics.completed, metrics.failed, metrics.rejected, metrics.barriers_stranded),
    )
    rec.count("coordinator.transitions", metrics.transitions)
    rec.count("coordinator.checks", metrics.checks)
    rec.count("journal.records", metrics.journal_records)
    rec.count("journal.bytes", sum(os.path.getsize(path) for path in journal_paths))
    rec.count("objects.objects", metrics.objects)
    rec.count("objects.barriers_released", metrics.barriers_released)
    rec.count("objects.barriers_stranded", metrics.barriers_stranded)


# -- journals, recovery, replay ---------------------------------------------


def count_lines(path: str) -> int:
    with open(path, "rb") as handle:
        return sum(1 for _ in handle)


def crash_copy(source: str, target: str, fraction: float, floor: int = 0) -> int:
    """Copy the journal a crash after ``fraction`` of its records leaves.

    With ``flush_every=1`` every record is flushed before the transition
    it describes is applied, so a crash after record N leaves exactly the
    journal's first N records (pinned against ``crash_after=N`` by the
    tests).  ``floor`` keeps at least that many records.
    """
    keep = max(floor, int(count_lines(source) * fraction))
    with open(source, "r", encoding="utf-8") as reader, open(
        target, "w", encoding="utf-8"
    ) as writer:
        writer.writelines(islice(reader, keep))
    return keep


def segments(journal_dir: str) -> List[str]:
    """Journal segment paths of a worker-pool journal, as its manifest lists them."""
    return [
        os.path.join(journal_dir, name) for name in read_manifest(journal_dir)["journals"]
    ]


def crash_copy_segments(source_dir: str, target_dir: str, fraction: float) -> None:
    """Copy a worker-pool journal with :func:`crash_copy` applied to every segment."""
    shutil.copytree(source_dir, target_dir)
    for segment in segments(source_dir):
        crash_copy(
            segment, os.path.join(target_dir, os.path.basename(segment)), fraction
        )


def recover(program, path: str, rec: Recorder, objects=None):
    """``Runtime.recover`` plus ``run()``, with the journal parse split out."""
    tracer = rec.tracer
    started = perf_counter()
    with tracer.span("journal.read"):
        state = read_journal(path)
    with tracer.span("recover.rebuild"):
        runtime = Runtime.recover(
            path,
            program,
            state=state,
            shards=SHARDS,
            batch=BATCH,
            flush_every=FLUSH_EVERY,
            objects=objects,
        )
    with tracer.span("recover.resume"):
        report = runtime.run()
    runtime.close()
    seconds = perf_counter() - started
    rec.count("journal.read_records", state.records)
    rec.count("recover.resumed_cases", len(state.in_flight()))
    return report, seconds


def same_states(rec: Recorder, label: str, recovered: Mapping, served: Mapping) -> None:
    """Recovered final states must equal the uncrashed run's, case for case."""
    missing = [case for case in recovered if case not in served]
    differing = [
        case for case, state in recovered.items() if served.get(case) != state
    ]
    rec.check(
        "%s: recovered final states equal the uncrashed run's" % label,
        not missing and not differing and bool(recovered),
        "%d recovered, %d unknown, %d differing" % (len(recovered), len(missing), len(differing)),
    )


def replay_journals(
    paths: Sequence[str],
    monitor,
    rec: Recorder,
    object_spec=None,
    bindings=None,
):
    """``log_from_journal`` plus ``replay`` (and the object monitor)."""
    tracer = rec.tracer
    started = perf_counter()
    with tracer.span("conformance.ingest"):
        log = EventLog()
        for path in paths:
            log.extend(log_from_journal(path).events)
    with tracer.span("conformance.replay"):
        report = replay(log, monitor)
    object_report = None
    if object_spec is not None:
        with tracer.span("objects.replay"):
            object_monitor = ObjectMonitor(object_spec)
            for case in sorted(bindings):
                object_monitor.bind(case, bindings[case])
            for event in log:
                object_monitor.feed(event)
            object_report = object_monitor.finish()
    seconds = perf_counter() - started
    rec.count("conformance.events", report.events)
    rec.count("conformance.checks", report.checks)
    return report, object_report, seconds


def replay_outcome(rec: Recorder, label: str, report, object_report, cases: int) -> None:
    rec.check(
        "%s: conformance replay of the journal is clean" % label,
        report.clean and report.cases == cases,
        "cases=%d violations=%d" % (report.cases, len(report.violations)),
    )
    if object_report is not None:
        rec.check(
            "%s: object-monitor replay of the journal is clean" % label,
            object_report.clean,
            "objects=%d violations=%d" % (object_report.objects, len(object_report.violations)),
        )


class Workdir:
    """Scratch directory for journals, inside the checkout, removed on exit."""

    def __init__(self, label: str) -> None:
        self.path = ROOT / ".e2e_work" / ("%s-%d" % (label, os.getpid()))
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)

    def file(self, name: str) -> str:
        path = self.path / name
        if path.is_dir():
            shutil.rmtree(path)
        elif path.exists():
            path.unlink()
        return str(path)

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        parent = self.path.parent
        if parent.exists() and not any(parent.iterdir()):
            parent.rmdir()


class Golden:
    """Committed digests for the default seed (see ``golden/``)."""

    def __init__(self, directory) -> None:
        directory = Path(directory)
        with open(directory / "minimal.json", "r", encoding="utf-8") as handle:
            self.minimal = json.load(handle)
        with open(directory / "states.json", "r", encoding="utf-8") as handle:
            self.states = json.load(handle)

    def check_minimal(self, rec: Recorder, name: str, result) -> None:
        expected = self.minimal.get(name)
        actual = minimal_digest(result)
        rec.check(
            "golden minimal set of %s" % name,
            expected == actual,
            "expected %s, got %s" % (expected, actual),
        )

    def check_states(
        self, rec: Recorder, workload: str, scale: str, seed: int, params, digests
    ) -> str:
        """Compare final-state digests when the golden run's inputs match."""
        entry = self.states.get(scale, {}).get(workload)
        if entry is None or entry["seed"] != seed or entry["params"] != params:
            return "not applicable (golden inputs are seed %s at the default scale)" % (
                entry["seed"] if entry else "-"
            )
        for key, value in sorted(digests.items()):
            rec.check(
                "golden %s of %s" % (key, workload),
                entry.get(key) == value,
                "expected %s, got %s" % (entry.get(key), value),
            )
        return "compared"
