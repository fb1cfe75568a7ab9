"""The four workloads of the end-to-end benchmark.

Each workload builds its inputs from the seed (``setup``), then runs
repetitions of its timed phases (``rep``) until the run's measuring time
is used up, and finally runs the checks that need the whole run
(``finish``).  Why each workload exists is in ``README.md`` next to this
file; in short:

* ``purchasing-batch`` — case evaluation, journal writes (serve) and
  journal reads (recover, replay) on the paper's Purchasing process;
* ``purchasing-open`` — the same program under an open loop of tiny
  batches, where per-call fixed cost shows;
* ``orders-2w`` — the only workload reaching ``repro.objects``, the fork
  and IPC of ``WorkerPool`` and its gate exchange;
* ``synthetic-weave`` — the design-time compile pipeline, where
  ``core.minimize`` does nearly all the work, plus serving on
  300-activity processes.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.pipeline import DSCWeaver
from repro.deps.cooperation import CooperationRegistry
from repro.objects.model import ObjectBinding
from repro.obs.trace import Tracer
from repro.runtime import Runtime, WorkerPool, worker_of
from repro.verify import verify_program
from repro.workloads.deployment import build_deployment_process, deployment_cooperation
from repro.workloads.insurance import build_insurance_process, insurance_cooperation
from repro.workloads.loan import build_loan_process, loan_cooperation
from repro.workloads.orders import build_orders_process, orders_object_spec
from repro.workloads.purchasing import (
    build_purchasing_process,
    purchasing_cooperation_dependencies,
)
from repro.workloads.synthetic import SyntheticSpec, generate_process
from repro.workloads.travel import build_travel_process, travel_cooperation

from benchmarks.e2e import harness
from benchmarks.e2e.harness import Golden, Recorder, digest, states_digest

#: Setup uses a disabled tracer: it is timed, never traced.
UNTRACED = Tracer(enabled=False)

#: The open loop sleeps until this long before a case is due, then spins.
SPIN_S = 0.0005

#: Table 2 of the paper: Purchasing minimizes to 17 constraints.
PURCHASING_MINIMAL = 17

BUNDLED = ("purchasing", "deployment", "loan", "travel", "insurance", "orders")


def bundled(name: str):
    """``(process, cooperation dependencies)`` of a bundled workload."""
    if name == "purchasing":
        process = build_purchasing_process()
        return process, purchasing_cooperation_dependencies(process)
    factories = {
        "deployment": (build_deployment_process, deployment_cooperation),
        "loan": (build_loan_process, loan_cooperation),
        "travel": (build_travel_process, travel_cooperation),
        "insurance": (build_insurance_process, insurance_cooperation),
        "orders": (build_orders_process, CooperationRegistry),
    }
    build, cooperation = factories[name]
    process = build()
    return process, cooperation(process).dependencies


def guard_domains(process) -> List[Tuple[str, List[str]]]:
    return [
        (activity.name, sorted(activity.outcomes))
        for activity in process.activities
        if activity.is_guard
    ]


def balanced_plans(process, cases: Sequence[str], rng: random.Random) -> Dict[str, Dict[str, str]]:
    """Guard plans with every outcome equally often per guard, shuffled."""
    plans: Dict[str, Dict[str, str]] = {case: {} for case in cases}
    for guard, domain in guard_domains(process):
        values = [domain[index % len(domain)] for index in range(len(cases))]
        rng.shuffle(values)
        for case, value in zip(cases, values):
            plans[case][guard] = value
    return plans


def cross_checked_states(program, plans, bindings=None, spec=None):
    """``(final states, object counters)`` of one unjournaled serve, equal
    on the mask fast path and on the object-walking reference."""
    outcomes = []
    for fast in (True, False):
        runtime = Runtime(
            program, shards=harness.SHARDS, batch=harness.BATCH, fast=fast, objects=spec
        )
        runtime.submit_batch(plans, bindings=bindings)
        report = runtime.run()
        outcomes.append((report.final_states(), runtime.object_counters()))
    if outcomes[0] != outcomes[1]:
        raise AssertionError("fast path and object-walking reference disagree")
    return outcomes[0]


@dataclass
class Inputs:
    """Generated inputs of one workload; ``fingerprint`` digests them."""

    corpus: List[Tuple[str, Any, Any]]
    plans: Dict[str, Dict[str, str]] = field(default_factory=dict)
    fingerprint: str = ""
    program: Any = None
    monitor: Any = None
    bindings: Dict[str, ObjectBinding] = field(default_factory=dict)
    spec: Any = None
    arrivals: List[float] = field(default_factory=list)
    #: per-program served loads (synthetic-weave): name -> plans
    loads: Dict[str, Dict[str, Dict[str, str]]] = field(default_factory=dict)
    #: weave results of the last repetition, by corpus entry
    results: Dict[str, Any] = field(default_factory=dict)
    #: compiled programs of the last repetition: name -> (program, monitor)
    programs: Dict[str, Tuple[Any, Any]] = field(default_factory=dict)
    #: final-state digests of the first repetition, for the golden check
    state_digests: Dict[str, str] = field(default_factory=dict)


class Workload:
    name = ""
    why = ""
    #: fewest measured repetitions (the run may exceed its seconds for them)
    min_reps = 2
    max_reps: Optional[int] = None
    #: a traced run first runs one untraced repetition as the reference
    #: for the tracing overhead (the open loop splits its traffic instead)
    reference_rep = True

    def params(self, scale: str, seconds: float) -> Dict[str, Any]:
        raise NotImplementedError

    def setup(self, seed: int, params: Dict[str, Any]) -> Inputs:
        raise NotImplementedError

    def rep(self, inputs: Inputs, rec: Recorder, work: harness.Workdir, params) -> None:
        raise NotImplementedError

    def golden_digests(self, inputs: Inputs, params) -> Dict[str, str]:
        """Final-state digests of the inputs, served on the mask fast path
        and cross-checked against the object-walking reference
        (``Runtime(fast=False)``).  Used once, when the golden files are
        written; runs compare against the digests, never the flag."""
        return {
            "final_states_sha256": states_digest(
                cross_checked_states(inputs.program, inputs.plans)[0]
            )
        }

    # -- shared phases -------------------------------------------------------

    def weave_phase(self, inputs: Inputs, rec: Recorder, weaves: int) -> None:
        """Weave the corpus ``weaves`` times and sample the median time of
        one weave; then compile the last weave's programs."""
        # The last repetition's artifacts would otherwise stay alive and
        # slow this one's allocations and collections.
        inputs.results, inputs.programs = {}, {}
        gc.collect()
        weaver = harness.weaver(rec)
        times = []
        with rec.span("phase.weave"):
            for _ in range(weaves):
                started = perf_counter()
                results = {
                    name: weaver.weave(process, cooperation=cooperation)
                    for name, process, cooperation in inputs.corpus
                }
                times.append(perf_counter() - started)
                for result in results.values():
                    harness.count_weave(rec, result)
        rec.sample("weave_s", statistics.median(times))
        rec.sample(
            "minimal_constraints", sum(len(r.minimal) for r in results.values())
        )
        inputs.results = results
        inputs.programs = {
            name: harness.compile_programs(result, rec.tracer, rec)
            for name, result in results.items()
        }

    def finish(self, inputs: Inputs, rec: Recorder, golden: Golden) -> None:
        """Run-level checks: Table 2, golden minimal sets, verification."""
        for name, result in sorted(inputs.results.items()):
            golden.check_minimal(rec, name, result)
            if name == "purchasing":
                rec.check(
                    "Table 2: purchasing minimizes to %d constraints" % PURCHASING_MINIMAL,
                    len(result.minimal) == PURCHASING_MINIMAL,
                    "got %d" % len(result.minimal),
                )
        explore_s = states = 0.0
        for name, (program, _monitor) in sorted(inputs.programs.items()):
            with rec.span("verify.explore", process=name):
                started = perf_counter()
                report = verify_program(program)
                explore_s += perf_counter() - started
            states += report.stats.states
            rec.check(
                "verify_program proves %s deadlock-free" % name,
                report.deadlock_free is True,
                "deadlock_free=%s" % report.deadlock_free,
            )
        if rec.traced:
            rec.layers["verify.explore_s"].append(explore_s)
            rec.layers["verify.states"].append(states)

    def first_rep_states(self, inputs: Inputs, states, counters=None) -> None:
        """Digest the first repetition's final states (and object
        counters) for the golden check."""
        if not inputs.state_digests:
            inputs.state_digests["final_states_sha256"] = states_digest(states)
            if counters is not None:
                inputs.state_digests["object_counters_sha256"] = digest(counters)

    def recover_and_replay(
        self,
        rec: Recorder,
        work: harness.Workdir,
        program,
        monitor,
        journal: str,
        served_states,
        cases: int,
        fraction: float,
        label: str,
        replays: int = 1,
    ) -> Tuple[float, int, float]:
        """Crash-recover from ``fraction`` of ``journal``, then replay it
        ``replays`` times.

        Returns ``(recover seconds, replayed events, median replay seconds)``.
        """
        crashed = work.file("%s.crash.jsonl" % label)
        harness.crash_copy(journal, crashed, fraction)
        gc.collect()
        with rec.span("phase.recover"):
            recovered, recover_s = harness.recover(program, crashed, rec)
        harness.same_states(rec, label, recovered.final_states(), served_states)
        del recovered
        replay_times = []
        for _ in range(replays):
            gc.collect()
            with rec.span("phase.replay"):
                replayed, _, replay_s = harness.replay_journals([journal], monitor, rec)
            harness.replay_outcome(rec, label, replayed, None, cases)
            replay_times.append(replay_s)
        return recover_s, replayed.events, statistics.median(replay_times)


class PurchasingBatch(Workload):
    name = "purchasing-batch"
    why = (
        "paper's Purchasing process, all cases submitted at once: case "
        "evaluation, journal writes (serve) and journal reads (recover, replay)"
    )

    def params(self, scale, seconds):
        return {
            "cases": 6000 if scale == "full" else 300,
            "shards": harness.SHARDS,
            "batch": harness.BATCH,
            "flush_every": harness.FLUSH_EVERY,
            "crash_fraction": 0.5,
            "weaves_per_rep": 50 if scale == "full" else 5,
            "latency_slices": 100,
        }

    def setup(self, seed, params):
        process, cooperation = bundled("purchasing")
        result = DSCWeaver().weave(process, cooperation=cooperation)
        program, monitor = harness.compile_programs(result, UNTRACED)
        rng = random.Random("%s/%d" % (self.name, seed))
        cases = ["case-%06d" % index for index in range(params["cases"])]
        plans = balanced_plans(process, cases, rng)
        return Inputs(
            corpus=[("purchasing", process, cooperation)],
            plans=plans,
            fingerprint=digest(plans),
            program=program,
            monitor=monitor,
        )

    def rep(self, inputs, rec, work, params):
        rec.begin_rep(weaves=params["weaves_per_rep"])
        with rec.span("rep"):
            self.weave_phase(inputs, rec, params["weaves_per_rep"])
            journal = work.file("serve.jsonl")
            cases = len(inputs.plans)
            gc.collect()
            with rec.span("phase.serve"):
                served = harness.serve_sliced(
                    inputs.program, inputs.plans, journal, rec, params["latency_slices"]
                )
            harness.account_serve(rec, "serve", served.report, cases, [journal])
            rec.sample("serve_cases_per_s", cases / served.seconds)
            rec.latencies(served.latencies_ms)
            states = served.report.final_states()
            self.first_rep_states(inputs, states)
            seconds = served.seconds
            del served
            if rec.tracing:
                rec.count(
                    "journal.write_s",
                    seconds
                    - harness.quiet_serve_s(
                        inputs.program, inputs.plans, None, params["latency_slices"]
                    ),
                )
            recover_s, events, replay_s = self.recover_and_replay(
                rec, work, inputs.program, inputs.monitor, journal,
                states, cases, params["crash_fraction"], "purchasing",
            )
            rec.sample("recover_s", recover_s)
            rec.sample("replay_events_per_s", events / replay_s)
            rec.phase(rec.e2e["weave_s"][-1] + seconds + recover_s + replay_s)
        rec.end_rep()


class PurchasingOpen(Workload):
    name = "purchasing-open"
    why = (
        "same program under an open loop of seeded Poisson arrivals at about "
        "40% of capacity: per-call fixed cost on tiny batches"
    )
    max_reps = 1
    reference_rep = False

    def params(self, scale, seconds):
        # Traffic takes 40% of the measuring time; recovering and
        # replaying the journal it wrote takes most of the rest.
        traffic = max(1.0, round(seconds * 0.4, 3))
        return {
            "rate_per_s": 2000.0 if scale == "full" else 500.0,
            "traffic_s": traffic,
            "warmup_s": min(2.0, traffic / 5.0),
            "shards": harness.SHARDS,
            "batch": harness.BATCH,
            "flush_every": harness.FLUSH_EVERY,
            "crash_fraction": 0.5,
            "post_repeats": 3 if scale == "full" else 1,
            # One repetition gives one weave_s sample: a median of 500
            # weaves (0.4 s) rides out a short stall that 50 (40 ms) do not.
            "weaves_per_rep": 500 if scale == "full" else 5,
        }

    def setup(self, seed, params):
        process, cooperation = bundled("purchasing")
        result = DSCWeaver().weave(process, cooperation=cooperation)
        program, monitor = harness.compile_programs(result, UNTRACED)
        rng = random.Random("%s/%d" % (self.name, seed))
        arrivals: List[float] = []
        due = rng.expovariate(params["rate_per_s"])
        while due < params["traffic_s"]:
            arrivals.append(due)
            due += rng.expovariate(params["rate_per_s"])
        guards = guard_domains(process)
        plans = {
            "case-%06d" % index: {guard: rng.choice(domain) for guard, domain in guards}
            for index in range(len(arrivals))
        }
        return Inputs(
            corpus=[("purchasing", process, cooperation)],
            plans=plans,
            fingerprint=digest([arrivals, plans]),
            program=program,
            monitor=monitor,
            arrivals=arrivals,
        )

    def rep(self, inputs, rec, work, params):
        rec.begin_rep(weaves=params["weaves_per_rep"])
        with rec.span("rep"):
            self.weave_phase(inputs, rec, params["weaves_per_rep"])
            journal = work.file("open.jsonl")
            gc.collect()
            report, late_ms, latencies_ms, busy = self.traffic(inputs, rec, journal, params)
            cases = len(inputs.plans)
            harness.account_serve(rec, "open loop", report, cases, [journal])
            measured_cases = busy["cases"][False] + busy["cases"][True]
            measured_busy = busy["seconds"][False] + busy["seconds"][True]
            rec.sample("serve_cases_per_s", measured_cases / measured_busy)
            rec.latencies(latencies_ms)
            rec.diagnostics.update(
                {
                    "openloop.latency_p99_ms": harness.percentile(latencies_ms, 0.99),
                    "openloop.latency_max_ms": max(latencies_ms),
                    "loadgen.late_p99_ms": harness.percentile(late_ms, 0.99),
                    "loadgen.late_max_ms": max(late_ms),
                    "loadgen.offered_per_s": len(latencies_ms)
                    / (params["traffic_s"] - params["warmup_s"]),
                    "loadgen.busy_share": measured_busy
                    / (params["traffic_s"] - params["warmup_s"]),
                    "loadgen.calls": busy["calls"],
                }
            )
            for tracing in (False, True):
                if busy["cases"][tracing]:
                    rec.phase_times[tracing].append(
                        busy["seconds"][tracing] / busy["cases"][tracing]
                    )
            states = report.final_states()
            self.check_against_plans(inputs, rec, states)
            self.first_rep_states(inputs, states)
            del report
            if rec.tracing:
                # The traffic runs once, so the journal's cost is measured
                # on a batch serve of the same plans, with and without it.
                batch = work.file("open.batch.jsonl")
                rec.count(
                    "journal.write_s",
                    harness.quiet_serve_s(inputs.program, inputs.plans, batch, 100)
                    - harness.quiet_serve_s(inputs.program, inputs.plans, None, 100),
                )
            # The traffic runs once, so recovery and replay of its journal
            # are repeated for a median (once when traced: per-layer
            # values are per repetition).
            for _ in range(1 if rec.traced else params["post_repeats"]):
                recover_s, events, replay_s = self.recover_and_replay(
                    rec, work, inputs.program, inputs.monitor, journal,
                    states, cases, params["crash_fraction"], "open loop",
                )
                rec.sample("recover_s", recover_s)
                rec.sample("replay_events_per_s", events / replay_s)
        rec.end_rep()

    def traffic(self, inputs, rec, journal, params):
        """The open loop: sleep until the next case is due, submit every
        case now due, then ``run_until_completed(submitted)``.

        Latency runs from each case's scheduled time to the return of the
        call that completed it.  In a traced run, only cases due in the
        second half of the measured window are traced; the first half is
        the untraced reference for the tracing overhead.
        """
        tracer = rec.tracer
        arrivals = inputs.arrivals
        names = list(inputs.plans)
        plans = inputs.plans
        warmup = params["warmup_s"]
        traced_from = (
            warmup + (params["traffic_s"] - warmup) / 2.0
            if rec.traced
            else float("inf")
        )
        tracer.enabled = False
        runtime = Runtime(
            inputs.program,
            shards=harness.SHARDS,
            batch=harness.BATCH,
            flush_every=harness.FLUSH_EVERY,
            journal_path=journal,
        )
        latencies: List[float] = []
        late: List[float] = []
        busy: Dict[str, Any] = {
            "seconds": {False: 0.0, True: 0.0},
            "cases": {False: 0, True: 0},
            "calls": 0,
        }
        total = len(arrivals)
        index = 0
        origin = perf_counter()
        while index < total:
            due = arrivals[index]
            now = perf_counter() - origin
            if due - now > SPIN_S:
                time.sleep(due - now - SPIN_S)
            # Spin through the last stretch: sleep() wakes up late by the
            # timer slack, which is the generator's error, not the
            # runtime's latency.
            while now < due:
                now = perf_counter() - origin
            if due >= traced_from:
                tracer.enabled = True
            tick = perf_counter()
            stop = index
            while stop < total and arrivals[stop] <= now:
                with tracer.span("coordinator.submit"):
                    runtime.submit(names[stop], plans[names[stop]])
                stop += 1
            with tracer.span("coordinator.run"):
                runtime.run_until_completed(stop)
            end = perf_counter()
            if due >= warmup:
                done_ms = (end - origin) * 1e3
                for position in range(index, stop):
                    latencies.append(done_ms - arrivals[position] * 1e3)
                    late.append((now - arrivals[position]) * 1e3)
                tracing = tracer.enabled
                busy["seconds"][tracing] += end - tick
                busy["cases"][tracing] += stop - index
                busy["calls"] += 1
                if tracing:
                    rec.count("coordinator.cases", stop - index)
                    rec.count("coordinator.rounds", 1)
            index = stop
        tracer.enabled = rec.traced
        with tracer.span("coordinator.report"):
            report = runtime.run()
        runtime.close()
        return report, late, latencies, busy

    def check_against_plans(self, inputs, rec, states) -> None:
        """Cases are independent here, so each final state is a function
        of its guard plan alone: compare against one reference case per
        distinct plan, served on its own."""
        reference: Dict[str, Tuple] = {}
        for case, plan in inputs.plans.items():
            key = digest(plan)
            if key not in reference:
                runtime = Runtime(inputs.program, shards=harness.SHARDS, batch=harness.BATCH)
                runtime.submit(case, plan)
                reference[key] = runtime.run().final_states()[case]
        differing = [
            case
            for case, plan in inputs.plans.items()
            if states.get(case) != reference[digest(plan)]
        ]
        rec.check(
            "open loop: every final state equals its plan's reference",
            not differing,
            "%d of %d differ" % (len(differing), len(inputs.plans)),
        )


def orders_load(orders: int, fan_out: Tuple[int, int], cancel_one_in: int, rng: random.Random):
    """Order plans and bindings with seeded fan-outs and cancellations.

    Fan-outs are uniform over ``fan_out`` (an evenly spread multiset,
    shuffled, so the total case count is the same for every seed) and
    exactly one item in ``cancel_one_in`` fails its quality check.
    """
    low, high = fan_out
    fans = [low + (index * (high - low + 1)) // orders for index in range(orders)]
    rng.shuffle(fans)
    items = [(index, item) for index in range(orders) for item in range(fans[index])]
    cancelled = set(rng.sample(items, len(items) // cancel_one_in))
    plans: Dict[str, Dict[str, str]] = {}
    bindings: Dict[str, ObjectBinding] = {}
    for index in range(orders):
        key = "ord-%04d" % index
        parent = "%s-order" % key
        plans[parent] = {"is_item": "F", "item_ok": "T"}
        bindings[parent] = ObjectBinding(object_key=key, role="order", children=fans[index])
        for item in range(fans[index]):
            child = "%s-item-%03d" % (key, item)
            plans[child] = {"is_item": "T", "item_ok": "F" if (index, item) in cancelled else "T"}
            bindings[child] = ObjectBinding(object_key=key, role="item")
    return plans, bindings


class Orders(Workload):
    name = "orders-2w"
    why = (
        "order/item fan-out with cross-case barriers on 2 worker processes: "
        "the only traffic through repro.objects, fork/IPC and the gate exchange"
    )

    def params(self, scale, seconds):
        return {
            "orders": 500 if scale == "full" else 20,
            "fan_out": [5, 40],
            "cancel_one_in": 7,
            "workers": 2,
            "co_shard": True,
            "flush_every": harness.FLUSH_EVERY,
            "crash_fraction": 0.5,
            "weaves_per_rep": 50 if scale == "full" else 5,
            "latency_slices": 100,
        }

    def setup(self, seed, params):
        process, cooperation = bundled("orders")
        result = DSCWeaver().weave(process, cooperation=cooperation)
        program, monitor = harness.compile_programs(result, UNTRACED)
        rng = random.Random("%s/%d" % (self.name, seed))
        plans, bindings = orders_load(
            params["orders"], tuple(params["fan_out"]), params["cancel_one_in"], rng
        )
        return Inputs(
            corpus=[("orders", process, cooperation)],
            plans=plans,
            fingerprint=digest([plans, {c: b.to_dict() for c, b in bindings.items()}]),
            program=program,
            monitor=monitor,
            bindings=bindings,
            spec=orders_object_spec(),
        )

    def pool(self, inputs, params, journal_dir, **options):
        return WorkerPool(
            inputs.program,
            workers=params["workers"],
            journal_dir=journal_dir,
            objects=inputs.spec,
            co_shard=params["co_shard"],
            flush_every=params["flush_every"],
            **options,
        )

    def rep(self, inputs, rec, work, params):
        rec.begin_rep(weaves=params["weaves_per_rep"])
        with rec.span("rep"):
            self.weave_phase(inputs, rec, params["weaves_per_rep"])
            cases = len(inputs.plans)
            journal_dir = work.file("pool")
            gc.collect()
            with rec.span("phase.serve"), rec.span("workers.pool_serve"):
                started = perf_counter()
                pool = self.pool(inputs, params, journal_dir)
                report = pool.serve(inputs.plans, inputs.bindings)
                serve_s = perf_counter() - started
            segments = harness.segments(journal_dir)
            harness.account_serve(rec, "pool serve", report, cases, segments)
            orders = params["orders"]
            rec.check(
                "pool serve: every order's barrier released",
                report.metrics.barriers_released == orders,
                "released=%d of %d" % (report.metrics.barriers_released, orders),
            )
            rec.sample("serve_cases_per_s", cases / serve_s)
            # The pool returns every case's result when the whole load is
            # done, so each case waits the full serve.
            rec.latencies([serve_s * 1e3] * cases)
            states = report.final_states()
            counters = pool.object_counters()
            self.first_rep_states(inputs, states, counters)
            del report, pool
            crashed = work.file("pool.crash")
            harness.crash_copy_segments(journal_dir, crashed, params["crash_fraction"])
            gc.collect()
            with rec.span("phase.recover"), rec.span("workers.recover"):
                started = perf_counter()
                recovered = WorkerPool.recover(crashed, inputs.program, objects=inputs.spec)
                recover_s = perf_counter() - started
            harness.same_states(rec, "pool recover", recovered.final_states(), states)
            rec.sample("recover_s", recover_s)
            del recovered
            gc.collect()
            with rec.span("phase.replay"):
                replayed, objects_report, replay_s = harness.replay_journals(
                    segments, inputs.monitor, rec, inputs.spec, inputs.bindings
                )
            harness.replay_outcome(rec, "orders", replayed, objects_report, cases)
            rec.check(
                "orders: object-monitor counters equal the pool's",
                objects_report.counters == counters,
            )
            rec.sample("replay_events_per_s", replayed.events / replay_s)
            rec.phase(rec.e2e["weave_s"][-1] + serve_s + recover_s + replay_s)
            if rec.tracing:
                self.ledger(inputs, rec, work, params, journal_dir, states, serve_s, recover_s)
        rec.end_rep()

    def golden_digests(self, inputs, params):
        states, counters = cross_checked_states(
            inputs.program, inputs.plans, inputs.bindings, inputs.spec
        )
        report = self.pool(inputs, params, None).serve(inputs.plans, inputs.bindings)
        if report.final_states() != states:
            raise AssertionError("worker pool and single runtime disagree")
        return {
            "final_states_sha256": states_digest(states),
            "object_counters_sha256": digest(counters),
        }

    def ledger(self, inputs, rec, work, params, journal_dir, states, serve_s, recover_s):
        """Traced-only phases splitting the pool's cost by layer: the pool
        serving without its journal, each worker partition served by an
        in-process ``Runtime``, sequential pool recovery and per-segment
        recovery."""
        workers = params["workers"]
        gc.collect()
        started = perf_counter()
        self.pool(inputs, params, None).serve(inputs.plans, inputs.bindings)
        rec.count("journal.write_s", serve_s - (perf_counter() - started))
        partitions: List[Dict[str, Dict[str, str]]] = [{} for _ in range(workers)]
        for case, plan in inputs.plans.items():
            owner = worker_of(case, inputs.bindings[case], workers, params["co_shard"])
            partitions[owner][case] = plan
        partition_s = []
        for index, plans in enumerate(partitions):
            gc.collect()
            with rec.span("workers.partition_serve", worker=index):
                served = harness.serve_sliced(
                    inputs.program,
                    plans,
                    work.file("partition.%d.jsonl" % index),
                    rec,
                    params["latency_slices"],
                    bindings={case: inputs.bindings[case] for case in plans},
                    objects=inputs.spec,
                )
            partition_s.append(served.seconds)
            same = all(
                states[case] == state for case, state in served.report.final_states().items()
            )
            rec.check("partition %d served in-process matches the pool" % index, same)
        sequential = work.file("pool.crash.sequential")
        harness.crash_copy_segments(journal_dir, sequential, params["crash_fraction"])
        gc.collect()
        with rec.span("workers.recover_sequential"):
            started = perf_counter()
            recovered = WorkerPool.recover(
                sequential, inputs.program, objects=inputs.spec, processes=False
            )
            sequential_s = perf_counter() - started
        harness.same_states(rec, "sequential pool recover", recovered.final_states(), states)
        del recovered
        # With co-sharding each segment holds whole objects, so it
        # recovers on its own in one Runtime: the journal read, rebuild
        # and resume split the pool can only report as one number.
        layered = work.file("pool.crash.layered")
        harness.crash_copy_segments(journal_dir, layered, params["crash_fraction"])
        for index, segment in enumerate(harness.segments(layered)):
            gc.collect()
            report, _seconds = harness.recover(inputs.program, segment, rec, inputs.spec)
            harness.same_states(rec, "segment %d recover" % index, report.final_states(), states)
        cpus = os.cpu_count() or 1
        measurable = cpus >= workers
        sizes = [len(plans) for plans in partitions]
        rec.diagnostics_rep(
            {
                "workers.pool_serve_s": serve_s,
                "workers.partition_serve_s_max": max(partition_s),
                "workers.overhead_s": serve_s - max(partition_s),
                "workers.partition_skew": max(sizes) / (sum(sizes) / workers),
                "workers.recover_parallel_s": recover_s,
                "workers.recover_sequential_s": sequential_s,
            }
        )
        rec.diagnostics["workers.speedups"] = {
            "serve": {
                "value": sum(partition_s) / serve_s,
                "measurable": measurable,
                "needs_cpus": workers,
                "cpu_count": cpus,
            },
            "recover": {
                "value": sequential_s / recover_s,
                "measurable": measurable,
                "needs_cpus": workers,
                "cpu_count": cpus,
            },
        }


#: The synthetic corpus.  Weave cost differs up to 3x between generator
#: seeds (0.37-2.96 s at n=500), far beyond a 10% regression bound, so
#: the generated processes are fixed; the seed draws the served loads.
SYNTHETIC_FULL = [(n, density, 0) for n in (300, 500) for density in (0.5, 1.5)]
SYNTHETIC_SMOKE = [(n, density, 0) for n in (40, 60) for density in (0.5, 1.5)]


def synthetic_name(n: int, density: float, generator_seed: int) -> str:
    return "synthetic-%d-%s-g%d" % (n, density, generator_seed)


class SyntheticWeave(Workload):
    name = "synthetic-weave"
    why = (
        "design-time compile of the bundled and generated processes, where "
        "core.minimize does most of the work, plus serving 300-activity processes"
    )

    def params(self, scale, seconds):
        full = scale == "full"
        return {
            "sets": [list(entry) for entry in (SYNTHETIC_FULL if full else SYNTHETIC_SMOKE)],
            "bundled": list(BUNDLED),
            "served_n": 300 if full else 40,
            "cases_per_program": 100 if full else 20,
            "crash_fraction": 0.5,
            "latency_slices": 100 if full else 20,
            # Replaying the 200 served cases takes under a second and
            # varies most from repetition to repetition: median of three.
            "replays": 3 if full else 1,
        }

    def setup(self, seed, params):
        corpus = [(name,) + tuple(bundled(name)) for name in params["bundled"]]
        served = []
        for n, density, generator_seed in params["sets"]:
            name = synthetic_name(n, density, generator_seed)
            process, cooperation = generate_process(
                SyntheticSpec(n_activities=n, coop_density=density, seed=generator_seed)
            )
            corpus.append((name, process, cooperation))
            if n == params["served_n"]:
                served.append((name, process))
        loads = {}
        for name, process in served:
            rng = random.Random("%s/%d/%s" % (self.name, seed, name))
            cases = ["%s/case-%04d" % (name, index) for index in range(params["cases_per_program"])]
            loads[name] = balanced_plans(process, cases, rng)
        return Inputs(corpus=corpus, loads=loads, fingerprint=digest(loads))

    def rep(self, inputs, rec, work, params):
        rec.begin_rep(weaves=1)
        with rec.span("rep"):
            self.weave_phase(inputs, rec, 1)
            serve_s = recover_s = replay_s = 0.0
            events = 0
            latencies: List[float] = []
            all_states: Dict[str, Tuple] = {}
            for name, plans in sorted(inputs.loads.items()):
                program, monitor = inputs.programs[name]
                journal = work.file("%s.jsonl" % name)
                gc.collect()
                with rec.span("phase.serve"):
                    served = harness.serve_sliced(
                        program, plans, journal, rec, params["latency_slices"]
                    )
                harness.account_serve(
                    rec, "serve %s" % name, served.report, len(plans), [journal]
                )
                serve_s += served.seconds
                latencies.extend(served.latencies_ms)
                states = served.report.final_states()
                all_states.update(states)
                seconds = served.seconds
                del served
                if rec.tracing:
                    rec.count(
                        "journal.write_s",
                        seconds
                        - harness.quiet_serve_s(program, plans, None, params["latency_slices"]),
                    )
                recovered_s, replayed, replayed_s = self.recover_and_replay(
                    rec, work, program, monitor, journal, states,
                    len(plans), params["crash_fraction"], name,
                    replays=1 if rec.traced else params["replays"],
                )
                recover_s += recovered_s
                events += replayed
                replay_s += replayed_s
            cases = sum(len(plans) for plans in inputs.loads.values())
            rec.sample("serve_cases_per_s", cases / serve_s)
            rec.latencies(latencies)
            rec.sample("recover_s", recover_s)
            rec.sample("replay_events_per_s", events / replay_s)
            self.first_rep_states(inputs, all_states)
            rec.phase(rec.e2e["weave_s"][-1] + serve_s + recover_s + replay_s)
        rec.end_rep()

    def golden_digests(self, inputs, params):
        corpus = {name: (process, cooperation) for name, process, cooperation in inputs.corpus}
        states: Dict[str, Tuple] = {}
        for name, plans in sorted(inputs.loads.items()):
            process, cooperation = corpus[name]
            result = DSCWeaver().weave(process, cooperation=cooperation)
            program, _monitor = harness.compile_programs(result, UNTRACED)
            states.update(cross_checked_states(program, plans)[0])
        return {"final_states_sha256": states_digest(states)}


WORKLOADS = {
    workload.name: workload
    for workload in (PurchasingBatch(), PurchasingOpen(), Orders(), SyntheticWeave())
}
