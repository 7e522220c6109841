"""The three workloads: inputs, solves, correctness gates and metrics.

A workload is a fixed list of solves (a "pass").  The run repeats passes in
a closed loop, one client in one process: each solve starts when the last
one returned.  Every produced schedule goes through the gates below; a
breach counts as a failed operation and never stops the run.

- rl-bundled: fixed cells on the bundled instances with pinned learner
  seeds, because each cell's best makespan is a golden value.  The workload
  seed only orders the solves of each pass.
- oracle-tiny: a fixed pool of criterion-1-shaped instances whose optima
  are golden values.  The workload seed only orders the solves.
- baselines-large: four Brandimarte-range instances (two 20x8, two 30x10)
  generated from the workload seed, which also seeds the GA and orders the
  solves.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from time import perf_counter

from perfbench import generators

GOLDENS = Path(__file__).with_name("goldens.json")

# Reference makespans of the bundled instances (see flexshop.data).
OPTIMA = {"ft06": 55, "flex06": 47, "la05": 572}

# (label, registry name, instance, episodes per fit or stage, target
# makespan).  Each target is within about 4% of the optimum and is first
# reached 35-60% of the way through the cell's episodes.
RL_CELLS = [
    ("rl ft06", "rl", "ft06", 500, 56),
    ("rl flex06", "rl", "flex06", 500, 49),
    ("rl la05", "rl", "la05", 400, 582),
    ("rl-divided la05", "rl-divided", "la05", 200, 582),
]
RL_PARAMS = dict(seed=0, epsilon_decay=0.99, epsilon_min=0.01, test_interval=50)

ORACLE_PER_JOB_COUNT = 50  # 50 instances with 3 jobs and 50 with 4

# (jobs, machines) of the generated large instances, two of each size.
LARGE_SIZES = [(20, 8), (30, 10)]
LARGE_PER_SIZE = 2
GA_PARAMS = dict(population=30, generations=40)

WORKLOADS = ("rl-bundled", "oracle-tiny", "baselines-large")


@dataclass
class Job:
    label: str
    kind: str  # rl | oracle | fifo | mwkr | ga
    instance: object
    solver: object
    reference: int | None = None  # makespan the gap is measured against
    golden: int | None = None
    target: int | None = None  # rl: makespan that counts as reaching target
    lower_bound: int = 0


@dataclass
class Record:
    label: str
    kind: str
    instance: str
    seconds: float = 0.0
    makespans: list[int] = field(default_factory=list)  # produced schedules
    gaps: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    episodes: int = 0  # rl: training plus greedy-test episodes
    generations: int = 0  # ga
    time_to_target: float = 0.0
    qtable_entries: int = 0


# -- set-up ---------------------------------------------------------------


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}


def build(workload: str, seed: int, smoke: bool, goldens: dict) -> list[Job]:
    """Instances and constructed solvers for one pass; imports flexshop."""
    import flexshop
    import flexshop.instance

    gold = goldens.get(workload, {})
    jobs: list[Job] = []
    if workload == "rl-bundled":
        for label, name, inst_name, episodes, target in RL_CELLS:
            params = dict(RL_PARAMS, episodes=episodes)
            if smoke:
                params.update(episodes=20, test_interval=10)
                # Any schedule reaches a target this loose, so the
                # time-to-target path runs; the golden is not checked.
                target = 10 * OPTIMA[inst_name]
            jobs.append(Job(label, "rl", flexshop.data.load_bundled(inst_name),
                            flexshop.make_solver(name, **params),
                            reference=OPTIMA[inst_name],
                            golden=None if smoke else gold.get(label, -1),
                            target=target))
        return jobs
    if workload == "oracle-tiny":
        pool = generators.tiny_pool(2 if smoke else ORACLE_PER_JOB_COUNT)
        for name, text in pool:
            inst = flexshop.instance.parse_instance(text, name=name)
            golden = gold.get(name, -1)
            jobs.append(Job(name, "oracle", inst, flexshop.make_solver("oracle"),
                            reference=golden if golden > 0 else None,
                            golden=golden))
        return jobs
    if workload == "baselines-large":
        sizes = [(6, 4), (8, 5)] if smoke else LARGE_SIZES
        ga = dict(GA_PARAMS, generations=3) if smoke else dict(GA_PARAMS)
        # stagnation >= generations, so every GA runs all its generations.
        ga.update(stagnation=ga["generations"], seed=seed)
        rng = Random(seed)
        for (n_jobs, machines), copy in itertools.product(
                sizes, range(1 if smoke else LARGE_PER_SIZE)):
            name = f"large{n_jobs}x{machines}-{copy}"
            text = generators.large_text(rng.randrange(2**31), n_jobs, machines)
            inst = flexshop.instance.parse_instance(text, name=name)
            for kind, params in (("fifo", {}), ("mwkr", {}), ("ga", ga)):
                jobs.append(Job(f"{kind} {name}", kind, inst,
                                flexshop.make_solver(kind, **params)))
        return jobs
    raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")


def lower_bound(inst) -> int:
    """Max of the longest job chain, the average machine load and the load
    of operations that have a single capable machine, all at minimum
    durations."""
    chain = 0
    total = 0
    fixed = [0] * inst.machine_count
    for job in inst.jobs:
        length = 0
        for op in job.operations:
            shortest = min(op.alternatives.values())
            length += shortest
            total += shortest
            if len(op.alternatives) == 1:
                fixed[next(iter(op.alternatives))] += shortest
        chain = max(chain, length)
    return max(chain, math.ceil(total / inst.machine_count), max(fixed))


# -- one pass -------------------------------------------------------------


def _first_reach(report, target: int) -> float | None:
    """Seconds into `report`'s run at which an episode or greedy test first
    reached `target`."""
    times = [t for ms, t in zip(report.episode_makespans, report.episode_times)
             if ms <= target]
    times += [t for (_, ms), t in zip(report.test_makespans, report.test_times)
              if ms <= target]
    return min(times, default=None)


def _check(job: Job, rec: Record, fs):
    """Gates and per-solve figures for a fitted job; appends to rec.errors."""
    sched = job.solver.best_schedule_
    schedules = [sched]
    if job.kind == "rl":
        reports = getattr(job.solver, "stage_reports_", None) or [job.solver.report_]
        rec.episodes = sum(len(r.episode_makespans) + len(r.test_makespans)
                           for r in reports)
        rec.qtable_entries = sum(len(r.q) for r in reports)
        reach = _first_reach(reports[-1], job.target)
        if reach is None:
            rec.errors.append(f"target {job.target} not reached")
        else:
            # Earlier division stages all run before the final one starts.
            rec.time_to_target = sum(r.wall_time for r in reports[:-1]) + reach
    elif job.kind == "oracle":
        # The oracle seeds its incumbent with mwkr, so the mwkr gate holds
        # by construction; fifo is an independent upper bound.
        for rule in (fs.baselines.mwkr, fs.baselines.fifo):
            heuristic = rule(job.instance)
            schedules.append(heuristic)
            if sched.makespan > heuristic.makespan:
                rec.errors.append(f"optimum {sched.makespan} > "
                                  f"{rule.__name__} {heuristic.makespan}")
    else:
        rec.generations = getattr(job.solver, "generations", 0)
        text = fs.schedule.write_schedule(sched)
        back = fs.schedule.parse_schedule(text)
        if (set(back.entries) != set(sched.entries)
                or len(back.entries) != len(sched.entries)
                or back.makespan != sched.makespan):
            rec.errors.append("written schedule does not read back equal")
    if job.golden is not None and sched.makespan != job.golden:
        rec.errors.append(f"makespan {sched.makespan} != golden {job.golden}")
    for s in schedules:
        violations = fs.schedule.validate_schedule(job.instance, s)
        if violations:
            rec.errors.append(f"invalid schedule: {violations[:3]}")
        if s.makespan < job.lower_bound:
            rec.errors.append(f"makespan {s.makespan} < lower bound {job.lower_bound}")
        rec.makespans.append(s.makespan)
        reference = job.reference or job.lower_bound
        rec.gaps.append(100.0 * (s.makespan - reference) / reference)


def run_pass(jobs: list[Job], fs, recorder=None) -> tuple[float, list[Record]]:
    """Solve every job once, in order; returns (pass seconds, records)."""
    records = []
    start = perf_counter()
    for index, job in enumerate(jobs):
        if recorder is not None:
            recorder.solve_id = index
        rec = Record(job.label, job.kind, job.instance.name)
        t0 = perf_counter()
        try:
            job.solver.fit(job.instance)
            rec.seconds = perf_counter() - t0
            _check(job, rec, fs)
        except Exception as exc:  # a failed solve is counted, not fatal
            rec.seconds = perf_counter() - t0
            rec.errors.append(f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        records.append(rec)
    return perf_counter() - start, records


# -- metrics --------------------------------------------------------------


def _instance_latencies(passes: list[list[Record]]) -> list[float]:
    """Per instance, the seconds a pass spends solving it (with every solver
    the workload runs on it), as the mean over passes.  Grouping by
    instance keeps fast and slow solvers of one instance from interleaving
    in the percentiles.  The mean, not the median: on a shared host the
    CPU's speed can shift by up to 1.7x from one solve to the next (seen on
    a 2-vCPU cloud VM), so a median over a few passes jumps between the
    fast and the slow time, while a mean moves in step with the share of
    time the host ran slow, as wall_s does."""
    per_pass = []
    for p in passes:
        seconds: dict[str, float] = {}
        for r in p:
            seconds[r.instance] = seconds.get(r.instance, 0.0) + r.seconds
        per_pass.append(seconds)
    return [statistics.fmean(s[name] for s in per_pass) for name in per_pass[0]]


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 10..90, step 10), interpolated between the
    two nearest values and never beyond the largest."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def end_to_end(walls: list[float], passes: list[list[Record]],
               setup_s: float, peak_rss_mb: float) -> dict:
    latencies = _instance_latencies(passes)
    gaps = [g for r in passes[0] for g in r.gaps]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "solve_s_p50": (_quantile(latencies, 50), "s"),
        "solve_s_p80": (_quantile(latencies, 80), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "makespan_gap_pct": (statistics.fmean(gaps) if gaps else 0.0, "%"),
    }


def workload_specific(workload: str, passes: list[list[Record]]) -> dict:
    """The workload's own end-to-end figures, printed for people; each is a
    median over passes."""
    def per_pass(fn):
        return statistics.median(fn(p) for p in passes)

    def rate(records, count):
        seconds = sum(r.seconds for r in records)
        return count(records) / seconds if seconds > 0 else 0.0

    out = {}
    n = len(passes[0])
    if workload == "rl-bundled":
        out["episodes_per_s"] = (per_pass(
            lambda p: rate(p, lambda rs: sum(r.episodes for r in rs))), "1/s")
        out["time_to_target_s"] = (per_pass(
            lambda p: sum(r.time_to_target for r in p)), "s")
    elif workload == "oracle-tiny":
        latencies = _instance_latencies(passes)
        out[f"oracle_solve_s_p50 (n={n})"] = (_quantile(latencies, 50), "s")
        out[f"oracle_solve_s_p80 (n={n})"] = (_quantile(latencies, 80), "s")
    elif workload == "baselines-large":
        out["ga_generations_per_s"] = (per_pass(lambda p: rate(
            [r for r in p if r.kind == "ga"],
            lambda rs: sum(r.generations for r in rs))), "1/s")
        out["dispatch_schedules_per_s"] = (per_pass(lambda p: rate(
            [r for r in p if r.kind in ("fifo", "mwkr")], len)), "1/s")
    return out


# (name, unit) of every per-layer metric, in report order.  Counts are of
# work done, so fewer is better, except the useful-to-enumerated ratio.
PER_LAYER = [
    ("instance.parse_s", "s"),
    ("environment.legal_allocations.calls", "count"),
    ("environment.legal_allocations.self_s", "s"),
    ("environment.legal_actions.mean", "count"),
    ("environment.legal_actions.max", "count"),
    ("environment.legal_actions.sum", "count"),
    ("environment.actions_taken_per_enumerated", "ratio"),
    ("environment.step.calls", "count"),
    ("environment.step.self_s", "s"),
    ("environment.reset.calls", "count"),
    ("environment.reset.self_s", "s"),
    ("environment.step_allocation.calls", "count"),
    ("environment.step_allocation.self_s", "s"),
    ("environment.clone.calls", "count"),
    ("environment.clone.self_s", "s"),
    ("qlearning.select_action.calls", "count"),
    ("qlearning.select_action.self_s", "s"),
    ("qlearning.update.calls", "count"),
    ("qlearning.update.self_s", "s"),
    ("qlearning.greedy_test_s", "s"),
    ("qlearning.qtable_entries", "count"),
    ("prepopulate.backward_pass.calls", "count"),
    ("prepopulate.backward_pass.self_s", "s"),
    ("prepopulate.pairs_visited", "count"),
    ("division.get_best_policy.calls", "count"),
    ("division.get_best_policy.self_s", "s"),
    ("division.stages", "count"),
    ("division.fallbacks", "count"),
    ("baselines.exhaustive_oracle.self_s", "s"),
    ("baselines.oracle_nodes", "count"),
    ("baselines.oracle_leaves", "count"),
    ("baselines.genetic.self_s", "s"),
    ("baselines.ga_decodes", "count"),
    ("baselines.fifo.self_s", "s"),
    ("baselines.mwkr.self_s", "s"),
    ("schedule.validate_schedule.calls", "count"),
    ("schedule.validate_schedule.self_s", "s"),
    ("schedule.write_schedule.self_s", "s"),
    ("solvers.fit.calls", "count"),
    ("solvers.fit.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
]


def per_layer(tracer, records: list[Record], overhead_s: float) -> dict:
    """Per-layer metrics of one traced set-up and pass."""
    totals = tracer.rec.totals()

    def calls(span):
        return totals.get(span, (0, 0.0))[0]

    def self_s(span):
        return totals.get(span, (0, 0.0))[1]

    legal = tracer.legal_counts
    enumerated = sum(legal)
    rec = tracer.rec
    values = {
        "instance.parse_s": self_s("instance.parse"),
        "environment.legal_actions.mean": statistics.fmean(legal) if legal else 0.0,
        "environment.legal_actions.max": max(legal, default=0),
        "environment.legal_actions.sum": enumerated,
        "environment.actions_taken_per_enumerated":
            calls("environment.step") / enumerated if enumerated else 0.0,
        "qlearning.greedy_test_s": tracer.greedy_test_seconds(),
        "qlearning.qtable_entries": sum(r.qtable_entries for r in records),
        "prepopulate.pairs_visited": tracer.pairs_visited,
        "division.stages": calls("division.get_best_policy"),
        "division.fallbacks": tracer.fallbacks.count,
        "baselines.oracle_nodes": rec.count_under(
            "environment.clone", "baselines.exhaustive_oracle")
            + calls("baselines.exhaustive_oracle"),
        "baselines.oracle_leaves": rec.count_under(
            "environment.extract_schedule", "baselines.exhaustive_oracle"),
        "baselines.ga_decodes": rec.count_under(
            "schedule.from_entries", "baselines.genetic"),
        "trace.spans": len(rec),
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for name, unit in PER_LAYER:
        if name not in values:
            span, _, stat = name.rpartition(".")
            values[name] = calls(span) if stat == "calls" else self_s(span)
        out[name] = (values[name], unit)
    return out
