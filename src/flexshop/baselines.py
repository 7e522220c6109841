"""Reference solvers: random sampling, FIFO, MWKR, genetic algorithm, and an
exhaustive branch-and-bound oracle for desk-scale optimality checks."""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .environment import IDLE, SchedulingEnv, WAIT
from .instance import Instance, OperationSpec
from .schedule import Schedule, ScheduleEntry


@dataclass
class BaselineConfig:
    episodes: int = 1000          # random sampling
    seed: int = 0
    population: int = 50          # genetic algorithm
    generations: int = 200
    crossover_rate: float = 0.8
    mutation_rate: float = 0.2
    stagnation: int = 40
    node_budget: int = 2_000_000  # oracle
    duration_mode: str = "mean"   # mwkr: mean | min | max

    def __post_init__(self):
        if min(self.episodes, self.population, self.generations,
               self.stagnation, self.node_budget) < 1:
            raise ValueError("counts must be positive")
        for rate in (self.crossover_rate, self.mutation_rate):
            if not 0 <= rate <= 1:
                raise ValueError("rates must be in [0, 1]")
        if self.duration_mode not in ("mean", "min", "max"):
            raise ValueError(f"unknown duration_mode {self.duration_mode!r}")


class NodeBudgetExceeded(RuntimeError):
    pass


# -- random sampling ------------------------------------------------------


def random_sampling(inst: Instance, cfg: BaselineConfig) -> Schedule:
    """Uniform legal-action episodes; keep the minimum-makespan schedule."""
    rng = Random(cfg.seed)
    env = SchedulingEnv(inst)
    best: Schedule | None = None
    for _ in range(cfg.episodes):
        env.reset()
        while not env.done:
            env.step(rng.randrange(len(env.legal_allocations())))
        sched = env.extract_schedule()
        if best is None or sched.makespan < best.makespan:
            best = sched
    assert best is not None
    return best


# -- dispatching rules ----------------------------------------------------


def _dispatch(inst: Instance, priority) -> Schedule:
    """Greedy rule runner: at each valid state assign jobs in priority order
    (descending), each to its fastest free capable machine; ties go to the
    lower job id and lower machine id.

    `priority(env, job) -> sortable` where larger means assign first.
    """
    env = SchedulingEnv(inst)
    while not env.done:
        options = env._assignable()
        candidates = [j for j in range(inst.job_count) if options[j]]
        candidates.sort(key=lambda j: (tuple(-p for p in priority(env, j)), j))
        allocation = [WAIT] * inst.job_count
        taken: set[int] = set()
        for j in candidates:
            free = [m for m in options[j] if m not in taken]
            if not free:
                continue
            op = inst.jobs[j].operations[env.job_op[j]]
            fastest = min(free, key=lambda m: (op.alternatives[m], m))
            allocation[j] = fastest
            taken.add(fastest)
        env.step_allocation(tuple(allocation))
    return env.extract_schedule()


def fifo(inst: Instance) -> Schedule:
    """Longest-waiting job first; waiting time counts from clock 0 or from
    the end of the job's last completed operation."""

    def ready_time(env: SchedulingEnv, job: int) -> int:
        ends = [e.end for e in env.entries if e.job == job]
        return max(ends) if ends else 0

    return _dispatch(inst, lambda env, j: (env.clock - ready_time(env, j),))


def mwkr(inst: Instance, duration_mode: str = "mean") -> Schedule:
    """Most work remaining first: sum of durations of the operations still
    to run, current operation included."""

    durations = {"mean": OperationSpec.mean_duration,
                 "min": OperationSpec.min_duration,
                 "max": OperationSpec.max_duration}
    if duration_mode not in durations:
        raise ValueError(f"unknown duration_mode {duration_mode!r}")
    duration = durations[duration_mode]

    def remaining_work(env: SchedulingEnv, job: int):
        ops = inst.jobs[job].operations[env.job_op[job]:]
        return (sum(duration(op) for op in ops),)

    return _dispatch(inst, remaining_work)


# -- genetic algorithm ----------------------------------------------------


def _decode(inst: Instance, chromosome: list[int]) -> Schedule:
    """Operation-based decoding: genes are job ids; each occurrence schedules
    the job's next operation on the machine with the earliest completion."""
    next_op = [0] * inst.job_count
    job_ready = [0] * inst.job_count
    machine_free = [0] * inst.machine_count
    entries = []
    for j in chromosome:
        op = inst.jobs[j].operations[next_op[j]]
        best_m, best_start, best_end = None, 0, None
        for m in op.machines():
            start = max(job_ready[j], machine_free[m])
            end = start + op.alternatives[m]
            if best_end is None or (end, op.alternatives[m], m) < \
                    (best_end, op.alternatives[best_m], best_m):
                best_m, best_start, best_end = m, start, end
        entries.append(ScheduleEntry(j, next_op[j], best_m, best_start, best_end))
        next_op[j] += 1
        job_ready[j] = best_end
        machine_free[best_m] = best_end
    return Schedule.from_entries(entries)


def _crossover(p1: list[int], p2: list[int], jobs: set[int],
               rng: Random) -> list[int]:
    """Precedence-preserving job-subset crossover (POX)."""
    keep = {j for j in jobs if rng.random() < 0.5}
    filler = iter([g for g in p2 if g not in keep])
    return [g if g in keep else next(filler) for g in p1]


def _mutate(chromosome: list[int], rng: Random):
    i, j = rng.randrange(len(chromosome)), rng.randrange(len(chromosome))
    chromosome[i], chromosome[j] = chromosome[j], chromosome[i]


def genetic(inst: Instance, cfg: BaselineConfig) -> Schedule:
    """Minimal elitist GA over operation-based chromosomes."""
    rng = Random(cfg.seed)
    base = [j for j, job in enumerate(inst.jobs) for _ in range(len(job))]
    jobs = set(base)

    def fresh() -> list[int]:
        c = list(base)
        rng.shuffle(c)
        return c

    population = [fresh() for _ in range(cfg.population)]
    scored = sorted(((chrom, _decode(inst, chrom)) for chrom in population),
                    key=lambda cs: cs[1].makespan)
    best = scored[0][1]
    stale = 0
    for _ in range(cfg.generations):
        children = []
        for _ in range(cfg.population):
            a = scored[rng.randrange(len(scored))][0]
            if rng.random() < cfg.crossover_rate:
                b = scored[rng.randrange(len(scored))][0]
                child = _crossover(a, b, jobs, rng)
            else:
                child = list(a)
            if rng.random() < cfg.mutation_rate:
                _mutate(child, rng)
            children.append(child)
        pool = scored + [(c, _decode(inst, c)) for c in children]
        pool.sort(key=lambda cs: cs[1].makespan)
        scored = pool[:cfg.population]
        if scored[0][1].makespan < best.makespan:
            best = scored[0][1]
            stale = 0
        else:
            stale += 1
            if stale >= cfg.stagnation:
                break
    return best


# -- exhaustive oracle ----------------------------------------------------


def exhaustive_oracle(inst: Instance, cfg: BaselineConfig | None = None
                      ) -> Schedule:
    """Provably optimal schedule by depth-first search over the environment's
    legal-allocation sequences, with branch-and-bound pruning.

    Raises :class:`NodeBudgetExceeded` when the search tree outgrows
    cfg.node_budget nodes; intended for tiny instances only.
    """
    cfg = cfg or BaselineConfig()
    # A dispatching-rule schedule seeds the incumbent upper bound.
    best = mwkr(inst)
    nodes = 0

    def lower_bound(env: SchedulingEnv) -> int:
        bound = env.clock
        for j, job in enumerate(inst.jobs):
            t, start = env.clock, env.job_op[j]
            if env.job_machine[j] != IDLE:
                t += env.machine_remaining[env.job_machine[j]]
                start += 1
            for op in job.operations[start:]:
                t += op.min_duration()
            bound = max(bound, t)
        return bound

    def search(env: SchedulingEnv):
        nonlocal best, nodes
        nodes += 1
        if nodes > cfg.node_budget:
            raise NodeBudgetExceeded(
                f"oracle exceeded {cfg.node_budget} nodes on {inst.name}"
            )
        if env.done:
            sched = env.extract_schedule()
            if sched.makespan < best.makespan:
                best = sched
            return
        if lower_bound(env) >= best.makespan:
            return
        for action in range(len(env.legal_allocations())):
            child = env.clone()
            child.step(action)
            search(child)

    search(SchedulingEnv(inst))
    return best
