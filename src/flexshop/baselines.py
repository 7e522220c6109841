"""Reference solvers: random sampling, FIFO, MWKR, genetic algorithm, and an
exhaustive branch-and-bound oracle for desk-scale optimality checks."""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from random import Random

from .environment import IDLE, WAIT, Allocation, SchedulingEnv
from .instance import DURATION_MODES, DurationMode, Instance
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
    duration_mode: DurationMode = DurationMode.MEAN  # mwkr

    def __post_init__(self):
        for name in ("episodes", "population", "generations", "stagnation",
                     "node_budget"):
            if type(value := getattr(self, name)) is not int or value < 1:
                raise ValueError(f"{name} must be a positive int, got {value!r}")
        for name in ("crossover_rate", "mutation_rate"):
            value = getattr(self, name)
            if type(value) not in (int, float) or not 0 <= value <= 1:
                raise ValueError(f"{name} must be a number in [0, 1], "
                                 f"got {value!r}")
        if type(self.seed) is not int:
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        self.duration_mode = DurationMode(self.duration_mode)


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
            legal = env.legal_allocations()
            env._apply(legal[rng.randrange(len(legal))])
        # At a terminal state the clock is the makespan, so a schedule is
        # built only for an improving episode.
        if best is None or env.clock < best.makespan:
            best = env.extract_schedule()
    assert best is not None
    return best


# -- dispatching rules ----------------------------------------------------


def _dispatch(inst: Instance, priority) -> Schedule:
    """Greedy rule runner: at each valid state assign jobs in priority order
    (descending), each to its fastest free capable machine; ties go to the
    lower job id and lower machine id.

    `priority(env, job, ready) -> sortable` where larger means assign first
    and `ready` is the time the job's current operation became available:
    0, or the end of its last assigned operation.
    """
    env = SchedulingEnv(inst)
    ready = [0] * inst.job_count
    while not env.done:
        masks = env._option_masks()
        candidates = [j for j in range(inst.job_count) if masks[j]]
        candidates.sort(key=lambda j: (-priority(env, j, ready[j]), j))
        allocation = [WAIT] * inst.job_count
        taken = 0  # bit m set once machine m is allocated
        for j in candidates:
            free = masks[j] & ~taken
            if not free:
                continue
            op = inst.jobs[j].operations[env.job_op[j]]
            duration, fastest = min((d, m) for m, d in op.alternatives.items()
                                    if free >> m & 1)
            allocation[j] = fastest
            taken |= 1 << fastest
            ready[j] = env.clock + duration
        env.step_allocation(tuple(allocation))
    return env.extract_schedule()


def fifo(inst: Instance) -> Schedule:
    """Longest-waiting job first; waiting time counts from clock 0 or from
    the end of the job's last completed operation."""
    return _dispatch(inst, lambda env, j, ready: env.clock - ready)


def _remaining_work(inst: Instance, duration) -> list[list]:
    """remaining[j][o]: exact sum of `duration(op)` over job j's operations
    from o on (Fractions for the mean); a finished job's entry is 0."""
    remaining = []
    for job in inst.jobs:
        suffix = [0]
        for op in reversed(job.operations):
            suffix.append(suffix[-1] + duration(op))
        remaining.append(suffix[::-1])
    return remaining


def mwkr(inst: Instance,
         duration_mode: str = BaselineConfig.duration_mode) -> Schedule:
    """Most work remaining first: sum of durations of the operations still
    to run, current operation included."""
    remaining = _remaining_work(inst, DURATION_MODES[DurationMode(duration_mode)])
    # Scaled by the lcm of the denominators, the mean's Fractions become
    # ints in the same exact order, and ints compare faster.
    scale = math.lcm(*(w.denominator for row in remaining for w in row))
    remaining = [[w.numerator * (scale // w.denominator) for w in row]
                 for row in remaining]
    return _dispatch(inst, lambda env, j, ready: remaining[j][env.job_op[j]])


# -- genetic algorithm ----------------------------------------------------


def _alternatives(inst: Instance) -> list[list[list[tuple[int, int]]]]:
    """Per (job, op): its (machine, duration) pairs, shortest first (ties:
    lower machine id)."""
    return [[sorted(op.alternatives.items(), key=lambda md: (md[1], md[0]))
             for op in job.operations]
            for job in inst.jobs]


def _decode(table: list[list[list[tuple[int, int]]]], machine_count: int,
            chromosome: list[int], entries: list | None = None) -> int:
    """Operation-based decoding: genes are job ids; each occurrence schedules
    the job's next operation on the machine with the earliest completion
    (ties: shorter duration, then lower machine id).  Returns the makespan;
    appends each placement to `entries` when it is given."""
    next_op = [0] * len(table)
    job_ready = [0] * len(table)
    machine_free = [0] * machine_count
    for j in chromosome:
        o = next_op[j]
        ready = job_ready[j]
        best_end = -1
        # Alternatives ascend by (duration, machine), so the first of equal
        # ends wins the tie-break, and once a machine is free by `ready`
        # no later alternative ends sooner.
        for m, d in table[j][o]:
            free = machine_free[m]
            if free > ready:
                end = free + d
                if best_end < 0 or end < best_end:
                    best_m, best_end, best_d = m, end, d
            else:
                end = ready + d
                if best_end < 0 or end < best_end:
                    best_m, best_end, best_d = m, end, d
                break
        if entries is not None:
            entries.append(ScheduleEntry(j, o, best_m, best_end - best_d, best_end))
        next_op[j] = o + 1
        job_ready[j] = best_end
        machine_free[best_m] = best_end
    return max(job_ready)


def _crossover(p1: list[int], p2: list[int], job_count: int,
               rng: Random) -> list[int]:
    """Precedence-preserving job-subset crossover (POX)."""
    keep = [rng.random() < 0.5 for _ in range(job_count)]
    filler = iter([g for g in p2 if not keep[g]])
    return [g if keep[g] else next(filler) for g in p1]


def _mutate(chromosome: list[int], rng: Random):
    i, j = rng.randrange(len(chromosome)), rng.randrange(len(chromosome))
    chromosome[i], chromosome[j] = chromosome[j], chromosome[i]


def genetic(inst: Instance, cfg: BaselineConfig) -> Schedule:
    """Minimal elitist GA over operation-based chromosomes."""
    rng = Random(cfg.seed)
    table = _alternatives(inst)
    base = [j for j, job in enumerate(inst.jobs) for _ in range(len(job))]

    def fresh() -> list[int]:
        c = list(base)
        rng.shuffle(c)
        return c

    population = [fresh() for _ in range(cfg.population)]
    scored = sorted(((c, _decode(table, inst.machine_count, c))
                     for c in population),
                    key=lambda cs: cs[1])
    best, best_makespan = scored[0]
    stale = 0
    for _ in range(cfg.generations):
        pool = list(scored)
        for _ in range(cfg.population):
            a, a_makespan = scored[rng.randrange(len(scored))]
            if rng.random() < cfg.crossover_rate:
                b = scored[rng.randrange(len(scored))][0]
                child = _crossover(a, b, inst.job_count, rng)
            else:
                child = list(a)
            if rng.random() < cfg.mutation_rate:
                _mutate(child, rng)
            # A copy of its first parent keeps the parent's makespan.
            pool.append((child, a_makespan if child == a else
                         _decode(table, inst.machine_count, child)))
        pool.sort(key=lambda cs: cs[1])
        scored = pool[:cfg.population]
        if scored[0][1] < best_makespan:
            best, best_makespan = scored[0]
            stale = 0
        else:
            stale += 1
            if stale >= cfg.stagnation:
                break
    entries: list[ScheduleEntry] = []
    _decode(table, inst.machine_count, best, entries)
    return Schedule.from_entries(entries)


# -- exhaustive oracle ----------------------------------------------------


def _pinned_work(inst: Instance) -> list[list[tuple[int, ...]]]:
    """pinned[j][o][m]: the summed durations of job j's operations from o
    on that only machine m can run; a finished job's entry is all 0."""
    pinned = []
    for job in inst.jobs:
        suffix = [(0,) * inst.machine_count]
        for op in reversed(job.operations):
            load = list(suffix[-1])
            if len(op.alternatives) == 1:
                (m, duration), = op.alternatives.items()
                load[m] += duration
            suffix.append(tuple(load))
        pinned.append(suffix[::-1])
    return pinned


def lower_bound(env: SchedulingEnv, min_remaining: list[list[int]],
                pinned: list[list[tuple[int, ...]]]) -> int:
    """The clock plus the largest of three admissible bounds on the time
    still needed:

    - job chain: over jobs, the running operation's remaining time plus
      the minimum durations of the operations still to start;
    - heaviest machine: over machines, its remaining time plus the
      operations still to start that only it can run (a flexible
      operation is charged to no machine);
    - average load: all machines' remaining time plus the minimum
      durations of all operations still to start, spread evenly over the
      machines and rounded up.
    """
    remaining = env.machine_remaining
    chain = 0
    total = sum(remaining)
    loads = [remaining]
    for rest, pins, o, m in zip(min_remaining, pinned, env.job_op,
                                env.job_machine):
        if m == IDLE:
            work = rest[o]
        else:
            o += 1
            work = remaining[m] + rest[o]
        if work > chain:
            chain = work
        total += rest[o]
        loads.append(pins[o])
    heaviest = max(map(sum, zip(*loads)))
    return env.clock + max(chain, heaviest, -(-total // len(remaining)))


def exhaustive_oracle(inst: Instance, cfg: BaselineConfig | None = None
                      ) -> Schedule:
    """Provably optimal schedule by depth-first search over the environment's
    legal-allocation sequences, with branch-and-bound pruning by
    `lower_bound`.  Among optimal schedules it returns the first leaf in
    search order, or the mwkr incumbent when no leaf beats it.  The search
    keeps its own stack, so episode length is not bounded by recursion.

    Raises :class:`NodeBudgetExceeded` when the search tree outgrows
    cfg.node_budget nodes; intended for tiny instances only.
    """
    cfg = cfg or BaselineConfig()
    min_remaining = _remaining_work(inst, DURATION_MODES[DurationMode.MIN])
    pinned = _pinned_work(inst)
    # A dispatching-rule schedule seeds the incumbent upper bound.
    best = mwkr(inst)
    nodes = 0
    # Per expanded node: the node and an iterator over its unvisited
    # allocations, in action-index order.
    stack: list[tuple[SchedulingEnv, Iterator[Allocation]]] = []

    def enter(env: SchedulingEnv):
        nonlocal best, nodes
        nodes += 1
        if nodes > cfg.node_budget:
            raise NodeBudgetExceeded(
                f"oracle exceeded {cfg.node_budget} nodes on {inst.name}"
            )
        # At a terminal state the clock is the makespan, so a schedule is
        # built only for an improving leaf.
        if env.done:
            if env.clock < best.makespan:
                best = env.extract_schedule()
        elif lower_bound(env, min_remaining, pinned) < best.makespan:
            stack.append((env, iter(env.legal_allocations())))

    enter(SchedulingEnv(inst))
    while stack:
        env, allocations = stack[-1]
        allocation = next(allocations, None)
        if allocation is None:
            stack.pop()
        else:
            child = env.clone()
            child._apply(allocation)
            enter(child)
    return best
