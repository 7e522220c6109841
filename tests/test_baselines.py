"""Baseline solvers and the exhaustive oracle."""

import math
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexshop.baselines import (
    BaselineConfig,
    NodeBudgetExceeded,
    _alternatives,
    _decode,
    _pinned_work,
    _remaining_work,
    exhaustive_oracle,
    fifo,
    genetic,
    lower_bound,
    mwkr,
    random_sampling,
)
from flexshop.environment import IDLE, SchedulingEnv, WAIT
from flexshop.instance import Instance, JobSpec, OperationSpec, parse_instance
from flexshop.schedule import Schedule, ScheduleEntry, validate_schedule

from conftest import reference_options, tiny_instance
from test_environment import WIDE


# -- slow references for the fast paths in flexshop.baselines -------------


def reference_decode(inst: Instance, chromosome: list[int]) -> Schedule:
    """Operation-based decoding rebuilt from the instance at every gene."""
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


def reference_genetic(inst: Instance, cfg: BaselineConfig) -> Schedule:
    """The GA before its shortcuts: set-based POX, a decoder that scans every
    alternative in machine order, and every child decoded."""
    table = [[sorted(op.alternatives.items()) for op in job.operations]
             for job in inst.jobs]

    def decode(chromosome, entries=None):
        next_op = [0] * inst.job_count
        job_ready = [0] * inst.job_count
        machine_free = [0] * inst.machine_count
        for j in chromosome:
            o = next_op[j]
            ready = job_ready[j]
            best_m = -1
            for m, d in table[j][o]:
                end = max(machine_free[m], ready) + d
                if best_m < 0 or end < best_end or (end == best_end and d < best_d):
                    best_m, best_end, best_d = m, end, d
            if entries is not None:
                entries.append(ScheduleEntry(j, o, best_m, best_end - best_d, best_end))
            next_op[j] = o + 1
            job_ready[j] = best_end
            machine_free[best_m] = best_end
        return max(job_ready)

    def crossover(p1, p2):
        keep = {j for j in jobs if rng.random() < 0.5}
        filler = iter([g for g in p2 if g not in keep])
        return [g if g in keep else next(filler) for g in p1]

    rng = Random(cfg.seed)
    base = [j for j, job in enumerate(inst.jobs) for _ in range(len(job))]
    jobs = set(base)
    population = []
    for _ in range(cfg.population):
        c = list(base)
        rng.shuffle(c)
        population.append(c)
    scored = sorted(((c, decode(c)) for c in population), key=lambda cs: cs[1])
    best, best_makespan = scored[0]
    stale = 0
    for _ in range(cfg.generations):
        children = []
        for _ in range(cfg.population):
            a = scored[rng.randrange(len(scored))][0]
            if rng.random() < cfg.crossover_rate:
                child = crossover(a, scored[rng.randrange(len(scored))][0])
            else:
                child = list(a)
            if rng.random() < cfg.mutation_rate:
                i, k = rng.randrange(len(child)), rng.randrange(len(child))
                child[i], child[k] = child[k], child[i]
            children.append(child)
        pool = scored + [(c, decode(c)) for c in children]
        pool.sort(key=lambda cs: cs[1])
        scored = pool[:cfg.population]
        if scored[0][1] < best_makespan:
            best, best_makespan = scored[0]
            stale = 0
        else:
            stale += 1
            if stale >= cfg.stagnation:
                break
    entries = []
    decode(best, entries)
    return Schedule.from_entries(entries)


def reference_dispatch(inst: Instance, priority) -> Schedule:
    """Dispatch loop whose `priority(env, job)` tuple is recomputed from the
    environment's state for every candidate at every state."""
    env = SchedulingEnv(inst)
    while not env.done:
        options = reference_options(env)
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


def reference_fifo(inst: Instance) -> Schedule:
    def ready_time(env, job):
        ends = [e.end for e in env.entries if e.job == job]
        return max(ends) if ends else 0

    return reference_dispatch(inst, lambda env, j: (env.clock - ready_time(env, j),))


def reference_mwkr(inst: Instance, duration_mode: str) -> Schedule:
    duration = {"mean": OperationSpec.mean_duration,
                "min": OperationSpec.min_duration,
                "max": OperationSpec.max_duration}[duration_mode]

    def remaining_work(env, job):
        ops = inst.jobs[job].operations[env.job_op[job]:]
        return (sum(duration(op) for op in ops),)

    return reference_dispatch(inst, remaining_work)


def assert_rules_match_references(inst: Instance):
    assert fifo(inst) == reference_fifo(inst)
    for mode in ("mean", "min", "max"):
        assert mwkr(inst, mode) == reference_mwkr(inst, mode)


def reference_chain_bound(inst: Instance, env: SchedulingEnv) -> int:
    """The job-chain bound, re-summed from the instance: the latest over
    jobs of the clock, the running operation's remaining time and the
    minimum durations still to run."""
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


def reference_lower_bound(inst: Instance, env: SchedulingEnv) -> int:
    """The oracle's bound, re-summed from the instance: the job-chain bound,
    the heaviest machine counting only single-machine operations not yet
    started, and the average load rounded up."""
    loads = list(env.machine_remaining)
    total = sum(env.machine_remaining)
    for j, job in enumerate(inst.jobs):
        start = env.job_op[j] + (env.job_machine[j] != IDLE)
        for op in job.operations[start:]:
            total += op.min_duration()
            if len(op.alternatives) == 1:
                loads[op.machines()[0]] += op.min_duration()
    return max(reference_chain_bound(inst, env),
               env.clock + max(loads),
               env.clock + math.ceil(total / inst.machine_count))


def reference_oracle(inst: Instance) -> Schedule:
    """The oracle before the load bounds: recursive, pruned by the job-chain
    bound alone, and building a schedule at every leaf."""
    best = mwkr(inst)

    def search(env: SchedulingEnv):
        nonlocal best
        if env.done:
            sched = env.extract_schedule()
            if sched.makespan < best.makespan:
                best = sched
            return
        if reference_chain_bound(inst, env) >= best.makespan:
            return
        for action in range(len(env.legal_allocations())):
            child = env.clone()
            child.step(action)
            search(child)

    search(SchedulingEnv(inst))
    return best


def brute_force_makespan(env: SchedulingEnv, memo: dict) -> int:
    """Best makespan reachable from `env` by an unpruned search over every
    legal action.  `memo` maps a state to its best remaining time; the
    state (current ops, assigned machines, machines' remaining times) fixes
    every future of an unconstrained environment, so the memo only saves
    repeating identical subtrees."""
    if env.done:
        return env.clock
    key = (tuple(env.job_op), tuple(env.job_machine),
           tuple(env.machine_remaining))
    if key not in memo:
        best = None
        for action in range(len(env.legal_allocations())):
            child = env.clone()
            child.step(action)
            makespan = brute_force_makespan(child, memo)
            if best is None or makespan < best:
                best = makespan
        memo[key] = best - env.clock
    return env.clock + memo[key]


def long_instance() -> Instance:
    """3 jobs x 800 single-machine operations on 2 machines: job j's op k
    runs on machine (j + k) % 2.  An episode takes thousands of steps."""
    rng = Random(3)
    return Instance(2, tuple(
        JobSpec(tuple(OperationSpec({(j + k) % 2: rng.randint(1, 9)})
                      for k in range(800)))
        for j in range(3)), name="long")


@st.composite
def instances(draw, max_jobs=5, max_machines=4, max_ops=4, max_duration=6):
    """Small instances; short durations make equal completion times common,
    so tie-breaks are exercised."""
    machines = draw(st.integers(1, max_machines))
    alternatives = st.dictionaries(st.integers(0, machines - 1),
                                   st.integers(1, max_duration), min_size=1)
    jobs = draw(st.lists(
        st.lists(alternatives.map(OperationSpec), min_size=1, max_size=max_ops),
        min_size=1, max_size=max_jobs))
    return Instance(machines, tuple(JobSpec(tuple(ops)) for ops in jobs))


@st.composite
def instances_and_chromosomes(draw):
    inst = draw(instances())
    genes = [j for j, job in enumerate(inst.jobs) for _ in range(len(job))]
    return inst, draw(st.permutations(genes))


class TestRandomSampling:
    def test_one_by_one(self, one_by_one):
        assert random_sampling(one_by_one, BaselineConfig(episodes=3)).makespan == 5

    def test_deterministic_under_seed(self, toy):
        cfg = BaselineConfig(episodes=200, seed=9)
        assert random_sampling(toy, cfg) == random_sampling(toy, cfg)

    def test_toy_reaches_optimum(self, toy):
        opt = exhaustive_oracle(toy).makespan
        best = random_sampling(toy, BaselineConfig(episodes=10_000, seed=0))
        assert best.makespan == opt


class TestDispatchRules:
    def test_fifo_one_by_one(self, one_by_one):
        assert fifo(one_by_one).makespan == 5

    def test_fifo_tie_break_lower_job_first(self):
        inst = parse_instance("2 1\n1 1 1 5\n1 1 1 5\n")
        sched = fifo(inst)
        first = min(sched.entries, key=lambda e: e.start)
        assert first.job == 0

    def test_fifo_deterministic(self, toy):
        assert fifo(toy) == fifo(toy)

    def test_mwkr_prefers_more_remaining_work(self):
        # Job 0 has 30 units of remaining work, job 1 has 20; one machine.
        inst = parse_instance("2 1\n1 1 1 30\n1 1 1 20\n")
        sched = mwkr(inst)
        first = min(sched.entries, key=lambda e: e.start)
        assert first.job == 0

    def test_mwkr_one_by_one(self, one_by_one):
        assert mwkr(one_by_one).makespan == 5

    def test_mwkr_duration_modes(self, toy):
        for mode in ("mean", "min", "max"):
            assert validate_schedule(toy, mwkr(toy, mode)) == []
        with pytest.raises(ValueError):
            mwkr(toy, "median")

    @given(instances())
    @settings(max_examples=150, deadline=None)
    def test_rules_match_rescanning_references(self, inst):
        assert_rules_match_references(inst)

    @pytest.mark.parametrize("name", list(WIDE))
    def test_rules_match_rescanning_references_on_wide(self, name):
        # Lanes of 128 machines are wider than a machine word.
        assert_rules_match_references(WIDE[name][0])

    def test_rules_validate_on_random_instances(self):
        for seed in range(20):
            inst = tiny_instance(seed)
            assert validate_schedule(inst, fifo(inst)) == []
            assert validate_schedule(inst, mwkr(inst)) == []


class TestGenetic:
    @given(instances_and_chromosomes())
    @settings(max_examples=300, deadline=None)
    def test_decoder_matches_reference(self, case):
        inst, chromosome = case
        table = _alternatives(inst)
        reference = reference_decode(inst, chromosome)
        entries = []
        assert _decode(table, inst.machine_count, chromosome) == reference.makespan
        assert _decode(table, inst.machine_count, chromosome, entries) \
            == reference.makespan
        assert Schedule.from_entries(entries) == reference

    @given(instances())
    @settings(max_examples=100, deadline=None)
    def test_alternatives_shortest_first(self, inst):
        for job, rows in zip(inst.jobs, _alternatives(inst)):
            for op, row in zip(job.operations, rows):
                assert sorted(row) == sorted(op.alternatives.items())
                assert row == sorted(row, key=lambda md: (md[1], md[0]))

    @given(instances(), st.integers(1, 8), st.integers(1, 15),
           st.integers(1, 5), st.sampled_from([0, 0.5, 1]),
           st.sampled_from([0, 0.5, 1]), st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_genetic(self, inst, population, generations,
                                       stagnation, crossover_rate,
                                       mutation_rate, seed):
        cfg = BaselineConfig(seed=seed, population=population,
                             generations=generations, stagnation=stagnation,
                             crossover_rate=crossover_rate,
                             mutation_rate=mutation_rate)
        assert genetic(inst, cfg) == reference_genetic(inst, cfg)

    def test_one_by_one(self, one_by_one):
        assert genetic(one_by_one, BaselineConfig(generations=2)).makespan == 5

    def test_degenerate_ga_is_decoded_initial(self, toy):
        cfg = BaselineConfig(population=1, generations=3, crossover_rate=0.0,
                             mutation_rate=0.0, seed=4)
        a = genetic(toy, cfg)
        b = genetic(toy, BaselineConfig(population=1, generations=50,
                                        crossover_rate=0.0, mutation_rate=0.0,
                                        seed=4))
        assert a == b

    def test_deterministic_under_seed(self, toy):
        cfg = BaselineConfig(seed=5, generations=20)
        assert genetic(toy, cfg) == genetic(toy, cfg)

    def test_validates_on_random_instances(self):
        for seed in range(10):
            inst = tiny_instance(seed)
            sched = genetic(inst, BaselineConfig(seed=seed, generations=15))
            assert validate_schedule(inst, sched) == []


class TestOracle:
    def test_one_by_one(self, one_by_one):
        assert exhaustive_oracle(one_by_one).makespan == 5

    def test_serial_sum(self):
        inst = parse_instance("2 1\n1 1 1 3\n1 1 1 4\n")
        assert exhaustive_oracle(inst).makespan == 7

    def test_toy_optimum(self, toy):
        sched = exhaustive_oracle(toy)
        assert sched.makespan == 58
        assert validate_schedule(toy, sched) == []

    def test_budget_exceeded(self, ft06):
        with pytest.raises(NodeBudgetExceeded):
            exhaustive_oracle(ft06, BaselineConfig(node_budget=1000))

    def test_long_episode_exceeds_budget(self):
        # Episodes thousands of steps deep must not exhaust the call stack.
        with pytest.raises(NodeBudgetExceeded):
            exhaustive_oracle(long_instance(), BaselineConfig(node_budget=5000))

    @given(instances(max_jobs=4, max_machines=3), st.data())
    @settings(max_examples=150, deadline=None)
    def test_lower_bound_matches_per_node_sum(self, inst, data):
        # Walk one random episode; compare the bounds at every state on it.
        min_remaining = _remaining_work(inst, OperationSpec.min_duration)
        pinned = _pinned_work(inst)
        env = SchedulingEnv(inst)
        while True:
            assert lower_bound(env, min_remaining, pinned) == \
                reference_lower_bound(inst, env)
            if env.done:
                break
            count = len(env.legal_allocations())
            env.step(data.draw(st.integers(0, count - 1)))

    @given(instances(max_jobs=3, max_machines=3, max_ops=3), st.data())
    @settings(max_examples=150, deadline=None)
    def test_lower_bound_admissible(self, inst, data):
        # Along a random episode, no state's bound exceeds the best makespan
        # still reachable from it.
        min_remaining = _remaining_work(inst, OperationSpec.min_duration)
        pinned = _pinned_work(inst)
        memo: dict = {}
        env = SchedulingEnv(inst)
        while not env.done:
            assert lower_bound(env, min_remaining, pinned) <= \
                brute_force_makespan(env.clone(), memo)
            count = len(env.legal_allocations())
            env.step(data.draw(st.integers(0, count - 1)))

    def test_same_schedule_as_chain_bound_oracle_on_criterion_1(self):
        for seed in range(50):
            inst = tiny_instance(seed)
            assert exhaustive_oracle(inst) == reference_oracle(inst)

    @given(instances(max_jobs=3, max_machines=3, max_ops=3))
    @settings(max_examples=80, deadline=None)
    def test_same_schedule_as_chain_bound_oracle(self, inst):
        assert exhaustive_oracle(inst) == reference_oracle(inst)

    def test_no_solver_beats_oracle(self):
        for seed in range(12):
            inst = tiny_instance(seed)
            opt = exhaustive_oracle(inst).makespan
            others = [
                fifo(inst).makespan,
                mwkr(inst).makespan,
                random_sampling(inst, BaselineConfig(episodes=150, seed=seed)).makespan,
                genetic(inst, BaselineConfig(seed=seed, generations=15)).makespan,
            ]
            assert all(value >= opt for value in others)
