"""Environment semantics: legal allocations, stepping, rewards, schedules."""

from array import array
from itertools import product
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flexshop.baselines import fifo
from flexshop.division import DivisionConfig, combine, machine_order, split
from flexshop.environment import (
    IDLE,
    WAIT,
    SchedulingEnv,
    SchedulingError,
)
from flexshop.instance import Instance, JobSpec, OperationSpec, parse_instance
from flexshop.schedule import validate_schedule

from conftest import reference_options, tiny_instance


def brute_force_allocations(env: SchedulingEnv, allowed=None
                            ) -> list[tuple[int, ...]]:
    """Independent filter of the full (m+1)^n assignment cube.

    Executability: an assigned job must be idle with a pending operation, the
    machine must be free and able to run that operation, and no machine may
    be assigned twice.  `allowed(job, op_index, machine)`, when given, must
    also hold for each assignment.  Reasonability: the all-WAIT vector is
    excluded when every machine is idle.
    """
    inst = env.instance
    vectors = []
    for vec in product(range(-1, inst.machine_count), repeat=inst.job_count):
        used = set()
        ok = True
        for job, machine in enumerate(vec):
            if machine == WAIT:
                continue
            if env.job_machine[job] != IDLE:
                ok = False
                break
            op_index = env.job_op[job]
            if op_index >= len(inst.jobs[job]):
                ok = False
                break
            op = inst.jobs[job].operations[op_index]
            if machine not in op.alternatives:
                ok = False
                break
            if env.machine_job[machine] != IDLE or machine in used:
                ok = False
                break
            if allowed is not None and not allowed(job, op_index, machine):
                ok = False
                break
            used.add(machine)
        if ok:
            vectors.append(vec)
    vectors.sort(
        key=lambda vec: tuple(
            inst.machine_count if m == WAIT else m for m in vec
        )
    )
    all_wait = (WAIT,) * inst.job_count
    if all(r == 0 for r in env.machine_remaining):
        vectors = [v for v in vectors if v != all_wait]
    return vectors


def walk_to_end(env: SchedulingEnv, choose, cap: int):
    """Step by `choose(legal count)` to the end in at most `cap` steps."""
    for _ in range(cap):
        if env.done:
            return
        env.step(choose(len(env.legal_allocations())))
    assert env.done, f"walk on {env.instance.name} passed {cap} steps"


def walk_checking_state(env: SchedulingEnv, rng: Random, allowed=None):
    """Random walk to the end, checking the incremental state against a
    recomputation from the raw arrays at every state, terminal one included.

    Each step assigns an operation or is a pure wait that completes one, so
    a walk ends within twice the operation count; one that does not fails.
    """
    inst = env.instance
    cap = 2 * inst.total_operations
    for _ in range(cap + 1):
        assert env.done == all(
            env.job_op[j] >= len(inst.jobs[j]) for j in range(inst.job_count)
        )
        assert env._free == sum(1 << m for m, job in enumerate(env.machine_job)
                                if job == IDLE)
        assert all((job == IDLE) == (r == 0) for job, r
                   in zip(env.machine_job, env.machine_remaining))
        if env.done:
            return
        assert any(reference_options(env))  # the skip loop stopped here
        obs = env.observation()
        entries = env.entries
        legal = list(env.legal_allocations())
        walk_to_end(env.clone(), rng.randrange, cap)
        assert env.observation() == obs
        assert env.entries == entries
        assert env.legal_allocations() == legal
        assert legal == brute_force_allocations(env, allowed)
        env.step(rng.randrange(len(legal)))
    pytest.fail(f"walk on {inst.name} passed {cap} steps")


class TestReset:
    def test_initial_observation(self, toy):
        obs = SchedulingEnv(toy).observation()
        assert obs == array("b", [IDLE, IDLE, 0, 0]).tobytes()

    def test_one_by_one(self, one_by_one):
        obs = SchedulingEnv(one_by_one).observation()
        assert obs == array("b", [IDLE, 0]).tobytes()

    def test_reset_reuses_the_reset_states_allocations(self, toy):
        env = SchedulingEnv(toy)
        first = env.legal_allocations()
        walk_to_end(env, lambda count: count - 1, 2 * toy.total_operations)
        assert env.reset() == array("b", [IDLE, IDLE, 0, 0]).tobytes()
        assert env.entries == []
        assert env.legal_allocations() is first
        assert first == brute_force_allocations(env)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_initial_allocations_nonempty(self, seed):
        env = SchedulingEnv(tiny_instance(seed))
        assert env.legal_allocations()


class TestLegalAllocations:
    def test_paper_allocation_present_at_s0(self, toy):
        env = SchedulingEnv(toy)
        assert (1, 0) in env.legal_allocations()

    def test_one_by_one_single_action(self, one_by_one):
        assert SchedulingEnv(one_by_one).legal_allocations() == [(0,)]

    def test_all_wait_excluded_when_all_idle(self, toy):
        env = SchedulingEnv(toy)
        assert (WAIT, WAIT) not in env.legal_allocations()

    def test_pure_wait_permitted_while_running(self):
        # Two jobs on two machines; after assigning one job, waiting is legal.
        inst = parse_instance("2 2\n1 1 1 4\n1 1 2 6\n")
        env = SchedulingEnv(inst)
        env.step_allocation((0, WAIT))
        assert (WAIT, WAIT) in env.legal_allocations()

    def test_error_on_terminal(self, one_by_one):
        env = SchedulingEnv(one_by_one)
        env.step(0)
        with pytest.raises(SchedulingError):
            env.legal_allocations()

    def test_deterministic_order(self, toy):
        a = SchedulingEnv(toy).legal_allocations()
        b = SchedulingEnv(toy).legal_allocations()
        assert a == b

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=0, max_value=1_000))
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_along_random_walks(self, seed, walk_seed):
        walk_checking_state(SchedulingEnv(tiny_instance(seed)),
                             Random(walk_seed))

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=0, max_value=1_000))
    @settings(max_examples=60, deadline=None)
    def test_constrained_matches_filtered_brute_force(self, seed, walk_seed):
        # The division flow: walk stage 1 (the first segment of every job),
        # then walk stage 2 under the policy stage 1 produced.
        inst = tiny_instance(seed)
        assume(max(len(job) for job in inst.jobs) >= 2)
        rng = Random(walk_seed)
        plan = split(inst, DivisionConfig(strategy="mean"))
        stage1 = SchedulingEnv(combine(plan, 1))
        walk_checking_state(stage1, rng)
        constraint = machine_order(stage1.extract_schedule())
        env = SchedulingEnv(combine(plan, 2), constraint)
        machine_for = {op: m for m, order in constraint.items() for op in order}

        def allowed(job, op_index, machine):
            required = machine_for.get((job, op_index))
            if required is None:
                return True
            if machine != required:
                return False
            placed = sum(1 for e in env.entries if e.machine == machine
                         and (e.job, e.op) in machine_for)
            order = constraint[machine]
            return placed < len(order) and order[placed] == (job, op_index)

        walk_checking_state(env, rng, allowed)


class TestStep:
    def test_single_op_episode(self, one_by_one):
        env = SchedulingEnv(one_by_one)
        result = env.step(0)
        assert result.done
        assert result.reward == -5
        assert result.clock == 5

    def test_zero_reward_when_work_remains_now(self):
        # Two independent single-op jobs on two machines: assigning only the
        # first leaves the second assignable at the same clock.
        inst = parse_instance("2 2\n1 1 1 4\n1 1 2 6\n")
        env = SchedulingEnv(inst)
        result = env.step_allocation((0, WAIT))
        assert result.reward == 0
        assert result.clock == 0

    def test_pure_wait_advances_clock(self):
        inst = parse_instance("2 2\n1 1 1 4\n1 1 2 6\n")
        env = SchedulingEnv(inst)
        env.step_allocation((0, WAIT))
        result = env.step_allocation((WAIT, WAIT))
        assert result.clock == 4
        assert result.reward == -4

    def test_action_out_of_range(self, one_by_one):
        env = SchedulingEnv(one_by_one)
        with pytest.raises(SchedulingError):
            env.step(99)

    def test_step_on_terminal(self, one_by_one):
        env = SchedulingEnv(one_by_one)
        env.step(0)
        with pytest.raises(SchedulingError):
            env.step(0)

    # Job 0 runs on machine 0 or 1, job 1 on machine 1 only.
    @pytest.mark.parametrize("before, allocation, message", [
        ([(0, 1)], (0, 1), "terminal"),
        ([], (0,), "length"),
        ([], (1, 1), "machine 1 assigned twice"),
        ([], (WAIT, 0), "job 1 cannot be assigned machine 0"),
        ([], (WAIT, WAIT), "pure wait"),
        ([], (0.0, WAIT), "job 0: allocation entry 0.0 is not an int"),
        ([], (True, WAIT), "job 0: allocation entry True is not an int"),
        ([(0, WAIT)], (-1.0, 1), "job 0: allocation entry -1.0"),
        # Machines outside 0..M-1; unchecked, job 0's machine 3 would read
        # job 1's machine 1 and job 1's machine -2 job 0's machine 0.
        ([], (2, WAIT), "job 0 cannot be assigned machine 2"),
        ([], (3, WAIT), "job 0 cannot be assigned machine 3"),
        ([], (-2, WAIT), "job 0 cannot be assigned machine -2"),
        ([], (WAIT, -2), "job 1 cannot be assigned machine -2"),
    ], ids=["terminal", "length", "twice", "not-assignable", "pure-wait",
            "float", "bool", "float-wait", "machine-count", "past-count",
            "negative", "negative-next-job"])
    def test_step_allocation_rejects_before_mutating(self, before, allocation,
                                                     message):
        env = SchedulingEnv(parse_instance("2 2\n1 2 1 5 2 3\n1 1 2 4\n"))
        for allocation_before in before:
            env.step_allocation(allocation_before)
        state = (env.observation(), env.clock, env._free, env.entries)
        with pytest.raises(SchedulingError, match=message):
            env.step_allocation(allocation)
        assert (env.observation(), env.clock, env._free, env.entries) == state

    # True == 1 would run action 1, and 1.0 would fail as a list index.
    @pytest.mark.parametrize("action", [True, 1.0], ids=["bool", "float"])
    def test_step_rejects_non_int_action_before_mutating(self, action):
        env = SchedulingEnv(parse_instance("2 2\n1 2 1 5 2 3\n1 1 2 4\n"))
        assert len(env.legal_allocations()) > 1
        state = (env.observation(), env.clock, env._free, env.entries)
        with pytest.raises(SchedulingError,
                           match=rf"action {action!r} is not an int"):
            env.step(action)
        assert (env.observation(), env.clock, env._free, env.entries) == state

    def test_determinism(self, toy):
        results = []
        for _ in range(2):
            env = SchedulingEnv(toy)
            trace = []
            while not env.done:
                trace.append(env.step(0))
            results.append(trace)
        assert results[0] == results[1]

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=0, max_value=1_000))
    @settings(max_examples=100, deadline=None)
    def test_random_episode_invariants(self, seed, walk_seed):
        inst = tiny_instance(seed)
        env = SchedulingEnv(inst)
        rng = Random(walk_seed)
        rewards = []
        max_steps = inst.job_count * 3 * (inst.machine_count + 2)
        steps = 0
        while not env.done:
            steps += 1
            assert steps <= max_steps, "episode failed to terminate in bound"
            result = env.step(rng.randrange(len(env.legal_allocations())))
            rewards.append(result.reward)
            assert result.reward <= 0
            if not result.done:
                # Observation-space reduction: some non-wait action exists.
                legal = env.legal_allocations()
                assert any(any(m != WAIT for m in a) for a in legal)
        sched = env.extract_schedule()
        assert sum(rewards) == -sched.makespan
        assert validate_schedule(inst, sched) == []


class TestExtractSchedule:
    def test_one_by_one_entries(self, one_by_one):
        env = SchedulingEnv(one_by_one)
        env.step(0)
        sched = env.extract_schedule()
        entry, = sched.entries
        assert (entry.job, entry.op, entry.machine) == (0, 0, 0)
        assert (entry.start, entry.end) == (0, 5)

    def test_error_before_terminal(self, toy):
        with pytest.raises(SchedulingError):
            SchedulingEnv(toy).extract_schedule()

    def test_clone_is_independent(self, toy):
        env = SchedulingEnv(toy)
        env.step(0)
        twin = env.clone()
        while not twin.done:
            twin.step(0)
        assert not env.done
        assert twin.extract_schedule().makespan > 0


def tuple_observation(env: SchedulingEnv) -> tuple[int, ...]:
    """The observation as a tuple of ints, rebuilt from the assignment log:
    per job the machine running it at the clock (IDLE when none), then per
    job its finished operation count."""
    machine = [IDLE] * env.instance.job_count
    finished = [0] * env.instance.job_count
    for e in env.entries:
        if e.end <= env.clock:
            finished[e.job] += 1
        else:
            machine[e.job] = e.machine
    return tuple(machine + finished)


def walk_checking_observation(env: SchedulingEnv, rng: Random):
    """Random walk to the end, checking at every state that the packed
    observation unpacks to the tuple form and that a clone's arrays are its
    own."""
    cap = 2 * env.instance.total_operations
    for _ in range(cap + 1):
        obs = env.observation()
        assert type(obs) is bytes
        assert tuple(array(env.job_op.typecode, obs)) == tuple_observation(env)
        if env.done:
            return
        twin = env.clone()
        assert twin.job_op is not env.job_op
        assert twin.job_machine is not env.job_machine
        assert twin.observation() == obs
        twin.step(0)
        assert env.observation() == obs
        result = env.step(rng.randrange(len(env.legal_allocations())))
        assert result.observation == env.observation()
    pytest.fail(f"walk on {env.instance.name} passed {cap} steps")


# A 128th machine, or a 128th operation, no longer fits a signed byte.
WIDE = {
    "127-machines": (Instance(127, (
        JobSpec((OperationSpec({126: 4}), OperationSpec({0: 2, 126: 3}))),
        JobSpec((OperationSpec({126: 2}),)))), "b"),
    "128-machines": (Instance(128, (
        JobSpec((OperationSpec({127: 4}), OperationSpec({0: 2, 127: 3}))),
        JobSpec((OperationSpec({127: 2}),)))), "q"),
    "127-operations": (Instance(2, (
        JobSpec((OperationSpec({0: 1, 1: 2}),) * 127),
        JobSpec((OperationSpec({1: 3}),)))), "b"),
    "128-operations": (Instance(2, (
        JobSpec((OperationSpec({0: 1, 1: 2}),) * 128),
        JobSpec((OperationSpec({1: 3}),)))), "q"),
}


class TestObservation:
    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_packs_the_tuple_form(self, inst_seed, walk_seed):
        env = SchedulingEnv(tiny_instance(inst_seed, max_jobs=4))
        assert env.job_op.typecode == env.job_machine.typecode == "b"
        walk_checking_observation(env, Random(walk_seed))

    @pytest.mark.parametrize("name", list(WIDE))
    def test_typecode_widens_past_a_byte(self, name):
        inst, code = WIDE[name]
        env = SchedulingEnv(inst)
        assert env.job_op.typecode == env.job_machine.typecode == code
        assert validate_schedule(inst, fifo(inst)) == []
        walk_checking_observation(env, Random(0))
