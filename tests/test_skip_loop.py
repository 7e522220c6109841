"""The skip loop: its event heap against the per-machine countdown it
replaced, and the reduction it makes against semi-active schedules, which
must all replay through it."""

from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flexshop.baselines import (
    _alternatives,
    _decode,
    exhaustive_oracle,
    fifo,
    mwkr,
)
from flexshop.data import load_bundled
from flexshop.division import DivisionConfig, combine, machine_order, split
from flexshop.environment import IDLE, WAIT, SchedulingEnv, SchedulingError
from flexshop.instance import Instance, parse_instance
from flexshop.schedule import Schedule, ScheduleEntry

from conftest import tiny_instance

BUNDLED = ["toy2x3", "ft06", "flex06", "la05"]


class CountdownEnv(SchedulingEnv):
    """Reference environment: every machine keeps its remaining time, and
    each advance counts all of them down by the smallest nonzero one,
    completing the machines that reach 0 in machine order."""

    def reset(self):
        self._remaining = [0] * self.instance.machine_count
        return super().reset()

    def clone(self):
        other = super().clone()
        other._remaining = list(self._remaining)
        return other

    @property
    def machine_remaining(self):
        return list(self._remaining)

    def _apply(self, allocation):
        clock = clock_before = self.clock
        job_op = self.job_op
        job_machine = self.job_machine
        machine_job = self.machine_job
        remaining = self._remaining
        durations = self._op_durations
        lanes = self._lanes
        log = self._log
        free = self._free
        ready = self._ready

        for job, machine in enumerate(allocation):
            if machine != WAIT:
                op = job_op[job]
                duration = durations[job][op][machine]
                job_machine[job] = machine
                machine_job[machine] = job
                remaining[machine] = duration
                free &= ~(1 << machine)
                ready ^= lanes[job][op]
                log.append((job, op, machine, clock, clock + duration))
        force_advance = free == self._free

        spread = self._spread
        before = self._before
        after = self._after
        unfinished = self._unfinished
        while unfinished and (force_advance or not ready & free * spread):
            force_advance = False
            dt = min(filter(None, remaining))
            clock += dt
            for m, r in enumerate(remaining):
                if r:
                    r -= dt
                    remaining[m] = r
                    if not r:
                        job = machine_job[m]
                        machine_job[m] = IDLE
                        job_machine[job] = IDLE
                        op = job_op[job] + 1
                        job_op[job] = op
                        free |= 1 << m
                        lane = lanes[job][op]
                        if not lane:
                            unfinished -= 1
                        elif (after is None
                              or (pred := before[job][op]) is None
                              or job_op[pred[0]] > pred[1]):
                            ready |= lane
                        if (after is not None
                                and (nxt := after[job][op - 1]) is not None
                                and job_op[nxt[0]] == nxt[1]):
                            ready |= lanes[nxt[0]][nxt[1]]

        self._free = free
        self._ready = ready
        self._unfinished = unfinished
        self.clock = clock
        return clock_before - clock


def assert_same_state(env: SchedulingEnv, ref: CountdownEnv):
    assert env.clock == ref.clock
    assert env.observation() == ref.observation()
    assert env.machine_remaining == ref.machine_remaining
    assert env._free == ref._free
    assert env._ready == ref._ready
    assert env._unfinished == ref._unfinished
    assert env.entries == ref.entries


def walk_against_reference(env: SchedulingEnv, ref: CountdownEnv, rng: Random,
                           fork: bool = True):
    """Random legal walk of `env` and `ref` in step, comparing them at every
    state, terminal one included.  With `fork`, some states also walk a
    clone pair to its end first, which must leave the originals as they
    were."""
    cap = 2 * env.instance.total_operations
    for _ in range(cap + 1):
        assert_same_state(env, ref)
        if env.done:
            return
        legal = env.legal_allocations()
        allocation = legal[rng.randrange(len(legal))]
        if fork and rng.random() < 0.3:
            walk_against_reference(env.clone(), ref.clone(), rng, fork=False)
            assert_same_state(env, ref)
        assert env._apply(allocation) == ref._apply(allocation)
    pytest.fail(f"walk on {env.instance.name} passed {cap} steps")


def walk_episodes(inst: Instance, order, rng: Random, episodes: int = 2):
    """`episodes` compared walks on one env pair, each after a reset from
    up to two steps into an episode; returns the env."""
    env, ref = SchedulingEnv(inst, order), CountdownEnv(inst, order)
    for _ in range(episodes):
        for _ in range(rng.randrange(3)):
            if not env.done:
                allocation = env.legal_allocations()[0]
                env._apply(allocation)
                ref._apply(allocation)
        assert env.reset() == ref.reset()
        walk_against_reference(env, ref, rng)
    return env


class TestEventHeap:
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=0, max_value=1_000))
    @settings(max_examples=100, deadline=None)
    def test_matches_countdown(self, seed, walk_seed):
        walk_episodes(tiny_instance(seed, max_jobs=4, max_ops=4), None,
                      Random(walk_seed))

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=0, max_value=1_000))
    @settings(max_examples=100, deadline=None)
    def test_constrained_matches_countdown(self, seed, walk_seed):
        # Stage 2 of a split under stage 1's order: waits and releases.
        inst = tiny_instance(seed, max_jobs=4, max_ops=4)
        assume(max(len(job) for job in inst.jobs) >= 2)
        rng = Random(walk_seed)
        plan = split(inst, DivisionConfig(strategy="mean"))
        stage1 = walk_episodes(combine(plan, 1), None, rng, episodes=1)
        walk_episodes(combine(plan, 2),
                      machine_order(stage1.extract_schedule()), rng)

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_match_countdown(self, name):
        walk_episodes(load_bundled(name), None, Random(0), episodes=3)

    def test_tied_completions_release_a_successor(self):
        # Jobs 0 and 1 start on machines 1 and 0 and both end at clock 2.
        # Machine 0's completion lets job 2 start; machine 1's lets job 1's
        # second op start, which is listed after job 0's op on machine 1.
        inst = parse_instance("3 2\n1 1 2 2\n2 1 1 2 1 2 1\n1 1 1 4\n")
        order = {1: ((0, 0), (1, 1))}
        env, ref = SchedulingEnv(inst, order), CountdownEnv(inst, order)
        assert (1, 0, WAIT) in env.legal_allocations()
        assert env._apply((1, 0, WAIT)) == ref._apply((1, 0, WAIT)) == -2
        assert_same_state(env, ref)
        assert env._events == []
        assert env.machine_remaining == [0, 0]
        assert env.legal_allocations() == [(WAIT, 1, 0), (WAIT, 1, WAIT),
                                           (WAIT, WAIT, 0)]
        assert env._apply((WAIT, 1, 0)) == ref._apply((WAIT, 1, 0)) == -4
        assert_same_state(env, ref)
        assert env.done and env.clock == 6


# -- the reduction is lossless ----------------------------------------------


def replay(env: SchedulingEnv, schedule: Schedule) -> Schedule:
    """Step `env` from reset through `schedule` and return what it built.

    At each decision state the allocation starts exactly the operations
    that `schedule` starts at the clock and have not started yet, or is the
    pure wait.  Each allocation must be in the state's legal list, so a
    schedule the reduced space cannot reach raises `SchedulingError`.
    """
    env.reset()
    starts: dict[int, dict[int, int]] = {}  # clock -> job -> machine
    for e in schedule.entries:
        starts.setdefault(e.start, {})[e.job] = e.machine
    for _ in range(2 * env.instance.total_operations):
        if env.done:
            break
        now = starts.pop(env.clock, {})
        allocation = tuple(now.get(job, WAIT)
                           for job in range(env.instance.job_count))
        if allocation not in env.legal_allocations():
            raise SchedulingError(f"allocation {allocation} is not legal at "
                                  f"clock {env.clock}")
        env._apply(allocation)
    if not env.done or starts:
        raise SchedulingError(f"starts at {sorted(starts)} were passed")
    return env.extract_schedule()


def in_start_order(schedule: Schedule) -> Schedule:
    """`schedule` with its entries in the order `replay` makes them."""
    return Schedule.from_entries(
        sorted(schedule.entries, key=lambda e: (e.start, e.job)))


def ga_decodes(inst: Instance, count: int, seed: int) -> list[Schedule]:
    """`count` decodes of random operation-based chromosomes."""
    rng = Random(seed)
    table = _alternatives(inst)
    genes = [j for j, job in enumerate(inst.jobs) for _ in range(len(job))]
    schedules = []
    for _ in range(count):
        rng.shuffle(genes)
        entries = []
        _decode(table, inst.machine_count, genes, entries)
        schedules.append(Schedule.from_entries(entries))
    return schedules


def assert_replays(inst: Instance, decodes: int, seed: int):
    schedules = [fifo(inst), mwkr(inst), *ga_decodes(inst, decodes, seed)]
    if inst.total_operations <= 9:
        schedules.append(exhaustive_oracle(inst))
    env = SchedulingEnv(inst)
    for schedule in schedules:
        assert replay(env, schedule) == in_start_order(schedule)


class TestReplay:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_semi_active_schedules_replay(self, seed):
        assert_replays(tiny_instance(seed, max_jobs=4, max_ops=4), 20, seed)

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_schedules_replay(self, name):
        assert_replays(load_bundled(name), 20, 0)

    def test_start_at_no_completion_is_refused(self):
        # Job 1 starts at 1, when nothing completes: not semi-active.  The
        # env waits to clock 3, where a pure wait is not legal.
        inst = parse_instance("2 2\n1 1 1 3\n1 1 2 2\n")
        schedule = Schedule.from_entries([ScheduleEntry(0, 0, 0, 0, 3),
                                          ScheduleEntry(1, 0, 1, 1, 3)])
        with pytest.raises(SchedulingError,
                           match=r"^allocation \(-1, -1\) is not legal at "
                                 r"clock 3$"):
            replay(SchedulingEnv(inst), schedule)
