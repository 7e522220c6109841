"""The option-signature memo of `SchedulingEnv.legal_allocations` against
the uncached enumeration it replaced, and the packed option lanes against
the per-job mask scan they replaced."""

from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flexshop import division
from flexshop.data import load_bundled
from flexshop.division import (
    DivisionConfig,
    combine,
    machine_order,
    solve_divided,
    split,
)
from flexshop.environment import (
    WAIT,
    SchedulingEnv,
    SchedulingError,
)
from flexshop.instance import parse_instance
from flexshop.qlearning import LearnerConfig, train

from conftest import reference_options, tiny_instance
from test_environment import WIDE


class ReferenceEnv(SchedulingEnv):
    """Reference environment: every fresh state rescans the jobs' options,
    machine-order rule included, and enumerates its own list."""

    def legal_allocations(self):
        if self._legal is not None:
            return self._legal
        if self.done:
            raise SchedulingError("legal_allocations on terminal state")
        partials = [((), 0)]  # (prefix, used machines)
        done_upto = 0
        for job, opts in enumerate(reference_options(self)):
            if not opts:
                continue
            gap = (WAIT,) * (job - done_upto)
            extended = []
            for prefix, used in partials:
                head = prefix + gap
                for m in opts:
                    if not used & (1 << m):
                        extended.append((head + (m,), used | (1 << m)))
                extended.append((head + (WAIT,), used))
            partials = extended
            done_upto = job + 1
        tail = (WAIT,) * (self.instance.job_count - done_upto)
        result = [prefix + tail for prefix, _ in partials]
        if self._free == self._all_free:
            result.pop()
        self._legal = result
        if not self._log:
            self._root_legal = result
        return result


def reference_masks(env: SchedulingEnv) -> list[int]:
    """Per job, the bitmask of `reference_options`."""
    return [sum(1 << m for m in opts) for opts in reference_options(env)]


def reference_list(env: SchedulingEnv) -> list[tuple[int, ...]]:
    """The reference enumeration of `env`'s current state; `env` is left
    as it was."""
    ref = ReferenceEnv.__new__(ReferenceEnv)
    ref.__dict__.update(env.__dict__)
    ref._legal = None
    return ref.legal_allocations()


def assert_same_training(memo, reference):
    assert memo.best_schedule == reference.best_schedule
    assert memo.episode_makespans == reference.episode_makespans
    assert memo.test_makespans == reference.test_makespans
    assert memo.final_epsilon == reference.final_epsilon
    assert list(memo.q.items()) == list(reference.q.items())


class TestTrainingMatchesReference:
    @pytest.mark.parametrize("name", ["ft06", "flex06", "la05"])
    def test_train(self, name):
        inst = load_bundled(name)
        cfg = LearnerConfig(episodes=300, test_interval=50, seed=0,
                            epsilon_decay=0.99, epsilon_min=0.01)
        env = SchedulingEnv(inst)
        report = train(env, cfg)
        assert_same_training(report, train(ReferenceEnv(inst), cfg))
        # Observations share lists: fewer signatures than observations.
        observations = {obs for (obs, _), _ in report.q.items()}
        assert 0 < len(env._memo) < len(observations)

    def test_divided(self, la05, monkeypatch):
        # Stage 2 runs under stage 1's machine order.
        cfg = DivisionConfig(episodes=200, test_interval=50, seed=0,
                             epsilon_decay=0.99, epsilon_min=0.01, parts=2)
        memo, memo_reports = solve_divided(la05, cfg)
        monkeypatch.setattr(division, "SchedulingEnv", ReferenceEnv)
        reference, reference_reports = solve_divided(la05, cfg)
        assert memo == reference
        assert len(memo_reports) == len(reference_reports) == 2
        for m, r in zip(memo_reports, reference_reports):
            assert_same_training(m, r)


def walk_checking_memo(env: SchedulingEnv, rng: Random):
    """Random walk to the end, checking at every state that the memoized
    list equals the reference one and is the one object of its option
    signature."""
    by_signature = {}
    cap = 2 * env.instance.total_operations
    for _ in range(cap + 1):
        if env.done:
            return
        signature = (env._free == env._all_free, *env._option_masks())
        legal = env.legal_allocations()
        assert legal == reference_list(env)
        assert by_signature.setdefault(signature, legal) is legal
        assert env._memo[env._signature()] is legal
        # A clone shares the memo; its fresh lookup finds the same list.
        twin = env.clone()
        twin._legal = None
        assert twin.legal_allocations() is legal
        env.step(rng.randrange(len(legal)))
    pytest.fail(f"walk on {env.instance.name} passed {cap} steps")


def walk_checking_lanes(env: SchedulingEnv, rng: Random):
    """Random walk to the end, checking at every state, the terminal one
    included, that the packed lanes unpack to the reference masks."""
    cap = 2 * env.instance.total_operations
    for _ in range(cap + 1):
        masks = reference_masks(env)
        assert env._option_masks() == masks
        # The skip loop stops only where some job can start.
        assert any(masks) != env.done
        if env.done:
            return
        env.step(rng.randrange(len(env.legal_allocations())))
    pytest.fail(f"walk on {env.instance.name} passed {cap} steps")


class TestLanes:
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=0, max_value=1_000))
    @settings(max_examples=100, deadline=None)
    def test_match_reference_masks(self, seed, walk_seed):
        env = SchedulingEnv(tiny_instance(seed, max_jobs=4))
        rng = Random(walk_seed)
        for _ in range(2):
            env.reset()
            walk_checking_lanes(env, rng)

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=0, max_value=1_000))
    @settings(max_examples=100, deadline=None)
    def test_constrained_match_reference_masks(self, seed, walk_seed):
        # Stage 2 of a split under stage 1's order: waits and unblocks.
        inst = tiny_instance(seed, max_jobs=4)
        assume(max(len(job) for job in inst.jobs) >= 2)
        rng = Random(walk_seed)
        plan = split(inst, DivisionConfig(strategy="mean"))
        stage1 = SchedulingEnv(combine(plan, 1))
        walk_checking_lanes(stage1, rng)
        env = SchedulingEnv(combine(plan, 2),
                            machine_order(stage1.extract_schedule()))
        for _ in range(2):
            env.reset()
            walk_checking_lanes(env, rng)

    @given(st.integers(min_value=0, max_value=1_000))
    @settings(max_examples=20, deadline=None)
    def test_wide_lanes_match_reference_masks(self, walk_seed):
        # 128 machines: each lane is wider than a machine word.
        inst, _ = WIDE["128-machines"]
        walk_checking_lanes(SchedulingEnv(inst), Random(walk_seed))


class TestMemo:
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=0, max_value=1_000))
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_along_random_walks(self, seed, walk_seed):
        env = SchedulingEnv(tiny_instance(seed, max_jobs=4))
        rng = Random(walk_seed)
        for _ in range(3):  # later episodes hit the memo
            env.reset()
            walk_checking_memo(env, rng)

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=0, max_value=1_000))
    @settings(max_examples=60, deadline=None)
    def test_constrained_matches_reference(self, seed, walk_seed):
        inst = tiny_instance(seed, max_jobs=4)
        assume(max(len(job) for job in inst.jobs) >= 2)
        rng = Random(walk_seed)
        plan = split(inst, DivisionConfig(strategy="mean"))
        stage1 = SchedulingEnv(combine(plan, 1))
        walk_checking_memo(stage1, rng)
        order = machine_order(stage1.extract_schedule())
        env = SchedulingEnv(combine(plan, 2), order)
        for _ in range(3):
            env.reset()
            walk_checking_memo(env, rng)

    def test_states_with_one_signature_share_a_list(self):
        # Job 0 runs two 1-unit ops on machine 0, job 1 one 5-unit op on
        # machine 1.
        env = SchedulingEnv(parse_instance("2 2\n2 1 1 1 1 1 1\n1 1 2 5\n"))
        env.step_allocation((WAIT, 1))
        before = env.observation()
        first = env.legal_allocations()
        assert first == [(0, WAIT), (WAIT, WAIT)]
        env.step_allocation((0, WAIT))  # job 0's first op ends at clock 1
        assert env.observation() != before
        assert env.legal_allocations() is first

    def test_envs_never_share_a_memo(self):
        inst = parse_instance("2 2\n2 2 1 3 2 3 1 2 2\n1 1 1 4\n")
        free = SchedulingEnv(inst)
        ordered = SchedulingEnv(inst, {0: ((0, 0), (1, 0)), 1: ((0, 1),)})
        assert free._memo is not ordered._memo
        assert free._memo is not SchedulingEnv(inst)._memo
        assert free.clone()._memo is free._memo
        assert free.legal_allocations() != ordered.legal_allocations()
