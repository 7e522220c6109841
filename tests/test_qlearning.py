"""Q-table mechanics, action selection, TD updates, and training runs."""

import gc
import tracemalloc
from array import array
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from flexshop import division, make_solver, qlearning
from flexshop.data import load_bundled
from flexshop.division import DivisionConfig, solve_divided
from flexshop.environment import SchedulingEnv, SchedulingError, StepResult, WAIT
from flexshop.instance import parse_instance
from flexshop.prepopulate import EpisodeTrace
from flexshop.qlearning import (
    LearnerConfig,
    QTable,
    _argmax,
    _max,
    greedy_rollout,
    select_action,
    train,
    update,
)
from flexshop.baselines import BaselineConfig, exhaustive_oracle

from conftest import tiny_instance

OBS = (-1, -1, 0, 0)


class FlatQTable:
    """Reference Q-table: one dict entry per (observation, action) pair."""

    def __init__(self):
        self.table = {}

    def __len__(self):
        return len(self.table)

    def has(self, obs, action):
        return (obs, action) in self.table

    def get(self, obs, action):
        return self.table.get((obs, action), 0.0)

    def set(self, obs, action, value):
        self.table[(obs, action)] = value

    def keep_max(self, obs, action, value):
        if not self.has(obs, action) or self.get(obs, action) <= value:
            self.set(obs, action, value)

    def items(self):
        return self.table.items()

    def max_value(self, obs, action_count):
        return max((self.get(obs, a) for a in range(action_count)),
                   default=0.0)

    def argmax(self, obs, action_count):
        best, best_value = 0, self.get(obs, 0)
        for a in range(1, action_count):
            value = self.get(obs, a)
            if value > best_value:
                best, best_value = a, value
        return best


def stored(q: QTable) -> list:
    """Every stored ((observation, action), value), sorted by key."""
    return sorted(q.items(), key=lambda item: item[0])


def row(q: QTable, obs) -> tuple:
    """The (values, handle) pair `_max` and `_argmax` read `obs`'s row by."""
    return q._values, q._rows.get(obs)


VALUES = st.one_of(st.sampled_from([0.0, -0.0, 0, -1.0, -2.0, 3.5]),
                   st.floats(allow_nan=False, allow_infinity=False))
# Two observations and few actions, so rows are often read with an
# action count both below and past their length, and a row often grows
# after the other row was appended, which moves it.
QTABLE_OPS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["set", "keep_max"]), st.integers(0, 1),
              st.integers(0, 4), VALUES),
    st.tuples(st.sampled_from(["get", "has"]), st.integers(0, 1),
              st.integers(0, 6)),
    st.tuples(st.sampled_from(["max_value", "argmax"]), st.integers(0, 1),
              st.integers(0, 7)),
    st.tuples(st.just("len")),
), max_size=40)


class TestQTable:
    @given(QTABLE_OPS)
    @example([("set", 0, 0, -2.0), ("argmax", 0, 3), ("max_value", 0, 3)])
    @settings(max_examples=300, deadline=None)
    def test_matches_flat_reference(self, ops):
        # QTable has no `set`, `has`, `max_value` or `argmax`; each is
        # checked through what the learner uses instead.
        q, ref = QTable(), FlatQTable()
        for name, *args in ops:
            if args:
                args[0] = (args[0], -1)  # an observation key
            if name == "set":
                obs, action, value = args
                q._put(obs, q._rows.get(obs), action, value)
                ref.set(*args)
            elif name == "keep_max":
                q.keep_max(*args)
                ref.keep_max(*args)
            elif name == "len":
                assert len(q) == len(ref)
            elif name == "has":
                assert (tuple(args) in dict(q.items())) == ref.has(*args)
            elif name == "get":
                assert q.get(*args) == ref.get(*args)
            else:
                obs, count = args
                fast = _max if name == "max_value" else _argmax
                assert fast(*row(q, obs), count) == getattr(ref, name)(*args)
        assert len(q) == len(ref)
        assert stored(q) == sorted(ref.items())

    def test_stored_zero_is_not_unset(self):
        q = QTable()
        q.keep_max(OBS, 2, 0.0)
        q.keep_max(OBS, 3, -0.0)
        assert len(q) == 2
        assert stored(q) == [((OBS, 2), 0.0), ((OBS, 3), 0.0)]

    def test_default_zero(self):
        q = QTable()
        assert q.get(OBS, 0) == 0.0
        assert len(q) == 0 and list(q.items()) == []

    def test_set_get(self):
        q = QTable()
        q.keep_max(OBS, 1, -7.5)
        assert q.get(OBS, 1) == -7.5
        assert list(q.items()) == [((OBS, 1), -7.5)]

    def test_max_value_with_unseen_gap(self):
        q = QTable()
        q.keep_max(OBS, 0, -3.0)
        q.keep_max(OBS, 2, -9.0)
        # Action 1 is unseen and defaults to the optimistic 0.
        assert _max(*row(q, OBS), 3) == 0.0
        assert _max(*row(q, OBS), 1) == -3.0

    def test_unset_slots_past_the_row(self):
        q = QTable()
        q.keep_max(OBS, 0, -5.0)
        q.keep_max(OBS, 1, -1.0)
        # Action 2 is past the stored row and defaults to the optimistic 0.
        assert _argmax(*row(q, OBS), 3) == 2
        assert _max(*row(q, OBS), 3) == 0.0
        assert _argmax(*row(q, OBS), 2) == 1
        assert _max(*row(q, OBS), 2) == -1.0

    def test_argmax_lowest_index_tie(self):
        q = QTable()
        q.keep_max(OBS, 0, -2.0)
        q.keep_max(OBS, 1, -2.0)
        assert _argmax(*row(q, OBS), 2) == 0

    def test_argmax_prefers_higher(self):
        q = QTable()
        q.keep_max(OBS, 0, -5.0)
        q.keep_max(OBS, 1, -1.0)
        assert _argmax(*row(q, OBS), 2) == 1

    def test_bytes_per_state(self, ft06):
        # The rl-bundled ft06 cell.  Every state's entry, key, handle and
        # slots, holes included, count; the rest of the fit does not.
        solver = make_solver("rl", episodes=500, test_interval=50, seed=0,
                             epsilon_decay=0.99, epsilon_min=0.01)
        tracemalloc.start()
        try:
            solver.fit(ft06)
            states = len({obs for (obs, _), _ in solver.report_.q.items()})
            gc.collect()
            with_q = tracemalloc.get_traced_memory()[0]
            solver.report_.q = None
            gc.collect()
            without_q = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert (with_q - without_q) / states <= 160


class TestSelectAction:
    def test_epsilon_zero_is_greedy_and_rng_untouched(self):
        q = QTable()
        q.keep_max(OBS, 1, 5.0)  # value sign irrelevant to selection mechanics
        rng = Random(0)
        state = rng.getstate()
        assert select_action(q, OBS, 3, 0.0, rng) == 1
        assert rng.getstate() == state

    def test_epsilon_one_uniform(self):
        rng = Random(42)
        counts = [0] * 4
        for _ in range(8000):
            counts[select_action(QTable(), OBS, 4, 1.0, rng)] += 1
        assert chisquare(counts).pvalue > 0.01

    def test_no_actions_error(self):
        with pytest.raises(ValueError):
            select_action(QTable(), OBS, 0, 0.5, Random(0))


class TestUpdate:
    def test_td_arithmetic(self):
        q = QTable()
        nxt = (0, -1, 1, 0)
        q.keep_max(nxt, 0, -4.0)
        update(q, OBS, 0, -2, nxt, 1, alpha=0.5)
        # target = -2 + (-4) = -6; new = 0 + 0.5 * (-6 - 0) = -3
        assert q.get(OBS, 0) == -3.0

    def test_terminal_bootstrap_zero(self):
        q = QTable()
        update(q, OBS, 0, -9, (0, 0, 2, 1), 0, alpha=1.0)
        assert q.get(OBS, 0) == -9.0

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            LearnerConfig(alpha=0.0)

    def test_epsilon_ordering_validation(self):
        with pytest.raises(ValueError):
            LearnerConfig(epsilon_start=0.1, epsilon_min=0.5)

    def test_time_budget_validation(self):
        for budget in (-1, 0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="time_budget"):
                LearnerConfig(time_budget=budget)
        assert LearnerConfig(time_budget=0.5).time_budget == 0.5


class TestTrain:
    def test_one_by_one(self, one_by_one):
        report = train(one_by_one, LearnerConfig(episodes=1))
        assert report.best_schedule.makespan == 5

    def test_determinism(self, toy):
        cfg = LearnerConfig(episodes=300, seed=11)
        a, b = train(toy, cfg), train(toy, cfg)
        assert a.episode_makespans == b.episode_makespans
        assert a.test_makespans == b.test_makespans
        assert a.best_schedule == b.best_schedule
        assert len(a.q) == len(b.q) > 0
        assert stored(a.q) == stored(b.q)

    def test_q_values_nonpositive(self, toy):
        report = train(toy, LearnerConfig(episodes=500, seed=3))
        assert len(report.q) > 0
        assert all(v <= 1e-9 for _, v in report.q.items())

    def test_epsilon_decay_floor(self, toy):
        cfg = LearnerConfig(episodes=200, epsilon_start=0.5, epsilon_min=0.4,
                            epsilon_decay=0.9)
        report = train(toy, cfg)
        assert report.final_epsilon == pytest.approx(0.4)

    def test_reward_identity_negative_makespan(self, toy):
        # Cumulative reward of every episode equals -makespan; verified
        # through the episode makespans the trainer records from env clocks.
        report = train(toy, LearnerConfig(episodes=100, seed=0))
        assert min(report.episode_makespans) == report.best_schedule.makespan

    def test_root_q_matches_optimum_after_convergence(self):
        # On exhaustively solvable instances, max_a Q(s0, a) converges to
        # -(optimal makespan) with discount 1.
        inst = tiny_instance(7, max_jobs=2, max_ops=2)
        opt = exhaustive_oracle(inst).makespan
        report = train(
            inst,
            LearnerConfig(episodes=4000, seed=0, alpha=1.0,
                          epsilon_decay=0.995, epsilon_min=0.2,
                          include_immediate_reward=True),
        )
        env = SchedulingEnv(inst)
        root = env.observation()
        n_actions = len(env.legal_allocations())
        assert report.best_schedule.makespan == opt
        assert _max(*row(report.q, root), n_actions) == -opt

    def test_time_budget_stops_early(self, ft06):
        report = train(ft06, LearnerConfig(episodes=1_000_000, time_budget=2.0))
        assert report.wall_time < 10
        assert len(report.episode_makespans) < 1_000_000


class PureWaitHolds(SchedulingEnv):
    """A faulty environment: a pure wait leaves the state as it is.  The
    51st held wait raises a sentinel, so a loop without a stall guard fails
    instead of hanging."""

    held = 0

    def _apply(self, allocation):
        if all(m == WAIT for m in allocation):
            self.held += 1
            if self.held > 50:
                raise RuntimeError("no stall guard: 50 held waits")
            return StepResult(self.observation(), 0, False, self.clock)
        return super()._apply(allocation)


STALLS = "2 2\n1 1 1 5\n1 1 2 5\n"


class TestGreedyRollout:
    def test_matches_last_greedy_test(self, ft06):
        # episodes is a multiple of test_interval, so the last greedy test
        # ran on the final Q-table.
        report = train(ft06, LearnerConfig(episodes=200, test_interval=50,
                                           seed=4))
        assert report.test_makespans[-1][0] == 200
        assert (report.test_makespans[-1][1]
                == greedy_rollout(ft06, report.q).makespan)

    def test_deterministic(self, toy):
        report = train(toy, LearnerConfig(episodes=300, seed=2))
        a = greedy_rollout(toy, report.q)
        b = greedy_rollout(toy, report.q)
        assert a == b

    def test_prepopulated_greedy_not_worse_than_best_seen(self):
        # Prepopulated values act as lower bounds on tiny instances: the
        # greedy rollout never does worse than the best episode seen.
        for seed in range(5):
            inst = tiny_instance(seed, max_jobs=2, max_ops=2)
            report = train(
                inst,
                LearnerConfig(episodes=2000, seed=seed,
                              include_immediate_reward=True),
            )
            sched = greedy_rollout(inst, report.q)
            assert sched.makespan <= max(report.episode_makespans)

    def test_stalled_environment_raises(self):
        env = PureWaitHolds(parse_instance(STALLS, name="stalls"))
        q = QTable()
        # Start job 0 alone, then prefer the pure wait over starting job 1.
        root = env.reset()
        assert env.legal_allocations()[1] == (0, WAIT)
        q.keep_max(root, 0, -1.0)
        env.step(1)
        assert env.legal_allocations() == [(WAIT, 1), (WAIT, WAIT)]
        q.keep_max(env.observation(), 0, -1.0)
        with pytest.raises(SchedulingError, match="stalls.*4 steps"):
            greedy_rollout(env, q)


class TestPlay:
    """`_play`, the one episode loop of training and greedy tests."""

    def test_training_on_stalled_environment_raises(self):
        # From an empty table at epsilon 0, the third episode starts job 0
        # alone and then holds the pure wait, whose untried slot reads 0.
        env = PureWaitHolds(parse_instance(STALLS, name="stalls"))
        cfg = LearnerConfig(epsilon_start=0.0, epsilon_min=0.0,
                            prepopulate=False, episodes=10, test_interval=10)
        with pytest.raises(SchedulingError, match="stalls.*4 steps"):
            train(env, cfg)

    @pytest.mark.parametrize("case", ["ft06", "la05", "la05 stage 2"])
    def test_reads_and_writes_nothing(self, case):
        cfg = DivisionConfig(episodes=60, test_interval=20, seed=3,
                             epsilon_decay=0.97)
        if case == "la05 stage 2":
            # rl-divided's second stage, under stage 1's machine order.
            la05 = load_bundled("la05")
            _, reports = solve_divided(la05, cfg)
            env = SchedulingEnv(division.combine(division.split(la05, cfg), 2),
                                division.machine_order(
                                    reports[0].best_schedule))
            q = reports[1].q
        else:
            env = SchedulingEnv(load_bundled(case))
            q = train(env, cfg).q
        before = len(q), list(q.items()), q._values.tobytes()
        trace, handles, counts = qlearning._play(env, q, 0.5, Random(1))
        assert (len(q), list(q.items()), q._values.tobytes()) == before
        assert env.done
        assert len(handles) == len(counts) == len(trace.pairs) > 0
        assert handles == [q._rows.get(obs) for obs, _ in trace.pairs]
        assert any(h is not None for h in handles)
        # Each count is the length of the step's legal list.
        obs = env.reset()
        for (played, action), count in zip(trace.pairs, counts):
            legal = env.legal_allocations()
            assert (obs, len(legal)) == (played, count)
            obs = env.step(action).observation


class TupleObservationEnv(SchedulingEnv):
    """Reference environment: the observation is a tuple of ints, as before
    it was packed into bytes."""

    def observation(self):
        return tuple(self.job_machine) + tuple(self.job_op)


def assert_same_training(packed, reference, code: str):
    """Equal results, and equal Q items in insertion order once the packed
    keys (typecode `code`) are unpacked."""
    assert packed.best_schedule == reference.best_schedule
    assert packed.episode_makespans == reference.episode_makespans
    assert packed.test_makespans == reference.test_makespans
    assert [((tuple(array(code, obs).tolist()), action), value)
            for (obs, action), value in packed.q.items()
            ] == list(reference.q.items())


class TestPackedObservation:
    """The learner over packed observations matches the tuple-keyed one."""

    @pytest.mark.parametrize("name", ["toy2x3", "ft06"])
    def test_train_matches_tuple_reference(self, name):
        env = SchedulingEnv(load_bundled(name))
        cfg = LearnerConfig(episodes=300, test_interval=50, seed=0,
                            epsilon_decay=0.99)
        assert_same_training(train(env, cfg),
                             train(TupleObservationEnv(env.instance), cfg),
                             env.job_op.typecode)

    def test_divided_matches_tuple_reference(self, la05, monkeypatch):
        # Stage 2 runs under stage 1's machine order.
        cfg = DivisionConfig(episodes=200, test_interval=50, seed=0,
                             epsilon_decay=0.99, parts=2)
        packed, packed_reports = solve_divided(la05, cfg)
        monkeypatch.setattr(division, "SchedulingEnv", TupleObservationEnv)
        reference, reference_reports = solve_divided(la05, cfg)
        assert packed == reference
        assert len(packed_reports) == len(reference_reports) == 2
        for p, r in zip(packed_reports, reference_reports):
            assert_same_training(p, r, "b")


def reference_select_action(q, obs, legal_count, epsilon, rng):
    """Epsilon-greedy through the reference table's `argmax`."""
    if epsilon > 0 and rng.random() < epsilon:
        return rng.randrange(legal_count)
    return q.argmax(obs, legal_count)


def reference_update(q, s, a, r, s_next, next_legal_count, alpha):
    """The TD update through the reference table's `max_value`, `get` and
    `set`."""
    target = r + q.max_value(s_next, next_legal_count)
    value = q.get(s, a)
    q.set(s, a, value + alpha * (target - value))


def reference_rollout(env, q, epsilon, rng, alpha):
    """The learner's episode as separate calls: select, `step` and
    update, with a second legal-list lookup per step."""
    obs = env.reset()
    count = len(env.legal_allocations())
    pairs, rewards = [], []
    done = False
    while not done:
        action = reference_select_action(q, obs, count, epsilon, rng)
        result = env.step(action)
        done = result.done
        count = 0 if done else len(env.legal_allocations())
        reference_update(q, obs, action, result.reward, result.observation,
                         count, alpha)
        pairs.append((obs, action))
        rewards.append(result.reward)
        obs = result.observation
    return env.clock, EpisodeTrace(pairs, rewards)


def reference_backward_pass(q, trace, include_immediate_reward=False):
    """The backward pass through `has`, `get` and `set`."""
    cumulative = 0
    for (obs, action), reward in zip(reversed(trace.pairs),
                                     reversed(trace.rewards)):
        if include_immediate_reward:
            cumulative += reward
        if not q.has(obs, action) or q.get(obs, action) <= cumulative:
            q.set(obs, action, cumulative)
        if not include_immediate_reward:
            cumulative += reward


def reference_greedy(env, q):
    """The greedy test through `argmax` and `step`, with a second
    legal-list lookup per step."""
    obs = env.reset()
    limit = 2 * env.instance.total_operations
    steps = 0
    while not env.done:
        if steps == limit:
            raise SchedulingError(f"greedy episode on {env.instance.name} "
                                  f"did not end in {limit} steps")
        steps += 1
        obs = env.step(q.argmax(obs, len(env.legal_allocations()))).observation
    return env.clock


def as_reference(monkeypatch):
    """Make `train` run the reference episode, greedy test and backward
    pass over a `FlatQTable`."""
    monkeypatch.setattr(qlearning, "_rollout", reference_rollout)
    monkeypatch.setattr(qlearning, "_greedy", reference_greedy)
    monkeypatch.setattr(qlearning, "backward_pass", reference_backward_pass)
    monkeypatch.setattr(qlearning, "QTable", FlatQTable)


def assert_same_learning(fused, reference):
    assert fused.best_schedule == reference.best_schedule
    assert fused.episode_makespans == reference.episode_makespans
    assert fused.test_makespans == reference.test_makespans
    assert stored(fused.q) == sorted(reference.q.items())


FUSED_CFG = dict(episodes=200, test_interval=50, seed=0, epsilon_decay=0.99,
                 epsilon_min=0.01)


class TestFusedRollout:
    """The learner's fused episode over one-lookup rows matches the
    reference episode over a dict per pair."""

    @pytest.mark.parametrize("name", ["toy2x3", "ft06", "flex06", "la05"])
    def test_bundled(self, name, monkeypatch):
        inst = load_bundled(name)
        cfg = LearnerConfig(**FUSED_CFG)
        fused = train(inst, cfg)
        as_reference(monkeypatch)
        assert_same_learning(fused, train(inst, cfg))

    def test_tiny_instances(self, monkeypatch):
        cases = []
        for seed in range(60):
            cfg = LearnerConfig(**dict(FUSED_CFG, seed=seed),
                                include_immediate_reward=seed % 2 == 1)
            cases.append((tiny_instance(seed), cfg))
        fused = [train(inst, cfg) for inst, cfg in cases]
        as_reference(monkeypatch)
        for report, (inst, cfg) in zip(fused, cases):
            assert_same_learning(report, train(inst, cfg))

    def test_divided_stages(self, la05, monkeypatch):
        # Stage 2 runs under stage 1's machine order.
        cfg = DivisionConfig(**FUSED_CFG, parts=2)
        fused, fused_reports = solve_divided(la05, cfg)
        as_reference(monkeypatch)
        reference, reference_reports = solve_divided(la05, cfg)
        assert fused == reference
        assert len(fused_reports) == len(reference_reports) == 2
        for f, r in zip(fused_reports, reference_reports):
            assert_same_learning(f, r)
