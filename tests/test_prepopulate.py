"""Backward-pass Q-table seeding: hand traces and invariants."""

from random import Random

import pytest

from flexshop.environment import SchedulingEnv
from flexshop.prepopulate import EpisodeTrace, backward_pass
from flexshop.qlearning import QTable

from conftest import tiny_instance

S1, S2, S3 = (-1, 0), (0, 1), (1, 2)
PAIRS = [(S1, 0), (S2, 1), (S3, 0)]


class TestHandTraces:
    def test_first_pass_excludes_immediate_reward(self):
        q = QTable()
        backward_pass(q, EpisodeTrace(list(PAIRS), [-5, -7, -8]))
        assert q.get(S3, 0) == 0
        assert q.get(S2, 1) == -8
        assert q.get(S1, 0) == -15

    def test_second_pass_keeps_max(self):
        q = QTable()
        backward_pass(q, EpisodeTrace(list(PAIRS), [-5, -7, -8]))
        backward_pass(q, EpisodeTrace(list(PAIRS), [-5, -6, -4]))
        assert q.get(S2, 1) == -4   # max(-8, -4)
        assert q.get(S1, 0) == -10  # max(-15, -10)

    def test_include_immediate_reward_order(self):
        q = QTable()
        backward_pass(q, EpisodeTrace(list(PAIRS), [-5, -7, -8]),
                      include_immediate_reward=True)
        assert q.get(S3, 0) == -8
        assert q.get(S2, 1) == -15
        assert q.get(S1, 0) == -20

    def test_empty_trace_noop(self):
        q = QTable()
        backward_pass(q, EpisodeTrace([], []))
        assert len(q) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            EpisodeTrace([(S1, 0)], [-1, -2])


class TestHeuristicValue:
    def test_unseen_default(self):
        assert QTable().get(S1, 0) == 0

    def test_after_passes(self):
        q = QTable()
        backward_pass(q, EpisodeTrace(list(PAIRS), [-5, -7, -8]))
        assert q.get(S1, 0) == -15
        backward_pass(q, EpisodeTrace(list(PAIRS), [-5, -6, -4]))
        assert q.get(S1, 0) == -10


def random_traces(inst, episodes, seed):
    env = SchedulingEnv(inst)
    rng = Random(seed)
    traces = []
    for _ in range(episodes):
        env.reset()
        pairs, rewards = [], []
        while not env.done:
            obs = env.observation()
            action = rng.randrange(len(env.legal_allocations()))
            result = env.step(action)
            pairs.append((obs, action))
            rewards.append(result.reward)
        traces.append(EpisodeTrace(pairs, rewards))
    return traces


class TestInvariants:
    def test_monotone_and_equals_max_over_episodes(self):
        inst = tiny_instance(3)
        traces = random_traces(inst, 50, seed=1)
        q = QTable()
        best: dict = {}
        for trace in traces:
            previous = {key: q.get(*key) for key in best}
            backward_pass(q, trace)
            # Monotonicity: stored values never decrease.
            for key, value in previous.items():
                assert q.get(*key) >= value
            # Track the independent max of post-action cumulative rewards.
            cumulative = 0
            for (obs, action), reward in zip(reversed(trace.pairs),
                                             reversed(trace.rewards)):
                key = (obs, action)
                best[key] = max(best.get(key, cumulative), cumulative)
                cumulative += reward
        for (obs, action), value in best.items():
            assert q.get(obs, action) == value
