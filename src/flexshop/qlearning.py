"""Tabular Q-learning over the scheduling environment.

Epsilon-greedy rollouts with multiplicative epsilon decay, one-step TD
updates with discount 1 (returns are negative makespans), an optional
backward-pass prepopulation after each episode, and a periodic greedy test
that tracks the best schedule found.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from random import Random

from .environment import SchedulingEnv
from .instance import Instance
from .prepopulate import EpisodeTrace, backward_pass
from .schedule import Schedule


class QTable:
    """Map from (observation, action index) to value; default 0.

    All true returns are non-positive, so the default is an optimistic
    upper bound.
    """

    def __init__(self):
        self._table: dict[tuple[tuple[int, ...], int], float] = {}

    def __len__(self) -> int:
        return len(self._table)

    def has(self, obs: tuple[int, ...], action: int) -> bool:
        return (obs, action) in self._table

    def get(self, obs: tuple[int, ...], action: int) -> float:
        return self._table.get((obs, action), 0.0)

    def set(self, obs: tuple[int, ...], action: int, value: float):
        self._table[(obs, action)] = value

    def max_value(self, obs: tuple[int, ...], action_count: int) -> float:
        """Max over the first `action_count` actions; 0 when none stored."""
        if action_count == 0:
            return 0.0
        return max(self.get(obs, a) for a in range(action_count))

    def argmax(self, obs: tuple[int, ...], action_count: int) -> int:
        best, best_value = 0, self.get(obs, 0)
        for a in range(1, action_count):
            value = self.get(obs, a)
            if value > best_value:
                best, best_value = a, value
        return best


@dataclass
class LearnerConfig:
    alpha: float = 0.1
    epsilon_start: float = 1.0
    epsilon_min: float = 0.05
    epsilon_decay: float = 0.999
    episodes: int = 10_000
    test_interval: int = 100
    seed: int = 0
    prepopulate: bool = True
    include_immediate_reward: bool = False
    time_budget: float | None = None  # wall-clock seconds, None = unlimited

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        if not 0 <= self.epsilon_min <= self.epsilon_start <= 1:
            raise ValueError("need 0 <= epsilon_min <= epsilon_start <= 1")
        if not 0 < self.epsilon_decay <= 1:
            raise ValueError("epsilon_decay must be in (0, 1]")
        if self.episodes < 1 or self.test_interval < 1:
            raise ValueError("episodes and test_interval must be positive")


@dataclass
class TrainingReport:
    best_schedule: Schedule
    episode_makespans: list[int]
    episode_times: list[float]  # elapsed seconds at the end of each episode
    test_makespans: list[tuple[int, int]]  # (episode, greedy makespan)
    test_times: list[float]  # elapsed seconds at the end of each greedy test
    episodes_to_best: int
    wall_time: float
    q: QTable
    final_epsilon: float


def select_action(q: QTable, obs: tuple[int, ...], legal_count: int,
                  epsilon: float, rng: Random) -> int:
    """Epsilon-greedy with deterministic lowest-index tie-breaking."""
    if legal_count < 1:
        raise ValueError("no legal actions to select from")
    if epsilon > 0 and rng.random() < epsilon:
        return rng.randrange(legal_count)
    return q.argmax(obs, legal_count)


def update(q: QTable, s: tuple[int, ...], a: int, r: int,
           s_next: tuple[int, ...], next_legal_count: int, alpha: float):
    """One-step temporal-difference update; terminal bootstrap is 0."""
    target = r + q.max_value(s_next, next_legal_count)
    q.set(s, a, q.get(s, a) + alpha * (target - q.get(s, a)))


def _rollout(env: SchedulingEnv, q: QTable, epsilon: float, rng: Random,
             alpha: float) -> tuple[int, EpisodeTrace]:
    """One learning episode; returns (makespan, trace)."""
    env.reset()
    pairs: list[tuple[tuple[int, ...], int]] = []
    rewards: list[int] = []
    done = env.done
    while not done:
        obs = env.observation()
        action = select_action(q, obs, len(env.legal_allocations()), epsilon, rng)
        result = env.step(action)
        done = result.done
        next_count = 0 if done else len(env.legal_allocations())
        update(q, obs, action, result.reward, result.observation,
               next_count, alpha)
        pairs.append((obs, action))
        rewards.append(result.reward)
    return env.clock, EpisodeTrace(pairs, rewards)


def _greedy(env: SchedulingEnv, q: QTable) -> int:
    """One epsilon=0 episode without updates; returns the makespan."""
    env.reset()
    while not env.done:
        env.step(q.argmax(env.observation(), len(env.legal_allocations())))
    return env.clock


def greedy_rollout(env_or_instance, q: QTable) -> Schedule:
    """Schedule of the greedy episode of `q`."""
    env = _as_env(env_or_instance)
    _greedy(env, q)
    return env.extract_schedule()


def _as_env(env_or_instance) -> SchedulingEnv:
    if isinstance(env_or_instance, Instance):
        return SchedulingEnv(env_or_instance)
    return env_or_instance


def train(inst_or_env, cfg: LearnerConfig, q: QTable | None = None,
          epsilon: float | None = None) -> TrainingReport:
    """Run cfg.episodes training episodes and track the best schedule.

    `q` and `epsilon` allow resuming a previous run.  Every
    cfg.test_interval episodes a greedy test episode is rolled out.
    """
    env = _as_env(inst_or_env)
    q = q if q is not None else QTable()
    rng = Random(cfg.seed)
    eps = cfg.epsilon_start if epsilon is None else epsilon

    start = time.perf_counter()
    best_schedule: Schedule | None = None
    episodes_to_best = 0
    episode_makespans: list[int] = []
    episode_times: list[float] = []
    test_makespans: list[tuple[int, int]] = []
    test_times: list[float] = []

    def record(ms: int, episode: int):
        nonlocal best_schedule, episodes_to_best
        if best_schedule is None or ms < best_schedule.makespan:
            best_schedule = env.extract_schedule()
            episodes_to_best = episode

    for episode in range(1, cfg.episodes + 1):
        ms, trace = _rollout(env, q, eps, rng, cfg.alpha)
        episode_makespans.append(ms)
        episode_times.append(time.perf_counter() - start)
        record(ms, episode)
        if cfg.prepopulate:
            backward_pass(q, trace, cfg.include_immediate_reward)
        eps = max(cfg.epsilon_min, eps * cfg.epsilon_decay)

        if episode % cfg.test_interval == 0:
            test_ms = _greedy(env, q)
            test_makespans.append((episode, test_ms))
            test_times.append(time.perf_counter() - start)
            record(test_ms, episode)
        if (cfg.time_budget is not None
                and time.perf_counter() - start > cfg.time_budget):
            break

    assert best_schedule is not None
    return TrainingReport(
        best_schedule=best_schedule,
        episode_makespans=episode_makespans,
        episode_times=episode_times,
        test_makespans=test_makespans,
        test_times=test_times,
        episodes_to_best=episodes_to_best,
        wall_time=time.perf_counter() - start,
        q=q,
        final_epsilon=eps,
    )
