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

from .environment import DeadlockError, SchedulingEnv
from .instance import Instance
from .prepopulate import EpisodeTrace, backward_pass
from .schedule import Schedule


class QTable:
    """Map from (merged observation, action index) to value; default 0.

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
    gamma: float = 1.0
    epsilon_start: float = 1.0
    epsilon_min: float = 0.05
    epsilon_decay: float = 0.999
    episodes: int = 10_000
    test_interval: int = 100
    seed: int = 0
    prepopulate: bool = True
    include_immediate_reward: bool = False
    convergence_patience: int = 20
    stop_on_convergence: bool = False
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
    best_makespan: int
    episode_makespans: list[int]
    episode_times: list[float]  # elapsed seconds at the end of each episode
    test_makespans: list[tuple[int, int]]  # (episode, greedy makespan)
    test_times: list[float]  # elapsed seconds at the end of each greedy test
    episodes_to_best: int
    time_to_best: float
    # First greedy test that achieved the run's final best makespan; None if
    # no test ever matched it.  This is the convergence measurement.
    convergence_episode: int | None
    convergence_time: float | None
    converged_at_episode: int | None
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
           s_next: tuple[int, ...], next_legal_count: int,
           alpha: float, gamma: float):
    """One-step temporal-difference update; terminal bootstrap is 0."""
    target = r + gamma * q.max_value(s_next, next_legal_count)
    q.set(s, a, q.get(s, a) + alpha * (target - q.get(s, a)))


def _rollout(env: SchedulingEnv, q: QTable, epsilon: float, rng: Random,
             cfg: LearnerConfig, learn: bool) -> tuple[int, EpisodeTrace]:
    """One full episode; returns (makespan, trace)."""
    env.reset()
    pairs: list[tuple[tuple[int, ...], int]] = []
    rewards: list[int] = []
    done = env.done
    while not done:
        obs = env.observation().merged()
        legal_count = len(env.legal_allocations())
        if legal_count == 0:
            # Only possible when an external action filter (policy
            # constraint) removes every assignment in a non-terminal state.
            raise DeadlockError("no legal action available")
        action = select_action(q, obs, legal_count, epsilon, rng)
        result = env.step(action)
        obs_next = result.observation.merged()
        next_count = 0 if result.done else len(env.legal_allocations())
        if learn:
            update(q, obs, action, result.reward, obs_next, next_count,
                   cfg.alpha, cfg.gamma)
        pairs.append((obs, action))
        rewards.append(result.reward)
        done = result.done
    return env.clock, EpisodeTrace(pairs, rewards)


def greedy_rollout(env_or_instance, q: QTable) -> Schedule:
    """Deterministic epsilon=0 episode without updates."""
    env = _as_env(env_or_instance)
    env.reset()
    while not env.done:
        obs = env.observation().merged()
        action = q.argmax(obs, len(env.legal_allocations()))
        env.step(action)
    return env.extract_schedule()


def _as_env(env_or_instance) -> SchedulingEnv:
    if isinstance(env_or_instance, Instance):
        return SchedulingEnv(env_or_instance)
    return env_or_instance


def train(inst_or_env, cfg: LearnerConfig, q: QTable | None = None,
          epsilon: float | None = None) -> TrainingReport:
    """Run cfg.episodes training episodes and track the best schedule.

    `q` and `epsilon` allow resuming a previous run.  Every
    cfg.test_interval episodes a greedy test episode is rolled out;
    convergence is recorded once the greedy makespan has not improved for
    cfg.convergence_patience consecutive tests.
    """
    env = _as_env(inst_or_env)
    q = q if q is not None else QTable()
    rng = Random(cfg.seed)
    eps = cfg.epsilon_start if epsilon is None else epsilon

    start = time.perf_counter()
    best_makespan: int | None = None
    best_schedule: Schedule | None = None
    episodes_to_best = 0
    time_to_best = 0.0
    episode_makespans: list[int] = []
    episode_times: list[float] = []
    test_makespans: list[tuple[int, int]] = []
    test_times: list[float] = []
    converged_at: int | None = None
    best_test: int | None = None
    tests_since_improvement = 0

    def record(ms: int, schedule_env: SchedulingEnv, episode: int):
        nonlocal best_makespan, best_schedule, episodes_to_best, time_to_best
        if best_makespan is None or ms < best_makespan:
            best_makespan = ms
            best_schedule = schedule_env.extract_schedule()
            episodes_to_best = episode
            time_to_best = time.perf_counter() - start

    for episode in range(1, cfg.episodes + 1):
        ms, trace = _rollout(env, q, eps, rng, cfg, learn=True)
        episode_makespans.append(ms)
        episode_times.append(time.perf_counter() - start)
        record(ms, env, episode)
        if cfg.prepopulate:
            backward_pass(q, trace, cfg.include_immediate_reward)
        eps = max(cfg.epsilon_min, eps * cfg.epsilon_decay)

        if episode % cfg.test_interval == 0:
            test_ms, _ = _rollout(env, q, 0.0, rng, cfg, learn=False)
            test_makespans.append((episode, test_ms))
            test_times.append(time.perf_counter() - start)
            record(test_ms, env, episode)
            if best_test is None or test_ms < best_test:
                best_test = test_ms
                tests_since_improvement = 0
            else:
                tests_since_improvement += 1
                if (converged_at is None
                        and tests_since_improvement >= cfg.convergence_patience):
                    converged_at = episode
                    if cfg.stop_on_convergence:
                        break
        if (cfg.time_budget is not None
                and time.perf_counter() - start > cfg.time_budget):
            break

    assert best_schedule is not None and best_makespan is not None
    convergence_episode = convergence_time = None
    for (test_episode, test_ms), elapsed in zip(test_makespans, test_times):
        if test_ms <= best_makespan:
            convergence_episode, convergence_time = test_episode, elapsed
            break
    return TrainingReport(
        best_schedule=best_schedule,
        best_makespan=best_makespan,
        episode_makespans=episode_makespans,
        episode_times=episode_times,
        test_makespans=test_makespans,
        test_times=test_times,
        episodes_to_best=episodes_to_best,
        time_to_best=time_to_best,
        convergence_episode=convergence_episode,
        convergence_time=convergence_time,
        converged_at_episode=converged_at,
        wall_time=time.perf_counter() - start,
        q=q,
        final_epsilon=eps,
    )
