"""Tabular Q-learning over the scheduling environment.

Epsilon-greedy rollouts with multiplicative epsilon decay, one-step TD
updates with discount 1 (returns are negative makespans), an optional
backward-pass prepopulation after each episode, and a periodic greedy test
that tracks the best schedule found.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from math import copysign, inf
from random import Random

from .environment import SchedulingEnv, SchedulingError
from .instance import Instance
from .prepopulate import EpisodeTrace, backward_pass
from .schedule import Schedule


class QTable:
    """Map from (observation, action index) to value; default 0.

    All true returns are non-positive, so the default is an optimistic
    upper bound.  Each observation has one row, an ``array('d')`` of values
    by action index, grown on `set` to the highest index stored.  A slot
    never set holds ``+0.0`` and a stored 0 is kept as ``-0.0``: both read
    as 0 to `get`, `max` and `index`, but `has` tells them apart.

    Observations are the environment's packed ``bytes`` (any hashable key
    works).  A ``bytes`` key caches its hash, so the several lookups of one
    step hash it once.
    """

    def __init__(self):
        self._rows: dict[bytes, array] = {}
        self._stored = 0

    def __len__(self) -> int:
        """Number of stored (observation, action) pairs."""
        return self._stored

    def has(self, obs: bytes, action: int) -> bool:
        row = self._rows.get(obs)
        return row is not None and action < len(row) and _is_set(row[action])

    def get(self, obs: bytes, action: int) -> float:
        row = self._rows.get(obs)
        # Adding +0.0 reads a stored -0.0 as 0.0.
        return row[action] + 0.0 if row is not None and action < len(row) else 0.0

    def set(self, obs: bytes, action: int, value: float):
        row = self._rows.get(obs)
        if row is None:
            row = self._rows[obs] = array("d", bytes(8 * (action + 1)))
        elif action >= len(row):
            row.frombytes(bytes(8 * (action + 1 - len(row))))
        if not _is_set(row[action]):
            self._stored += 1
        row[action] = value or -0.0

    def items(self):
        """((observation, action), value) of every stored pair, rows in
        insertion order and actions ascending."""
        for obs, row in self._rows.items():
            for action, value in enumerate(row):
                if _is_set(value):
                    yield (obs, action), value + 0.0

    def max_value(self, obs: bytes, action_count: int) -> float:
        """Max over the first `action_count` actions; 0 when none stored."""
        row = self._rows.get(obs)
        if row is None or action_count == 0:
            return 0.0
        if action_count < len(row):
            row = row[:action_count]
        best = max(row)
        # Slots past the row read 0.
        return best if action_count == len(row) else max(best, 0.0)

    def argmax(self, obs: bytes, action_count: int) -> int:
        """Lowest index of the max over the first `action_count` actions."""
        row = self._rows.get(obs)
        if row is None or action_count <= 1:
            return 0
        if action_count < len(row):
            row = row[:action_count]
        best = max(row)
        if best < 0 and action_count > len(row):
            return len(row)  # the first slot past the row reads 0
        return row.index(best)


def _is_set(value: float) -> bool:
    """Whether a row slot holds a stored value: anything but ``+0.0``."""
    return value != 0.0 or copysign(1.0, value) < 0


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
        for name in ("episodes", "test_interval"):
            if (value := getattr(self, name)) < 1:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.time_budget is not None and not 0 < self.time_budget < inf:
            raise ValueError("time_budget must be None or a finite positive "
                             f"number of seconds, got {self.time_budget!r}")


@dataclass
class TrainingReport:
    best_schedule: Schedule
    episode_makespans: list[int]
    episode_times: list[float]  # elapsed seconds at the end of each episode
    test_makespans: list[tuple[int, int]]  # (episode, greedy makespan)
    test_times: list[float]  # elapsed seconds at the end of each greedy test
    wall_time: float
    q: QTable
    final_epsilon: float


def select_action(q: QTable, obs: bytes, legal_count: int,
                  epsilon: float, rng: Random) -> int:
    """Epsilon-greedy with deterministic lowest-index tie-breaking."""
    if legal_count < 1:
        raise ValueError("no legal actions to select from")
    if epsilon > 0 and rng.random() < epsilon:
        return rng.randrange(legal_count)
    return q.argmax(obs, legal_count)


def update(q: QTable, s: bytes, a: int, r: int,
           s_next: bytes, next_legal_count: int, alpha: float):
    """One-step temporal-difference update; terminal bootstrap is 0."""
    target = r + q.max_value(s_next, next_legal_count)
    value = q.get(s, a)
    q.set(s, a, value + alpha * (target - value))


def _rollout(env: SchedulingEnv, q: QTable, epsilon: float, rng: Random,
             alpha: float) -> tuple[int, EpisodeTrace]:
    """One learning episode; returns (makespan, trace)."""
    obs = env.reset()
    count = len(env.legal_allocations())
    pairs: list[tuple[bytes, int]] = []
    rewards: list[int] = []
    done = False
    while not done:
        action = select_action(q, obs, count, epsilon, rng)
        result = env.step(action)
        done = result.done
        count = 0 if done else len(env.legal_allocations())
        update(q, obs, action, result.reward, result.observation, count, alpha)
        pairs.append((obs, action))
        rewards.append(result.reward)
        obs = result.observation
    return env.clock, EpisodeTrace(pairs, rewards)


def _greedy(env: SchedulingEnv, q: QTable) -> int:
    """One epsilon=0 episode without updates; returns the makespan.

    Each step starts an operation or, by a pure wait, finishes one, so an
    episode that has not ended in twice the operation count is an
    environment fault, raised as :class:`SchedulingError`.
    """
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


def greedy_rollout(env_or_instance, q: QTable) -> Schedule:
    """Schedule of the greedy episode of `q`."""
    env = _as_env(env_or_instance)
    _greedy(env, q)
    return env.extract_schedule()


def _as_env(env_or_instance) -> SchedulingEnv:
    if isinstance(env_or_instance, Instance):
        return SchedulingEnv(env_or_instance)
    return env_or_instance


def train(inst_or_env, cfg: LearnerConfig) -> TrainingReport:
    """Run cfg.episodes training episodes from an empty Q-table and track
    the best schedule.  Every cfg.test_interval episodes a greedy test
    episode is rolled out.
    """
    env = _as_env(inst_or_env)
    q = QTable()
    rng = Random(cfg.seed)
    eps = cfg.epsilon_start

    start = time.perf_counter()
    best_schedule: Schedule | None = None
    episode_makespans: list[int] = []
    episode_times: list[float] = []
    test_makespans: list[tuple[int, int]] = []
    test_times: list[float] = []

    def record(ms: int):
        nonlocal best_schedule
        if best_schedule is None or ms < best_schedule.makespan:
            best_schedule = env.extract_schedule()

    for episode in range(1, cfg.episodes + 1):
        ms, trace = _rollout(env, q, eps, rng, cfg.alpha)
        episode_makespans.append(ms)
        episode_times.append(time.perf_counter() - start)
        record(ms)
        if cfg.prepopulate:
            backward_pass(q, trace, cfg.include_immediate_reward)
        eps = max(cfg.epsilon_min, eps * cfg.epsilon_decay)

        if episode % cfg.test_interval == 0:
            test_ms = _greedy(env, q)
            test_makespans.append((episode, test_ms))
            test_times.append(time.perf_counter() - start)
            record(test_ms)
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
        wall_time=time.perf_counter() - start,
        q=q,
        final_epsilon=eps,
    )
