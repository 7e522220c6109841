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

_WIDTH = (1 << 32) - 1  # the width bits of a row handle


class QTable:
    """Map from (observation, action index) to value; default 0.

    All true returns are non-positive, so the default is an optimistic
    upper bound.  All values live in one ``array('d')``, ``_values``.  Each
    observation's row is a run of slots there, by action index, as wide as
    the highest index stored so far.  ``_rows`` maps the observation to the
    row's handle, one int: ``start << 32 | width``.  A row that must grow
    is copied, wider, to the end of ``_values``; its old slots are left
    behind as a hole that nothing reads.  So a handle goes stale after any
    write that can grow its row, and must be looked up again.

    A slot never set holds ``+0.0`` and a stored 0 is kept as ``-0.0``:
    both read as 0, but only the stored one counts in `len` and `items`.
    Slots past a row read 0 too.

    The public methods are `len`, `get`, `keep_max` and `items`.  The
    learner reads and writes rows through handles, with the module's
    `_get`, `_max`, `_argmax` and `_put`.

    Observations are the environment's packed ``bytes`` (any hashable key
    works).  A ``bytes`` key caches its hash, so the several lookups of one
    step hash it once.
    """

    def __init__(self):
        self._values = array("d")
        self._rows: dict[bytes, int] = {}
        self._stored = 0

    def __len__(self) -> int:
        """Number of stored (observation, action) pairs."""
        return self._stored

    def get(self, obs: bytes, action: int) -> float:
        return _get(self._values, self._rows.get(obs), action)

    def keep_max(self, obs: bytes, action: int, value: float):
        """Store `value` unless the pair already holds a larger one.  An
        unstored pair always takes it, whatever the default."""
        handle = self._rows.get(obs)
        if (handle is None or action >= handle & _WIDTH
                or not _is_set(old := self._values[(handle >> 32) + action])
                or old <= value):
            self._put(obs, handle, action, value)

    def _put(self, obs: bytes, handle: int | None, action: int, value: float):
        """Store `value` for (`obs`, `action`), given `obs`'s current handle
        (None when it has no row)."""
        values = self._values
        if handle is None or action >= handle & _WIDTH:
            # Append a zeroed row wide enough for `action`, after a copy of
            # the old row if there is one.
            end = len(values)
            if handle is not None:
                start = handle >> 32
                values.extend(values[start:start + (handle & _WIDTH)])
            values.frombytes(bytes(8 * (end + action + 1 - len(values))))
            handle = self._rows[obs] = end << 32 | action + 1
        slot = (handle >> 32) + action
        if not _is_set(values[slot]):
            self._stored += 1
        values[slot] = value or -0.0

    def items(self):
        """((observation, action), value) of every stored pair, rows in
        insertion order and actions ascending."""
        values = self._values
        for obs, handle in self._rows.items():
            start = handle >> 32
            row = values[start:start + (handle & _WIDTH)]
            for action, value in enumerate(row):
                if _is_set(value):
                    yield (obs, action), value + 0.0


def _get(values: array, handle: int | None, action: int) -> float:
    """The value of slot `action` of the row at `handle` (None: no row)."""
    if handle is None or action >= handle & _WIDTH:
        return 0.0
    # Adding +0.0 reads a stored -0.0 as 0.0.
    return values[(handle >> 32) + action] + 0.0


def _max(values: array, handle: int | None, action_count: int) -> float:
    """Max over the first `action_count` slots of the row at `handle`
    (None: no row); 0 when `action_count` is 0."""
    if handle is None or action_count == 0:
        return 0.0
    start, width = handle >> 32, handle & _WIDTH
    best = max(values[start:start + min(action_count, width)])
    # Slots past the row read 0.
    return best if action_count <= width else max(best, 0.0)


def _argmax(values: array, handle: int | None, action_count: int) -> int:
    """Lowest index of the max over the first `action_count` slots of the
    row at `handle` (None: no row)."""
    if handle is None or action_count <= 1:
        return 0
    start, width = handle >> 32, handle & _WIDTH
    row = values[start:start + min(action_count, width)]
    best = max(row)
    if best < 0 and action_count > width:
        return width  # the first slot past the row reads 0
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
        for name in ("alpha", "epsilon_start", "epsilon_min", "epsilon_decay"):
            if type(value := getattr(self, name)) not in (int, float):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha!r}")
        if not 0 <= self.epsilon_start <= 1:
            raise ValueError("epsilon_start must be in [0, 1], "
                             f"got {self.epsilon_start!r}")
        if not 0 <= self.epsilon_min <= self.epsilon_start:
            raise ValueError("epsilon_min must be in [0, epsilon_start] = "
                             f"[0, {self.epsilon_start!r}], "
                             f"got {self.epsilon_min!r}")
        if not 0 < self.epsilon_decay <= 1:
            raise ValueError("epsilon_decay must be in (0, 1], "
                             f"got {self.epsilon_decay!r}")
        for name in ("episodes", "test_interval"):
            if type(value := getattr(self, name)) is not int or value < 1:
                raise ValueError(f"{name} must be a positive int, got {value!r}")
        if type(self.seed) is not int:
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        for name in ("prepopulate", "include_immediate_reward"):
            if type(value := getattr(self, name)) is not bool:
                raise ValueError(f"{name} must be a bool, got {value!r}")
        budget = self.time_budget
        if budget is not None and (type(budget) not in (int, float)
                                   or not 0 < budget < inf):
            raise ValueError("time_budget must be None or a finite positive "
                             f"number of seconds, got {budget!r}")


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
    return _argmax(q._values, q._rows.get(obs), legal_count)


def update(q: QTable, s: bytes, a: int, r: int,
           s_next: bytes, next_legal_count: int, alpha: float):
    """One-step temporal-difference update; terminal bootstrap is 0."""
    rows, values = q._rows, q._values
    target = r + _max(values, rows.get(s_next), next_legal_count)
    handle = rows.get(s)
    value = _get(values, handle, a)
    q._put(s, handle, a, value + alpha * (target - value))


def _play(env: SchedulingEnv, q: QTable, epsilon: float, rng: Random | None
          ) -> tuple[EpisodeTrace, list[int | None], list[int]]:
    """One epsilon-greedy episode that reads `q` and writes nothing; ties
    go to the lowest index, and `rng` is read only when epsilon > 0.
    Returns the trace and, per step, the state's row handle and its
    legal-action count.

    Each step starts an operation or, by a pure wait, finishes one, so an
    episode that has not ended in twice the operation count is an
    environment fault, raised as :class:`SchedulingError`.
    """
    rows, values = q._rows, q._values
    obs = env.reset()
    pairs, rewards, handles, counts = [], [], [], []
    limit = 2 * env.instance.total_operations
    for _ in range(limit):
        legal = env.legal_allocations()
        handle = rows.get(obs)
        if epsilon > 0 and rng.random() < epsilon:
            action = rng.randrange(len(legal))
        else:
            action = _argmax(values, handle, len(legal))
        pairs.append((obs, action))
        handles.append(handle)
        counts.append(len(legal))
        # The index comes from `legal`, so `step`'s checks cannot fail.
        obs, reward, done, _ = env._apply(legal[action])
        rewards.append(reward)
        if done:
            return EpisodeTrace(pairs, rewards), handles, counts
    raise SchedulingError(f"episode on {env.instance.name} "
                          f"did not end in {limit} steps")


def _rollout(env: SchedulingEnv, q: QTable, epsilon: float, rng: Random,
             alpha: float) -> tuple[int, EpisodeTrace]:
    """One learning episode; returns (makespan, trace).

    `_play`, then each step's one-step TD update in step order, which
    bootstraps from the next step's row (from 0 after the last step).  This
    equals updating inside the loop: each step starts or finishes an
    operation, so no state repeats and no row is written before it is read;
    and a `_put` moves only its own row, so the recorded handles stay valid.
    """
    trace, handles, counts = _play(env, q, epsilon, rng)
    values, put = q._values, q._put
    for (obs, action), reward, handle, next_handle, next_count in zip(
            trace.pairs, trace.rewards, handles, handles[1:] + [None],
            counts[1:] + [0]):
        target = reward + _max(values, next_handle, next_count)
        value = _get(values, handle, action)
        put(obs, handle, action, value + alpha * (target - value))
    return env.clock, trace


def _greedy(env: SchedulingEnv, q: QTable) -> int:
    """One epsilon=0 episode without updates; returns the makespan."""
    _play(env, q, 0, None)
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
