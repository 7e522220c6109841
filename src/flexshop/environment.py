"""Deterministic flexible job-shop environment with search-space reduction.

The action space at each state is the list of *legal allocations*: per-job
machine assignment vectors (``WAIT`` = -1) that are executable (capability,
no busy job or machine reassigned, no duplicate machine) and reasonable
(the pure-wait vector is excluded when everything is idle, and never offered
as the only choice).  The step function skips intermediate states until a
non-wait action is available again, so every observation the agent sees has
a real decision to make.  Reward per step is the (non-positive) clock delta,
which makes the cumulative episode reward exactly minus the makespan.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instance import Instance
from .schedule import Schedule, ScheduleEntry

WAIT = -1
IDLE = -1

Allocation = tuple[int, ...]


class SchedulingError(RuntimeError):
    pass


class DeadlockError(SchedulingError):
    """No machine is running and no assignment is possible (only reachable
    when external action filters over-constrain the environment)."""


@dataclass(frozen=True)
class Observation:
    """Per-job machine assignment (IDLE = -1) and current operation index.

    Finished jobs are marked by an operation index equal to the job's
    operation count.  ``merged()`` is the canonical Q-table key.
    """

    allocation_status: tuple[int, ...]
    operation_status: tuple[int, ...]

    def merged(self) -> tuple[int, ...]:
        return self.allocation_status + self.operation_status


@dataclass(frozen=True)
class StepResult:
    observation: Observation
    reward: int
    done: bool
    clock: int


class SchedulingEnv:
    """Mutable single-episode environment over an immutable instance."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self.reset()

    # -- episode state ----------------------------------------------------

    def reset(self) -> Observation:
        inst = self.instance
        self.clock = 0
        self.job_op = [0] * inst.job_count          # current operation index
        self.job_machine = [IDLE] * inst.job_count  # assigned machine or IDLE
        self.machine_job = [IDLE] * inst.machine_count
        self.machine_remaining = [0] * inst.machine_count
        self.entries: list[ScheduleEntry] = []
        self._legal: list[Allocation] | None = None
        return self.observation()

    def clone(self) -> "SchedulingEnv":
        other = self.__class__.__new__(self.__class__)
        other.instance = self.instance
        other.clock = self.clock
        other.job_op = list(self.job_op)
        other.job_machine = list(self.job_machine)
        other.machine_job = list(self.machine_job)
        other.machine_remaining = list(self.machine_remaining)
        other.entries = list(self.entries)
        other._legal = self._legal
        return other

    @property
    def done(self) -> bool:
        return all(
            self.job_op[j] >= len(self.instance.jobs[j])
            for j in range(self.instance.job_count)
        )

    def observation(self) -> Observation:
        return Observation(tuple(self.job_machine), tuple(self.job_op))

    # -- legal allocations ------------------------------------------------

    def _assignable_machines(self, job: int) -> list[int]:
        """Free machines able to run `job`'s current operation, ascending id."""
        if self.job_machine[job] != IDLE:
            return []
        op_index = self.job_op[job]
        if op_index >= len(self.instance.jobs[job]):
            return []
        op = self.instance.jobs[job].operations[op_index]
        return [
            m for m in op.machines()
            if self.machine_job[m] == IDLE and self._assignment_allowed(job, op_index, m)
        ]

    def _assignment_allowed(self, job: int, op_index: int, machine: int) -> bool:
        """Hook for subclasses that constrain assignments further."""
        return True

    def _has_nonwait(self) -> bool:
        return any(
            self._assignable_machines(j) for j in range(self.instance.job_count)
        )

    def legal_allocations(self) -> list[Allocation]:
        """All executable-and-reasonable allocations, in a fixed order.

        Order is lexicographic over job index with machine alternatives
        ascending and WAIT last per job, so action indices are stable.
        """
        if self.done:
            raise SchedulingError("legal_allocations on terminal state")
        if self._legal is not None:
            return self._legal

        n = self.instance.job_count
        options = [self._assignable_machines(j) for j in range(n)]
        result: list[Allocation] = []
        current = [WAIT] * n

        def expand(job: int, used: int):
            if job == n:
                result.append(tuple(current))
                return
            for m in options[job]:
                if used & (1 << m):
                    continue
                current[job] = m
                expand(job + 1, used | (1 << m))
            current[job] = WAIT
            expand(job + 1, used)

        expand(0, 0)
        # The all-WAIT vector is enumerated last.  Drop it when it is
        # unreasonable: in the all-idle state, or when it is the only option.
        all_idle = all(r == 0 for r in self.machine_remaining)
        if all_idle or len(result) == 1:
            result = result[:-1]
        self._legal = result
        return result

    # -- stepping ---------------------------------------------------------

    def step(self, action: int) -> StepResult:
        legal = self.legal_allocations()
        if not 0 <= action < len(legal):
            raise SchedulingError(
                f"action index {action} out of range 0..{len(legal) - 1}"
            )
        return self._apply(legal[action])

    def step_allocation(self, allocation: Allocation) -> StepResult:
        """Step by allocation vector, bypassing index enumeration.

        The allocation must be executable; used by dispatching rules on
        instances too large for full enumeration at every state.
        """
        self._check_executable(allocation)
        return self._apply(tuple(allocation))

    def _check_executable(self, allocation: Allocation):
        if self.done:
            raise SchedulingError("step on terminal state")
        if len(allocation) != self.instance.job_count:
            raise SchedulingError("allocation length mismatch")
        used: set[int] = set()
        any_assigned = False
        for job, machine in enumerate(allocation):
            if machine == WAIT:
                continue
            any_assigned = True
            if machine in used:
                raise SchedulingError(f"machine {machine} assigned twice")
            used.add(machine)
            if machine not in self._assignable_machines(job):
                raise SchedulingError(
                    f"job {job} cannot be assigned machine {machine} now"
                )
        if not any_assigned and all(r == 0 for r in self.machine_remaining):
            raise SchedulingError("pure wait is not legal in an all-idle state")

    def _on_assign(self, job: int, op_index: int, machine: int):
        """Hook for subclasses tracking assignment order."""

    def _apply(self, allocation: Allocation) -> StepResult:
        clock_before = self.clock

        assigned_any = any(m != WAIT for m in allocation)
        for job, machine in enumerate(allocation):
            if machine == WAIT:
                continue
            op_index = self.job_op[job]
            duration = self.instance.jobs[job].operations[op_index].alternatives[machine]
            self.job_machine[job] = machine
            self.machine_job[machine] = job
            self.machine_remaining[machine] = duration
            self.entries.append(
                ScheduleEntry(job, op_index, machine, self.clock, self.clock + duration)
            )
            self._on_assign(job, op_index, machine)
        self._legal = None

        # Skip intermediate states: advance to assignment completions until a
        # non-wait action exists or the episode ends.  A pure-wait action
        # explicitly holds until the next completion, so it always advances
        # at least once even if non-wait actions were already available.
        force_advance = not assigned_any
        while not self.done and (force_advance or not self._has_nonwait()):
            force_advance = False
            busy = [r for r in self.machine_remaining if r > 0]
            if not busy:
                raise DeadlockError(
                    "no running machine and no possible assignment"
                )
            dt = min(busy)
            self.clock += dt
            for m in range(self.instance.machine_count):
                if self.machine_remaining[m] > 0:
                    self.machine_remaining[m] -= dt
                    if self.machine_remaining[m] == 0:
                        job = self.machine_job[m]
                        self.machine_job[m] = IDLE
                        self.job_machine[job] = IDLE
                        self.job_op[job] += 1
            self._legal = None

        return StepResult(self.observation(), clock_before - self.clock,
                          self.done, self.clock)

    # -- results ----------------------------------------------------------

    def extract_schedule(self) -> Schedule:
        if not self.done:
            raise SchedulingError("extract_schedule on non-terminal state")
        return Schedule.from_entries(self.entries)
