"""Instance division: split, solve incrementally, fix earlier-stage policy.

An instance is split per job into contiguous operation segments, either by
operation count or by expected duration.  Stage k solves the combination of
segments 1..k while forcing every operation from earlier segments onto the
machine the previous stage chose, preserving the per-machine relative order
of those operations.  Timing is left free so new operations can interleave.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .environment import DeadlockError, SchedulingEnv, WAIT
from .instance import Instance, JobSpec
from .qlearning import LearnerConfig, TrainingReport, train
from .schedule import Schedule

log = logging.getLogger(__name__)


class SplitStrategy(str, Enum):
    BY_OP_COUNT = "ops"
    BY_MEAN_DURATION = "duration"


@dataclass(frozen=True)
class SplitPlan:
    instance: Instance
    parts: int
    # boundaries[job] has parts+1 cut points; segment k covers
    # operations [boundaries[job][k], boundaries[job][k+1]).
    boundaries: tuple[tuple[int, ...], ...]

    def segment(self, job: int, part: int) -> tuple[int, int]:
        return self.boundaries[job][part], self.boundaries[job][part + 1]


class InfeasibleConstraintError(RuntimeError):
    pass


@dataclass
class DivisionConfig(LearnerConfig):
    """Stage-learner settings plus how to split the instance."""

    parts: int = 2
    strategy: SplitStrategy = SplitStrategy.BY_MEAN_DURATION
    duration_mode: str = "mean"  # expected duration for BY_MEAN_DURATION

    def __post_init__(self):
        super().__post_init__()
        if self.parts < 2:
            raise ValueError(f"parts must be at least 2, got {self.parts}")
        self.strategy = SplitStrategy(self.strategy)
        if self.duration_mode not in ("mean", "max"):
            raise ValueError(f"unknown duration_mode {self.duration_mode!r}")


def split(inst: Instance, strategy: SplitStrategy, parts: int,
          duration_mode: str = "mean") -> tuple[list[Instance], SplitPlan]:
    """Partition each job's operation chain into `parts` contiguous segments.

    BY_OP_COUNT segments are as even as possible in operation count (larger
    segments first).  BY_MEAN_DURATION buckets each operation by where its
    expected start (cumulative expected duration of its predecessors) falls
    on the job's evenly divided expected timeline.  Jobs with no operations
    in a segment appear there as zero-operation jobs so ids stay stable.
    """
    max_ops = max(len(job) for job in inst.jobs)
    if not 2 <= parts <= max_ops:
        raise ValueError(f"parts must be in 2..{max_ops}, got {parts}")

    boundaries = []
    for job in inst.jobs:
        n_ops = len(job)
        if strategy == SplitStrategy.BY_OP_COUNT:
            cuts = [0] + [-(-k * n_ops // parts) for k in range(1, parts)] + [n_ops]
        else:
            if duration_mode == "mean":
                expected = [op.mean_duration() for op in job.operations]
            elif duration_mode == "max":
                expected = [Fraction(op.max_duration()) for op in job.operations]
            else:
                raise ValueError(f"unknown duration_mode {duration_mode!r}")
            total = sum(expected, Fraction(0))
            seg_of_op = []
            cumulative = Fraction(0)
            for value in expected:
                if total == 0:
                    seg_of_op.append(0)
                else:
                    seg_of_op.append(min(parts - 1, int(cumulative * parts / total)))
                cumulative += value
            cuts = [0] * (parts + 1)
            for k in range(1, parts + 1):
                cuts[k] = sum(1 for s in seg_of_op if s < k)
        boundaries.append(tuple(cuts))

    plan = SplitPlan(inst, parts, tuple(boundaries))
    subs = []
    for k in range(parts):
        jobs = []
        for j, job in enumerate(inst.jobs):
            lo, hi = plan.segment(j, k)
            jobs.append(JobSpec(job.operations[lo:hi]))
        subs.append(Instance(inst.machine_count, tuple(jobs),
                             name=f"{inst.name}.part{k + 1}"))
    return subs, plan


def combine(plan: SplitPlan, upto: int) -> Instance:
    """Instance holding, per job, the concatenation of segments 1..upto."""
    if not 1 <= upto <= plan.parts:
        raise ValueError(f"upto must be in 1..{plan.parts}")
    jobs = []
    for j, job in enumerate(plan.instance.jobs):
        hi = plan.boundaries[j][upto]
        jobs.append(JobSpec(job.operations[:hi]))
    name = plan.instance.name if upto == plan.parts else \
        f"{plan.instance.name}.upto{upto}"
    return Instance(plan.instance.machine_count, tuple(jobs), name=name)


@dataclass(frozen=True)
class PolicyConstraint:
    """Machine choices and per-machine relative order fixed by earlier stages."""

    machine_for: dict[tuple[int, int], int]  # (job, op index) -> machine
    machine_order: dict[int, tuple[tuple[int, int], ...]]

    @classmethod
    def from_schedule(cls, sched: Schedule) -> "PolicyConstraint":
        machine_for = {}
        per_machine: dict[int, list] = {}
        for e in sorted(sched.entries, key=lambda e: (e.start, e.job, e.op)):
            machine_for[(e.job, e.op)] = e.machine
            per_machine.setdefault(e.machine, []).append((e.job, e.op))
        return cls(machine_for,
                   {m: tuple(ops) for m, ops in per_machine.items()})

    def covered(self) -> set[tuple[int, int]]:
        return set(self.machine_for)


class ConstrainedSchedulingEnv(SchedulingEnv):
    """Environment whose assignments must follow a PolicyConstraint.

    A constrained operation may only run on its required machine, and only
    when it is that machine's next pending constrained operation.
    Unconstrained (new-segment) operations are unrestricted.
    """

    def __init__(self, instance: Instance, constraint: PolicyConstraint):
        self.constraint = constraint
        super().__init__(instance)

    def reset(self):
        self._order_pos = {m: 0 for m in self.constraint.machine_order}
        return super().reset()

    def clone(self):
        other = super().clone()
        other.constraint = self.constraint
        other._order_pos = dict(self._order_pos)
        return other

    def _assignment_allowed(self, job: int, op_index: int, machine: int) -> bool:
        required = self.constraint.machine_for.get((job, op_index))
        if required is None:
            return True
        if machine != required:
            return False
        order = self.constraint.machine_order[machine]
        pos = self._order_pos[machine]
        return pos < len(order) and order[pos] == (job, op_index)

    def _on_assign(self, job: int, op_index: int, machine: int):
        if (job, op_index) in self.constraint.machine_for:
            self._order_pos[machine] += 1


def get_best_policy(inst: Instance, prev: PolicyConstraint | None,
                    cfg: LearnerConfig
                    ) -> tuple[PolicyConstraint, Schedule, TrainingReport]:
    """Solve `inst` with the learner under the previous stage's constraint.

    Falls back to an unconstrained re-solve (logged) if the constraint ever
    leaves the environment without any possible action.
    """
    if prev is None or not prev.machine_for:
        report = train(SchedulingEnv(inst), cfg)
    else:
        env = ConstrainedSchedulingEnv(inst, prev)
        try:
            report = train(env, cfg)
        except DeadlockError:
            log.warning(
                "constraint made %s infeasible; re-solving unconstrained",
                inst.name,
            )
            report = train(SchedulingEnv(inst), cfg)
    schedule = report.best_schedule
    return PolicyConstraint.from_schedule(schedule), schedule, report


def solve_divided(inst: Instance, strategy: SplitStrategy, parts: int,
                  cfg: LearnerConfig, duration_mode: str = "mean"
                  ) -> tuple[Schedule, list[TrainingReport]]:
    """Incremental solve over the split plan; returns the full-instance
    schedule and the per-stage training reports."""
    _, plan = split(inst, strategy, parts, duration_mode)
    policy: PolicyConstraint | None = None
    reports: list[TrainingReport] = []
    for k in range(1, parts + 1):
        policy, schedule, report = get_best_policy(combine(plan, k), policy, cfg)
        reports.append(report)
    return schedule, reports
