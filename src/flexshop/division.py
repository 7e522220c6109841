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

from .environment import DeadlockError, SchedulingEnv
from .instance import DURATION_MODES, Instance, JobSpec
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


@dataclass
class DivisionConfig(LearnerConfig):
    """Stage-learner settings plus how to split the instance."""

    parts: int = 2
    strategy: SplitStrategy = SplitStrategy.BY_MEAN_DURATION
    duration_mode: str = "mean"  # BY_MEAN_DURATION's expectation: mean | max

    def __post_init__(self):
        super().__post_init__()
        if self.parts < 2:
            raise ValueError(f"parts must be at least 2, got {self.parts}")
        self.strategy = SplitStrategy(self.strategy)
        if self.duration_mode not in DURATION_MODES.keys() - {"min"}:
            raise ValueError(
                f"duration_mode must be mean or max, got {self.duration_mode!r}")


def split(inst: Instance, cfg: DivisionConfig) -> SplitPlan:
    """Cut each job's operation chain into `cfg.parts` contiguous segments.

    BY_OP_COUNT segments are as even as possible in operation count (larger
    segments first).  BY_MEAN_DURATION buckets each operation by where its
    expected start (cumulative expected duration of its predecessors) falls
    on the job's evenly divided expected timeline.  Either way the first
    segment of every job holds at least one operation; later segments may
    be empty.
    """
    parts = cfg.parts
    max_ops = max(len(job) for job in inst.jobs)
    if parts > max_ops:
        raise ValueError(f"parts must be in 2..{max_ops}, got {parts}")
    expected = DURATION_MODES[cfg.duration_mode]

    boundaries = []
    for job in inst.jobs:
        n_ops = len(job)
        if cfg.strategy == SplitStrategy.BY_OP_COUNT:
            cuts = [0] + [-(-k * n_ops // parts) for k in range(1, parts)] + [n_ops]
        else:
            durations = [expected(op) for op in job.operations]
            total = sum(durations, Fraction(0))
            seg_of_op = []
            cumulative = Fraction(0)
            for value in durations:
                seg_of_op.append(min(parts - 1, int(cumulative * parts / total)))
                cumulative += value
            cuts = [sum(1 for s in seg_of_op if s < k) for k in range(parts + 1)]
        boundaries.append(tuple(cuts))
    return SplitPlan(inst, parts, tuple(boundaries))


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

    # machine -> the (job, op index) pairs it must run, in order
    machine_order: dict[int, tuple[tuple[int, int], ...]]

    @property
    def machine_for(self) -> dict[tuple[int, int], int]:
        """(job, op index) -> required machine, as `machine_order` lists it."""
        return {op: m for m, order in self.machine_order.items() for op in order}

    @classmethod
    def from_schedule(cls, sched: Schedule) -> "PolicyConstraint":
        per_machine: dict[int, list] = {}
        for e in sorted(sched.entries, key=lambda e: (e.start, e.job, e.op)):
            per_machine.setdefault(e.machine, []).append((e.job, e.op))
        return cls({m: tuple(ops) for m, ops in per_machine.items()})


class ConstrainedSchedulingEnv(SchedulingEnv):
    """Environment whose assignments must follow a PolicyConstraint.

    A constrained operation may only run on its required machine, and only
    once the constrained operation just before it in that machine's order
    has finished.  The environment only offers free machines, so a running
    predecessor never needs a separate check.  Unconstrained (new-segment)
    operations are unrestricted.
    """

    def __init__(self, instance: Instance, constraint: PolicyConstraint):
        # (job, op) -> (required machine, the (job, op) before it or None)
        self._rule = {}
        for machine, order in constraint.machine_order.items():
            for before, (job, op) in zip((None,) + order, order):
                if not (0 <= job < instance.job_count
                        and 0 <= op < len(instance.jobs[job])):
                    raise ValueError(
                        f"constraint names op ({job}, {op}) outside {instance.name}"
                    )
                self._rule[(job, op)] = (machine, before)
        super().__init__(instance)

    def clone(self):
        other = super().clone()
        other._rule = self._rule
        return other

    def _assignment_allowed(self, job: int, op_index: int, machine: int) -> bool:
        rule = self._rule.get((job, op_index))
        if rule is None:
            return True
        required, before = rule
        return machine == required and (
            before is None or self.job_op[before[0]] > before[1])


def get_best_policy(inst: Instance, prev: PolicyConstraint | None,
                    cfg: LearnerConfig) -> TrainingReport:
    """Solve `inst` with the learner under the previous stage's constraint.

    Falls back to an unconstrained re-solve (logged) if the constraint ever
    leaves the environment without any possible action.
    """
    if prev is None or not prev.machine_order:
        return train(SchedulingEnv(inst), cfg)
    try:
        return train(ConstrainedSchedulingEnv(inst, prev), cfg)
    except DeadlockError:
        log.warning(
            "constraint made %s infeasible; re-solving unconstrained",
            inst.name,
        )
        return train(SchedulingEnv(inst), cfg)


def solve_divided(inst: Instance, cfg: DivisionConfig
                  ) -> tuple[Schedule, list[TrainingReport]]:
    """Incremental solve over the split plan; returns the full-instance
    schedule and the per-stage training reports."""
    plan = split(inst, cfg)
    policy: PolicyConstraint | None = None
    reports: list[TrainingReport] = []
    for k in range(1, cfg.parts + 1):
        report = get_best_policy(combine(plan, k), policy, cfg)
        policy = PolicyConstraint.from_schedule(report.best_schedule)
        reports.append(report)
    return report.best_schedule, reports
