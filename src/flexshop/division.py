"""Instance division: split, solve incrementally, fix earlier-stage policy.

An instance is split per job into contiguous operation segments, by operation
count or by mean or max duration.  Stage k solves the combination of
segments 1..k while forcing every operation from earlier segments onto the
machine the previous stage chose, preserving the per-machine relative order
of those operations.  Timing is left free so new operations can interleave.
Each order comes from a valid schedule of the stage before, so it is never
cyclic and a stage is never re-solved without it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

from .environment import MachineOrder, SchedulingEnv
from .instance import DURATION_MODES, DurationMode, Instance, JobSpec
from .qlearning import LearnerConfig, TrainingReport, train
from .schedule import Schedule


class SplitStrategy(str, Enum):
    BY_OP_COUNT = "ops"
    BY_MEAN_DURATION = "mean"
    BY_MAX_DURATION = "max"


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

    def __post_init__(self):
        super().__post_init__()
        if type(self.parts) is not int or self.parts < 2:
            raise ValueError(f"parts must be an int of at least 2, "
                             f"got {self.parts!r}")
        self.strategy = SplitStrategy(self.strategy)


def split(inst: Instance, cfg: DivisionConfig) -> SplitPlan:
    """Cut each job's operation chain into `cfg.parts` contiguous segments.

    Each operation goes to the segment where its start on the job's weight
    timeline (the cumulative weight of its predecessors) falls, with the
    timeline cut into `parts` equal pieces.  The strategy's weight is an
    operation's mean or max duration, or 1 for BY_OP_COUNT, which makes
    segments as even as possible in operation count (larger segments
    first).  Either way the first segment of every job holds at least one
    operation; later segments may be empty.
    """
    parts = cfg.parts
    max_ops = max(len(job) for job in inst.jobs)
    if max_ops < 2:
        raise ValueError("no job has 2 or more operations, so there is "
                         "nothing to divide")
    if parts > max_ops:
        raise ValueError(f"parts must be in 2..{max_ops}, got {parts}")
    weight = (DURATION_MODES[DurationMode(cfg.strategy.value)]
              if cfg.strategy != SplitStrategy.BY_OP_COUNT else lambda op: 1)

    boundaries = []
    for job in inst.jobs:
        weights = [weight(op) for op in job.operations]
        total = sum(weights, Fraction(0))
        seg_of_op = []
        cumulative = Fraction(0)
        for value in weights:
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


def machine_order(sched: Schedule) -> MachineOrder:
    """Machine -> the (job, op index) pairs `sched` runs on it, in order: the
    machine choices and per-machine order a later stage must keep."""
    per_machine: dict[int, list] = {}
    for e in sorted(sched.entries, key=lambda e: (e.start, e.job, e.op)):
        per_machine.setdefault(e.machine, []).append((e.job, e.op))
    return {m: tuple(ops) for m, ops in per_machine.items()}


def get_best_policy(inst: Instance, prev: MachineOrder | None,
                    cfg: LearnerConfig) -> TrainingReport:
    """Solve `inst` with the learner under the previous stage's machine
    order (see `SchedulingEnv`)."""
    return train(SchedulingEnv(inst, prev), cfg)


def solve_divided(inst: Instance, cfg: DivisionConfig
                  ) -> tuple[Schedule, list[TrainingReport]]:
    """Incremental solve over the split plan; returns the full-instance
    schedule and the per-stage training reports.  `cfg.time_budget`
    bounds the whole solve: each stage gets an equal share."""
    plan = split(inst, cfg)
    if cfg.time_budget is not None:
        cfg = replace(cfg, time_budget=cfg.time_budget / cfg.parts)
    order: MachineOrder | None = None
    reports: list[TrainingReport] = []
    for k in range(1, cfg.parts + 1):
        report = get_best_policy(combine(plan, k), order, cfg)
        order = machine_order(report.best_schedule)
        reports.append(report)
    return report.best_schedule, reports
