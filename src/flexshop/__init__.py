"""Flexible job-shop scheduling toolkit.

A deterministic FJSSP environment with legal-allocation search-space
reduction, a heuristic-guided tabular Q-learning solver with backward-pass
Q-table prepopulation and instance division, dispatching-rule / random /
genetic baselines, and an exhaustive optimality oracle for tiny instances.
"""

from .instance import (
    Instance,
    InstanceError,
    JobSpec,
    OperationSpec,
    load_instance,
    parse_instance,
    write_instance,
)
from .environment import (
    IDLE,
    WAIT,
    SchedulingEnv,
    SchedulingError,
    StepResult,
)
from .schedule import (
    Schedule,
    ScheduleEntry,
    Violation,
    parse_schedule,
    render_gantt,
    validate_schedule,
    write_schedule,
)
from .qlearning import LearnerConfig, QTable, TrainingReport, greedy_rollout, train
from .prepopulate import EpisodeTrace, backward_pass
from .division import DivisionConfig, SplitStrategy, combine, solve_divided, split
from .baselines import (
    BaselineConfig,
    NodeBudgetExceeded,
    exhaustive_oracle,
    fifo,
    genetic,
    mwkr,
    random_sampling,
)
from .data import BUNDLED, bundled_path, load_bundled
from .solvers import SOLVERS, BaseSolver, QLearningSolver, make_solver

__version__ = "0.1.0"
