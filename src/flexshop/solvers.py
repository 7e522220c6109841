"""Estimator-style solver classes: construct with hyperparameters, call
``fit(instance)``, read ``best_schedule_`` / ``best_makespan_``.

Each class holds one validated config dataclass (`config_type`) and nothing
else; `params` names the fields the solver takes.  `get_params` /
`set_params` follow the scikit-learn convention over exactly those fields,
and `set_params` validates the new config before anything changes.
"""

from __future__ import annotations

import dataclasses

from . import baselines
from .baselines import BaselineConfig
from .division import DivisionConfig, solve_divided
from .instance import Instance
from .qlearning import LearnerConfig, greedy_rollout, train
from .schedule import Schedule, validate_schedule


class NotFittedError(RuntimeError, AttributeError):
    pass


def _field_names(config_type) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(config_type))


class BaseSolver:
    """Shared parameter handling and fit bookkeeping."""

    config_type: type = BaselineConfig
    params: tuple[str, ...] = ()

    def __init__(self, **params):
        self.config = self.config_type()
        self.set_params(**params)

    def get_params(self) -> dict:
        return {name: getattr(self.config, name) for name in self.params}

    def set_params(self, **params) -> "BaseSolver":
        unknown = sorted(set(params) - set(self.params))
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {unknown} for {type(self).__name__}"
            )
        self.config = dataclasses.replace(self.config, **params)
        return self

    def __getattr__(self, name: str):
        # Parameters also read as attributes (`solver.generations`).
        if name in type(self).params:
            return getattr(self.config, name)
        # Estimated attributes use a trailing underscore and only exist
        # after fit(); surface a clearer error before then.  (`is_fitted`
        # would re-enter this method through `hasattr`.)
        if (name.endswith("_") and not name.endswith("__")
                and "best_schedule_" not in vars(self)):
            raise NotFittedError(f"{type(self).__name__} is not fitted")
        raise AttributeError(name)

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"

    @staticmethod
    def _check_instance(inst) -> Instance:
        if not isinstance(inst, Instance):
            raise TypeError(f"expected Instance, got {type(inst).__name__}")
        return inst

    def _finish(self, schedule: Schedule, inst: Instance) -> "BaseSolver":
        violations = validate_schedule(inst, schedule)
        if violations:  # solver bug guard; never expected to trigger
            raise RuntimeError(f"solver produced invalid schedule: {violations}")
        self.best_schedule_ = schedule
        self.best_makespan_ = schedule.makespan
        return self

    @property
    def is_fitted(self) -> bool:
        return hasattr(self, "best_schedule_")

    def fit(self, inst: Instance) -> "BaseSolver":
        raise NotImplementedError


class QLearningSolver(BaseSolver):
    """Tabular Q-learning, by default heuristic-guided (backward-pass
    prepopulation after every episode)."""

    config_type = LearnerConfig
    params = _field_names(LearnerConfig)

    def fit(self, inst: Instance) -> "QLearningSolver":
        inst = self._check_instance(inst)
        self.report_ = train(inst, self.config)
        self.q_table_ = self.report_.q
        return self._finish(self.report_.best_schedule, inst)

    def predict(self, inst: Instance) -> Schedule:
        """Greedy rollout of the learned Q-table on `inst`."""
        if not self.is_fitted:
            raise NotFittedError("QLearningSolver is not fitted")
        return greedy_rollout(inst, self.q_table_)


class DividedQLearningSolver(BaseSolver):
    """Instance-division solver on top of the Q-learning stage learner."""

    config_type = DivisionConfig
    params = _field_names(DivisionConfig)

    def fit(self, inst: Instance) -> "DividedQLearningSolver":
        inst = self._check_instance(inst)
        schedule, self.stage_reports_ = solve_divided(inst, self.config)
        return self._finish(schedule, inst)


class RandomSamplingSolver(BaseSolver):
    params = ("episodes", "seed")

    def fit(self, inst: Instance) -> "RandomSamplingSolver":
        inst = self._check_instance(inst)
        return self._finish(baselines.random_sampling(inst, self.config), inst)


class FifoSolver(BaseSolver):
    def fit(self, inst: Instance) -> "FifoSolver":
        inst = self._check_instance(inst)
        return self._finish(baselines.fifo(inst), inst)


class MwkrSolver(BaseSolver):
    params = ("duration_mode",)

    def fit(self, inst: Instance) -> "MwkrSolver":
        inst = self._check_instance(inst)
        return self._finish(baselines.mwkr(inst, self.config.duration_mode), inst)


class GeneticSolver(BaseSolver):
    params = ("population", "generations", "crossover_rate", "mutation_rate",
              "stagnation", "seed")

    def fit(self, inst: Instance) -> "GeneticSolver":
        inst = self._check_instance(inst)
        return self._finish(baselines.genetic(inst, self.config), inst)


class ExhaustiveSolver(BaseSolver):
    params = ("node_budget",)

    def fit(self, inst: Instance) -> "ExhaustiveSolver":
        inst = self._check_instance(inst)
        return self._finish(baselines.exhaustive_oracle(inst, self.config), inst)


# Registry name -> (class, params fixed for that name).
SOLVERS: dict[str, tuple[type[BaseSolver], dict]] = {
    "rl": (QLearningSolver, {}),
    "rl-plain": (QLearningSolver, {"prepopulate": False}),
    "rl-divided": (DividedQLearningSolver, {}),
    "rs": (RandomSamplingSolver, {}),
    "fifo": (FifoSolver, {}),
    "mwkr": (MwkrSolver, {}),
    "ga": (GeneticSolver, {}),
    "oracle": (ExhaustiveSolver, {}),
}


def make_solver(name: str, **overrides) -> BaseSolver:
    """Build a solver by registry name from the non-None overrides it
    takes; the name's fixed params win over overrides."""
    if name not in SOLVERS:
        raise ValueError(f"unknown solver {name!r}; have {sorted(SOLVERS)}")
    cls, fixed = SOLVERS[name]
    params = {k: v for k, v in overrides.items()
              if k in cls.params and v is not None}
    return cls(**{**params, **fixed})
