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
    """Parameter handling and the shared `fit`; subclasses implement `_solve`."""

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

    @property
    def is_fitted(self) -> bool:
        return hasattr(self, "best_schedule_")

    def fit(self, inst: Instance) -> "BaseSolver":
        """Solve `inst` and keep the schedule as `best_schedule_` /
        `best_makespan_`.

        The previous fit's estimated attributes are dropped before `_solve`
        runs, so its Q-tables are freed before the new ones grow.  A solve
        that raises or returns an invalid schedule leaves the solver
        unfitted."""
        if not isinstance(inst, Instance):
            raise TypeError(f"expected Instance, got {type(inst).__name__}")
        self._unfit()
        try:
            schedule = self._solve(inst)
            violations = validate_schedule(inst, schedule)
            if violations:  # solver bug guard; never expected to trigger
                raise RuntimeError(
                    f"solver produced invalid schedule: {violations}")
        except BaseException:
            self._unfit()
            raise
        self.best_schedule_ = schedule
        self.best_makespan_ = schedule.makespan
        return self

    def _unfit(self):
        """Delete every estimated (trailing-underscore) attribute."""
        for name in [n for n in vars(self)
                     if n.endswith("_") and not n.endswith("__")]:
            delattr(self, name)

    def _solve(self, inst: Instance) -> Schedule:
        raise NotImplementedError


class QLearningSolver(BaseSolver):
    """Tabular Q-learning, by default heuristic-guided (backward-pass
    prepopulation after every episode)."""

    config_type = LearnerConfig
    params = _field_names(LearnerConfig)

    def _solve(self, inst: Instance) -> Schedule:
        self.report_ = train(inst, self.config)
        return self.report_.best_schedule

    def predict(self, inst: Instance) -> Schedule:
        """Greedy rollout of the learned Q-table on `inst`."""
        return greedy_rollout(inst, self.report_.q)


class DividedQLearningSolver(BaseSolver):
    """Instance-division solver on top of the Q-learning stage learner."""

    config_type = DivisionConfig
    params = _field_names(DivisionConfig)

    def _solve(self, inst: Instance) -> Schedule:
        schedule, self.stage_reports_ = solve_divided(inst, self.config)
        return schedule


class RandomSamplingSolver(BaseSolver):
    params = ("episodes", "seed")

    def _solve(self, inst: Instance) -> Schedule:
        return baselines.random_sampling(inst, self.config)


class FifoSolver(BaseSolver):
    def _solve(self, inst: Instance) -> Schedule:
        return baselines.fifo(inst)


class MwkrSolver(BaseSolver):
    params = ("duration_mode",)

    def _solve(self, inst: Instance) -> Schedule:
        return baselines.mwkr(inst, self.config.duration_mode)


class GeneticSolver(BaseSolver):
    params = ("population", "generations", "crossover_rate", "mutation_rate",
              "stagnation", "seed")

    def _solve(self, inst: Instance) -> Schedule:
        return baselines.genetic(inst, self.config)


class ExhaustiveSolver(BaseSolver):
    params = ("node_budget",)

    def _solve(self, inst: Instance) -> Schedule:
        return baselines.exhaustive_oracle(inst, self.config)


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
    takes; an override that contradicts the name's fixed params is a
    `ValueError`."""
    if name not in SOLVERS:
        raise ValueError(f"unknown solver {name!r}; have {sorted(SOLVERS)}")
    cls, fixed = SOLVERS[name]
    params = {k: v for k, v in overrides.items()
              if k in cls.params and v is not None}
    for k, v in fixed.items():
        if params.get(k, v) != v:
            raise ValueError(f"{k}={params[k]!r} contradicts {name}'s fixed "
                             f"{k}={v!r}")
    return cls(**{**params, **fixed})
