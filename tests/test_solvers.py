"""Estimator-style solver wrappers."""

import re
from functools import partial

import pytest

from flexshop.baselines import BaselineConfig, NodeBudgetExceeded
from flexshop.division import DivisionConfig, SplitStrategy
from flexshop.qlearning import LearnerConfig
from flexshop.solvers import (
    SOLVERS,
    BaseSolver,
    DividedQLearningSolver,
    GeneticSolver,
    NotFittedError,
    QLearningSolver,
    make_solver,
)
from flexshop.schedule import Schedule, ScheduleEntry, validate_schedule


class TestEstimatorApi:
    def test_get_set_params_round_trip(self):
        solver = QLearningSolver(episodes=50, seed=3)
        params = solver.get_params()
        assert params["episodes"] == 50
        assert params["seed"] == 3
        solver.set_params(episodes=75)
        assert solver.get_params()["episodes"] == 75

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError):
            QLearningSolver().set_params(bogus=1)

    def test_not_fitted(self, toy):
        solver = QLearningSolver()
        assert not solver.is_fitted
        with pytest.raises(NotFittedError):
            solver.predict(toy)
        with pytest.raises(NotFittedError):
            _ = solver.best_schedule_
        # Once fitted, an estimated attribute the solver never sets is a
        # plain AttributeError: fifo keeps no training report.
        fifo = make_solver("fifo").fit(toy)
        with pytest.raises(AttributeError) as exc:
            _ = fifo.report_
        assert not isinstance(exc.value, NotFittedError)

    def test_fit_predict(self, toy):
        solver = QLearningSolver(episodes=300, seed=0, epsilon_decay=0.99)
        solver.fit(toy)
        assert solver.is_fitted
        assert validate_schedule(toy, solver.best_schedule_) == []
        assert solver.best_makespan_ == solver.best_schedule_.makespan
        sched = solver.predict(toy)
        assert validate_schedule(toy, sched) == []

    def test_set_params_validates_and_keeps_old_config(self):
        solver = QLearningSolver(episodes=50)
        with pytest.raises(ValueError):
            solver.set_params(episodes=0)
        assert solver.get_params()["episodes"] == 50

    def test_constructor_validates(self):
        with pytest.raises(ValueError):
            QLearningSolver(epsilon_decay=2)
        with pytest.raises(ValueError):
            DividedQLearningSolver(strategy="halves")
        with pytest.raises(ValueError):
            GeneticSolver(population=0)

    @pytest.mark.parametrize("config, name, value", [
        (BaselineConfig, "episodes", 0),
        (BaselineConfig, "population", 0),
        (BaselineConfig, "generations", -1),
        (BaselineConfig, "stagnation", 0),
        (BaselineConfig, "node_budget", 0),
        (BaselineConfig, "crossover_rate", 1.5),
        (BaselineConfig, "mutation_rate", -0.25),
        (LearnerConfig, "episodes", 0),
        (LearnerConfig, "test_interval", -3),
        # A count is an int: neither a float nor a bool.
        (BaselineConfig, "episodes", 2.5),
        (BaselineConfig, "population", 2.5),
        (BaselineConfig, "generations", 2.0),
        (BaselineConfig, "stagnation", True),
        (BaselineConfig, "node_budget", 1e6),
        (LearnerConfig, "episodes", 2.5),
        (LearnerConfig, "episodes", True),
        (LearnerConfig, "test_interval", 2.5),
        (DivisionConfig, "parts", 2.5),
        # A rate is an int or a float, never a bool or a string.
        (LearnerConfig, "alpha", True),
        (LearnerConfig, "alpha", "0.5"),
        (LearnerConfig, "epsilon_start", True),
        (LearnerConfig, "epsilon_min", False),
        (LearnerConfig, "epsilon_decay", True),
        (BaselineConfig, "crossover_rate", True),
        (BaselineConfig, "mutation_rate", True),
        (BaselineConfig, "mutation_rate", "0.2"),
        # A seed is an int; None would leave the run unseeded.
        (LearnerConfig, "seed", 2.5),
        (LearnerConfig, "seed", True),
        (BaselineConfig, "seed", None),
        (LearnerConfig, "time_budget", True),
        (LearnerConfig, "time_budget", "30"),
        # A flag is a bool: the string "no" is truthy.
        (LearnerConfig, "prepopulate", "no"),
        (LearnerConfig, "include_immediate_reward", 1),
        # An enum field names its choices.
        (BaselineConfig, "duration_mode", "median"),
        (BaselineConfig, "duration_mode", None),
        (DivisionConfig, "strategy", "foo"),
        (DivisionConfig, "strategy", 2),
        # The epsilon bounds name the other field and its value.
        (LearnerConfig, "epsilon_start", 1.5),
        (LearnerConfig, "epsilon_min", -0.25),
        pytest.param(partial(LearnerConfig, epsilon_start=0.5),
                     "epsilon_min", 0.9,
                     id="LearnerConfig(epsilon_start=0.5)-epsilon_min-0.9"),
    ])
    def test_config_error_names_the_field(self, config, name, value):
        message = rf"^{name} must be .*, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            config(**{name: value})

    def test_params_read_as_attributes(self):
        assert GeneticSolver(generations=7).generations == 7
        # fifo takes no parameters, so config fields stay hidden.
        fifo = make_solver("fifo")
        assert fifo.get_params() == {}
        assert not hasattr(fifo, "generations")

    def test_only_learners_predict(self):
        assert not hasattr(make_solver("fifo"), "predict")

    def test_fit_returns_self(self, toy):
        solver = QLearningSolver(episodes=50)
        assert solver.fit(toy) is solver

    @pytest.mark.parametrize("name", list(SOLVERS))
    def test_fit_rejects_non_instance(self, name):
        with pytest.raises(TypeError, match="expected Instance, got str"):
            make_solver(name).fit("not an instance")

    def test_invalid_schedule_guard(self, toy):
        class Broken(BaseSolver):
            def _solve(self, inst):
                # Runs only job 0's first operation.
                op = inst.jobs[0].operations[0]
                machine, duration = next(iter(op.alternatives.items()))
                return Schedule.from_entries(
                    [ScheduleEntry(0, 0, machine, 0, duration)])

        solver = Broken()
        with pytest.raises(RuntimeError, match="invalid schedule"):
            solver.fit(toy)
        assert not solver.is_fitted

    def test_misstated_makespan_guard(self, toy):
        class Understated(BaseSolver):
            def _solve(self, inst):
                # Every entry is valid; only the declared makespan is off.
                sched = make_solver("fifo").fit(inst).best_schedule_
                return Schedule(sched.entries, sched.makespan - 5)

        solver = Understated()
        with pytest.raises(RuntimeError, match="'makespan'"):
            solver.fit(toy)
        self.assert_unfitted(solver)

    @staticmethod
    def assert_unfitted(solver):
        assert not solver.is_fitted
        for name in ("best_schedule_", "best_makespan_", "report_"):
            with pytest.raises(NotFittedError):
                getattr(solver, name)

    def test_refit_drops_the_previous_fit_first(self, toy):
        seen = []

        class Watched(QLearningSolver):
            def _solve(self, inst):
                seen.append(sorted(n for n in vars(self) if n.endswith("_")))
                return super()._solve(inst)

        solver = Watched(episodes=50).fit(toy)
        old = solver.report_
        solver.fit(toy)
        assert seen == [[], []]
        assert solver.report_ is not old

    def test_invalid_refit_leaves_solver_unfitted(self, toy):
        class BrokenOnRefit(QLearningSolver):
            """Learns as rl does; with seed 1 it returns one entry only."""

            def _solve(self, inst):
                schedule = super()._solve(inst)
                if self.seed == 1:
                    return Schedule.from_entries(schedule.entries[:1])
                return schedule

        solver = BrokenOnRefit(episodes=50, seed=0).fit(toy)
        assert solver.is_fitted
        solver.set_params(seed=1)
        with pytest.raises(RuntimeError, match="invalid schedule"):
            solver.fit(toy)
        self.assert_unfitted(solver)

    def test_oracle_refit_over_budget_leaves_solver_unfitted(self, toy, ft06):
        solver = make_solver("oracle").fit(toy)
        assert solver.is_fitted
        # ft06's root bound is below the mwkr incumbent, so the search
        # expands the root and passes a one-node budget.
        solver.set_params(node_budget=1)
        with pytest.raises(NodeBudgetExceeded):
            solver.fit(ft06)
        self.assert_unfitted(solver)


class TestMakeSolver:
    def test_known_names(self):
        for name in ("rl", "rl-plain", "rl-divided", "rs", "fifo", "mwkr",
                     "ga", "oracle"):
            assert make_solver(name) is not None

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_solver("simulated-annealing")

    def test_rl_plain_forces_no_prepopulation(self):
        solver = make_solver("rl-plain", episodes=10)
        assert solver.get_params()["prepopulate"] is False

    def test_override_contradicting_fixed_param_rejected(self):
        with pytest.raises(ValueError, match=r"prepopulate=True .*prepopulate=False"):
            make_solver("rl-plain", prepopulate=True)

    def test_override_agreeing_with_fixed_param_accepted(self):
        solver = make_solver("rl-plain", prepopulate=False)
        assert solver.get_params()["prepopulate"] is False

    def test_overrides_filtered_per_solver(self):
        # episodes applies to rl but not to fifo; fifo should ignore it.
        solver = make_solver("fifo", episodes=123)
        assert "episodes" not in solver.get_params()

    def test_override_no_solver_takes_rejected(self):
        # A misspelt name must not fall back to the default silently.
        for name in ("rl", "fifo"):
            with pytest.raises(ValueError, match=r"\['episode'\]"):
                make_solver(name, episode=50)

    def test_divided_params_extend_learner_params(self):
        params = make_solver("rl-divided").get_params()
        assert list(params) == [*QLearningSolver().get_params(),
                                "parts", "strategy"]

    def test_divided_solver(self, toy):
        solver = DividedQLearningSolver(parts=2, strategy=SplitStrategy.BY_OP_COUNT,
                                        episodes=150, seed=0)
        solver.fit(toy)
        assert validate_schedule(toy, solver.best_schedule_) == []

    def test_baseline_solvers_fit(self, toy):
        for name in ("fifo", "mwkr", "rs", "ga", "oracle"):
            solver = make_solver(name)
            solver.fit(toy)
            assert validate_schedule(toy, solver.best_schedule_) == []

    def test_ga_solver_params(self, toy):
        solver = GeneticSolver(generations=10, seed=1)
        assert solver.get_params()["generations"] == 10
        solver.fit(toy)
        assert solver.is_fitted
