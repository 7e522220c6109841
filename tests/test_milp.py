"""An independent MILP certifies the oracle's optima and the pinned makespans.

The model reads only the `Instance`, never the environment.  It is the
flexible job-shop formulation of Özgüven, Özbakır & Yavuz (2010, Appl.
Math. Modelling 34(6)): machine choice x, start s, a big-M order y per pair
of operations of different jobs that share a machine, the job chains, and
a makespan C at least each job's end and each machine's load.  HiGHS
solves it through scipy, which only the tests use.

flex06 (47) and la05 (572) need no MILP: each equals a bound read off
the instance, which `test_pinned_optimum_equals_a_bound` asserts.
"""

import math

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, OptimizeResult, milp
from scipy.sparse import coo_array

from flexshop.baselines import (
    _pinned_work,
    _remaining_work,
    exhaustive_oracle,
    lower_bound,
)
from flexshop.data import load_bundled
from flexshop.environment import SchedulingEnv
from flexshop.instance import Instance, OperationSpec

from conftest import tiny_instance

# Criterion 1 runs the first 50.
TINY_SEEDS = range(100)


def solve_milp(inst: Instance, chains: bool = True) -> OptimizeResult:
    """HiGHS's result for the model.  `chains=False` drops the job-chain
    rows, to show that the tests catch a model that is too loose."""
    ops = [(j, op) for j, job in enumerate(inst.jobs) for op in job.operations]
    x = {}  # (op index, machine) -> column
    for a, (_, op) in enumerate(ops):
        for m in op.alternatives:
            x[a, m] = len(x)
    s = range(len(x), len(x) + len(ops))
    pairs = [(a, b, op_a.alternatives.keys() & op_b.alternatives.keys())
             for a, (job_a, op_a) in enumerate(ops)
             for b, (job_b, op_b) in enumerate(ops[a + 1:], a + 1)
             if job_a != job_b]
    pairs = [pair for pair in pairs if pair[2]]
    y = range(s.stop, s.stop + len(pairs))  # 1: a before b
    c = y.stop
    # A semi-active schedule ends by the sum of its durations, so no start
    # plus any duration passes this.
    big_m = sum(op.max_duration() for _, op in ops)

    rows, cols, coefs, lower, upper = [], [], [], [], []

    def row(terms, low, high=np.inf):
        for col, coef in terms:
            rows.append(len(lower))
            cols.append(col)
            coefs.append(coef)
        lower.append(low)
        upper.append(high)

    for a, (job, op) in enumerate(ops):
        row([(x[a, m], 1) for m in op.alternatives], 1, 1)
        end = [(s[a], -1)] + [(x[a, m], -d) for m, d in op.alternatives.items()]
        if a + 1 == len(ops) or ops[a + 1][0] != job:
            row([(c, 1)] + end, 0)
        elif chains:
            row([(s[a + 1], 1)] + end, 0)
    for (a, b, shared), order in zip(pairs, y):
        for m in shared:
            both = [(x[a, m], -big_m), (x[b, m], -big_m)]
            row([(s[b], 1), (s[a], -1), (order, -big_m)] + both,
                ops[a][1].alternatives[m] - 3 * big_m)
            row([(s[a], 1), (s[b], -1), (order, big_m)] + both,
                ops[b][1].alternatives[m] - 2 * big_m)
    for m in range(inst.machine_count):
        row([(c, 1)] + [(x[a, m], -op.alternatives[m])
                        for a, (_, op) in enumerate(ops)
                        if m in op.alternatives], 0)

    width = c + 1
    matrix = coo_array((coefs, (rows, cols)), shape=(len(lower), width))
    objective = np.zeros(width)
    objective[c] = 1
    integral = np.zeros(width)
    integral[:len(x)] = integral[y.start:y.stop] = 1
    top = np.full(width, np.inf)
    top[:len(x)] = top[y.start:y.stop] = 1
    result = milp(objective, integrality=integral,
                  bounds=Bounds(np.zeros(width), top),
                  constraints=LinearConstraint(matrix.tocsr(), lower, upper))
    assert result.status == 0, result.message
    return result


def root_bound(inst: Instance) -> int:
    return lower_bound(SchedulingEnv(inst),
                       _remaining_work(inst, OperationSpec.min_duration),
                       _pinned_work(inst))


@pytest.fixture(scope="module")
def tiny_optima() -> dict[int, int]:
    return {seed: round(solve_milp(tiny_instance(seed)).fun)
            for seed in TINY_SEEDS}


def test_equals_oracle_on_tiny_instances(tiny_optima):
    for seed, optimum in tiny_optima.items():
        assert optimum == exhaustive_oracle(tiny_instance(seed)).makespan, seed


def test_root_lower_bound_never_exceeds_optimum(tiny_optima):
    for seed, optimum in tiny_optima.items():
        assert root_bound(tiny_instance(seed)) <= optimum, seed


@pytest.mark.parametrize("name, makespan", [("toy2x3", 58), ("ft06", 55)])
def test_proves_pinned_optimum(name, makespan):
    inst = load_bundled(name)
    result = solve_milp(inst)
    assert round(result.fun) == makespan
    # No schedule beats the dual bound, so the makespan is optimal.
    assert math.ceil(result.mip_dual_bound - 1e-6) == makespan
    assert root_bound(inst) <= makespan


def chain_bound(inst: Instance) -> int:
    """The longest job's chain of minimum durations."""
    return max(sum(op.min_duration() for op in job.operations)
               for job in inst.jobs)


def load_bound(inst: Instance) -> int:
    """The heaviest machine load of the operations only it can run."""
    load = [0] * inst.machine_count
    for job in inst.jobs:
        for op in job.operations:
            if len(op.alternatives) == 1:
                (machine, duration), = op.alternatives.items()
                load[machine] += duration
    return max(load)


@pytest.mark.parametrize("name, makespan, bound", [
    ("toy2x3", 58, chain_bound),
    ("flex06", 47, chain_bound),
    ("la05", 572, load_bound),
], ids=["toy2x3", "flex06", "la05"])
def test_pinned_optimum_equals_a_bound(name, makespan, bound):
    # No schedule ends before either bound, and the pin is a makespan the
    # solvers reach, so the pin is optimal.
    assert bound(load_bundled(name)) == makespan


def test_model_without_job_chains_is_caught():
    assert any(round(solve_milp(tiny_instance(seed), chains=False).fun)
               != exhaustive_oracle(tiny_instance(seed)).makespan
               for seed in TINY_SEEDS)
