"""Shared fixtures and the seeded tiny-instance generator."""

from __future__ import annotations

import os
from pathlib import Path
from random import Random

import pytest

from flexshop.data import load_bundled
from flexshop.environment import IDLE
from flexshop.instance import Instance, JobSpec, OperationSpec

# pytest's `pythonpath` setting only reaches this process; tests that run
# `python -m flexshop.cli` in a child process need `src` on its path too.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def tiny_instance(seed: int, max_jobs: int = 3, max_machines: int = 3,
                  max_ops: int = 3, max_duration: int = 10) -> Instance:
    """Small random instance; deterministic in `seed`."""
    rng = Random(seed)
    machines = rng.randint(2, max_machines)
    jobs = []
    for _ in range(rng.randint(2, max_jobs)):
        ops = []
        for _ in range(rng.randint(1, max_ops)):
            count = rng.randint(1, machines)
            chosen = rng.sample(range(machines), count)
            ops.append(
                OperationSpec({m: rng.randint(1, max_duration) for m in chosen})
            )
        jobs.append(JobSpec(tuple(ops)))
    return Instance(machines, tuple(jobs), name=f"tiny{seed}")


def reference_options(env) -> list[list[int]]:
    """Per job, the free machines able to start its current operation now,
    ascending id: rescanned from the instance, the per-job and per-machine
    arrays, the capable masks and the machine-order table.  Empty for a
    busy or finished job, and for one whose current operation waits on the
    operation listed before it on its machine."""
    inst = env.instance
    free = [m for m, job in enumerate(env.machine_job) if job == IDLE]
    options = []
    for job, (op, machine) in enumerate(zip(env.job_op, env.job_machine)):
        pred = None if env._before is None else env._before[job][op]
        if (machine != IDLE or op == len(inst.jobs[job])
                or pred is not None and env.job_op[pred[0]] <= pred[1]):
            options.append([])
        else:
            mask = env._op_masks[job][op]
            options.append([m for m in free if mask >> m & 1])
    return options


@pytest.fixture(scope="session")
def toy():
    return load_bundled("toy2x3")


@pytest.fixture(scope="session")
def ft06():
    return load_bundled("ft06")


@pytest.fixture(scope="session")
def flex06():
    return load_bundled("flex06")


@pytest.fixture(scope="session")
def la05():
    return load_bundled("la05")


@pytest.fixture
def one_by_one():
    return Instance(1, (JobSpec((OperationSpec({0: 5}),)),), name="one")
