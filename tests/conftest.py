"""Shared fixtures and the seeded tiny-instance generator."""

from __future__ import annotations

import os
from pathlib import Path
from random import Random

import pytest

from flexshop.data import load_bundled
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
