"""Golden schedules: seeded `.sched` bytes for every registry solver.

`golden_schedules.json` maps "<instance> <solver>" to the `write_schedule`
text that `make_solver(solver, **PARAMS)` fitted on the bundled instance
produces.  Refactors must reproduce every entry byte for byte.
"""

import json
from pathlib import Path

import pytest

from flexshop import SOLVERS, load_bundled, make_solver
from flexshop.schedule import write_schedule

PARAMS = dict(seed=11, episodes=40, generations=5, population=6)
GOLDEN = json.loads(Path(__file__).with_name("golden_schedules.json").read_text())


def test_every_registry_name_is_pinned_on_toy():
    assert {key.split()[1] for key in GOLDEN if key.startswith("toy2x3 ")} \
        == set(SOLVERS)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_seeded_schedule_bytes(key):
    inst_name, name = key.split()
    solver = make_solver(name, **PARAMS).fit(load_bundled(inst_name))
    assert write_schedule(solver.best_schedule_) == GOLDEN[key]
