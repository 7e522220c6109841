"""Seeded instance generators for the benchmark.

Both generators return instance text in the standard flexible job-shop
format (1-based machine ids), so the benchmark hands the program exactly
what a user would: a parsed ``Instance``.  Nothing here imports flexshop.

- ``tiny_text`` reproduces the shape of the criterion-1 generator in the
  acceptance tests (2..3 machines, 1..3 operations per job, durations
  1..10, any non-empty machine subset per operation), with the same draw
  order, so ``tiny_text(seed)`` is criterion 1's instance for
  ``seed``.
- ``large_text`` draws from Brandimarte's (1993, Annals of OR 41) published
  parameter ranges: 5..10 operations per job, durations 1..20, with a fixed
  number of capable machines per operation.  Operation counts cycle through
  the range and are then shuffled, so all instances of one size hold the
  same number of operations and differ only in structure; that keeps the
  work per instance, and with it the run time, nearly the same across seeds.
"""

from __future__ import annotations

from random import Random

# Criterion-1 shape: machine, operation-per-job and duration limits.
TINY_MAX_MACHINES = 3
TINY_MAX_OPS = 3
TINY_MAX_DURATION = 10
# Pool cap on operations per instance (see tiny_pool).
MAX_OPERATIONS = 7
# Brandimarte's ranges, with a fixed number of capable machines per operation.
BRANDIMARTE_OPS = (5, 10)
DURATIONS = (1, 20)
ALTERNATIVES = 3


def _render(machines: int, jobs: list[list[dict[int, int]]]) -> str:
    lines = [f"{len(jobs)} {machines}"]
    for ops in jobs:
        fields = [len(ops)]
        for alternatives in ops:
            fields.append(len(alternatives))
            for machine in sorted(alternatives):
                fields += [machine + 1, alternatives[machine]]
        lines.append(" ".join(map(str, fields)))
    return "\n".join(lines) + "\n"


def tiny_jobs(seed: int, max_jobs: int = 3
              ) -> tuple[int, list[list[dict[int, int]]]]:
    """(machine count, per-job operation alternatives) for one tiny instance."""
    rng = Random(seed)
    machines = rng.randint(2, TINY_MAX_MACHINES)
    jobs = []
    for _ in range(rng.randint(2, max_jobs)):
        ops = []
        for _ in range(rng.randint(1, TINY_MAX_OPS)):
            chosen = rng.sample(range(machines), rng.randint(1, machines))
            ops.append({m: rng.randint(1, TINY_MAX_DURATION) for m in chosen})
        jobs.append(ops)
    return machines, jobs


def tiny_text(seed: int) -> str:
    return _render(*tiny_jobs(seed))


def tiny_pool(per_job_count: int) -> list[tuple[str, str]]:
    """The oracle pool: (name, text) for the first `per_job_count` generator
    seeds that give 3 jobs and the first that give 4 jobs, each with at most
    MAX_OPERATIONS operations.

    The cap bounds the exhaustive search at about 17k nodes; without it, one
    4-job instance in a hundred needs about a million.  It is a property of
    the instance alone, so the pool never depends on how a solver behaves.
    """
    picked: dict[int, list[tuple[str, str]]] = {3: [], 4: []}
    seed = 0
    while any(len(v) < per_job_count for v in picked.values()):
        machines, jobs = tiny_jobs(seed, max_jobs=4)
        ops = sum(len(job) for job in jobs)
        group = picked.get(len(jobs))
        if group is not None and len(group) < per_job_count and ops <= MAX_OPERATIONS:
            group.append((f"tiny{seed}", _render(machines, jobs)))
        seed += 1
    return picked[3] + picked[4]


def large_text(seed: int, jobs: int, machines: int) -> str:
    """One Brandimarte-range instance; deterministic in all arguments."""
    rng = Random(seed)
    lo, hi = BRANDIMARTE_OPS
    counts = [lo + i % (hi - lo + 1) for i in range(jobs)]
    rng.shuffle(counts)
    out = []
    for count in counts:
        ops = []
        for _ in range(count):
            chosen = rng.sample(range(machines), ALTERNATIVES)
            ops.append({m: rng.randint(*DURATIONS) for m in chosen})
        out.append(ops)
    return _render(machines, out)
