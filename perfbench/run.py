"""flexshop benchmark: one workload per run, closed loop, one process.

    python3 perfbench/run.py --workload rl-bundled --seed 1 --seconds 36 --trace 0

Run it from the root of a source checkout; it measures the flexshop package
under ``src/`` of that checkout and nothing else.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones from a traced run.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every correctness gate held.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from random import Random
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 8  # extra fresh-interpreter set-ups; setup_s is the median

sys.path.insert(0, str(ROOT))
from perfbench import spans, workloads  # noqa: E402  (imports no flexshop)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--record-goldens", action="store_true",
                   help="print this commit's golden makespans as JSON and exit")
    return p.parse_args(argv)


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_info() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": _commit()}


def _setup(args, goldens):
    """Import flexshop, make and parse the inputs, construct the solvers."""
    start = perf_counter()
    import flexshop

    jobs = workloads.build(args.workload, args.seed, args.smoke, goldens)
    seconds = perf_counter() - start
    if not Path(flexshop.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"flexshop imported from {flexshop.__file__}, not {SRC}")
    return flexshop, jobs, seconds


def _probe_setups(args) -> list[float]:
    command = [sys.executable, str(Path(__file__).resolve()), "--workload",
               args.workload, "--seed", str(args.seed), "--seconds", "0",
               "--setup-probe"] + (["--smoke"] if args.smoke else [])
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(command, capture_output=True, text=True,
                              cwd=ROOT, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def _loop(jobs, fs, seconds: float, seed: int):
    """Passes in a closed loop, at least one, until another would end more
    than half a pass after `seconds`.  Each pass solves the jobs in a fresh
    order drawn from `seed`, so no solve always follows the same one and
    what one solve leaves behind (garbage, cache contents) averages out
    over the passes instead of biasing the whole run."""
    rng = Random(seed)
    walls, passes = [], []
    start = perf_counter()
    while not walls or (
            perf_counter() - start + 0.5 * statistics.median(walls) < seconds):
        rng.shuffle(jobs)
        gc.collect()
        wall, records = workloads.run_pass(jobs, fs)
        walls.append(wall)
        passes.append(records)
    return walls, passes


def _print_table(title: str, metrics: dict):
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6f} {unit}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "flexshop" / "__init__.py").is_file():
        print(f"error: no flexshop sources at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"have {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    goldens = {} if args.record_goldens else workloads.load_goldens()

    if args.setup_probe:
        _, _, seconds = _setup(args, goldens)
        print(json.dumps({"setup_s": seconds}))
        return 0

    # Probes first: the first interpreter in a fresh checkout also compiles
    # bytecode, and the median keeps that out of setup_s.
    setups = _probe_setups(args) if args.trace == 0 else []
    fs, jobs, seconds = _setup(args, goldens)
    setups.append(seconds)
    for job in jobs:
        job.lower_bound = workloads.lower_bound(job.instance)
    if args.record_goldens:
        for job in jobs:
            job.golden = None
        _, records = workloads.run_pass(jobs, fs)
        print(json.dumps({args.workload: {r.label: r.makespans[0] for r in records}},
                         indent=1, sort_keys=True))
        return 0 if all(not r.errors for r in records) else 1

    before = spans.attribute_snapshot()
    info = machine_info()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"machine {json.dumps(info)}")
    if args.trace == 0:
        walls, passes = _loop(jobs, fs, args.seconds, args.seed)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = workloads.end_to_end(walls, passes, statistics.median(setups), peak)
        _print_table(f"end-to-end ({len(walls)} passes of {len(jobs)} solves)",
                     {**metrics, **workloads.workload_specific(args.workload, passes)})
    else:
        walls, passes = _loop(jobs, fs, args.seconds / 2, args.seed)
        tracer = spans.Tracer()
        tracer.install()
        try:
            # Set up again under the tracer, for instance.parse_s.
            jobs = workloads.build(args.workload, args.seed, args.smoke, goldens)
            for job in jobs:
                job.lower_bound = workloads.lower_bound(job.instance)
            gc.collect()
            wall, records = workloads.run_pass(jobs, fs, tracer.rec)
        finally:
            tracer.restore()
        passes.append(records)
        overhead = wall - statistics.median(walls)
        metrics = workloads.per_layer(tracer, records, overhead)
        _print_table(f"per layer (1 traced pass of {len(jobs)} solves; "
                     f"untraced pass {statistics.median(walls):.3f} s)", metrics)
        out = ROOT / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        tracer.rec.write(out / f"spans-{args.workload}.bin",
                         {"workload": args.workload, "seed": args.seed,
                          "machine": info})

    failures = [f"{r.label}: {e}" for p in passes for r in p for e in r.errors]
    changed = spans.changed_attributes(before)
    if changed:
        failures.append(f"flexshop attributes left patched: {changed[:5]}")
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for r in p if r.errors) + bool(changed)
    print(f"failed {failed} of {attempted} operations attempted")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
