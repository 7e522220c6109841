"""Command-line harness: solve instances, run solver benchmarks, validate
schedule files, render Gantt charts.

Exit codes: 0 ok, 1 solver or validation failure, 2 usage error.
"""

from __future__ import annotations

import csv
import sys
import time
import typing
from enum import Enum
from pathlib import Path

import click

from .baselines import NodeBudgetExceeded
from .division import split
from .instance import Instance, InstanceError, load_instance, parse_instance
from .schedule import (
    parse_schedule,
    render_gantt,
    schedule_to_json,
    validate_schedule,
    write_schedule,
)
from .solvers import SOLVERS, DividedQLearningSolver, make_solver


class InputError(click.ClickException):
    """Bad user input: a one-line `Error: ...` message and exit 2."""

    exit_code = 2


def _read_config(ctx: click.Context, param, path: str | None):
    """Eager `--config` callback: `key = value` lines ('#' comments) become
    defaults for the solver options.  Keys are option destinations (`parts`
    for `--divide`); each value is typed and checked by its option, and
    explicit flags still win."""
    if path is None:
        return
    options = {p.name: p for p in ctx.command.params if p.name in SOLVER_FIELDS}
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read config {path}: {exc}") from None
    defaults = {}
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        key, sep, value = (part.strip() for part in line.partition("="))
        key = key.replace("-", "_")
        if not sep:
            raise InputError(f"{where}: expected 'key = value'")
        if key not in options:
            raise InputError(
                f"{where}: unknown key {key!r}; have {', '.join(sorted(options))}"
            )
        try:
            defaults[key] = options[key].type_cast_value(ctx, value)
        except click.BadParameter as exc:
            raise InputError(f"{where}: {exc.format_message()}") from None
    ctx.default_map = {**(ctx.default_map or {}), **defaults}


def _load(path: str) -> Instance:
    try:
        if path == "-":
            return parse_instance(sys.stdin.read(), name="stdin")
        return load_instance(path)
    except (OSError, UnicodeDecodeError, InstanceError) as exc:
        raise InputError(f"cannot read instance {path}: {exc}") from None


def _prepare(paths, names, overrides: dict, out: str | None
             ) -> tuple[dict, list[Instance], Path | None]:
    """Every pre-fit check of `solve` and `bench`, so a usage error costs
    no fit and writes no file: build each named solver, load every
    instance, check `--divide` against each, refuse two instances with one
    name (their outputs and table rows are named by instance), and create
    `out`.  Returns the solvers by name, the instances and the output
    directory (None when `out` is None)."""
    solvers = {}
    for name in names:
        try:
            solvers[name] = make_solver(name, **overrides)
        except ValueError as exc:
            raise InputError(f"{name}: {exc}") from None
    instances = [_load(path) for path in paths]
    for inst in instances:
        for name, solver in solvers.items():
            if isinstance(solver, DividedQLearningSolver):
                try:
                    split(inst, solver.config)
                except ValueError as exc:
                    raise InputError(f"{name} on {inst.name}: {exc}") from None
    named = {}
    for path, inst in zip(paths, instances):
        if inst.name in named:
            raise InputError(f"instances {named[inst.name]} and {path} are "
                             f"both named {inst.name}")
        named[inst.name] = path
    if out is None:
        return solvers, instances, None
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create output directory {out}: {exc}"
                         ) from None
    return solvers, instances, Path(out)


def _run_cell(inst: Instance, solver) -> float:
    """Fit one built solver on one instance; returns its cpu_seconds."""
    cpu0 = time.process_time()
    solver.fit(inst)
    return time.process_time() - cpu0


solver_option = click.option(
    "--solver", "solvers", multiple=True, required=True,
    type=click.Choice(list(SOLVERS)), help="Solver(s) to run."
)
instance_option = click.option(
    "--instance", "instances", multiple=True, required=True,
    help="Instance file path ('-' for stdin)."
)


# Flags not spelled as their field; the field stays the --config key.
RENAMED_FLAGS = {"parts": "divide", "strategy": "divide-strategy",
                 "time_budget": "budget-seconds"}


# Each config field a registry solver takes -> its declared type.
SOLVER_FIELDS = {name: typing.get_type_hints(cls.config_type)[name]
                 for cls, _ in SOLVERS.values() for name in cls.params}


def common_solver_flags(f):
    """`--config` plus one option per solver config field; an option's
    default None leaves the field at the solver's own default."""
    f = click.option("--config", type=click.Path(exists=True, dir_okay=False),
                     is_eager=True, expose_value=False, callback=_read_config,
                     help="Key-value defaults file; explicit flags win.")(f)
    for name, hint in reversed(SOLVER_FIELDS.items()):
        flag = "--" + RENAMED_FLAGS.get(name, name.replace("_", "-"))
        hint = (typing.get_args(hint) or (hint,))[0]  # `float | None` -> float
        if hint is bool:
            flag, hint = f"{flag}/--no-{flag[2:]}", None
        elif issubclass(hint, Enum):
            hint = click.Choice([member.value for member in hint])
        help_text = ("Sub-instance count for rl-divided." if name == "parts"
                     else None)
        f = click.option(flag, name, type=hint, default=None, help=help_text)(f)
    return f


class _Main(click.Group):
    """Click's own usage errors (a flag value its type rejects, a missing
    option) print as one `Error:` line too, without the usage lines; a
    missing `Choice` option's choices, one per line in click's message,
    are joined onto it."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            raise InputError(" ".join(exc.format_message().split())) from None


@click.group(cls=_Main)
def main():
    """Flexible job-shop scheduling toolkit."""


@main.command()
@instance_option
@solver_option
@common_solver_flags
@click.option("--out", type=click.Path(), default=".", help="Output directory.")
@click.option("--gantt", is_flag=True, help="Also write an SVG Gantt chart.")
@click.option("--json", "json_out", is_flag=True, help="Also write JSON export.")
def solve(instances, solvers, out, gantt, json_out, **overrides):
    """Run solvers on instances and write schedule files."""
    solvers, loaded, out_dir = _prepare(instances, solvers, overrides, out)
    failed = False
    for inst in loaded:
        for name, solver in solvers.items():
            stem = f"{inst.name}__{name}"
            try:
                cpu = _run_cell(inst, solver)
            except NodeBudgetExceeded as exc:
                click.echo(f"{stem}: budget exceeded: {exc}", err=True)
                failed = True
                continue
            schedule = solver.best_schedule_
            (out_dir / f"{stem}.sched").write_text(write_schedule(schedule))
            if gantt:
                (out_dir / f"{stem}.svg").write_text(
                    render_gantt(schedule, inst.machine_count, title=stem)
                )
            if json_out:
                (out_dir / f"{stem}.json").write_text(
                    schedule_to_json(schedule, inst.name)
                )
            # The seed the solver ran with; fifo, mwkr and oracle take none.
            seed = solver.get_params().get("seed")
            log = (
                f"instance {inst.name}\nsolver {name}\n"
                f"seed {'none' if seed is None else seed}\n"
                f"makespan {schedule.makespan}\ncpu_seconds {cpu:.3f}\n"
            )
            (out_dir / f"{stem}.log").write_text(log)
            click.echo(f"{stem}: makespan {schedule.makespan}")
    sys.exit(1 if failed else 0)


@main.command()
@instance_option
@solver_option
@common_solver_flags
@click.option("--out", type=click.Path(), default=None,
              help="Directory for table.txt / table.csv.")
def bench(instances, solvers, out, **overrides):
    """Comparison table of makespan and CPU seconds per solver."""
    solvers, instances, out_dir = _prepare(
        instances, [s for s in SOLVERS if s in solvers], overrides, out)
    rows = []  # (instance, size, [(makespan, cpu) or (None, None)])
    for inst in instances:
        cells = []
        for name, solver in solvers.items():
            try:
                cpu = _run_cell(inst, solver)
                cells.append((solver.best_makespan_, cpu))
            except NodeBudgetExceeded:
                cells.append((None, None))
        rows.append((inst.name, f"{inst.job_count}x{inst.machine_count}", cells))

    def fields(row, cpu_text) -> list[str]:
        name_, size, cells = row
        out = [name_, size]
        for ms, cpu in cells:
            out += ["NA", "NA"] if ms is None else [str(ms), cpu_text(cpu)]
        return out

    header = ["instance", "size"]
    for name in solvers:
        header += [name, f"{name}:cpu"]
    widths = [max(10, len(h)) for h in header]
    table = "".join(
        "  ".join(f.ljust(w) for f, w in zip(line, widths)) + "\n"
        for line in [header] + [fields(row, "{:.3f}".format) for row in rows]
    )
    click.echo(table, nl=False)

    if out_dir is not None:
        (out_dir / "table.txt").write_text(table)
        with (out_dir / "table.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(fields(row, repr) for row in rows)
    failed = any(ms is None for _, _, cells in rows for ms, _ in cells)
    sys.exit(1 if failed else 0)


@main.command()
@click.argument("instance_path")
@click.argument("schedule_path")
def validate(instance_path, schedule_path):
    """Validate a schedule file against an instance file."""
    inst = _load(instance_path)
    try:
        schedule = parse_schedule(Path(schedule_path).read_text())
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read schedule {schedule_path}: {exc}") from None
    violations = validate_schedule(inst, schedule)
    if not violations:
        click.echo(f"ok: makespan {schedule.makespan}")
        sys.exit(0)
    for v in violations:
        click.echo(f"{v.kind}: {v.message}")
    sys.exit(1)


if __name__ == "__main__":
    main()
