"""Command-line interface."""

import re
import typing
from pathlib import Path

import pytest
from click.testing import CliRunner

from flexshop.cli import main, solve
from flexshop.data import bundled_path
from enum import Enum
from flexshop.schedule import parse_schedule, validate_schedule
from flexshop.instance import load_instance, write_instance
from flexshop.solvers import SOLVERS

from test_baselines import long_instance


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def toy_path():
    return str(bundled_path("toy2x3"))


class TestSolve:
    def test_writes_outputs(self, runner, toy_path, tmp_path):
        result = runner.invoke(main, [
            "solve", "--instance", toy_path, "--solver", "fifo",
            "--out", str(tmp_path), "--gantt", "--json",
        ])
        assert result.exit_code == 0, result.output
        stem = "toy2x3__fifo"
        for ext in (".sched", ".svg", ".json", ".log"):
            assert (tmp_path / f"{stem}{ext}").exists()
        sched = parse_schedule((tmp_path / f"{stem}.sched").read_text())
        assert validate_schedule(load_instance(toy_path), sched) == []
        assert f"makespan {sched.makespan}" in result.output

    def test_deterministic_given_seed(self, runner, toy_path, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            result = runner.invoke(main, [
                "solve", "--instance", toy_path, "--solver", "rl",
                "--seed", "7", "--episodes", "120", "--out", str(out),
            ])
            assert result.exit_code == 0, result.output
            outs.append((out / "toy2x3__rl.sched").read_text())
        assert outs[0] == outs[1]

    def test_oracle_budget_exceeded_exit_1(self, runner, tmp_path):
        result = runner.invoke(main, [
            "solve", "--instance", str(bundled_path("ft06")),
            "--solver", "oracle", "--node-budget", "500",
            "--out", str(tmp_path),
        ])
        assert result.exit_code == 1
        assert "budget exceeded" in result.output

    def test_oracle_budget_exceeded_on_long_episode(self, runner, tmp_path):
        result = runner.invoke(main, [
            "solve", "--instance", "-", "--solver", "oracle",
            "--node-budget", "5000", "--out", str(tmp_path),
        ], input=write_instance(long_instance()))
        assert result.exit_code == 1, result.output
        assert "budget exceeded" in result.output

    def test_stdin_instance(self, runner, tmp_path):
        result = runner.invoke(main, [
            "solve", "--instance", "-", "--solver", "fifo",
            "--out", str(tmp_path),
        ], input="1 1\n1 1 1 5\n")
        assert result.exit_code == 0, result.output
        assert "makespan 5" in result.output

    def test_bad_instance_path(self, runner, tmp_path):
        result = runner.invoke(main, [
            "solve", "--instance", str(tmp_path / "missing.fjs"),
            "--solver", "fifo", "--out", str(tmp_path),
        ])
        assert result.exit_code == 2
        assert result.output.startswith("Error: ")

    def test_config_file_defaults(self, runner, toy_path, tmp_path):
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("# defaults\nseed = 3\nepisodes = 90\n")
        result = runner.invoke(main, [
            "solve", "--instance", toy_path, "--solver", "rl",
            "--config", str(cfg), "--out", str(tmp_path),
        ])
        assert result.exit_code == 0, result.output
        log = (tmp_path / "toy2x3__rl.log").read_text()
        assert "seed 3" in log

    def test_flag_overrides_config(self, runner, toy_path, tmp_path):
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("seed = 3\nepisodes = 90\n")
        result = runner.invoke(main, [
            "solve", "--instance", toy_path, "--solver", "rl",
            "--config", str(cfg), "--seed", "8", "--out", str(tmp_path),
        ])
        assert result.exit_code == 0, result.output
        assert "seed 8" in (tmp_path / "toy2x3__rl.log").read_text()

    def test_log_reports_the_seed_used(self, runner, toy_path, tmp_path):
        # Without --seed the learner runs with its default seed; fifo has none.
        result = runner.invoke(main, [
            "solve", "--instance", toy_path, "--solver", "rl",
            "--solver", "fifo", "--episodes", "20", "--out", str(tmp_path),
        ])
        assert result.exit_code == 0, result.output
        rl_log = (tmp_path / "toy2x3__rl.log").read_text().splitlines()
        fifo_log = (tmp_path / "toy2x3__fifo.log").read_text().splitlines()
        assert "seed 0" in rl_log
        assert "seed none" in fifo_log

    def test_malformed_config(self, runner, toy_path, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("episodes\n")
        result = runner.invoke(main, [
            "solve", "--instance", toy_path, "--solver", "fifo",
            "--config", str(cfg), "--out", str(tmp_path),
        ])
        assert result.exit_code == 2

    def test_config_keys_are_option_destinations(self, runner, toy_path,
                                                  tmp_path):
        cfg = tmp_path / "divide.cfg"
        cfg.write_text("strategy = ops\nparts = 2\nepisodes = 20\n")
        result = runner.invoke(main, [
            "solve", "--instance", toy_path, "--solver", "rl-divided",
            "--config", str(cfg), "--out", str(tmp_path),
        ])
        assert result.exit_code == 0, result.output
        cfg.write_text("parts = 9\n")
        result = runner.invoke(main, [
            "solve", "--instance", toy_path, "--solver", "rl-divided",
            "--config", str(cfg), "--out", str(tmp_path),
        ])
        assert result.exit_code == 2
        assert "parts" in result.output


# Config fields whose flag is not the field name with '-' for '_'.
RENAMED = {"parts": "--divide", "strategy": "--divide-strategy",
           "time_budget": "--budget-seconds"}


def solver_fields() -> dict[str, type]:
    """Each config field of a registry solver -> its declared type."""
    fields = {}
    for cls, _ in SOLVERS.values():
        hints = typing.get_type_hints(cls.config_type)
        for name in cls.params:
            fields.setdefault(name, hints[name])
    return fields


class TestSolverFlags:
    def test_shared_field_names_share_a_type(self):
        seen = {}
        for cls, _ in SOLVERS.values():
            hints = typing.get_type_hints(cls.config_type)
            for name in cls.params:
                assert seen.setdefault(name, hints[name]) == hints[name], name
        # Field name -> the config classes that declare it (a subclass
        # such as DivisionConfig inherits, and does not declare, its base's).
        owners = {}
        for cls, _ in SOLVERS.values():
            for name in cls.params:
                owners.setdefault(name, set()).add(next(
                    base for base in cls.config_type.__mro__
                    if name in vars(base).get("__annotations__", {})))
        shared = {name for name, types in owners.items() if len(types) >= 2}
        assert shared == {"seed", "episodes"}

    def test_help_lists_one_flag_per_field(self, runner):
        result = runner.invoke(main, ["solve", "--help"])
        assert result.exit_code == 0, result.output
        flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", result.output))
        fields = solver_fields()
        for name in fields:
            assert RENAMED.get(name, "--" + name.replace("_", "-")) in flags
        destinations = [p.name for p in solve.params if p.name in fields]
        assert sorted(destinations) == sorted(fields)

    def test_every_field_is_a_config_key(self, runner, toy_path, tmp_path):
        values = {int: "3", float: "0.5", bool: "false", float | None: "30"}

        def value(hint):
            if isinstance(hint, type) and issubclass(hint, Enum):
                return list(hint)[-1].value
            return values[hint]

        cfg = tmp_path / "all.cfg"
        cfg.write_text("".join(f"{name} = {value(hint)}\n"
                               for name, hint in solver_fields().items()))
        result = runner.invoke(main, [
            "solve", "--instance", toy_path, "--solver", "fifo",
            "--config", str(cfg), "--out", str(tmp_path),
        ])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("solver, flags", [
        ("rl", ["--test-interval", "7", "--episodes", "30"]),
        ("mwkr", ["--duration-mode", "max"]),
        ("ga", ["--stagnation", "3", "--crossover-rate", "0.5",
                "--mutation-rate", "0.1"]),
        ("rl-divided", ["--divide", "2", "--divide-strategy", "ops",
                        "--budget-seconds", "30", "--include-immediate-reward",
                        "--no-prepopulate", "--episodes", "30"]),
    ])
    def test_flags_run(self, runner, toy_path, tmp_path, solver, flags):
        result = runner.invoke(main, [
            "solve", "--instance", toy_path, "--solver", solver, *flags,
            "--out", str(tmp_path),
        ])
        assert result.exit_code == 0, result.output


# Each case: command line ({toy} is the toy instance, {tmp} a temporary
# directory), files to write into {tmp} first, and stdin text (or None).
# All are user errors: exit 2 with a one-line message and no file written.
SOLVE = ["solve", "--instance", "{toy}", "--out", "{tmp}"]
CONFIG = ["--config", "{tmp}/c.cfg"]
STDIN = ["solve", "--instance", "-", "--out", "{tmp}", "--solver", "fifo"]
TOY_TEXT = bundled_path("toy2x3").read_text()
BAD_INPUTS = {
    "config-seed-not-int": ([*SOLVE, "--solver", "rl", *CONFIG],
                            {"c.cfg": "seed = abc\n"}, None),
    "config-strategy-unknown": ([*SOLVE, "--solver", "rl-divided", *CONFIG],
                                {"c.cfg": "strategy = halves\n"}, None),
    "config-unknown-key": ([*SOLVE, "--solver", "fifo", *CONFIG],
                           {"c.cfg": "colour = red\n"}, None),
    "divide-beyond-ops": ([*SOLVE, "--solver", "rl-divided", "--divide", "9"],
                          {}, None),
    "episodes-zero": ([*SOLVE, "--solver", "rl", "--episodes", "0"], {}, None),
    "population-zero": ([*SOLVE, "--solver", "ga", "--population", "0"],
                        {}, None),
    "epsilon-decay-above-one": ([*SOLVE, "--solver", "rl",
                                 "--epsilon-decay", "2"], {}, None),
    "test-interval-zero": ([*SOLVE, "--solver", "rl", "--test-interval", "0"],
                           {}, None),
    "stagnation-zero": ([*SOLVE, "--solver", "ga", "--stagnation", "0"],
                        {}, None),
    "divide-strategy-duration": ([*SOLVE, "--solver", "rl-divided",
                                  "--divide-strategy", "duration"], {}, None),
    "duration-mode-median": ([*SOLVE, "--solver", "mwkr",
                              "--duration-mode", "median"], {}, None),
    "budget-seconds-negative": ([*SOLVE, "--solver", "rl",
                                 "--budget-seconds", "-1"], {}, None),
    "budget-seconds-nan": ([*SOLVE, "--solver", "rl",
                            "--budget-seconds", "nan"], {}, None),
    "rl-plain-prepopulate": ([*SOLVE, "--solver", "rl-plain",
                              "--prepopulate"], {}, None),
    # Every solver is built and every instance loaded before any cell
    # runs, so the valid cells write nothing either.
    "solve-rejected-after-valid-solver": ([*SOLVE, "--solver", "mwkr",
                                           "--solver", "rl-divided",
                                           "--divide", "1"], {}, None),
    "solve-missing-second-instance": ([*SOLVE, "--instance",
                                       "{tmp}/missing.fjs", "--solver", "fifo"],
                                      {}, None),
    # `--divide` is checked against every instance before the first fit.
    "divide-second-instance-one-op-jobs": ([*SOLVE, "--instance",
                                            "{tmp}/one.fjs",
                                            "--solver", "rl-divided"],
                                           {"one.fjs": "1 1\n1 1 1 3\n"},
                                           None),
    # Both would write toy2x3__fifo.sched.
    "solve-duplicate-instance-name": ([*SOLVE, "--instance",
                                       "{tmp}/toy2x3.fjs", "--solver", "fifo"],
                                      {"toy2x3.fjs": TOY_TEXT}, None),
    # Both would give a table row and a CSV row named toy2x3.
    "bench-duplicate-instance-name": (["bench", "--instance", "{toy}",
                                       "--instance", "{tmp}/toy2x3.fjs",
                                       "--out", "{tmp}", "--solver", "fifo"],
                                      {"toy2x3.fjs": TOY_TEXT}, None),
    "config-duration-mode-unknown": ([*SOLVE, "--solver", "mwkr", *CONFIG],
                                     {"c.cfg": "duration_mode = median\n"},
                                     None),
    "solve-missing-solver": (SOLVE, {}, None),
    # The output directory is made before any fit.
    "solve-out-is-a-file": (["solve", "--instance", "{toy}", "--out",
                             "{tmp}/f.txt", "--solver", "fifo"],
                            {"f.txt": "x\n"}, None),
    "bench-out-under-a-file": (["bench", "--instance", "{toy}", "--out",
                                "{tmp}/f.txt/x", "--solver", "fifo"],
                               {"f.txt": "x\n"}, None),
    "stdin-malformed-instance": (STDIN, {}, "1 1\n1 1 1 0\n"),
    "stdin-no-jobs": (STDIN, {}, "0 1\n"),
    "stdin-job-without-operations": (STDIN, {}, "1 1\n0\n"),
    "stdin-operation-without-alternatives": (STDIN, {}, "1 1\n1 0\n"),
    "config-not-utf8": ([*SOLVE, "--solver", "fifo", *CONFIG],
                        {"c.cfg": b"seed = \xff\n"}, None),
    "validate-missing-schedule": (["validate", "{toy}", "{tmp}/missing.sched"],
                                  {}, None),
    "validate-unreadable-schedule": (["validate", "{toy}", "{tmp}"], {}, None),
    "validate-undecodable-schedule": (["validate", "{toy}", "{tmp}/b.sched"],
                                      {"b.sched": b"\xff\xfe\n"}, None),
    "validate-malformed-schedule": (["validate", "{toy}", "{tmp}/b.sched"],
                                    {"b.sched": "not a schedule\n"}, None),
    "validate-negative-time": (["validate", "{toy}", "{tmp}/b.sched"],
                               {"b.sched": "0 0 0 -10 -2\n"}, None),
    "validate-bare-makespan-trailer": (["validate", "{toy}", "{tmp}/b.sched"],
                                       {"b.sched": "0 0 0 0 2\nmakespan\n"},
                                       None),
    "validate-non-integer-field": (["validate", "{toy}", "{tmp}/b.sched"],
                                   {"b.sched": "0 0 0 0 x\n"}, None),
    "validate-only-trailer": (["validate", "{toy}", "{tmp}/b.sched"],
                              {"b.sched": "makespan 5\n"}, None),
    # The first trailer misstates the makespan; a later one may not mend it.
    "validate-second-makespan-trailer": (
        ["validate", "{tmp}/one.fjs", "{tmp}/t.sched"],
        {"one.fjs": "1 1\n1 1 1 5\n",
         "t.sched": "0 0 0 0 5\nmakespan 9\nmakespan 5\n"}, None),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_a_one_line_usage_error(runner, toy_path, tmp_path, case):
    argv, files, stdin = BAD_INPUTS[case]
    for name, content in files.items():
        path = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
    argv = [arg.format(toy=toy_path, tmp=tmp_path) for arg in argv]
    result = runner.invoke(main, argv, input=stdin)
    assert result.exit_code == 2, (result.output, result.exception)
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: "), result.output
    assert "Traceback" not in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


class TestBench:
    def test_table_and_csv(self, runner, toy_path, tmp_path):
        result = runner.invoke(main, [
            "bench", "--instance", toy_path,
            "--solver", "fifo", "--solver", "mwkr", "--solver", "oracle",
            "--out", str(tmp_path),
        ])
        assert result.exit_code == 0, result.output
        table = (tmp_path / "table.txt").read_text()
        assert table in result.output or result.output.startswith(table)
        assert "fifo" in table and "oracle:cpu" in table
        # CPU cells are seconds with millisecond resolution.
        cpu_cells = table.splitlines()[1].split()[3::2]
        assert len(cpu_cells) == 3
        assert all(re.fullmatch(r"\d+\.\d{3}", c) for c in cpu_cells), table
        csv_text = (tmp_path / "table.csv").read_text()
        assert csv_text.splitlines()[0].startswith("instance,size,fifo")
        assert "toy2x3,2x3" in csv_text

    def test_duration_mode_only_reaches_mwkr(self, runner, toy_path):
        # rl-divided takes no duration mode, so mwkr's `min` leaves it be.
        result = runner.invoke(main, [
            "bench", "--instance", toy_path, "--solver", "mwkr",
            "--solver", "rl-divided", "--duration-mode", "min",
            "--episodes", "50",
        ])
        assert result.exit_code == 0, result.output

    def test_na_and_exit_1_on_budget(self, runner, tmp_path):
        result = runner.invoke(main, [
            "bench", "--instance", str(bundled_path("ft06")),
            "--solver", "oracle", "--node-budget", "500",
            "--out", str(tmp_path),
        ])
        assert result.exit_code == 1
        assert "NA" in (tmp_path / "table.txt").read_text()


class TestValidate:
    def _solve_fifo(self, runner, toy_path, tmp_path):
        runner.invoke(main, [
            "solve", "--instance", toy_path, "--solver", "fifo",
            "--out", str(tmp_path),
        ])
        return tmp_path / "toy2x3__fifo.sched"

    def test_ok(self, runner, toy_path, tmp_path):
        sched = self._solve_fifo(runner, toy_path, tmp_path)
        result = runner.invoke(main, ["validate", toy_path, str(sched)])
        assert result.exit_code == 0
        assert result.output.startswith("ok: makespan")

    def test_tampered_schedule_fails(self, runner, toy_path, tmp_path):
        sched = self._solve_fifo(runner, toy_path, tmp_path)
        lines = sched.read_text().splitlines()
        del lines[0]
        tampered = tmp_path / "tampered.sched"
        # Recompute the trailer so parsing succeeds and validation fails.
        body = [l for l in lines if not l.startswith("makespan")]
        ends = [int(l.split()[4]) for l in body]
        tampered.write_text("\n".join(body + [f"makespan {max(ends)}"]) + "\n")
        result = runner.invoke(main, ["validate", toy_path, str(tampered)])
        assert result.exit_code == 1
        assert "completeness" in result.output
