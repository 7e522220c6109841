"""Instance division: splitting, combining, and constrained solving."""

import re
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexshop import division
from flexshop.baselines import BaselineConfig, mwkr
from flexshop.data import load_bundled
from flexshop.division import (
    DivisionConfig,
    SplitStrategy,
    combine,
    machine_order,
    solve_divided,
    split,
)
from flexshop.environment import WAIT, SchedulingEnv
from flexshop.instance import OperationSpec, parse_instance
from flexshop.qlearning import LearnerConfig, train
from flexshop.schedule import validate_schedule

from conftest import tiny_instance

FAST = LearnerConfig(episodes=300, seed=0, epsilon_decay=0.99, epsilon_min=0.05)


def divided(strategy, parts=2):
    return DivisionConfig(**vars(FAST), parts=parts, strategy=strategy)


# Two jobs on two machines whose required orders block each other: M0 must
# run job 1's second op before job 0's first, and M1 job 0's second op
# before job 1's first.
CYCLIC = parse_instance("2 2\n2 1 1 3 1 2 3\n2 1 2 3 1 1 3\n")
CYCLIC_ORDER = {0: ((1, 1), (0, 0)), 1: ((0, 1), (1, 0))}
ONE_OP = parse_instance("1 2\n1 1 1 3\n")
FLEX06 = load_bundled("flex06")


def random_order(inst, rng):
    """Most ops listed on one of their machines, each machine's list in
    random order; the rest unlisted."""
    per_machine = {}
    for j, job in enumerate(inst.jobs):
        for o, op in enumerate(job.operations):
            if rng.random() < 0.8:
                machine = rng.choice(op.machines())
                per_machine.setdefault(machine, []).append((j, o))
    for ops in per_machine.values():
        rng.shuffle(ops)
    return {m: tuple(ops) for m, ops in per_machine.items()}


def order_is_runnable(inst, order) -> bool:
    """Forward simulation: a job advances past an op once that op's machine
    predecessor has been passed; the order can be run iff no job gets stuck."""
    before = {op: prev for ops in order.values()
              for prev, op in zip((None,) + ops, ops)}
    job_op = [0] * inst.job_count
    progressed = True
    while progressed:
        progressed = False
        for j, job in enumerate(inst.jobs):
            while job_op[j] < len(job):
                pred = before.get((j, job_op[j]))
                if pred is not None and job_op[pred[0]] <= pred[1]:
                    break
                job_op[j] += 1
                progressed = True
    return all(job_op[j] == len(job) for j, job in enumerate(inst.jobs))


def reference_boundaries(inst, parts, strategy, duration_mode):
    """The closed forms `split` replaced, in the earlier (strategy,
    duration_mode) form: ceil(k·n/parts) cuts by operation count
    ("ops"), or each op bucketed by its expected start ("duration", with
    the mean or max as the expectation)."""
    expected = {"mean": OperationSpec.mean_duration,
                "max": OperationSpec.max_duration}[duration_mode]
    boundaries = []
    for job in inst.jobs:
        n_ops = len(job)
        if strategy == "ops":
            cuts = [0] + [-(-k * n_ops // parts)
                          for k in range(1, parts)] + [n_ops]
        else:
            durations = [expected(op) for op in job.operations]
            total = sum(durations, Fraction(0))
            seg_of_op = []
            cumulative = Fraction(0)
            for value in durations:
                seg_of_op.append(min(parts - 1,
                                     int(cumulative * parts / total)))
                cumulative += value
            cuts = [sum(1 for s in seg_of_op if s < k)
                    for k in range(parts + 1)]
        boundaries.append(tuple(cuts))
    return tuple(boundaries)


# Each earlier (strategy, duration_mode) pair -> the strategy that now
# splits the same way.
OLD_PAIRS = {("ops", "mean"): "ops", ("ops", "max"): "ops",
             ("duration", "mean"): "mean", ("duration", "max"): "max"}


class TestSplit:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_matches_reference(self, seed):
        inst = tiny_instance(seed, max_ops=6)
        max_ops = max(len(job) for job in inst.jobs)
        for parts in range(2, max_ops + 1):
            for (old, mode), strategy in OLD_PAIRS.items():
                cfg = DivisionConfig(parts=parts, strategy=strategy)
                assert (split(inst, cfg).boundaries
                        == reference_boundaries(inst, parts, old, mode))

    def test_toy_by_op_count(self, toy):
        plan = split(toy, divided(SplitStrategy.BY_OP_COUNT))
        # First segment: J1's first op, J2's first two ops.
        assert plan.boundaries == ((0, 1, 2), (0, 2, 3))
        first = combine(plan, 1)
        assert first.jobs[0].operations == toy.jobs[0].operations[:1]
        assert first.jobs[1].operations == toy.jobs[1].operations[:2]

    def test_toy_by_mean_duration(self, toy):
        plan = split(toy, divided(SplitStrategy.BY_MEAN_DURATION))
        # Most even split by expected duration: J1 fully in part 1 (27.5),
        # J2's first two ops in part 1 (44) and the last (20) in part 2.
        assert plan.boundaries == ((0, 2, 2), (0, 2, 3))

    def test_strategy_and_duration_mode_choices(self, toy):
        # Division splits by op count or by mean or max durations; mwkr's
        # duration mode also takes min.
        for strategy in ("ops", "mean", "max"):
            assert DivisionConfig(strategy=strategy).strategy == strategy
            split(toy, DivisionConfig(strategy=strategy))
        for strategy in ("min", "duration"):
            with pytest.raises(ValueError):
                DivisionConfig(strategy=strategy)
        for mode in ("mean", "min", "max"):
            assert BaselineConfig(duration_mode=mode).duration_mode == mode
            assert validate_schedule(toy, mwkr(toy, mode)) == []
        with pytest.raises(ValueError):
            BaselineConfig(duration_mode="median")
        with pytest.raises(ValueError):
            mwkr(toy, "median")

    def test_partition_property(self):
        for seed in range(20):
            inst = tiny_instance(seed)
            max_ops = max(len(j) for j in inst.jobs)
            if max_ops < 2:
                continue
            for strategy in SplitStrategy:
                plan = split(inst, divided(strategy))
                for j, job in enumerate(inst.jobs):
                    cuts = plan.boundaries[j]
                    assert cuts[0] == 0 and cuts[-1] == len(job)
                    assert list(cuts) == sorted(cuts)
                    # Every stage holds at least one op of every job.
                    assert cuts[1] >= 1
                    for k in (1, 2):
                        assert combine(plan, k).jobs[j].operations == \
                            job.operations[:cuts[k]]

    def test_parts_out_of_range(self, toy):
        with pytest.raises(ValueError):
            split(toy, divided(SplitStrategy.BY_OP_COUNT, parts=1))
        with pytest.raises(ValueError):
            split(toy, divided(SplitStrategy.BY_OP_COUNT, parts=4))
        with pytest.raises(ValueError, match="no job has 2 or more operations"):
            split(ONE_OP, divided(SplitStrategy.BY_OP_COUNT))


class TestCombine:
    def test_combine_full_is_original(self, toy):
        plan = split(toy, divided(SplitStrategy.BY_MEAN_DURATION))
        assert combine(plan, 2) == toy

    def test_combine_one_is_first_sub(self, toy):
        plan = split(toy, divided(SplitStrategy.BY_MEAN_DURATION))
        assert [len(j) for j in combine(plan, 1).jobs] == [2, 2]
        assert combine(plan, 1).name == "toy2x3.upto1"

    def test_range_check(self, toy):
        plan = split(toy, divided(SplitStrategy.BY_OP_COUNT))
        with pytest.raises(ValueError):
            combine(plan, 3)


class TestConstrainedEnv:
    def test_constraint_filters_machines(self):
        # One job, one op runnable on both machines; constrain it to M1.
        inst = parse_instance("1 2\n1 2 1 5 2 5\n")
        env = SchedulingEnv(inst, {1: ((0, 0),)})
        assert env.legal_allocations() == [(1,)]

    def test_order_enforced_on_shared_machine(self):
        # Both jobs need M0; the constraint forces job 1 to go first.
        inst = parse_instance("2 1\n1 1 1 3\n1 1 1 4\n")
        env = SchedulingEnv(inst, {0: ((1, 0), (0, 0))})
        assert env.legal_allocations() == [(WAIT, 0)]

    def test_unconstrained_ops_free(self):
        inst = parse_instance("2 2\n1 2 1 5 2 5\n1 2 1 5 2 5\n")
        env = SchedulingEnv(inst, {0: ((0, 0),)})
        # Job 0 fixed to M0; job 1 may still take M1 (M0 is conflicted).
        assert (0, 1) in env.legal_allocations()

    def test_empty_order_is_unconstrained(self, toy):
        env = SchedulingEnv(toy, {})
        assert env._before is None
        assert env.legal_allocations() == SchedulingEnv(toy).legal_allocations()

    @pytest.mark.parametrize("inst, order, match", [
        (ONE_OP, {0: ((9, 9), (0, 0))}, "outside"),
        # The only op runs on M0 alone; M1 cannot run it.
        (ONE_OP, {1: ((0, 0),)}, "cannot run"),
        (CYCLIC, CYCLIC_ORDER, r"cyclic on .*\(0, 0\)"),
        # An op listed twice must wait for itself.
        (ONE_OP, {0: ((0, 0), (0, 0))}, "cyclic"),
        # A JSON-loaded order has string keys; machine 0 can run the op.
        (ONE_OP, {"0": [[0, 0]]}, "key '0' is not a machine"),
        (ONE_OP, {2: ((0, 0),)}, "key 2 is not a machine"),
        # True == 1, but a bool is no machine id.
        (ONE_OP, {True: [(0, 0)]}, "key True is not a machine"),
        (ONE_OP, [(0, 0)], "must be a dict"),
        # An empty non-dict is no "no order" either.
        (ONE_OP, [], "must be a dict.*got a list"),
        (ONE_OP, 0, "must be a dict.*got a int"),
        (ONE_OP, "", "must be a dict.*got a str"),
        (ONE_OP, (), "must be a dict.*got a tuple"),
        (ONE_OP, {0: 5}, "order on machine 0 is not a list"),
        # flex06's op (0, 0) runs on M2 or M3, but not on both.
        (FLEX06, {2: [(0, 0)], 3: [(0, 0)]},
         r"op \(0, 0\) on machines 2 and 3"),
    ], ids=["op-outside", "machine-cannot-run", "cyclic", "listed-twice",
            "string-key", "key-out-of-range", "bool-key", "not-a-dict",
            "empty-list", "zero", "empty-string", "empty-tuple",
            "not-a-list",
            "listed-on-two-machines"])
    def test_constraint_outside_instance_rejected(self, inst, order, match):
        with pytest.raises(ValueError, match=match):
            SchedulingEnv(inst, order)

    @pytest.mark.parametrize("entry", [(0,), ("0", 0), (0, 0.0), (0, 0, 0), 0,
                                       (False, 0), [0, True]],
                             ids=["one-int", "string-job", "float-op",
                                  "three-ints", "not-a-pair", "bool-job",
                                  "bool-op"])
    def test_order_entry_not_a_pair_of_ints_rejected(self, entry):
        with pytest.raises(ValueError,
                           match=rf"entry {re.escape(repr(entry))} on machine 0"):
            SchedulingEnv(ONE_OP, {0: ((0, 0), entry)})

    @pytest.mark.parametrize("as_sequence", [
        list, lambda ops: [list(op) for op in ops],
    ], ids=["list-of-tuples", "list-of-lists"])
    def test_list_valued_order_builds_same_tables(self, as_sequence):
        # A JSON-loaded order holds lists, not tuples.
        inst = parse_instance("2 2\n2 2 1 3 2 3 1 2 2\n1 1 1 4\n")
        order = {0: ((0, 0), (1, 0)), 1: ((0, 1),)}
        a = SchedulingEnv(inst, order)
        b = SchedulingEnv(inst, {m: as_sequence(ops) for m, ops in order.items()})
        for table in ("_op_masks", "_before", "_after"):
            assert getattr(b, table) == getattr(a, table)
        assert b.legal_allocations() == a.legal_allocations() == [(0, WAIT)]

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=0, max_value=1_000))
    @settings(max_examples=200, deadline=None)
    def test_rejected_exactly_when_order_cannot_run(self, seed, order_seed):
        inst = tiny_instance(seed, max_jobs=4)
        rng = Random(order_seed)
        order = random_order(inst, rng)
        if not order_is_runnable(inst, order):
            with pytest.raises(ValueError, match="cyclic"):
                SchedulingEnv(inst, order)
            return
        env = SchedulingEnv(inst, order)
        while not env.done:
            legal = env.legal_allocations()
            assert legal
            env.step(rng.randrange(len(legal)))
        sched = env.extract_schedule()
        assert validate_schedule(inst, sched) == []
        ran = machine_order(sched)
        for machine, ops in order.items():
            assert [op for op in ran[machine] if op in ops] == list(ops)


class TestSolveDivided:
    def test_single_op_stages(self):
        inst = parse_instance("1 1\n2 1 1 5 1 1 5\n")
        sched, reports = solve_divided(inst, divided(SplitStrategy.BY_OP_COUNT))
        assert sched.makespan == 10
        assert len(reports) == 2

    def test_valid_and_not_better_than_optimum(self, toy):
        from flexshop.baselines import exhaustive_oracle

        opt = exhaustive_oracle(toy).makespan
        for strategy in SplitStrategy:
            sched, _ = solve_divided(toy, divided(strategy))
            assert validate_schedule(toy, sched) == []
            assert sched.makespan >= opt

    def test_constraint_adherence_and_monotone_coverage(self, toy):
        sched, reports = solve_divided(
            toy, divided(SplitStrategy.BY_MEAN_DURATION)
        )
        stage1 = {
            (e.job, e.op): e.machine for e in reports[0].best_schedule.entries
        }
        final = {(e.job, e.op): e.machine for e in sched.entries}
        for key, machine in stage1.items():
            assert final[key] == machine
        # Coverage grows across stages.
        c1 = machine_order(reports[0].best_schedule)
        c2 = machine_order(sched)
        assert {op for ops in c1.values() for op in ops} <= \
            {op for ops in c2.values() for op in ops}

    @pytest.mark.parametrize("budget, parts, shares", [
        (None, 2, [None, None]),
        (1.5, 3, [0.5, 0.5, 0.5]),
    ])
    def test_time_budget_is_shared_by_the_stages(self, la05, monkeypatch,
                                                 budget, parts, shares):
        seen = []

        def recording_train(env, cfg):
            seen.append(cfg.time_budget)
            return train(env, cfg)

        monkeypatch.setattr(division, "train", recording_train)
        cfg = DivisionConfig(episodes=5, seed=0, time_budget=budget,
                             parts=parts)
        solve_divided(la05, cfg)
        assert seen == shares
        assert cfg.time_budget == budget  # the caller's config is unchanged

    def test_random_instances_validate(self):
        count = 0
        for seed in range(30):
            inst = tiny_instance(seed)
            if max(len(j) for j in inst.jobs) < 2:
                continue
            for strategy in SplitStrategy:
                sched, _ = solve_divided(inst, divided(strategy))
                assert validate_schedule(inst, sched) == []
            count += 1
            if count >= 8:
                break
