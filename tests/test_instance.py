"""Instance parsing, validation, serialization, and mean durations."""

import copy
import dataclasses
import pickle
import re
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexshop import make_solver
from flexshop.instance import (
    Instance,
    InstanceError,
    JobSpec,
    OperationSpec,
    parse_instance,
    write_instance,
)

from conftest import tiny_instance


class TestParse:
    def test_two_op_job_line(self):
        inst = parse_instance("2 3\n2 2 1 10 2 15 2 2 12 3 18\n1 1 1 7\n")
        op1, op2 = inst.jobs[0].operations
        assert op1.alternatives == {0: 10, 1: 15}
        assert op2.alternatives == {1: 12, 2: 18}

    def test_minimal_instance(self):
        inst = parse_instance("1 1\n1 1 1 5\n")
        assert inst.job_count == 1
        assert inst.machine_count == 1
        assert inst.jobs[0].operations[0].alternatives == {0: 5}

    def test_optional_third_header_int_ignored(self):
        inst = parse_instance("1 2 1\n1 1 1 5\n")
        assert inst.machine_count == 2

    def test_decimal_third_header_field_ignored(self):
        inst = parse_instance("2 2 1.5\n1 2 1 3 2 4\n1 1 2 5\n")
        assert inst.machine_count == 2
        assert inst == parse_instance("2 2\n1 2 1 3 2 4\n1 1 2 5\n")

    @pytest.mark.parametrize("average", ["x", "1.5x", "nan", "inf", "-inf",
                                         "1e999", "-1", "-0.5"])
    def test_bad_third_header_field_names_line_1(self, average):
        with pytest.raises(InstanceError, match="^line 1: machines per operation"):
            parse_instance(f"2 2 {average}\n1 2 1 3 2 4\n1 1 2 5\n")

    def test_token_underrun_names_line(self):
        with pytest.raises(InstanceError, match="line 2"):
            parse_instance("1 2\n2 2 1 10\n")

    def test_non_integer_token(self):
        with pytest.raises(InstanceError, match="non-integer"):
            parse_instance("1 1\n1 1 x 5\n")

    def test_machine_out_of_range(self):
        with pytest.raises(InstanceError, match="out of range"):
            parse_instance("1 1\n1 1 2 5\n")

    # The model's rules reach a file's errors with the line number, and
    # never with a 0-based machine id.
    def test_zero_duration(self):
        with pytest.raises(InstanceError, match="^line 2: duration") as err:
            parse_instance("1 1\n1 1 1 0\n")
        assert "machine 0" not in str(err.value)

    @pytest.mark.parametrize("text, match", [
        ("1 1\n1 0\n", "operation has no machine alternatives"),
        ("1 1\n0\n", "job has no operations"),
    ], ids=["zero-alternatives", "zero-operations"])
    def test_empty_counts_name_line(self, text, match):
        with pytest.raises(InstanceError, match=f"^line 2: {match}"):
            parse_instance(text)

    def test_trailing_tokens(self):
        with pytest.raises(InstanceError, match="trailing"):
            parse_instance("1 1\n1 1 1 5 9\n")

    def test_missing_job_lines(self):
        with pytest.raises(InstanceError, match="job lines"):
            parse_instance("2 1\n1 1 1 5\n")

    def test_extra_job_lines(self):
        with pytest.raises(InstanceError, match="line 3"):
            parse_instance("1 1\n1 1 1 5\n1 1 1 5\n")

    def test_empty_file(self):
        with pytest.raises(InstanceError):
            parse_instance("")

    def test_duplicate_machine_in_operation(self):
        with pytest.raises(InstanceError, match="duplicate"):
            parse_instance("1 2\n1 2 1 5 1 6\n")

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_never_panics_on_arbitrary_text(self, text):
        try:
            parse_instance(text)
        except InstanceError:
            pass


class TestModel:
    def test_operation_requires_alternatives(self):
        with pytest.raises(InstanceError):
            OperationSpec({})

    @pytest.mark.parametrize("alternatives, match", [
        ({0: 2.5}, r"duration 2\.5 on machine 0 is not an int"),
        ({0: True}, "duration True on machine 0 is not an int"),
        ({True: 3}, "machine id True is not an int"),
        ({0.0: 3}, r"machine id 0\.0 is not an int"),
        ({"0": 3}, "machine id '0' is not an int"),
        ([(0, 3)], r"alternatives must be a dict.*\[\(0, 3\)\]"),
    ], ids=["float-duration", "bool-duration", "bool-machine",
            "float-machine", "string-machine", "not-a-dict"])
    def test_non_int_alternatives_rejected(self, alternatives, match):
        with pytest.raises(InstanceError, match=match):
            OperationSpec(alternatives)

    @pytest.mark.parametrize("count", [2.0, True, "2", None])
    def test_non_int_machine_count_rejected(self, count):
        with pytest.raises(InstanceError,
                           match=f"machine_count must be an int >= 1, "
                                 f"got {re.escape(repr(count))}"):
            Instance(count, (JobSpec((OperationSpec({0: 5}),)),))

    @pytest.mark.parametrize("build, match", [
        (lambda: Instance(2, ((1, 2),)),
         r"jobs\[0\] must be JobSpec, got \(1, 2\)"),
        (lambda: Instance(2, (JobSpec((OperationSpec({0: 1}),)), None)),
         r"jobs\[1\] must be JobSpec, got None"),
        (lambda: JobSpec(({0: 1},)),
         r"operations\[0\] must be OperationSpec, got \{0: 1\}"),
        (lambda: JobSpec((OperationSpec({0: 1}), None)),
         r"operations\[1\] must be OperationSpec, got None"),
        (lambda: Instance(1, (JobSpec(("op",)),)),
         "operations\\[0\\] must be OperationSpec, got 'op'"),
    ], ids=["tuple-job", "none-job", "dict-operation", "none-operation",
            "string-operation"])
    def test_wrongly_typed_members_rejected(self, build, match):
        with pytest.raises(InstanceError, match=match):
            build()

    def test_machine_id_range_checked(self):
        with pytest.raises(InstanceError):
            Instance(1, (JobSpec((OperationSpec({1: 5}),)),))

    def test_machine_count_positive(self):
        with pytest.raises(InstanceError):
            Instance(0, (JobSpec((OperationSpec({0: 5}),)),))

    def test_jobs_required(self):
        with pytest.raises(InstanceError):
            Instance(1, ())

    def test_job_needs_operations(self):
        with pytest.raises(InstanceError, match="^job has no operations$"):
            JobSpec(())

    def test_total_operations(self):
        inst = parse_instance("2 2\n2 1 1 3 1 2 4\n1 1 1 5\n")
        assert inst.total_operations == 3


def _constructor_args():
    """Arguments for OperationSpec, JobSpec and Instance: arbitrary nested
    Python values, mixed with near-valid ones so that some models build."""
    operations = st.builds(OperationSpec, st.dictionaries(
        st.integers(0, 2), st.integers(1, 5), min_size=1, max_size=3))
    jobs = st.builds(JobSpec, st.lists(operations, min_size=1, max_size=3))
    keys = st.one_of(st.none(), st.booleans(), st.integers(-2, 3),
                     st.floats(), st.text(max_size=2))
    nested = st.recursive(
        st.one_of(keys, st.integers(), operations, jobs),
        lambda children: st.one_of(
            st.lists(children, max_size=3),
            st.lists(children, max_size=3).map(tuple),
            st.lists(children, max_size=3).map(lambda xs: (x for x in xs)),
            st.dictionaries(keys, children, max_size=3)),
        max_leaves=8)

    def members(kind):
        return st.one_of(st.lists(st.one_of(kind, nested), max_size=3),
                         st.lists(kind, max_size=3).map(tuple), nested)
    return st.tuples(
        st.one_of(st.dictionaries(st.integers(-1, 3), st.integers(-1, 5),
                                  max_size=3), nested),
        members(operations),
        st.one_of(st.integers(-1, 4), nested),
        members(jobs))


class TestOwnership:
    """The model checks, copies and freezes what it is given."""

    def test_caller_dict_change_does_not_reach_model(self):
        alternatives = {0: 3}
        inst = Instance(1, (JobSpec((OperationSpec(alternatives),)),))
        alternatives[0] = -4
        assert inst.jobs[0].operations[0].alternatives == {0: 3}
        assert make_solver("fifo").fit(inst).best_makespan_ == 3

    def test_alternatives_are_read_only(self):
        op = OperationSpec({0: 3})
        with pytest.raises(TypeError):
            op.alternatives[0] = -4
        assert op.alternatives == {0: 3}

    @pytest.mark.parametrize("build, field", [
        (lambda: JobSpec(op for op in [OperationSpec({0: 3})]), "operations"),
        (lambda: Instance(2, 5), "jobs"),
        (lambda: JobSpec(5), "operations"),
        (lambda: JobSpec("op"), "operations"),
        (lambda: JobSpec({0: OperationSpec({0: 3})}), "operations"),
        (lambda: Instance(1, (j for j in [JobSpec((OperationSpec({0: 3}),))])),
         "jobs"),
    ], ids=["generator", "int-jobs", "int-operations", "str-operations",
            "dict-operations", "generator-jobs"])
    def test_non_sequence_members_name_the_field(self, build, field):
        with pytest.raises(InstanceError, match=f"^{field} must be a tuple or "
                                                "list of"):
            build()

    def test_stored_alternatives_build_an_equal_operation(self):
        op = OperationSpec({0: 3, 2: 1})
        assert OperationSpec(op.alternatives) == op
        assert dataclasses.replace(op) == op

    def test_list_members_stored_as_tuples(self):
        op = OperationSpec({0: 3})
        inst = Instance(1, [JobSpec([op, op])])
        assert type(inst.jobs) is tuple
        assert type(inst.jobs[0].operations) is tuple
        assert inst == Instance(1, (JobSpec((op, op)),))

    def test_pickle_and_deepcopy_round_trip(self, toy, ft06, flex06, la05):
        for inst in (toy, ft06, flex06, la05):
            for again in (pickle.loads(pickle.dumps(inst)),
                          copy.deepcopy(inst)):
                assert again == inst
                assert again.name == inst.name
                op = again.jobs[0].operations[0]
                with pytest.raises(TypeError):
                    op.alternatives[0] = 1

    @given(_constructor_args())
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_values_give_instance_error_or_valid_model(self, args):
        alternatives, operations, machine_count, jobs = args
        builds = [(OperationSpec, (alternatives,)), (JobSpec, (operations,)),
                  (Instance, (machine_count, jobs))]
        for kind, args in builds:
            try:
                model = kind(*args)
            except InstanceError:
                continue
            if kind is OperationSpec:
                assert type(model.alternatives) is MappingProxyType
                assert all(type(m) is int and m >= 0 and type(d) is int
                           and d >= 1 for m, d in model.alternatives.items())
            elif kind is JobSpec:
                assert type(model.operations) is tuple and model.operations
            else:
                assert parse_instance(write_instance(model)) == model


class TestWrite:
    def test_minimal_output(self, one_by_one):
        assert write_instance(one_by_one).split() == "1 1 1 1 1 5".split()

    def test_round_trip_fig_shape(self):
        text = "2 3\n2 2 1 10 2 15 2 2 12 3 18\n1 1 1 7\n"
        inst = parse_instance(text)
        again = parse_instance(write_instance(inst))
        assert again.jobs == inst.jobs
        assert again.machine_count == inst.machine_count

    def test_round_trip_bundled(self, toy, ft06, flex06, la05):
        for inst in (toy, ft06, flex06, la05):
            again = parse_instance(write_instance(inst), name=inst.name)
            assert again == inst

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random(self, seed):
        inst = tiny_instance(seed)
        again = parse_instance(write_instance(inst), name=inst.name)
        assert again == inst


class TestMeanDurations:
    def test_toy_job_means(self, toy):
        means = [[op.mean_duration() for op in job.operations]
                 for job in toy.jobs]
        assert means[0] == [Fraction(25, 2), Fraction(15)]
        assert means[1] == [Fraction(45, 2), Fraction(43, 2), Fraction(20)]

    def test_single_alternative(self, one_by_one):
        assert one_by_one.jobs[0].operations[0].mean_duration() == Fraction(5)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_between_min_and_max(self, seed):
        for job in tiny_instance(seed).jobs:
            for op in job.operations:
                assert op.min_duration() <= op.mean_duration() <= op.max_duration()
