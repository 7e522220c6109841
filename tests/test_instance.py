"""Instance parsing, validation, serialization, and mean durations."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_zero_duration(self):
        with pytest.raises(InstanceError, match="duration"):
            parse_instance("1 1\n1 1 1 0\n")

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
        with pytest.raises(InstanceError, match="job 1 has no operations"):
            Instance(1, (JobSpec((OperationSpec({0: 5}),)), JobSpec(())))

    def test_total_operations(self):
        inst = parse_instance("2 2\n2 1 1 3 1 2 4\n1 1 1 5\n")
        assert inst.total_operations == 3


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
