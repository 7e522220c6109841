"""Schedule model, validator, serialization, and Gantt rendering."""

import xml.etree.ElementTree as ET
from random import Random

import pytest

from flexshop.baselines import fifo
from flexshop.environment import SchedulingEnv
from flexshop.instance import parse_instance
from flexshop.schedule import (
    Schedule,
    ScheduleEntry,
    parse_schedule,
    render_gantt,
    schedule_to_json,
    validate_schedule,
    write_schedule,
)

from conftest import tiny_instance


def random_schedule(inst, seed=0) -> Schedule:
    env = SchedulingEnv(inst)
    rng = Random(seed)
    while not env.done:
        env.step(rng.randrange(len(env.legal_allocations())))
    return env.extract_schedule()


def kinds(violations) -> set[str]:
    return {v.kind for v in violations}


class TestMakespan:
    def test_single_entry(self):
        assert Schedule.from_entries([ScheduleEntry(0, 0, 0, 0, 5)]).makespan == 5

    def test_parallel_jobs(self):
        sched = Schedule.from_entries(
            [ScheduleEntry(0, 0, 0, 0, 10), ScheduleEntry(1, 0, 1, 0, 12)]
        )
        assert sched.makespan == 12

    def test_order_invariant(self, toy):
        sched = random_schedule(toy)
        flipped = Schedule.from_entries(tuple(reversed(sched.entries)))
        assert flipped.makespan == sched.makespan

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Schedule.from_entries([])


class TestValidator:
    def test_environment_output_is_valid(self, toy, ft06, flex06):
        for inst in (toy, ft06, flex06):
            assert validate_schedule(inst, random_schedule(inst)) == []

    def test_random_instances_valid(self):
        for seed in range(25):
            inst = tiny_instance(seed)
            assert validate_schedule(inst, random_schedule(inst, seed)) == []

    # One mutation per violation class; each must be flagged with exactly
    # its own class.
    def test_precedence(self):
        inst = parse_instance("1 2\n2 1 1 3 1 2 4\n")
        bad = Schedule.from_entries(
            [ScheduleEntry(0, 0, 0, 5, 8), ScheduleEntry(0, 1, 1, 0, 4)]
        )
        assert kinds(validate_schedule(inst, bad)) == {"precedence"}

    def test_job_overlap(self):
        inst = parse_instance("1 2\n2 1 1 3 1 2 4\n")
        bad = Schedule.from_entries(
            [ScheduleEntry(0, 0, 0, 0, 3), ScheduleEntry(0, 1, 1, 2, 6)]
        )
        assert kinds(validate_schedule(inst, bad)) == {"job-overlap"}

    def test_machine_overlap(self):
        inst = parse_instance("2 1\n1 1 1 5\n1 1 1 5\n")
        bad = Schedule.from_entries(
            [ScheduleEntry(0, 0, 0, 0, 5), ScheduleEntry(1, 0, 0, 3, 8)]
        )
        assert kinds(validate_schedule(inst, bad)) == {"machine-overlap"}

    def test_interruption(self):
        inst = parse_instance("1 1\n1 1 1 5\n")
        bad = Schedule.from_entries([ScheduleEntry(0, 0, 0, 0, 7)])
        assert kinds(validate_schedule(inst, bad)) == {"interruption"}

    def test_completeness_missing(self):
        inst = parse_instance("1 2\n2 1 1 3 1 2 4\n")
        bad = Schedule.from_entries([ScheduleEntry(0, 0, 0, 0, 3)])
        assert kinds(validate_schedule(inst, bad)) == {"completeness"}

    def test_completeness_duplicate(self):
        inst = parse_instance("1 1\n1 1 1 5\n")
        bad = Schedule.from_entries(
            [ScheduleEntry(0, 0, 0, 0, 5), ScheduleEntry(0, 0, 0, 5, 10)]
        )
        assert kinds(validate_schedule(inst, bad)) == {"completeness"}

    def test_negative_start(self, toy):
        shifted = [ScheduleEntry(e.job, e.op, e.machine, e.start - 100, e.end - 100)
                   for e in fifo(toy).entries]
        found = validate_schedule(toy, Schedule.from_entries(shifted))
        assert kinds(found) == {"negative-start"}
        assert len(found) == sum(1 for e in shifted if e.start < 0)

    def test_capability(self):
        inst = parse_instance("1 2\n1 1 1 5\n")
        bad = Schedule.from_entries([ScheduleEntry(0, 0, 1, 0, 5)])
        assert kinds(validate_schedule(inst, bad)) == {"capability"}


class TestSerialization:
    def test_round_trip(self, toy):
        sched = random_schedule(toy)
        again = parse_schedule(write_schedule(sched))
        assert set(again.entries) == set(sched.entries)
        assert again.makespan == sched.makespan

    def test_trailer_mismatch_rejected(self, toy):
        sched = random_schedule(toy)
        text = write_schedule(sched)
        trailer = f"makespan {sched.makespan}"
        assert trailer in text
        tampered = text.replace(trailer, f"makespan {sched.makespan + 1}")
        with pytest.raises(ValueError, match="declared makespan"):
            parse_schedule(tampered)

    def test_non_integer_makespan_rejected(self):
        with pytest.raises(ValueError, match=r"^line 2: non-integer makespan$"):
            parse_schedule("0 0 0 0 5\nmakespan x\n")

    @pytest.mark.parametrize("line", ["0 0 0 -10 -2", "0 0 0 -1 4",
                                      "0 0 0 0 -3"])
    def test_negative_times_rejected(self, line):
        with pytest.raises(ValueError, match=r"^line 2: negative time"):
            parse_schedule(f"0 1 0 0 5\n{line}\n")

    def test_json_contains_makespan(self, toy):
        sched = random_schedule(toy)
        assert f'"makespan": {sched.makespan}' in schedule_to_json(sched, "toy")


class TestGantt:
    def test_single_lane(self, one_by_one):
        env = SchedulingEnv(one_by_one)
        env.step(0)
        svg = render_gantt(env.extract_schedule(), 1)
        assert svg.count("<rect") == 1
        assert "M0" in svg

    def test_block_count(self, toy):
        sched = random_schedule(toy)
        svg = render_gantt(sched, toy.machine_count)
        assert svg.count("<rect") == toy.total_operations
        assert svg.count(">M") == toy.machine_count

    def test_deterministic(self, toy):
        sched = random_schedule(toy)
        assert render_gantt(sched, 3) == render_gantt(sched, 3)

    def test_title_is_escaped(self, toy):
        from xml.sax.saxutils import escape

        sched = random_schedule(toy)
        svg = render_gantt(sched, 3, title="a&b<1>")
        title = ET.fromstring(svg).find("{http://www.w3.org/2000/svg}text")
        assert title.text.startswith("a&b<1> makespan=")
        # Byte for byte as xml.sax.saxutils escapes it.
        assert render_gantt(sched, 3, title="<a&b>") == render_gantt(
            sched, 3, title="T").replace(
                ">T makespan=", ">" + escape("<a&b>") + " makespan=", 1)
