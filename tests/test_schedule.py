"""Schedule model, validator, serialization, and Gantt rendering."""

import xml.etree.ElementTree as ET
from dataclasses import replace
from functools import lru_cache
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexshop.baselines import fifo
from flexshop.data import BUNDLED, load_bundled
from flexshop.environment import SchedulingEnv
from flexshop.instance import parse_instance
from flexshop.schedule import (
    Schedule,
    ScheduleEntry,
    Violation,
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


def reference_validate(inst, sched) -> list[Violation]:
    """The all-pairs validator that `validate_schedule` replaced: three
    passes over the entries, then every pair of each job's operations.  It
    has no makespan rule."""
    violations: list[Violation] = []

    seen: dict[tuple[int, int], ScheduleEntry] = {}
    for e in sched.entries:
        if not (0 <= e.job < inst.job_count) or not (
            0 <= e.op < len(inst.jobs[e.job])
        ):
            violations.append(
                Violation("completeness", f"unknown operation (job {e.job}, op {e.op})")
            )
            continue
        if (e.job, e.op) in seen:
            violations.append(
                Violation("completeness", f"duplicate entry for job {e.job} op {e.op}")
            )
            continue
        seen[(e.job, e.op)] = e

    for j, job in enumerate(inst.jobs):
        for o in range(len(job)):
            if (j, o) not in seen:
                violations.append(
                    Violation("completeness", f"missing entry for job {j} op {o}")
                )

    for (j, o), e in seen.items():
        if e.start < 0:
            violations.append(
                Violation("negative-start", f"job {j} op {o}: starts at {e.start}")
            )
        op = inst.jobs[j].operations[o]
        if e.machine not in op.alternatives:
            violations.append(
                Violation(
                    "capability",
                    f"job {j} op {o}: machine {e.machine} cannot run this operation",
                )
            )
        elif e.end - e.start != op.alternatives[e.machine]:
            violations.append(
                Violation(
                    "interruption",
                    f"job {j} op {o}: interval [{e.start},{e.end}) does not match "
                    f"duration {op.alternatives[e.machine]} on machine {e.machine}",
                )
            )

    by_job: dict[int, list[ScheduleEntry]] = {}
    for (j, _), e in seen.items():
        by_job.setdefault(j, []).append(e)
    for j, entries in by_job.items():
        entries.sort(key=lambda e: e.op)
        for i in range(len(entries)):
            for k in range(i + 1, len(entries)):
                a, b = entries[i], entries[k]  # a.op < b.op
                if b.start < a.start:
                    violations.append(
                        Violation(
                            "precedence",
                            f"job {j}: op {b.op} starts at {b.start} before op "
                            f"{a.op} starts at {a.start}",
                        )
                    )
                elif b.start < a.end:
                    violations.append(
                        Violation(
                            "job-overlap",
                            f"job {j}: ops {a.op} and {b.op} run simultaneously",
                        )
                    )

    by_machine: dict[int, list[ScheduleEntry]] = {}
    for e in seen.values():
        by_machine.setdefault(e.machine, []).append(e)
    for m, entries in by_machine.items():
        entries.sort(key=lambda e: (e.start, e.end))
        for a, b in zip(entries, entries[1:]):
            if b.start < a.end:
                violations.append(
                    Violation(
                        "machine-overlap",
                        f"machine {m}: job {a.job} op {a.op} and job {b.job} "
                        f"op {b.op} overlap",
                    )
                )

    return violations


@lru_cache(maxsize=None)
def source(name: str, walk_seed: int | None):
    """An instance (`tinyN` or a bundled name) and a valid schedule of it:
    fifo's if `walk_seed` is None, else a random walk's."""
    inst = (tiny_instance(int(name[4:])) if name.startswith("tiny")
            else load_bundled(name))
    sched = fifo(inst) if walk_seed is None else random_schedule(inst, walk_seed)
    return inst, sched.entries


MUTATIONS = ("shift", "stretch", "machine", "drop", "duplicate",
             "duplicate-same", "relabel")


def mutate(inst, entries: list, kind: str, pick: int, amount: int) -> None:
    """Apply one mutation in place to `entries[pick % len(entries)]`;
    `amount` sizes it."""
    i = pick % len(entries)
    e = entries[i]
    if kind == "shift":
        entries[i] = replace(e, start=e.start + amount, end=e.end + amount)
    elif kind == "stretch":
        entries[i] = replace(e, end=e.end + amount)
    elif kind == "machine":
        entries[i] = replace(e, machine=abs(amount) % (inst.machine_count + 1))
    elif kind == "drop":
        del entries[i]
    elif kind == "duplicate":
        entries.append(replace(e, start=e.start + amount, end=e.end + amount))
    elif kind == "duplicate-same":
        entries.append(e)  # the same object twice
    else:  # relabel
        entries[i] = replace(e, op=abs(amount) % (len(inst.jobs[e.job]) + 1))


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

    def test_makespan(self, toy):
        s = fifo(toy)
        found = validate_schedule(toy, Schedule(s.entries, s.makespan - 5))
        assert kinds(found) == {"makespan"}
        assert found[0].message == (
            f"declared makespan {s.makespan - 5} != latest end {s.makespan}")

    def test_identical_entry_twice(self, toy):
        entries = fifo(toy).entries
        doubled = Schedule.from_entries(entries + entries[:1])
        found = validate_schedule(toy, doubled)
        assert kinds(found) == {"completeness"}
        e = entries[0]
        assert [v.message for v in found] == [
            f"duplicate entry for job {e.job} op {e.op}"]

    def test_several_faults_in_one_job_report_adjacent_pairs(self):
        inst = parse_instance("1 1\n3 1 1 2 1 1 2 1 1 2\n")
        # All three ops run at once: ops 0/1 and 1/2 overlap; 0/2 is not
        # reported, though it overlaps too.
        bad = Schedule.from_entries(
            [ScheduleEntry(0, o, 0, 0, 2) for o in range(3)])
        found = [v for v in validate_schedule(inst, bad) if v.kind == "job-overlap"]
        assert [v.message for v in found] == [
            "job 0: ops 0 and 1 run simultaneously",
            "job 0: ops 1 and 2 run simultaneously",
        ]

    @settings(max_examples=300, deadline=None)
    @given(
        name=st.sampled_from([f"tiny{seed}" for seed in range(60)] + list(BUNDLED)),
        walk_seed=st.none() | st.integers(0, 4),
        mutations=st.lists(
            st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 10**6),
                      st.integers(-6, 6)),
            max_size=3),
    )
    def test_matches_reference(self, name, walk_seed, mutations):
        """Against the all-pairs reference: the same verdict, and kinds
        drawn from the reference's (plus "makespan", which it lacks)."""
        inst, base = source(name, walk_seed)
        entries = list(base)
        for kind, pick, amount in mutations:
            if entries:
                mutate(inst, entries, kind, pick, amount)
        if not entries:
            return
        sched = Schedule.from_entries(entries)
        found = validate_schedule(inst, sched)
        expected = reference_validate(inst, sched)
        assert (found == []) == (expected == [])
        assert kinds(found) <= kinds(expected) | {"makespan"}
        # Misstating the makespan adds exactly that kind.
        misstated = validate_schedule(inst, Schedule(sched.entries, sched.makespan + 1))
        assert kinds(misstated) == kinds(found) | {"makespan"}


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

    def test_second_trailer_rejected(self):
        # Only a refused file can keep the first trailer from being lost.
        with pytest.raises(ValueError, match=r"^line 3: second makespan trailer$"):
            parse_schedule("0 0 0 0 5\nmakespan 9\nmakespan 5\n")

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
