"""Schedule data model, constraint validation, serialization and Gantt SVG."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .instance import Instance


@dataclass(frozen=True)
class ScheduleEntry:
    job: int
    op: int
    machine: int
    start: int
    end: int


@dataclass(frozen=True)
class Schedule:
    entries: tuple[ScheduleEntry, ...]
    makespan: int

    @classmethod
    def from_entries(cls, entries) -> "Schedule":
        entries = tuple(entries)
        if not entries:
            raise ValueError("empty schedule")
        return cls(entries, max(e.end for e in entries))


@dataclass(frozen=True)
class Violation:
    kind: str  # job-overlap | machine-overlap | interruption | precedence |
    #            completeness | capability | negative-start | makespan
    message: str


def validate_schedule(inst: Instance, sched: Schedule) -> list[Violation]:
    """Check a schedule against the job-shop constraints.

    Returns an empty list iff the schedule is valid: every operation appears
    exactly once, starts at time 0 or later, runs uninterrupted for its
    machine's duration on a capable machine, same-job operations neither
    overlap nor break precedence order, no machine runs two operations at
    once, and `sched.makespan` is the latest end.  Machine idleness is
    allowed and never flagged.

    Each job's chain is walked once in op order, and each present entry is
    compared with the job's previous present one.  Durations are at least 1,
    so when every interval matches its duration, adjacent pairs in order
    imply that all pairs are; a job with several faults reports adjacent
    pairs only.
    """
    violations: list[Violation] = []

    def flag(kind: str, message: str) -> None:
        violations.append(Violation(kind, message))

    seen: dict[tuple[int, int], ScheduleEntry] = {}
    for e in sched.entries:
        if not (0 <= e.job < inst.job_count and 0 <= e.op < len(inst.jobs[e.job])):
            flag("completeness", f"unknown operation (job {e.job}, op {e.op})")
        elif (key := (e.job, e.op)) in seen:
            flag("completeness", f"duplicate entry for job {e.job} op {e.op}")
        else:
            seen[key] = e

    for j, job in enumerate(inst.jobs):
        prev = None
        for o, op in enumerate(job.operations):
            e = seen.get((j, o))
            if e is None:
                flag("completeness", f"missing entry for job {j} op {o}")
                continue
            if e.start < 0:
                flag("negative-start", f"job {j} op {o}: starts at {e.start}")
            duration = op.alternatives.get(e.machine)
            if duration is None:
                flag("capability",
                     f"job {j} op {o}: machine {e.machine} cannot run this operation")
            elif e.end - e.start != duration:
                flag("interruption",
                     f"job {j} op {o}: interval [{e.start},{e.end}) does not match "
                     f"duration {duration} on machine {e.machine}")
            if prev is not None:
                if e.start < prev.start:
                    flag("precedence", f"job {j}: op {o} starts at {e.start} "
                         f"before op {prev.op} starts at {prev.start}")
                elif e.start < prev.end:
                    flag("job-overlap",
                         f"job {j}: ops {prev.op} and {o} run simultaneously")
            prev = e

    # Machine overlap.
    by_machine: dict[int, list[ScheduleEntry]] = {}
    for e in seen.values():
        by_machine.setdefault(e.machine, []).append(e)
    for m, entries in by_machine.items():
        entries.sort(key=lambda e: (e.start, e.end))
        for a, b in zip(entries, entries[1:]):
            if b.start < a.end:
                flag("machine-overlap", f"machine {m}: job {a.job} op {a.op} "
                     f"and job {b.job} op {b.op} overlap")

    latest = max((e.end for e in sched.entries), default=0)
    if sched.makespan != latest:
        flag("makespan", f"declared makespan {sched.makespan} != latest end {latest}")

    return violations


# -- serialization --------------------------------------------------------


def write_schedule(sched: Schedule) -> str:
    """One `job op machine start end` line per entry plus a makespan trailer."""
    lines = [
        f"{e.job} {e.op} {e.machine} {e.start} {e.end}"
        for e in sorted(sched.entries, key=lambda e: (e.start, e.job, e.op))
    ]
    lines.append(f"makespan {sched.makespan}")
    return "\n".join(lines) + "\n"


def parse_schedule(text: str) -> Schedule:
    entries = []
    declared = None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "makespan":
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: malformed makespan trailer")
            if declared is not None:
                raise ValueError(f"line {lineno}: second makespan trailer")
            try:
                declared = int(parts[1])
            except ValueError:
                raise ValueError(f"line {lineno}: non-integer makespan") from None
            continue
        if len(parts) != 5:
            raise ValueError(f"line {lineno}: expected 5 fields, got {len(parts)}")
        try:
            job, op, machine, start, end = (int(p) for p in parts)
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer field") from None
        if start < 0 or end < 0:
            raise ValueError(f"line {lineno}: negative time")
        entries.append(ScheduleEntry(job, op, machine, start, end))
    if not entries:
        raise ValueError("schedule file holds no entries")
    sched = Schedule.from_entries(entries)
    if declared is not None and declared != sched.makespan:
        raise ValueError(
            f"declared makespan {declared} != computed {sched.makespan}"
        )
    return sched


def schedule_to_json(sched: Schedule, instance_name: str = "") -> str:
    return json.dumps(
        {
            "instance": instance_name,
            "makespan": sched.makespan,
            "entries": [
                {"job": e.job, "op": e.op, "machine": e.machine,
                 "start": e.start, "end": e.end}
                for e in sorted(sched.entries, key=lambda e: (e.start, e.job, e.op))
            ],
        },
        indent=2,
    )


# -- Gantt rendering ------------------------------------------------------

_PALETTE = [
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948",
    "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
]


def render_gantt(sched: Schedule, machine_count: int | None = None,
                 title: str = "") -> str:
    """Hand-emitted SVG Gantt chart: one lane per machine, one block per entry.

    Output is deterministic for identical input.
    """
    if machine_count is None:
        machine_count = max(e.machine for e in sched.entries) + 1
    lane_h, margin_left, margin_top, px = 34, 60, 30, 12.0
    span = max(1, sched.makespan)
    px = min(px, 1100.0 / span)
    width = margin_left + int(span * px) + 20
    height = margin_top + machine_count * lane_h + 30
    title = title.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{margin_left}" y="18" font-family="sans-serif" font-size="13">'
        f"{title} makespan={sched.makespan}</text>",
    ]
    for m in range(machine_count):
        y = margin_top + m * lane_h
        parts.append(
            f'<text x="4" y="{y + lane_h // 2 + 4}" font-family="sans-serif" '
            f'font-size="11">M{m}</text>'
        )
        parts.append(
            f'<line x1="{margin_left}" y1="{y + lane_h - 4}" x2="{width - 10}" '
            f'y2="{y + lane_h - 4}" stroke="#ddd"/>'
        )
    for e in sorted(sched.entries, key=lambda e: (e.machine, e.start)):
        x = margin_left + e.start * px
        y = margin_top + e.machine * lane_h + 2
        w = max(1.0, (e.end - e.start) * px - 1)
        color = _PALETTE[e.job % len(_PALETTE)]
        parts.append(
            f'<rect x="{x:.1f}" y="{y}" width="{w:.1f}" height="{lane_h - 8}" '
            f'fill="{color}" stroke="#333" stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{x + 2:.1f}" y="{y + 14}" font-family="sans-serif" '
            f'font-size="9" fill="#fff">J{e.job}.{e.op}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
