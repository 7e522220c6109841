"""Flexible job-shop instance model and the standard text format.

The text format is the usual flexible job-shop convention: a header line
``<jobs> <machines> [<avg machines per op>]`` (the optional average may be
decimal, as in ``10 5 1.15``, and is ignored) followed by one line per job,

    <#ops> { <#alternatives> { <machine> <duration> }^#alternatives }^#ops

Machine ids are 1-based in files and 0-based internally.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType


class InstanceError(ValueError):
    """Raised for malformed instance text or inconsistent instance data."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class OperationSpec:
    """One operation: the machines able to run it and their durations.

    ``alternatives`` is a read-only copy of the dict passed in.
    """

    alternatives: Mapping[int, int]

    def __post_init__(self):
        if not isinstance(self.alternatives, (dict, MappingProxyType)):
            raise InstanceError("alternatives must be a dict of machine -> "
                                f"duration, got {self.alternatives!r}")
        alternatives = dict(self.alternatives)
        if not alternatives:
            raise InstanceError("operation has no machine alternatives")
        for machine, duration in alternatives.items():
            # True == 1, but a bool is no machine id or duration.
            if type(machine) is not int:
                raise InstanceError(f"machine id {machine!r} is not an int")
            if type(duration) is not int:
                raise InstanceError(f"duration {duration!r} on machine "
                                    f"{machine} is not an int")
            if machine < 0:
                raise InstanceError(f"negative machine id {machine}")
            if duration < 1:
                raise InstanceError(f"duration {duration} must be >= 1")
        object.__setattr__(self, "alternatives", MappingProxyType(alternatives))

    def __reduce__(self):  # a mappingproxy cannot be pickled
        return OperationSpec, (dict(self.alternatives),)

    def machines(self) -> list[int]:
        return sorted(self.alternatives)

    def min_duration(self) -> int:
        return min(self.alternatives.values())

    def mean_duration(self) -> Fraction:
        values = list(self.alternatives.values())
        return Fraction(sum(values), len(values))

    def max_duration(self) -> int:
        return max(self.alternatives.values())


class DurationMode(str, Enum):
    MEAN = "mean"
    MIN = "min"
    MAX = "max"


# Duration mode -> how one operation's duration is summarised.
DURATION_MODES = {DurationMode.MEAN: OperationSpec.mean_duration,
                  DurationMode.MIN: OperationSpec.min_duration,
                  DurationMode.MAX: OperationSpec.max_duration}


def _own_members(spec, field: str, kind: type, owner: str):
    """Store a non-empty tuple or list of ``kind`` as a tuple, or refuse it."""
    members = getattr(spec, field)
    if not isinstance(members, (tuple, list)):
        raise InstanceError(f"{field} must be a tuple or list of "
                            f"{kind.__name__}, got {members!r}")
    if not members:
        raise InstanceError(f"{owner} has no {field}")
    for i, member in enumerate(members):
        if not isinstance(member, kind):
            raise InstanceError(
                f"{field}[{i}] must be {kind.__name__}, got {member!r}")
    object.__setattr__(spec, field, tuple(members))


@dataclass(frozen=True)
class JobSpec:
    """An ordered chain of one or more operations, in precedence order."""

    operations: tuple[OperationSpec, ...]

    def __post_init__(self):
        _own_members(self, "operations", OperationSpec, "job")

    def __len__(self) -> int:
        return len(self.operations)


@dataclass(frozen=True)
class Instance:
    machine_count: int
    jobs: tuple[JobSpec, ...]
    name: str = "instance"

    def __post_init__(self):
        if type(self.machine_count) is not int or self.machine_count < 1:
            raise InstanceError("machine_count must be an int >= 1, "
                                f"got {self.machine_count!r}")
        _own_members(self, "jobs", JobSpec, "instance")
        for j, job in enumerate(self.jobs):
            for o, op in enumerate(job.operations):
                for machine in op.alternatives:
                    if machine >= self.machine_count:
                        raise InstanceError(
                            f"job {j} op {o}: machine {machine} out of range "
                            f"(machine_count={self.machine_count})"
                        )

    @property
    def job_count(self) -> int:
        return len(self.jobs)

    @property
    def total_operations(self) -> int:
        return sum(len(job) for job in self.jobs)


def _ints(tokens: list[str], lineno: int) -> list[int]:
    out = []
    for token in tokens:
        try:
            out.append(int(token))
        except ValueError:
            raise InstanceError(f"non-integer token {token!r}", lineno) from None
    return out


def parse_instance(text: str, name: str = "instance") -> Instance:
    """Parse instance text into an :class:`Instance`.

    Raises :class:`InstanceError` (with the offending line number) on any
    malformed input; never raises anything else for arbitrary text.
    """
    lines = text.splitlines()
    numbered = [(i + 1, ln) for i, ln in enumerate(lines) if ln.strip()]
    if not numbered:
        raise InstanceError("empty instance file")

    lineno, header = numbered[0]
    fields = header.split()
    if len(fields) not in (2, 3):
        raise InstanceError(
            f"header must hold 2 or 3 fields, got {len(fields)}", lineno
        )
    job_count, machine_count = _ints(fields[:2], lineno)
    # The optional third field, the average machines per operation, is
    # checked and then ignored.
    if len(fields) == 3:
        try:
            average = float(fields[2])
        except ValueError:
            average = math.nan
        if not (math.isfinite(average) and average >= 0):
            raise InstanceError(
                "machines per operation must be a finite non-negative "
                f"number, got {fields[2]!r}", lineno
            )
    if job_count < 1 or machine_count < 1:
        raise InstanceError("job and machine counts must be >= 1", lineno)
    if len(numbered) - 1 > job_count:
        extra_lineno = numbered[job_count + 1][0]
        raise InstanceError(
            f"expected {job_count} job lines, found more", extra_lineno
        )
    if len(numbered) - 1 < job_count:
        raise InstanceError(
            f"expected {job_count} job lines, found {len(numbered) - 1}"
        )

    jobs = []
    for lineno, line in numbered[1:]:
        tokens = _ints(line.split(), lineno)
        pos = 0

        def take(what: str) -> int:
            nonlocal pos
            if pos >= len(tokens):
                raise InstanceError(f"unexpected end of line reading {what}", lineno)
            value = tokens[pos]
            pos += 1
            return value

        ops = []
        for _ in range(take("operation count")):
            alternatives: dict[int, int] = {}
            for _ in range(take("alternative count")):
                machine = take("machine id")
                duration = take("duration")
                if not 1 <= machine <= machine_count:
                    raise InstanceError(
                        f"machine id {machine} out of range 1..{machine_count}", lineno
                    )
                if machine - 1 in alternatives:
                    raise InstanceError(f"duplicate machine id {machine}", lineno)
                alternatives[machine - 1] = duration
            ops.append(alternatives)
        if pos != len(tokens):
            raise InstanceError(
                f"{len(tokens) - pos} trailing tokens after last operation", lineno
            )
        # The model owns the rules on counts and durations.
        try:
            jobs.append(JobSpec([OperationSpec(a) for a in ops]))
        except InstanceError as err:
            raise InstanceError(str(err), lineno) from None

    return Instance(machine_count=machine_count, jobs=tuple(jobs), name=name)


def load_instance(path: str | Path) -> Instance:
    path = Path(path)
    return parse_instance(path.read_text(), name=path.stem)


def write_instance(inst: Instance) -> str:
    """Emit the text form (1-based machine ids); inverse of parse_instance."""
    out = [f"{inst.job_count} {inst.machine_count}"]
    for job in inst.jobs:
        fields = [len(job)]
        for op in job.operations:
            fields.append(len(op.alternatives))
            for machine in op.machines():
                fields.append(machine + 1)
                fields.append(op.alternatives[machine])
        out.append(" ".join(str(x) for x in fields))
    return "\n".join(out) + "\n"

