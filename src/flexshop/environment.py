"""Deterministic flexible job-shop environment with search-space reduction.

The action space at each state is the list of *legal allocations*: per-job
machine assignment vectors (``WAIT`` = -1) that are executable (capability,
no busy job or machine reassigned, no duplicate machine) and reasonable
(the pure-wait vector is excluded when everything is idle).  The step
function skips intermediate states until a non-wait action is available
again, so every observation the agent sees has a real decision to make.
Reward per step is the (non-positive) clock delta, which makes the
cumulative episode reward exactly minus the makespan.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from graphlib import CycleError, TopologicalSorter
from heapq import heappop, heappush
from typing import NamedTuple

from .instance import Instance
from .schedule import Schedule, ScheduleEntry

WAIT = -1
IDLE = -1

Allocation = tuple[int, ...]
# Machine -> the (job, op index) pairs it must run, in order.
MachineOrder = dict[int, Sequence[Sequence[int]]]


class SchedulingError(RuntimeError):
    pass


class StepResult(NamedTuple):
    observation: bytes
    reward: int
    done: bool
    clock: int


class SchedulingEnv:
    """Mutable single-episode environment over an immutable instance.

    Besides the public per-job and per-machine arrays, the state keeps
    ``_unfinished`` (jobs with operations left), ``_free`` (bit m set while
    machine m is idle), ``_log``, the assignments as plain tuples, and
    ``_events``, a heap of ``(end, machine)`` per busy machine.  The skip
    loop jumps the clock to its earliest end and pops every entry ending
    then, ties in machine order.  `machine_remaining` is derived from it.

    The option masks live packed in one int, ``_ready``: lane j (bits
    ``j*M`` to ``j*M + M - 1``, M machines) holds job j's current-operation
    capable mask while the job is idle, unfinished and not waiting on its
    `machine_order` predecessor, and 0 otherwise.  ``_spread`` has bit
    ``j*M`` set per job, so ``_free * _spread`` copies the free mask into
    every lane without carries, and ``_ready & _free * _spread`` is every
    job's option mask at once.  `_option_masks` unpacks it for
    `legal_allocations` and the dispatching rules.

    Legal allocations are cached at one level: ``_memo`` maps an option
    signature (`_signature`) to its list, and ``_interned`` makes equal
    vectors of different signatures one tuple.  `clone` shares both.  The
    package's loops hold the list they looked up and step with `_apply`,
    which returns only the reward.

    ``job_op`` and ``job_machine`` are ``array``s of typecode ``"b"`` (signed
    byte, which holds ``IDLE``) while the machine count and every job's
    operation count are below 128, and ``"q"`` otherwise.
    """

    def __init__(self, instance: Instance,
                 machine_order: MachineOrder | None = None):
        """`machine_order` fixes each listed operation's machine and lets it
        start only once the operation listed before it on that machine has
        finished; unlisted operations are free.  Only free machines are ever
        offered, so a running predecessor needs no separate check.  An order
        that forms a cycle with the job chains is a `ValueError`, so every
        non-terminal state has a legal action."""
        self.instance = instance
        self._op_durations = tuple(
            tuple(dict(op.alternatives) for op in job.operations)
            for job in instance.jobs
        )
        # Per (job, op): the capable-machine bitmask.  Each job's row ends
        # with a 0 for "finished".
        masks = self._op_masks = [
            [sum(1 << m for m in op.alternatives) for op in job.operations]
            + [0] for job in instance.jobs
        ]
        # Per (job, op): the (job, op) listed right before it on its machine,
        # which must finish first, and the one listed right after it, or
        # None.  Both tables are None when nothing is constrained.
        self._before = self._after = None
        if machine_order is not None and not isinstance(machine_order, dict):
            raise ValueError("machine order must be a dict of machine -> "
                             "(job, op) pairs, got a "
                             f"{type(machine_order).__name__}")
        if machine_order:
            self._before = [[None] * len(row) for row in masks]
            self._after = [[None] * len(row) for row in masks]
            # Each op waits for its job predecessor and its listed one.
            graph = TopologicalSorter({
                (job, op): [(job, op - 1)]
                for job, row in enumerate(masks)
                for op in range(1, len(row) - 1)
            })
            listed: dict[tuple[int, int], int] = {}  # (job, op) -> machine
            for machine, order in machine_order.items():
                if not (type(machine) is int  # True == 1
                        and 0 <= machine < instance.machine_count):
                    raise ValueError(f"machine order key {machine!r} is not a "
                                     f"machine of {instance.name}")
                if not isinstance(order, tuple | list):
                    raise ValueError(f"machine order on machine {machine} is "
                                     f"not a list of (job, op) pairs, got "
                                     f"{order!r}")
                before = None
                for entry in order:
                    if not (isinstance(entry, tuple | list) and len(entry) == 2
                            and all(type(i) is int for i in entry)):
                        raise ValueError(
                            f"machine order entry {entry!r} on machine "
                            f"{machine} is not a (job, op) pair of ints")
                    job, op = entry
                    if not (0 <= job < instance.job_count
                            and 0 <= op < len(instance.jobs[job])):
                        raise ValueError(f"constraint names op ({job}, {op}) "
                                         f"outside {instance.name}")
                    if (other := listed.get((job, op))) is not None:
                        raise ValueError(
                            f"constraint lists op ({job}, {op}) " + (
                                f"twice on machine {machine}"
                                if other == machine else
                                f"on machines {other} and {machine}"))
                    listed[job, op] = machine
                    if not masks[job][op] >> machine & 1:
                        raise ValueError(
                            f"constraint puts op ({job}, {op}) on machine "
                            f"{machine}, which cannot run it")
                    masks[job][op] = 1 << machine
                    self._before[job][op] = before
                    if before is not None:
                        graph.add((job, op), before)
                        self._after[before[0]][before[1]] = (job, op)
                    before = (job, op)
            try:
                graph.prepare()
            except CycleError as exc:
                raise ValueError(f"machine order is cyclic on {instance.name}: "
                                 f"{exc.args[1]}") from None
        width = instance.machine_count
        self._shifts = range(0, instance.job_count * width, width)
        self._lanes = tuple(tuple(mask << shift for mask in row)
                            for row, shift in zip(self._op_masks, self._shifts))
        self._spread = sum(1 << shift for shift in self._shifts)
        self._all_free = (1 << width) - 1
        # At reset every job is at its first operation, which waits iff it
        # has a listed predecessor.
        self._root_ready = sum(
            row[0] for job, row in enumerate(self._lanes)
            if self._before is None or self._before[job][0] is None)
        self._typecode = "b" if max(instance.machine_count,
                                    *map(len, instance.jobs)) < 128 else "q"
        self._memo: dict[int, list[Allocation]] = {}
        self._interned: dict[Allocation, Allocation] = {}
        self.reset()

    # -- episode state ----------------------------------------------------

    def reset(self) -> bytes:
        inst = self.instance
        self.clock = 0
        code = self._typecode
        # Per job: the current operation index, and the assigned machine or
        # IDLE.
        self.job_op = array(code, [0]) * inst.job_count
        self.job_machine = array(code, [IDLE]) * inst.job_count
        self.machine_job = [IDLE] * inst.machine_count
        self._events: list[tuple[int, int]] = []  # (end, machine), a heap
        # (job, op, machine, start, end) per assignment, in order.
        self._log: list[tuple[int, int, int, int, int]] = []
        self._unfinished = inst.job_count
        self._free = self._all_free
        self._ready = self._root_ready
        return self.observation()

    def clone(self) -> "SchedulingEnv":
        other = self.__class__.__new__(self.__class__)
        # Tables, scalars and the memo are shared.  The mutable arrays are
        # copied.
        other.__dict__.update(self.__dict__)
        other.job_op = self.job_op[:]
        other.job_machine = self.job_machine[:]
        other.machine_job = list(self.machine_job)
        other._events = list(self._events)
        other._log = list(self._log)
        return other

    @property
    def done(self) -> bool:
        return self._unfinished == 0

    @property
    def machine_remaining(self) -> list[int]:
        """Per machine, the time left on its operation; 0 while idle."""
        remaining = [0] * self.instance.machine_count
        for end, machine in self._events:
            remaining[machine] = end - self.clock
        return remaining

    def observation(self) -> bytes:
        """Per-job machine assignment (IDLE = -1), then per-job current
        operation index (a finished job's equals its operation count),
        packed in ``job_op.typecode``; the Q-table key.
        ``array(env.job_op.typecode, obs).tolist()`` unpacks it."""
        return (self.job_machine + self.job_op).tobytes()

    # -- legal allocations ------------------------------------------------

    def _option_masks(self) -> list[int]:
        """Per job, the bitmask of free machines able to start its current
        operation now: 0 for busy and finished jobs, and for a job whose
        current operation waits on its `machine_order` predecessor.
        Unpacked from the lanes of ``_ready``."""
        options = self._ready & self._free * self._spread
        lane = self._all_free
        return [options >> shift & lane for shift in self._shifts]

    def _signature(self) -> int:
        """The memo key: the packed option masks, then the all-idle flag in
        bit 0.  It determines the legal list."""
        return ((self._ready & self._free * self._spread) << 1
                | (self._free == self._all_free))

    def legal_allocations(self) -> list[Allocation]:
        """All executable-and-reasonable allocations, in a fixed order.

        Order is lexicographic over job index with machine alternatives
        ascending and WAIT last per job, so action indices are stable.
        Every state of one option signature gets the same list object, so
        callers must not mutate it.
        """
        if self.done:
            raise SchedulingError("legal_allocations on terminal state")
        # The option masks and the all-idle flag fix the list, so states
        # with the same option signature share one enumeration.
        signature = self._signature()
        result = self._memo.get(signature)
        if result is None:
            result = self._memo[signature] = self._enumerate(
                self._option_masks(), self._free == self._all_free)
        return result

    def _enumerate(self, masks: list[int], all_idle: bool) -> list[Allocation]:
        """The legal list of the option signature (`masks`, `all_idle`)."""
        # Extend prefixes one job with options at a time; every other job is
        # WAIT in every vector.  Each prefix's extensions are appended in the
        # per-job order (machines ascending, WAIT last), so the list stays
        # in lexicographic order.
        partials: list[tuple[Allocation, int]] = [((), 0)]  # (prefix, used)
        done_upto = 0
        for job, mask in enumerate(masks):
            if not mask:
                continue
            opts = [m for m in range(mask.bit_length()) if mask >> m & 1]
            gap = (WAIT,) * (job - done_upto)
            extended = []
            for prefix, used in partials:
                head = prefix + gap
                for m in opts:
                    if not used & (1 << m):
                        extended.append((head + (m,), used | (1 << m)))
                extended.append((head + (WAIT,), used))
            partials = extended
            done_upto = job + 1
        tail = (WAIT,) * (len(masks) - done_upto)
        # Equal vectors of different signatures are one object.
        interned = self._interned
        result = [interned.setdefault(vector, vector)
                  for vector in (prefix + tail for prefix, _ in partials)]
        # The all-WAIT vector is enumerated last.  Drop it when it is
        # unreasonable: in the all-idle state.
        if all_idle:
            result.pop()
        return result

    # -- stepping ---------------------------------------------------------

    def step(self, action: int) -> StepResult:
        if self.done:
            raise SchedulingError("step on terminal state")
        if type(action) is not int:  # True would run action 1
            raise SchedulingError(f"action {action!r} is not an int")
        legal = self.legal_allocations()
        if not 0 <= action < len(legal):
            raise SchedulingError(
                f"action index {action} out of range 0..{len(legal) - 1}"
            )
        return self._result(self._apply(legal[action]))

    def step_allocation(self, allocation: Allocation) -> StepResult:
        """Step by allocation vector, bypassing index enumeration.

        The allocation must be executable; used by dispatching rules on
        instances too large for full enumeration at every state.
        """
        self._check_executable(allocation)
        return self._result(self._apply(tuple(allocation)))

    def _result(self, reward: int) -> StepResult:
        return StepResult(self.observation(), reward, self.done, self.clock)

    def _check_executable(self, allocation: Allocation):
        if self.done:
            raise SchedulingError("step on terminal state")
        if not isinstance(allocation, (tuple, list)):
            raise SchedulingError("allocation must be a tuple or list, "
                                  f"got {allocation!r}")
        if len(allocation) != self.instance.job_count:
            raise SchedulingError("allocation length mismatch")
        options = self._ready & self._free * self._spread
        width = self.instance.machine_count
        used: set[int] = set()
        for job, machine in enumerate(allocation):
            if type(machine) is not int:  # 0.0 == 0 and True == 1
                raise SchedulingError(
                    f"job {job}: allocation entry {machine!r} is not an int")
            if machine == WAIT:
                continue
            if machine in used:
                raise SchedulingError(f"machine {machine} assigned twice")
            used.add(machine)
            # A machine outside 0..M-1 would read another lane, or shift
            # by a negative count.
            if not (0 <= machine < width
                    and options >> job * width + machine & 1):
                raise SchedulingError(
                    f"job {job} cannot be assigned machine {machine} now"
                )
        if not used and self._free == self._all_free:
            raise SchedulingError("pure wait is not legal in an all-idle state")

    def _apply(self, allocation: Allocation) -> int:
        clock = clock_before = self.clock
        job_op = self.job_op
        job_machine = self.job_machine
        machine_job = self.machine_job
        events = self._events
        durations = self._op_durations
        lanes = self._lanes
        log = self._log
        free = self._free
        ready = self._ready

        for job, machine in enumerate(allocation):
            if machine != WAIT:
                op = job_op[job]
                end = clock + durations[job][op][machine]
                job_machine[job] = machine
                machine_job[machine] = job
                heappush(events, (end, machine))
                free &= ~(1 << machine)
                ready ^= lanes[job][op]  # set: the job was idle and ready
                log.append((job, op, machine, clock, end))
        force_advance = free == self._free  # a pure wait

        # Skip intermediate states: advance to assignment completions until a
        # non-wait action exists or the episode ends.  A pure-wait action
        # explicitly holds until the next completion, so it always advances
        # at least once even if non-wait actions were already available.
        spread = self._spread
        before = self._before
        after = self._after
        unfinished = self._unfinished
        while unfinished and (force_advance or not ready & free * spread):
            force_advance = False
            clock = events[0][0]
            while events and events[0][0] == clock:
                m = heappop(events)[1]
                job = machine_job[m]
                machine_job[m] = IDLE
                job_machine[job] = IDLE
                op = job_op[job] + 1
                job_op[job] = op
                free |= 1 << m
                lane = lanes[job][op]
                if not lane:
                    unfinished -= 1
                elif (after is None
                      or (pred := before[job][op]) is None
                      or job_op[pred[0]] > pred[1]):
                    ready |= lane  # not waiting on its predecessor
                if (after is not None
                        and (nxt := after[job][op - 1]) is not None
                        and job_op[nxt[0]] == nxt[1]):
                    ready |= lanes[nxt[0]][nxt[1]]  # it waited on m

        self._free = free
        self._ready = ready
        self._unfinished = unfinished
        self.clock = clock
        return clock_before - clock

    # -- results ----------------------------------------------------------

    @property
    def entries(self) -> list[ScheduleEntry]:
        """The assignments made so far, in the order they were made."""
        return [ScheduleEntry(*row) for row in self._log]

    def extract_schedule(self) -> Schedule:
        if not self.done:
            raise SchedulingError("extract_schedule on non-terminal state")
        return Schedule.from_entries(self.entries)
