"""Span recorder and the wrappers the traced run installs around flexshop.

A span is (name, start, end, parent, solve id).  Spans are kept in compact
in-memory arrays while the run lasts and written once when it ends.  Self
time of a span is its duration minus the durations of its direct children.

Wrappers are installed at the name a caller looks a function up by: a module
attribute (``flexshop.qlearning.backward_pass`` is what ``train`` calls) or
a class attribute (``SchedulingEnv.step``).  ``Tracer.restore`` puts every
original object back, and ``attribute_snapshot``/``changed_attributes``
check that by identity.
"""

from __future__ import annotations

import functools
import inspect
from bisect import bisect_left
import json
import logging
import sys
from array import array
from time import perf_counter


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.solve = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.solve_id = -1

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.solve.append(self.solve_id)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int):
        self.end[index] = perf_counter()
        self.stack.pop()

    def totals(self) -> dict[str, tuple[int, float]]:
        """name -> (span count, summed self seconds)."""
        child = [0.0] * len(self.name)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, name in enumerate(self.name):
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child[i]
        return {n: (calls[i], self_s[i]) for i, n in enumerate(self.names)}

    def count_under(self, name: str, parent: str) -> int:
        """Spans called `name` whose direct traced parent is `parent`."""
        if name not in self._ids or parent not in self._ids:
            return 0
        nid, pid = self._ids[name], self._ids[parent]
        return sum(1 for i, n in enumerate(self.name)
                   if n == nid and self.parent[i] >= 0
                   and self.name[self.parent[i]] == pid)

    def write(self, path, header: dict):
        """One JSON header line, then the five arrays in header order."""
        head = dict(header, names=self.names, count=len(self),
                    arrays=["name:H", "parent:q", "solve:q", "start:d", "end:d"])
        with open(path, "wb") as f:
            f.write(json.dumps(head).encode() + b"\n")
            for arr in (self.name, self.parent, self.solve, self.start, self.end):
                arr.tofile(f)


def read_spans(path) -> tuple[dict, SpanRecorder]:
    with open(path, "rb") as f:
        head = json.loads(f.readline())
        rec = SpanRecorder()
        for name in head["names"]:
            rec.name_id(name)
        for field in ("name", "parent", "solve", "start", "end"):
            getattr(rec, field).fromfile(f, head["count"])
    return head, rec


# -- patching -------------------------------------------------------------


def attribute_snapshot(prefix: str = "flexshop") -> dict[tuple[str, ...], object]:
    """Every attribute of every loaded `prefix` module and of the classes
    those modules define, keyed by (module, [class,] attribute)."""
    snap: dict[tuple[str, ...], object] = {}
    for modname, module in list(sys.modules.items()):
        if modname != prefix and not modname.startswith(prefix + "."):
            continue
        for attr, value in vars(module).items():
            snap[(modname, attr)] = value
            if inspect.isclass(value) and value.__module__ == modname:
                for cattr, cvalue in vars(value).items():
                    snap[(modname, attr, cattr)] = cvalue
    return snap


def changed_attributes(before: dict[tuple[str, ...], object]) -> list[str]:
    """Keys of `before` whose object is no longer the same (by identity)."""
    after = attribute_snapshot()
    return [".".join(key) for key, value in before.items()
            if key not in after or after[key] is not value]


class _Counter(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


class Tracer:
    """Installs span-recording wrappers on flexshop; `restore` undoes it.

    Besides spans it keeps what needs call arguments or results:
    legal-action counts per fresh enumeration, backward-pass pairs, each
    training report with the start of its span, and division fallbacks (a
    handler on the ``flexshop.division`` logger).
    """

    def __init__(self):
        self.rec = SpanRecorder()
        self.legal_counts: list[int] = []
        self.pairs_visited = 0
        self.reports: list[tuple[object, float]] = []
        self.fallbacks = _Counter()
        self._saved: list[tuple[object, str, object]] = []

    # Each target: (module[:class], attribute, span name).  Functions appear once
    # per namespace a caller reads them from.
    TARGETS = [
        ("flexshop.data", "parse_instance", "instance.parse"),
        ("flexshop.instance", "parse_instance", "instance.parse"),
        ("flexshop.environment:SchedulingEnv", "reset", "environment.reset"),
        ("flexshop.environment:SchedulingEnv", "clone", "environment.clone"),
        ("flexshop.environment:SchedulingEnv", "legal_allocations",
         "environment.legal_allocations"),
        ("flexshop.environment:SchedulingEnv", "step", "environment.step"),
        ("flexshop.environment:SchedulingEnv", "step_allocation",
         "environment.step_allocation"),
        ("flexshop.environment:SchedulingEnv", "extract_schedule",
         "environment.extract_schedule"),
        ("flexshop.qlearning", "select_action", "qlearning.select_action"),
        ("flexshop.qlearning", "update", "qlearning.update"),
        ("flexshop.qlearning", "backward_pass", "prepopulate.backward_pass"),
        ("flexshop.solvers", "train", "qlearning.train"),
        ("flexshop.division", "train", "qlearning.train"),
        ("flexshop.solvers", "solve_divided", "division.solve_divided"),
        ("flexshop.division", "get_best_policy", "division.get_best_policy"),
        ("flexshop.baselines", "exhaustive_oracle", "baselines.exhaustive_oracle"),
        ("flexshop.baselines", "genetic", "baselines.genetic"),
        ("flexshop.baselines", "fifo", "baselines.fifo"),
        ("flexshop.baselines", "mwkr", "baselines.mwkr"),
        ("flexshop.schedule", "validate_schedule", "schedule.validate_schedule"),
        ("flexshop.solvers", "validate_schedule", "schedule.validate_schedule"),
        ("flexshop.schedule", "write_schedule", "schedule.write_schedule"),
        ("flexshop.schedule:Schedule", "from_entries", "schedule.from_entries"),
    ]

    def _targets(self):
        import flexshop.solvers as solvers

        yield from self.TARGETS
        # Every solver class that defines its own fit.
        for name, cls in vars(solvers).items():
            if (inspect.isclass(cls) and issubclass(cls, solvers.BaseSolver)
                    and "fit" in vars(cls)):
                yield (f"flexshop.solvers:{name}", "fit", "solvers.fit")

    @staticmethod
    def _owner(path: str):
        module, _, cls = path.partition(":")
        owner = sys.modules[module]
        return getattr(owner, cls) if cls else owner

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for path, attr, span in self._targets():
            owner = self._owner(path)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span))
        logging.getLogger("flexshop.division").addHandler(self.fallbacks)

    def restore(self):
        logging.getLogger("flexshop.division").removeHandler(self.fallbacks)
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def greedy_test_seconds(self) -> float:
        """Seconds spent in greedy test episodes.

        A report times each test from the end of the episode before it to
        the end of the test.  In between, train also records a new best
        schedule and runs the backward pass; both are traced, so the spans
        that start inside the interval are taken out of it.
        """
        rec = self.rec
        bookkeeping = {rec.name_id("environment.extract_schedule"),
                       rec.name_id("prepopulate.backward_pass")}
        starts, cumulative = [], [0.0]
        for i, name in enumerate(rec.name):  # spans are in start order
            if name in bookkeeping:
                starts.append(rec.start[i])
                cumulative.append(cumulative[-1] + rec.end[i] - rec.start[i])
        total = 0.0
        for report, t0 in self.reports:
            for (episode, _), t in zip(report.test_makespans, report.test_times):
                lo, hi = t0 + report.episode_times[episode - 1], t0 + t
                inside = (cumulative[bisect_left(starts, hi)]
                          - cumulative[bisect_left(starts, lo)])
                total += hi - lo - inside
        return total

    def _wrap(self, original, span: str):
        if isinstance(original, classmethod):
            return classmethod(self._wrap(original.__func__, span))
        rec, nid = self.rec, self.rec.name_id(span)

        if span == "environment.legal_allocations":
            counts = self.legal_counts

            @functools.wraps(original)
            def legal(env, *args, **kwargs):
                # A call that finds the per-state cache filled enumerates nothing.
                fresh = getattr(env, "_legal", None) is None
                index = rec.open(nid)
                try:
                    result = original(env, *args, **kwargs)
                finally:
                    rec.close(index)
                if fresh:
                    counts.append(len(result))
                return result

            return legal

        if span == "prepopulate.backward_pass":
            tracer = self

            @functools.wraps(original)
            def backward(q, trace, *args, **kwargs):
                tracer.pairs_visited += len(trace.pairs)
                index = rec.open(nid)
                try:
                    return original(q, trace, *args, **kwargs)
                finally:
                    rec.close(index)

            return backward

        if span == "qlearning.train":
            reports = self.reports

            @functools.wraps(original)
            def train(*args, **kwargs):
                index = rec.open(nid)
                try:
                    report = original(*args, **kwargs)
                finally:
                    rec.close(index)
                # Report times count from just after the span opened.
                reports.append((report, rec.start[index]))
                return report

            return train

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = rec.open(nid)
            try:
                return original(*args, **kwargs)
            finally:
                rec.close(index)

        return wrapper
