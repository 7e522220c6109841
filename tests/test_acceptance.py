"""Acceptance suite: one test per release criterion.

Each test prints a single `criterion N: PASS/FAIL` line (visible with
`pytest -s`, and in the captured output on failure) and then asserts.
All tolerances and solver configurations are pinned here so the suite is
fully deterministic.
"""

import random
import statistics
import subprocess
import sys
from pathlib import Path

from flexshop.baselines import (
    BaselineConfig,
    exhaustive_oracle,
    fifo,
    genetic,
    mwkr,
    random_sampling,
)
from flexshop.division import DivisionConfig, SplitStrategy, solve_divided
from flexshop.environment import SchedulingEnv, WAIT
from flexshop.qlearning import LearnerConfig, train
from flexshop.schedule import (
    Schedule,
    ScheduleEntry,
    validate_schedule,
    write_schedule,
)

from conftest import tiny_instance
from test_environment import brute_force_allocations


def report(num: int, ok: bool, detail: str = ""):
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# -- 1: oracle equivalence on random tiny instances -----------------------

def test_criterion_1_oracle_equivalence():
    """Heuristic-guided Q-learning matches the exhaustive optimum on >= 90%
    of 50 random tiny instances and never beats it; nor does any baseline."""
    matches = 0
    beaten = []
    for seed in range(50):
        inst = tiny_instance(seed)
        opt = exhaustive_oracle(inst).makespan
        rl = train(inst, LearnerConfig(episodes=2000, seed=seed))
        rl = rl.best_schedule.makespan
        others = [
            rl,
            fifo(inst).makespan,
            mwkr(inst).makespan,
            random_sampling(inst, BaselineConfig(episodes=200, seed=seed)).makespan,
            genetic(inst, BaselineConfig(generations=30, seed=seed)).makespan,
        ]
        if rl == opt:
            matches += 1
        if any(value < opt for value in others):
            beaten.append(seed)
    ok = matches >= 45 and not beaten
    report(1, ok, f"RL matched optimum on {matches}/50; beaten on seeds {beaten}")


# -- 2: pinned best makespans on the bundled small instances --------------

def test_criterion_2_pinned_small_makespans():
    """RL reaches the verified-optimal makespan on toy2x3 (58, proved by the
    exhaustive oracle) and flex06 (47, proved by the longest-job lower
    bound and confirmed by random sampling / GA)."""
    from flexshop.data import load_bundled

    toy = load_bundled("toy2x3")
    assert exhaustive_oracle(toy).makespan == 58
    toy_rl = train(toy, LearnerConfig(episodes=2000, seed=0,
                                      epsilon_decay=0.99, epsilon_min=0.01))
    toy_rl = toy_rl.best_schedule.makespan

    flex = load_bundled("flex06")
    flex_rl = train(flex, LearnerConfig(episodes=8000, seed=1,
                                        epsilon_decay=0.99, epsilon_min=0.01))
    flex_rl = flex_rl.best_schedule.makespan
    ok = toy_rl == 58 and flex_rl == 47
    report(2, ok, f"toy2x3 RL {toy_rl} (pin 58), "
                  f"flex06 RL {flex_rl} (pin 47)")


# -- 3: the bundled 10x5 instance ----------------------------------------

def test_criterion_3_la05():
    """RL lands within 2% of the bundled la05 file's reference makespan 572
    (its machine-load lower bound, hence provably optimal) inside a 600 s
    budget, and both dispatch-rule schedules validate.

    The bundled file is a reconstruction from summary statistics, so 572
    refers to this file, not to the historical data tables.
    """
    from flexshop.data import load_bundled

    inst = load_bundled("la05")
    rl = train(inst, LearnerConfig(episodes=2000, seed=0, epsilon_decay=0.99,
                                   epsilon_min=0.01, time_budget=600.0))
    rl = rl.best_schedule.makespan
    rules_ok = (validate_schedule(inst, fifo(inst)) == []
                and validate_schedule(inst, mwkr(inst)) == [])
    within = rl <= 583  # ceil of 1.02 * 572
    golden = rl == 572  # pinned: reached in practice
    ok = within and golden and rules_ok
    report(3, ok, f"RL {rl} (<=583 {within}, golden 572 {golden}), "
                  f"dispatch rules valid {rules_ok}")


# -- 4: heuristic-guided speedup -----------------------------------------

def _first_reach(rep, target, budget_episodes):
    """(episodes, seconds) until the run first achieves makespan <= target,
    counting both training episodes and periodic greedy tests; censored at
    the full budget if never reached."""
    events = [(i + 1, rep.episode_times[i], ms)
              for i, ms in enumerate(rep.episode_makespans)]
    events += [(ep, t, ms)
               for (ep, ms), t in zip(rep.test_makespans, rep.test_times)]
    events.sort(key=lambda e: e[1])
    for ep, t, ms in events:
        if ms <= target:
            return ep, t
    return budget_episodes, rep.wall_time


def test_criterion_4_prepopulation_speedup():
    """With identical seeds on the rigid 6x6 instance, prepopulated training
    reaches its final best makespan in <= 1/3 the episodes and <= 1/3 the
    wall-clock needed by classical Q-learning to reach that same quality
    (classical runs that never reach it are censored at the full budget,
    which only under-states the speedup). Median over 5 seeds."""
    from flexshop.data import load_bundled

    inst = load_bundled("ft06")
    episodes = 6000
    ep_ratios, time_ratios = [], []
    for seed in range(5):
        kwargs = dict(episodes=episodes, seed=seed,
                      epsilon_decay=0.99, epsilon_min=0.01)
        pre = train(inst, LearnerConfig(prepopulate=True, **kwargs))
        cls = train(inst, LearnerConfig(prepopulate=False, **kwargs))
        target = pre.best_schedule.makespan
        pre_ep, pre_t = _first_reach(pre, target, episodes)
        cls_ep, cls_t = _first_reach(cls, target, episodes)
        ep_ratios.append(pre_ep / cls_ep)
        time_ratios.append(pre_t / cls_t)
    med_ep = statistics.median(ep_ratios)
    med_t = statistics.median(time_ratios)
    ok = med_ep <= 1 / 3 and med_t <= 1 / 3
    report(4, ok, f"median episode ratio {med_ep:.3f}, "
                  f"median time ratio {med_t:.3f} (threshold 0.333)")


# -- 5: instance division -------------------------------------------------

def test_criterion_5_division():
    """Dividing flex06 into 2 parts (every strategy) yields a valid schedule
    within 15% of the undivided RL makespan, and every stage-1 machine
    choice is preserved exactly in the final schedule."""
    from flexshop.data import load_bundled

    inst = load_bundled("flex06")
    cfg = LearnerConfig(episodes=2000, seed=0, epsilon_decay=0.99,
                        epsilon_min=0.01)
    undivided = train(inst, cfg).best_schedule.makespan
    details = []
    ok = True
    for strat in SplitStrategy:
        sched, reports = solve_divided(
            inst, DivisionConfig(**vars(cfg), parts=2, strategy=strat))
        valid = validate_schedule(inst, sched) == []
        within = sched.makespan <= 1.15 * undivided
        stage1 = {(e.job, e.op): e.machine
                  for e in reports[0].best_schedule.entries}
        final = {(e.job, e.op): e.machine for e in sched.entries}
        adheres = all(final[key] == m for key, m in stage1.items())
        ok = ok and valid and within and adheres
        details.append(f"{strat.value}: {sched.makespan} "
                       f"(valid {valid}, within {within}, adheres {adheres})")
    report(5, ok, f"undivided {undivided}; " + "; ".join(details))


# -- 6: reward/makespan identity ------------------------------------------

def test_criterion_6_reward_identity():
    """Cumulative episode reward equals minus the extracted schedule's
    makespan, exactly, for 1000 random-policy episodes."""
    rng = random.Random(0)
    failures = 0
    for episode in range(1000):
        inst = tiny_instance(rng.randrange(10_000))
        env = SchedulingEnv(inst)
        env.reset()
        total = 0
        done = False
        while not done:
            actions = env.legal_allocations()
            result = env.step(rng.randrange(len(actions)))
            total += result.reward
            done = result.done
        if total != -env.extract_schedule().makespan:
            failures += 1
    report(6, failures == 0, f"{failures}/1000 episodes broke the identity")


# -- 7: legal-allocation correctness --------------------------------------

def test_criterion_7_legal_allocations_brute_force():
    """Along random walks through random 3x3 instances, the environment's
    allocation list equals the brute-force filter of all (m+1)^n vectors,
    for 10^4 sampled states."""
    rng = random.Random(1)
    states = 0
    mismatches = 0
    while states < 10_000:
        inst = tiny_instance(rng.randrange(10_000), max_jobs=3,
                             max_machines=3, max_ops=3)
        env = SchedulingEnv(inst)
        env.reset()
        done = False
        while not done and states < 10_000:
            actions = env.legal_allocations()
            if actions != brute_force_allocations(env):
                mismatches += 1
            states += 1
            result = env.step(rng.randrange(len(actions)))
            done = result.done
    report(7, mismatches == 0, f"{mismatches}/{states} states mismatched")


# -- 8: determinism of the CLI harness ------------------------------------

def _strip_cpu(table: str) -> list[list[str]]:
    rows = [line.split() for line in table.splitlines() if line.strip()]
    keep = [i for i, h in enumerate(rows[0]) if not h.endswith(":cpu")]
    return [[row[i] for i in keep] for row in rows]


def test_criterion_8_determinism(tmp_path):
    """Two identical solve+bench runs produce byte-identical schedule files
    and identical tables once the hardware-dependent CPU columns are
    removed."""
    from flexshop.data import bundled_path

    toy = str(bundled_path("toy2x3"))
    outs = []
    for sub in ("run1", "run2"):
        out = tmp_path / sub
        for command in ("solve", "bench"):
            proc = subprocess.run(
                [sys.executable, "-m", "flexshop.cli", command,
                 "--instance", toy, "--solver", "rl", "--solver", "fifo",
                 "--solver", "ga", "--seed", "11", "--episodes", "300",
                 "--generations", "30", "--out", str(out)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
        outs.append(out)
    scheds_equal = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("toy2x3__rl.sched", "toy2x3__fifo.sched",
                     "toy2x3__ga.sched")
    )
    tables_equal = (
        _strip_cpu((outs[0] / "table.txt").read_text())
        == _strip_cpu((outs[1] / "table.txt").read_text())
    )
    csv_equal = (
        _strip_csv_cpu((outs[0] / "table.csv").read_text())
        == _strip_csv_cpu((outs[1] / "table.csv").read_text())
    )
    ok = scheds_equal and tables_equal and csv_equal
    report(8, ok, f"schedules identical {scheds_equal}, "
                  f"text tables identical {tables_equal}, "
                  f"csv tables identical {csv_equal}")


def _strip_csv_cpu(text: str) -> list[list[str]]:
    import csv as _csv
    import io as _io
    rows = list(_csv.reader(_io.StringIO(text)))
    keep = [i for i, h in enumerate(rows[0]) if not h.endswith(":cpu")]
    return [[row[i] for i in keep] for row in rows]


# -- 9: validator soundness -----------------------------------------------

def test_criterion_9_validator_mutations(toy):
    """For each constraint class, a schedule mutated to violate exactly that
    constraint is flagged with exactly that violation kind."""
    base = fifo(toy).entries

    def kinds(entries):
        return {v.kind for v in validate_schedule(toy, Schedule.from_entries(entries))}

    by_start = sorted(base, key=lambda e: (e.start, e.job, e.op))

    def replace(entries, old, new):
        return [new if e == old else e for e in entries]

    mutations = {}

    # precedence: push a job's first operation past the makespan so it
    # starts after its successors (no machine or interval is disturbed).
    job0 = sorted((e for e in base if e.job == 0), key=lambda e: e.op)
    a, b = job0[0], job0[1]
    horizon = max(e.end for e in base) + 1
    mutations["precedence"] = replace(
        base, a, ScheduleEntry(a.job, a.op, a.machine, horizon,
                               horizon + (a.end - a.start)))

    # job-overlap: start the second operation while the first still runs.
    mutations["job-overlap"] = replace(
        base, b, ScheduleEntry(b.job, b.op, b.machine, a.end - 1,
                               a.end - 1 + (b.end - b.start)))

    # machine-overlap: slide job 0's whole chain (keeping its internal
    # order) so its first operation lands inside job 1's busy window on the
    # shared machine; only the machine constraint is then broken.
    shared = next(e for e in base if e.job == 1
                  and any(o.job == 0 and o.machine == e.machine for o in base))
    t = shared.start + (shared.end - shared.start) // 4
    chain = []
    for e in sorted((e for e in base if e.job == 0), key=lambda e: e.op):
        chain.append(ScheduleEntry(e.job, e.op, e.machine, t,
                                   t + (e.end - e.start)))
        t += e.end - e.start
    mutations["machine-overlap"] = [e for e in base if e.job != 0] + chain

    # interruption: stretch an entry beyond its machine duration (using the
    # last entry so no other constraint is disturbed).
    last = by_start[-1]
    mutations["interruption"] = replace(
        base, last, ScheduleEntry(last.job, last.op, last.machine,
                                  last.start, last.end + 3))

    # completeness: drop the last entry.
    mutations["completeness"] = [e for e in base if e != last]

    # capability: move the last entry to a machine outside its alternatives.
    op = toy.jobs[last.job].operations[last.op]
    bad_machine = next(m for m in range(toy.machine_count + 1)
                       if m not in op.alternatives)
    mutations["capability"] = replace(
        base, last, ScheduleEntry(last.job, last.op, bad_machine,
                                  last.start, last.end))

    results = {kind: kinds(entries) for kind, entries in mutations.items()}
    ok = (validate_schedule(toy, Schedule.from_entries(base)) == []
          and len(mutations) == 6
          and all(found == {kind} for kind, found in results.items()))
    report(9, ok, "; ".join(f"{k}: {sorted(v)}" for k, v in results.items()))
