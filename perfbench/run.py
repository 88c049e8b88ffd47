"""Benchmark of gridmcts: whole episodes end to end, each layer traced.

    python3 perfbench/run.py --workload gate-suites --seed 0 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/``.
A run repeats whole rounds of its workload's episodes until
``--seconds`` have passed, checks every output with ``checks.py``, and
prints one line per metric, then the result as one JSON object on the
last line. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the run alternates untraced and traced rounds and prints
the per-layer metrics and the tracing overhead, and writes the spans
to ``perfbench/out/<workload>.spans.tsv``. See README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from checks import check_episode, check_optimum, unmatched_goals
from speed import Speed
from tracing import Tracer
from workloads import WORKLOADS, round_order

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPEATS = 15
LAYERS = ("coordinator", "mcts", "grid", "oracle")


def load_program():
    """Import the package afresh; returns its modules by short name."""
    for name in [m for m in sys.modules if m == "gridmcts" or m.startswith("gridmcts.")]:
        del sys.modules[name]
    mods = {}
    for short in ("coordinator", "mcts", "grid", "oracle", "bench", "scenarios", "seeds", "values"):
        mods[short] = importlib.import_module(f"gridmcts.{short}")
    return mods


def build_episodes(mods, specs):
    """(spec, instance, EpisodeConfig) for every spec, via the public API."""
    bench, grid, mcts = mods["bench"], mods["grid"], mods["mcts"]
    values, scen, seeds = mods["values"], mods["scenarios"], mods["seeds"]
    out = []
    for s in specs:
        inst = scen.generate_instance(s.n, s.n_agents, s.k, s.master)
        cfg = mods["coordinator"].EpisodeConfig(
            grid=grid.GridConfig(s.n, s.n_agents),
            budget=mcts.SearchBudget(s.iterations, s.t_final, mcts.DEFAULT_EXPLORATION_C),
            params=values.ValueParams(
                0.0, values.UpdateRule.MEAN, s.n_agents, s.t_final,
                bench.DEFAULT_DISTANCE_WEIGHT,
            ),
            global_seed=seeds.mix_chain(s.master, s.n, s.n_agents, s.k, 0),
        )
        out.append((s, inst, cfg))
    return out


def set_up(specs, speed):
    """Import and build SETUP_REPEATS times; keeps the last.

    Returns the median time of one set-up at the reference speed.
    """
    times = []
    first = speed.mark()
    speed.probe()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        mods = load_program()
        episodes = build_episodes(mods, specs)
        times.append(time.perf_counter() - t0)
        speed.probe()
    return mods, episodes, statistics.median(times) * speed.scale(first, speed.mark())


def play_round(mods, episodes, tracer=None, speed=None):
    """Play every episode once.

    Returns (seconds, [(trace, oracle result)], scale, step scales): the
    round's time without its speed probes, the factor that brings it to
    the reference speed, and per episode the factor of each step's plan
    calls, from the marks around the step (the round's factor where
    ``merge_states`` took no mark). Factors are 1 when ``speed`` is None.
    """
    coordinator, oracle = mods["coordinator"], mods["oracle"]
    results, befores = [], []
    if speed is not None:
        first = speed.mark()
        speed.probe()
    t0 = time.perf_counter()
    for spec, inst, cfg in episodes:
        if tracer is not None:
            tracer.episode += 1
        before = speed.mark() - 1 if speed is not None else None
        trace = coordinator.run_episode(cfg, inst)
        if speed is not None and speed.mark() != before + 1 + len(trace.plan_seconds):
            before = None
        befores.append(before)
        exact = oracle.exact_joint_search(inst, spec.t_final) if spec.oracle else None
        results.append((trace, exact))
        if speed is not None:
            speed.probe()
    seconds = time.perf_counter() - t0
    scale = 1.0
    if speed is not None:
        last = speed.mark()
        seconds -= speed.probe_seconds(first + 1, last)
        scale = speed.scale(first, last)
    steps = []
    for before, (trace, _) in zip(befores, results):
        n_steps = len(trace.plan_seconds)
        if before is None:
            steps.append([scale] * n_steps)
        else:
            steps.append([speed.local_scale(before + t, first, last) for t in range(n_steps)])
    return seconds, results, scale, steps


def plain_states(trace):
    return [
        (s.t, tuple((p.row, p.col) for p in s.agent_pos), tuple(s.captured))
        for s in trace.states
    ]


def fingerprint(episodes, results):
    """Hash of every executed position, episodes in workload order."""
    by_name = {}
    for (spec, inst, _), (trace, _) in zip(episodes, results):
        by_name[(spec.n, spec.n_agents, spec.k, spec.master)] = plain_states(trace)
    h = hashlib.sha256()
    for key in sorted(by_name):
        h.update(repr((key, [s[1] for s in by_name[key]])).encode())
    return h.hexdigest()[:16]


class Checker:
    """Checks every round against rules and oracles computed apart."""

    def __init__(self, mods, episodes):
        self.errors = []
        self.cells = []
        self.unmatched = []
        self.optimum = []
        for spec, inst, _ in episodes:
            starts = [(p.row, p.col) for p in inst.starts]
            goals = [(p.row, p.col) for p in inst.goals]
            self.cells.append((starts, goals))
            self.unmatched.append(unmatched_goals(spec.n, starts, goals))
            optimum = None
            if spec.oracle:
                # an algorithm unrelated to the timed breadth-first search
                optimum = mods["oracle"].iterative_deepening_search(
                    inst, spec.t_final).optimal_makespan
            self.optimum.append(optimum)
        self.episodes = episodes
        self.first = None

    def round(self, results):
        """Checks one round; returns the number of failed episodes."""
        failed = 0
        for (spec, inst, _), (trace, exact), (starts, goals), unmatched, optimum in zip(
                self.episodes, results, self.cells, self.unmatched, self.optimum):
            errs = check_episode(
                spec.n, starts, goals, plain_states(trace),
                trace.success_rate, trace.makespan, spec.t_final,
            )
            solved = trace.success_rate == 1.0
            if spec.oracle:
                if exact.optimal_makespan != optimum:
                    errs.append(
                        f"exact search optimum {exact.optimal_makespan}, "
                        f"iterative deepening {optimum}"
                    )
                errs += check_optimum(trace.makespan, solved, optimum)
            if unmatched and solved:
                errs.append(f"solved although goals {unmatched} cannot be matched")
            self.errors += [f"{inst.name}@{spec.master}: {e}" for e in errs]
            # a miss counts as failed unless no plan could have solved it
            solvable = not unmatched and (optimum is not None or not spec.oracle)
            if solvable and not solved:
                failed += 1
        fp = fingerprint(self.episodes, results)
        if self.first is None:
            self.first = fp
        elif fp != self.first:
            self.errors.append(f"decisions differ between rounds: {fp} != {self.first}")
        return failed


def plan_calls(results, steps=None):
    """Seconds of every plan_move call (live agents only) in the results,
    each times its step's factor where ``steps`` gives them."""
    out = []
    for i, (trace, _) in enumerate(results):
        factors = steps[i] if steps else itertools.repeat(1.0)
        for state, row, f in zip(trace.states, trace.plan_seconds, factors):
            out += [dt * f for dt, cap in zip(row, state.captured) if not cap]
    return out


def agent_seconds(trace, factors):
    """Planning seconds per agent of one episode (the CSV's avg_agent_time_s)."""
    return (sum(sum(row) * f for row, f in zip(trace.plan_seconds, factors))
            / len(trace.states[0].agent_pos))


def end_to_end(rounds, setup_s):
    """Rates and per-episode figures are medians over the rounds.

    Every time is first brought to the reference speed (``speed.py``):
    plan calls by their step's factor, round times by the round's.
    """
    calls = [dt for r in rounds for dt in plan_calls(r[1], r[3])]
    if len(calls) < 100:
        raise RuntimeError(f"only {len(calls)} plan calls, p90 needs 100")
    q = statistics.quantiles(calls, n=10)
    per_round = len(rounds[0][1])
    return {
        "setup_s": (setup_s, "s"),
        "episodes_per_s": (per_round / statistics.median(r[0] * r[2] for r in rounds), "1/s"),
        "plan_ms_p50": (statistics.median(calls) * 1e3, "ms"),
        "plan_ms_p90": (q[8] * 1e3, "ms"),
        "agent_time_s": (statistics.median(
            statistics.fmean(agent_seconds(t, f) for (t, _), f in zip(r[1], r[3]))
            for r in rounds), "s"),
        "makespan_mean": (statistics.fmean(t.makespan for t, _ in rounds[0][1]), "steps"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, traced, untraced, episodes):
    n_rounds = len(traced)
    tot = tracer.layer_totals()
    calls = {k: v[0] for k, v in tot.items()}
    total_ns = {k: v[1] for k, v in tot.items()}
    self_ns = {k: v[2] for k, v in tot.items()}
    plan_s = sum(plan_calls([x for r in untraced for x in r[1]]))
    iters = sum(
        cfg.budget.iterations * len(plan_calls([result]))
        for r in untraced for (_, _, cfg), result in zip(episodes, r[1])
    )
    n_merge = calls["coordinator.merge_states"]
    plan_total = total_ns["mcts.plan_move"]

    def per_call(name, scale):
        return total_ns[name] / calls[name] / scale if calls[name] else 0.0

    layer_self = {
        "coordinator": self_ns["coordinator.run_episode"] + self_ns["coordinator.merge_states"],
        "mcts": self_ns["mcts.plan_move"] + self_ns["mcts.select"] + self_ns["mcts.backpropagate"],
        "grid": self_ns["grid.goal_walled_distances"],
        "oracle": self_ns["oracle.exact_joint_search"],
    }
    overhead = statistics.median(r[0] for r in traced) / statistics.median(r[0] for r in untraced)
    m = {
        "mcts.plan_move.calls": (calls["mcts.plan_move"] / n_rounds, "count"),
        "mcts.iterations_per_s": (iters / plan_s, "1/s"),
        "mcts.select.us": (per_call("mcts.select", 1e3), "us"),
        "mcts.backpropagate.us": (per_call("mcts.backpropagate", 1e3), "us"),
        "mcts.leaf_share": (self_ns["mcts.plan_move"] / plan_total, "fraction"),
        "grid.goal_walled_distances.calls": (calls["grid.goal_walled_distances"] / n_rounds, "count"),
        "grid.goal_walled_distances.ms": (total_ns["grid.goal_walled_distances"] / n_rounds / 1e6, "ms"),
        "coordinator.rounds": (n_merge / n_rounds, "count"),
        "coordinator.merge_states.us": (per_call("coordinator.merge_states", 1e3), "us"),
        "coordinator.self_ms": (self_ns["coordinator.run_episode"] / n_merge / 1e6, "ms"),
        "coordinator.forced_stays": (tracer.forced_stays / n_rounds, "count"),
        "coordinator.proposals": (tracer.proposals / n_rounds, "count"),
        "oracle.exact_joint_search.ms": (per_call("oracle.exact_joint_search", 1e6), "ms"),
        "trace.overhead_pct": ((overhead - 1) * 100, "%"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer] / n_rounds / 1e9, "s")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gridmcts").is_dir():
        print(f"error: no package at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    specs = round_order(args.workload, args.seed)
    speed = Speed()
    mods, episodes, setup_s = set_up(specs, speed)
    checker = Checker(mods, episodes)
    tracer = Tracer({k: mods[k] for k in LAYERS}) if args.trace else None
    if tracer is None:
        # per-layer figures stay unscaled: a probe inside run_episode
        # would count as coordinator self time
        speed.install(mods["coordinator"])

    untraced, traced = [], []
    started = time.perf_counter()
    try:
        while True:
            if tracer is not None and len(traced) < len(untraced):
                tracer.install()
                try:
                    traced.append(play_round(mods, episodes, tracer))
                finally:
                    tracer.uninstall()
            elif tracer is not None:
                untraced.append(play_round(mods, episodes))
            else:
                untraced.append(play_round(mods, episodes, speed=speed))
            enough = time.perf_counter() - started >= args.seconds
            if enough and (tracer is None or traced):
                break
    finally:
        speed.uninstall()

    rounds = untraced + traced
    failed = sum(checker.round(r[1]) for r in rounds)
    attempted = len(rounds) * len(episodes)
    if tracer is not None:
        metrics = per_layer(tracer, traced, untraced, episodes)
    else:
        metrics = end_to_end(rounds, setup_s)

    fp = checker.first
    print(f"python {platform.python_version()} nproc {os.cpu_count()} "
          f"workload {args.workload} seed {args.seed} rounds {len(rounds)} "
          f"fingerprint {fp}")
    print("round seconds: " + " ".join(f"{r[0]:.3f}" for r in rounds))
    if tracer is None:
        print("round scale to the reference speed: "
              + " ".join(f"{r[2]:.3f}" for r in rounds)
              + f" ({len(speed.start)} marks)")
    for e in checker.errors[:20]:
        print(f"check failed: {e}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit} attempted={attempted} failed={failed}")
    result = {
        "correct": not checker.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    if tracer is not None:
        tracer.write(OUT / f"{args.workload}.spans.tsv")
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(json.dumps(
        {**result, "python": platform.python_version(), "nproc": os.cpu_count(),
         "seed": args.seed, "fingerprint": fp}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
