"""Batch benchmark runner and its command line front end.

Runs generated instances through full episodes; each run records its
success rate, makespan, planning-time aggregates and the exact optimum
within its horizon (oracle.exact_joint_search). A fixed-horizon
accuracy run (default) writes one CSV row per run, and a horizon sweep
(--sweep-t-final) one aggregate row per horizon. Both modes take one
path: _play plays every instance and repeat of a list of (n, n_agents,
t_final) boards, one per size or one per horizon, in-process or through
one pool of at most one process per task; _aggregate turns each
horizon's records into a SweepPoint, which is a sweep row and, in
either mode, the stderr summary line; _write_csv writes either row type.

Every run is reproducible from the master seed alone: instance layouts
and episode seeds are both derived from it with the package's integer
mixer, never from global RNG state. Worker processes only ever receive
(size, index, seed) tuples and re-derive everything locally, so results
are identical for any worker count, including the in-process path.

Episodes here plan with the goal-distance leaf term switched on at
DEFAULT_DISTANCE_WEIGHT (see values.distance_adjusted); ValueParams
itself defaults to the plain value family.
"""
from __future__ import annotations

import argparse
import csv
import multiprocessing
import os
import sys
import time
from dataclasses import astuple, dataclass, fields

from .coordinator import EpisodeConfig, run_episode
from .grid import GridConfig, _require_int
from .mcts import DEFAULT_EXPLORATION_C, SearchBudget
from .oracle import exact_joint_search
from .scenarios import generate_instance
from .seeds import mix_chain
from .values import _ALPHAS, UpdateRule, ValueParams

# weight of the leaf distance term in benchmark episodes. 0.5 is the
# only nonzero weight tried; held-out master seeds 1-4 confirmed it
# against weight 0 (CHANGES.md)
DEFAULT_DISTANCE_WEIGHT = 0.5


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one episode plus enough metadata to rerun it."""

    instance: str
    n: int
    n_agents: int
    instance_index: int
    repeat: int
    episode_seed: int
    iterations: int
    t_final: int
    alpha: float
    update_rule: str
    exploration_c: float
    success_rate: float
    makespan: int
    total_time_s: float
    avg_agent_time_s: float
    max_agent_time_s: float
    oracle_solvable: bool
    # None only when no plan reaches every goal within t_final
    oracle_makespan: int | None


# the CSV columns, in field order: the external contract of the CSV output
CSV_FIELDS = tuple(f.name for f in fields(RunRecord))


@dataclass(frozen=True)
class SweepPoint:
    """Aggregate over all runs at one horizon value."""

    t_final: int
    runs: int
    mean_success_rate: float
    full_success_fraction: float
    mean_makespan: float


# task tuples keep the pool protocol picklable and version-agnostic:
# (n, n_agents, t_final, k, rep, master_seed, iterations, alpha,
#  update_rule_value, exploration_c)


def _execute_task(task) -> RunRecord:
    (n, n_agents, t_final, k, rep,
     master_seed, iterations, alpha, rule_value, exploration_c) = task
    instance = generate_instance(n, n_agents, k, master_seed)
    episode_seed = mix_chain(master_seed, n, n_agents, k, rep)
    params_t = t_final if t_final >= 1 else 1  # horizon 0 never evaluates
    cfg = EpisodeConfig(
        grid=GridConfig(n, n_agents),
        budget=SearchBudget(iterations, t_final, exploration_c),
        params=ValueParams(
            alpha, UpdateRule(rule_value), n_agents, params_t,
            DEFAULT_DISTANCE_WEIGHT,
        ),
        global_seed=episode_seed,
    )
    trace = run_episode(cfg, instance)
    # timing is aggregated over per-agent totals: each agent's planning
    # seconds are summed over the episode first, then averaged / maxed
    # across agents, so avg <= max <= total always holds. The 0.0 start
    # keeps the fields floats when no plan round ran
    per_agent = [
        sum((row[a] for row in trace.plan_seconds), 0.0) for a in range(n_agents)
    ]
    total = sum(per_agent)
    optimum = exact_joint_search(instance, t_final)
    return RunRecord(
        instance=instance.name,
        n=n,
        n_agents=n_agents,
        instance_index=k,
        repeat=rep,
        episode_seed=episode_seed,
        iterations=iterations,
        t_final=t_final,
        alpha=alpha,
        update_rule=rule_value,
        exploration_c=exploration_c,
        success_rate=trace.success_rate,
        makespan=trace.makespan,
        total_time_s=total,
        avg_agent_time_s=total / n_agents,
        max_agent_time_s=max(per_agent),
        oracle_solvable=optimum.solvable_within,
        oracle_makespan=optimum.optimal_makespan,
    )


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _play(boards, instances: int, repeats: int, settings, workers: int) -> list[RunRecord]:
    """Records of every instance and repeat of each (n, n_agents, t_final)
    board, in task order (boards, then instance index, then repeat).
    settings is (master_seed, iterations, alpha, update_rule_value,
    exploration_c). The tasks play in-process, or through one pool of at
    most one process per task and per usable CPU; chunksize=1 deals out
    one episode at a time, so no worker gets a batch of long ones.
    A horizon that is not an int, or is a bool, raises TypeError before
    any episode plays.
    """
    for _, _, t_final in boards:
        _require_int("t_final", t_final)
    tasks = [
        (n, n_agents, t_final, k, rep, *settings)
        for n, n_agents, t_final in boards
        for k in range(instances)
        for rep in range(repeats)
    ]
    processes = min(workers, len(tasks), _usable_cpus())
    if processes > 1:
        with multiprocessing.Pool(processes=processes) as pool:
            return pool.map(_execute_task, tasks, chunksize=1)
    return [_execute_task(t) for t in tasks]


def _aggregate(records) -> list[SweepPoint]:
    """One SweepPoint per horizon, in the order the records first reach
    it; no records give no points."""
    by_horizon: dict[int, list[RunRecord]] = {}
    for r in records:
        by_horizon.setdefault(r.t_final, []).append(r)
    return [SweepPoint(
        t_final=tf,
        runs=len(rs),
        mean_success_rate=sum(r.success_rate for r in rs) / len(rs),
        full_success_fraction=sum(r.success_rate == 1.0 for r in rs) / len(rs),
        mean_makespan=sum(r.makespan for r in rs) / len(rs),
    ) for tf, rs in by_horizon.items()]


def run_full_accuracy(
    sizes,
    *,
    instances: int = 20,
    repeats: int = 1,
    iterations: int = 2000,
    t_final: int | None = None,
    alpha: float = 0.0,
    update_rule: UpdateRule = UpdateRule.MEAN,
    exploration_c: float = DEFAULT_EXPLORATION_C,
    master_seed: int = 0,
    workers: int = 1,
) -> list[RunRecord]:
    """Run `instances` x `repeats` episodes for each (n, n_agents) size.

    t_final defaults to 3n per size. Records come back in task order
    (sizes, then instance index, then repeat) regardless of worker
    count.
    """
    boards = [(n, na, 3 * n if t_final is None else t_final) for n, na in sizes]
    settings = (master_seed, iterations, alpha, update_rule.value, exploration_c)
    return _play(boards, instances, repeats, settings, workers)


def run_time_accuracy_sweep(
    n: int,
    n_agents: int,
    t_finals,
    *,
    instances: int = 1,
    repeats: int = 30,
    iterations: int = 2000,
    alpha: float = 0.0,
    update_rule: UpdateRule = UpdateRule.MEAN,
    exploration_c: float = DEFAULT_EXPLORATION_C,
    master_seed: int = 0,
    workers: int = 1,
) -> list[SweepPoint]:
    """Success rate as a function of the horizon, sorted by horizon.

    Every horizon value sees the same instances and the same episode
    seeds, so points differ only in how much time the agents get. With
    no runs (instances or repeats 0) there are no points.
    """
    boards = [(n, n_agents, tf) for tf in sorted(set(t_finals))]
    settings = (master_seed, iterations, alpha, update_rule.value, exploration_c)
    return _aggregate(_play(boards, instances, repeats, settings, workers))


def _write_csv(out, cls, rows) -> None:
    """A header of cls's field names, then one line per dataclass row;
    csv.writer writes None as an empty field and str() of any other value."""
    w = csv.writer(out)
    w.writerow(f.name for f in fields(cls))
    w.writerows(astuple(r) for r in rows)


def _int_at_least(low: int, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(1, text)


def _non_negative_int(text: str) -> int:
    return _int_at_least(0, text)


def _exploration_c(text: str) -> float:
    # SearchBudget owns the rule; checked here so a bad value fails before any run
    try:
        return SearchBudget(1, 0, float(text)).exploration_c
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _parse_sweep(spec: str):
    try:
        a, b, step = (int(x) for x in spec.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected START:STOP:STEP with integers, got {spec!r}"
        ) from None
    if a < 0:
        raise argparse.ArgumentTypeError(f"start must be at least 0, got {a}")
    if step < 1 or b < a:
        raise argparse.ArgumentTypeError(f"bad sweep range {spec!r}")
    return list(range(a, b + 1, step))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gridmcts-bench",
        description="Benchmark the decentralized grid searcher on generated instances.",
    )
    p.add_argument("--grid-size", type=int, required=True, metavar="N",
                   help="board side length")
    p.add_argument("--agents", type=int, required=True, metavar="K",
                   help="number of agents (= goals)")
    p.add_argument("--instances", type=_positive_int, default=20,
                   help="generated instances per size (default 20)")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed; instances and episodes derive from it")
    p.add_argument("--iterations", type=_positive_int, default=2000,
                   help="search iterations per plan call (default 2000)")
    p.add_argument("--alpha", type=float, default=0.0, choices=[float(a) for a in _ALPHAS],
                   help="self-capture penalty weight (default 0.0)")
    p.add_argument("--update", choices=[r.value for r in UpdateRule], default="mean",
                   help="node value update rule (default mean)")
    p.add_argument("--exploration-c", type=_exploration_c, default=DEFAULT_EXPLORATION_C,
                   help="UCT exploration constant (default sqrt(2))")
    p.add_argument("--repeats", type=_positive_int, default=1,
                   help="episodes per instance (default 1)")
    # the sweep takes its horizons from its range, so it excludes --t-final
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--t-final", type=_non_negative_int, default=None,
                      help="episode horizon (default 3*N)")
    mode.add_argument("--sweep-t-final", type=_parse_sweep, default=None,
                      metavar="A:B:STEP",
                      help="sweep the horizon over a range instead of one accuracy run")
    p.add_argument("--out", default=None, metavar="CSV",
                   help="write CSV here (default stdout)")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="worker processes, at most one per run and per usable CPU "
                        "(default 1)")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        GridConfig(args.grid_size, args.agents)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    # opened before any episode runs, so a bad path costs no search time
    try:
        out = open(args.out, "w", newline="") if args.out else sys.stdout
    except OSError as e:
        parser.error(f"argument --out: cannot open {args.out!r}: {e.strerror}")
    n, k = args.grid_size, args.agents
    # a sweep range holds at least one horizon
    horizons = args.sweep_t_final or [3 * n if args.t_final is None else args.t_final]
    settings = (args.seed, args.iterations, args.alpha, args.update, args.exploration_c)
    started = time.perf_counter()
    try:
        records = _play([(n, k, tf) for tf in horizons],
                        args.instances, args.repeats, settings, args.workers)
        points = _aggregate(records)
        if args.sweep_t_final:
            _write_csv(out, SweepPoint, points)
        else:
            _write_csv(out, RunRecord, records)
        for p in points:
            print(
                f"{n}x{n}/{k} t_final={p.t_final}: runs={p.runs} "
                f"mean_sr={p.mean_success_rate:.3f} full={p.full_success_fraction:.3f} "
                f"mean_makespan={p.mean_makespan:.2f}",
                file=sys.stderr,
            )
    except Exception as e:  # noqa: BLE001 - CLI boundary, report and fail
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        if out is not sys.stdout:
            out.close()
    print(f"done in {time.perf_counter() - started:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
