"""Batch benchmark runner and its command line front end.

Runs size families of generated instances through full episodes and
reports per-run success rate, makespan, and planning-time aggregates as
CSV. Two modes: a fixed-horizon accuracy run (default) and a horizon
sweep (--sweep-t-final) that aggregates success rate per horizon. Each
call builds one task list, every horizon of a sweep included, and plays
it in-process or through one pool of at most one process per task.

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
import math
import multiprocessing
import os
import sys
import time
from dataclasses import astuple, dataclass, fields

from .coordinator import EpisodeConfig, run_episode
from .grid import GridConfig
from .mcts import DEFAULT_EXPLORATION_C, SearchBudget
from .oracle import _MAX_AGENTS, _MAX_N, exact_joint_search
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
    oracle_solvable: bool | None = None
    oracle_makespan: int | None = None

    def csv_row(self) -> list[str]:
        out = []
        for name in CSV_FIELDS:
            v = getattr(self, name)
            out.append("" if v is None else str(v))
        return out


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
# (n, n_agents, k, rep, t_final, settings); settings, one per call, is
# (master_seed, iterations, alpha, update_rule_value, exploration_c, oracle_check)


def _execute_task(task) -> RunRecord:
    n, n_agents, k, rep, t_final, settings = task
    master_seed, iterations, alpha, rule_value, exploration_c, oracle_check = settings
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
    oracle_solvable = None
    oracle_makespan = None
    if oracle_check and n <= _MAX_N and n_agents <= _MAX_AGENTS:
        res = exact_joint_search(instance, t_final)
        oracle_solvable = res.solvable_within
        oracle_makespan = res.optimal_makespan
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
        oracle_solvable=oracle_solvable,
        oracle_makespan=oracle_makespan,
    )


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_tasks(tasks, workers: int) -> list[RunRecord]:
    """Records of every task, in task order: played in-process, or
    through one pool of at most one process per task and per usable CPU.
    chunksize=1 deals out one episode at a time, so no worker gets a
    batch of long ones.
    """
    processes = min(workers, len(tasks), _usable_cpus())
    if processes > 1:
        with multiprocessing.Pool(processes=processes) as pool:
            return pool.map(_execute_task, tasks, chunksize=1)
    return [_execute_task(t) for t in tasks]


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
    oracle_check: bool = False,
) -> list[RunRecord]:
    """Run `instances` x `repeats` episodes for each (n, n_agents) size.

    t_final defaults to 3n per size. Records come back in task order
    (sizes, then instance index, then repeat) regardless of worker
    count.
    """
    settings = (master_seed, iterations, alpha, update_rule.value,
                exploration_c, oracle_check)
    return _run_tasks([
        (n, n_agents, k, rep, 3 * n if t_final is None else t_final, settings)
        for n, n_agents in sizes
        for k in range(instances)
        for rep in range(repeats)
    ], workers)


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
    settings = (master_seed, iterations, alpha, update_rule.value,
                exploration_c, False)
    by_horizon = {tf: [] for tf in sorted(set(int(t) for t in t_finals))}
    for r in _run_tasks([
        (n, n_agents, k, rep, tf, settings)
        for tf in by_horizon
        for k in range(instances)
        for rep in range(repeats)
    ], workers):
        by_horizon[r.t_final].append(r)
    return [SweepPoint(
        t_final=tf,
        runs=len(rs),
        mean_success_rate=sum(r.success_rate for r in rs) / len(rs),
        full_success_fraction=sum(r.success_rate == 1.0 for r in rs) / len(rs),
        mean_makespan=sum(r.makespan for r in rs) / len(rs),
    ) for tf, rs in by_horizon.items() if rs]


def _write_records_csv(records, out):
    w = csv.writer(out)
    w.writerow(CSV_FIELDS)
    for r in records:
        w.writerow(r.csv_row())


def _write_sweep_csv(points, out):
    w = csv.writer(out)
    w.writerow(f.name for f in fields(SweepPoint))
    for p in points:
        w.writerow(astuple(p))


def _summarize(records) -> str:
    srs = [r.success_rate for r in records]
    mks = [r.makespan for r in records]
    tot = sum(r.total_time_s for r in records)
    return (
        f"runs={len(records)} mean_sr={sum(srs) / len(srs):.3f} "
        f"full={sum(1 for x in srs if x == 1.0)}/{len(srs)} "
        f"mean_makespan={sum(mks) / len(mks):.2f} plan_s={tot:.1f}"
    )


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
    p.add_argument("--t-final", type=_non_negative_int, default=None,
                   help="episode horizon (default 3*N)")
    p.add_argument("--alpha", type=float, default=0.0, choices=[float(a) for a in _ALPHAS],
                   help="self-capture penalty weight (default 0.0)")
    p.add_argument("--update", choices=[r.value for r in UpdateRule], default="mean",
                   help="node value update rule (default mean)")
    p.add_argument("--exploration-c", type=_exploration_c, default=DEFAULT_EXPLORATION_C,
                   help="UCT exploration constant (default sqrt(2))")
    p.add_argument("--repeats", type=_positive_int, default=1,
                   help="episodes per instance (default 1)")
    # the sweep has no oracle columns, so the two modes exclude each other
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--sweep-t-final", type=_parse_sweep, default=None,
                      metavar="A:B:STEP",
                      help="sweep the horizon over a range instead of one accuracy run")
    mode.add_argument("--oracle-check", action="store_true",
                      help="also solve each instance exactly where tractable "
                           f"(up to {_MAX_N}x{_MAX_N}, {_MAX_AGENTS} agents)")
    p.add_argument("--out", default=None, metavar="CSV",
                   help="write CSV here (default stdout)")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="worker processes, at most one per run and per usable CPU "
                        "(default 1)")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the sweep takes its horizons from its range; --t-final would be dropped.
    # Not a mutually exclusive group: --t-final with --oracle-check is valid.
    if args.sweep_t_final is not None and args.t_final is not None:
        parser.error("argument --t-final: not allowed with argument --sweep-t-final")
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
    shared = dict(
        instances=args.instances, repeats=args.repeats,
        iterations=args.iterations, alpha=args.alpha,
        update_rule=UpdateRule(args.update), exploration_c=args.exploration_c,
        master_seed=args.seed, workers=args.workers,
    )
    started = time.perf_counter()
    try:
        if args.sweep_t_final is not None:
            points = run_time_accuracy_sweep(
                args.grid_size, args.agents, args.sweep_t_final, **shared)
            _write_sweep_csv(points, out)
            for pt in points:
                print(
                    f"t_final={pt.t_final}: mean_sr={pt.mean_success_rate:.3f} "
                    f"over {pt.runs} runs",
                    file=sys.stderr,
                )
        else:
            records = run_full_accuracy(
                [(args.grid_size, args.agents)], t_final=args.t_final,
                oracle_check=args.oracle_check, **shared)
            _write_records_csv(records, out)
            print(
                f"{args.grid_size}x{args.grid_size}/{args.agents}: "
                f"{_summarize(records)}",
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
