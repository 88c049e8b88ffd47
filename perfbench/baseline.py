"""Re-measures the reference figures quoted in perfbench/README.md.

    python3 perfbench/baseline.py

Prints the median of five ``plan_move`` calls at I=2000 from the t=0
state of instance k=0 (master seed 0) for 5x5/2, 8x8/4, 10x10/10 and
20x20/20, then one 10x10/10 episode of k=0 played serially and with
``parallel=True``. The configuration is the one run.py uses.
"""
from __future__ import annotations

import statistics
import sys
import time
from random import Random

from run import SRC, build_episodes, load_program
from workloads import Spec


def main() -> int:
    sys.path.insert(0, str(SRC))
    mods = load_program()
    grid, mcts, coordinator = mods["grid"], mods["mcts"], mods["coordinator"]
    for n, n_agents in ((5, 2), (8, 4), (10, 10), (20, 20)):
        ((spec, inst, cfg),) = build_episodes(mods, [Spec(n, n_agents, 0, 0, 2000)])
        state = grid.initial_state(cfg.grid, inst.starts, inst.goals)
        times = []
        for rep in range(5):
            t0 = time.perf_counter()
            mcts.plan_move(state, 0, cfg.budget, cfg.params, Random(rep))
            times.append(time.perf_counter() - t0)
        med = statistics.median(times)
        print(f"plan_move {n}x{n}/{n_agents} I=2000: {med * 1e3:.1f} ms "
              f"({2000 / med:.0f} it/s)")
    ((spec, inst, cfg),) = build_episodes(mods, [Spec(10, 10, 0, 0, 2000)])
    for parallel in (False, True):
        t0 = time.perf_counter()
        trace = coordinator.run_episode(cfg, inst, parallel=parallel)
        print(f"episode 10x10/10 k=0 parallel={parallel}: "
              f"{time.perf_counter() - t0:.2f} s, {len(trace.states) - 1} rounds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
