"""End-to-end acceptance gate.

One test per shipped guarantee, each printing a single
`criterion N: PASS/FAIL` line (visible with -v through the test name,
and in captured output with the detail). The batch criteria run real
episode ensembles at full budget, so this module takes several minutes;
run it serially, without CPU contention, or the timing criterion gets
noisy.
"""
import os
import statistics
import sys
from fractions import Fraction as F
from random import Random

import pytest

from gridmcts.bench import run_full_accuracy, run_time_accuracy_sweep
from gridmcts.coordinator import (
    EpisodeConfig,
    derive_agent_seed,
    merge_states,
    run_episode,
)
from gridmcts.grid import (
    GridConfig,
    Move,
    Position,
    initial_state,
    legal_moves,
    manhattan,
    success_rate,
)
from gridmcts.mcts import SearchBudget, make_root, plan_move, rollout, expand
from gridmcts.oracle import assignment_lower_bound, certify_unsolvable
from gridmcts.scenarios import generate_instance
from gridmcts.values import (
    NodeStats,
    UpdateRule,
    ValueParams,
    depth_adjusted,
    update_value,
    value_mod,
    value_naive,
)

from reference import RefTree, ref_node_at, ref_rollout

SUITES = [(5, 2), (5, 5), (8, 4), (8, 8), (10, 5), (10, 10)]


def _report(k: int, ok: bool, detail: str) -> None:
    line = f"criterion {k}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    print(line, file=sys.stderr)
    assert ok, line


@pytest.fixture(scope="module")
def full_records():
    # the six-suite ensemble behind criteria 1 and 2, package defaults
    # played on the usable CPUs; records do not depend on the worker count
    return run_full_accuracy(SUITES, master_seed=0, workers=os.cpu_count())


def test_criterion_01_full_success_on_all_suites(full_records):
    # full success is demanded of every run except those the static
    # certificate proves no planner can solve at any horizon (a goal no
    # agent can reach, say); such a run reaching 1.0 would refute the
    # certificate. The certificate is exact, so every other run is
    # solvable, if not always within 3n
    by_suite = {}
    for r in full_records:
        by_suite.setdefault((r.n, r.n_agents), []).append(r)
    parts = []
    certified = []
    ok = True
    for key in SUITES:
        full = total = 0
        for r in by_suite[key]:
            unmatched = certify_unsolvable(
                generate_instance(r.n, r.n_agents, r.instance_index, 0)
            )
            if unmatched:
                cells = ",".join(f"({g.row},{g.col})" for g in unmatched)
                certified.append(f"{r.instance} unmatched {cells}")
                ok = ok and r.success_rate < 1.0
                continue
            total += 1
            full += r.success_rate == 1.0
        parts.append(f"{key[0]}x{key[0]}/{key[1]}={full}/{total}")
        ok = ok and full == total
    parts.append(f"certified unsolvable: {'; '.join(certified) or 'none'}")
    _report(1, ok, " ".join(parts))


def test_criterion_02_makespan_envelope(full_records):
    recs = [r for r in full_records if (r.n, r.n_agents) == (5, 2)]
    assert len(recs) == 20
    ratios = []
    for r in recs:
        bound = assignment_lower_bound(generate_instance(5, 2, r.instance_index, 0))
        if bound == 0:
            ratios.append(0.0 if r.makespan == 0 else float("inf"))
        else:
            ratios.append(r.makespan / bound)
    worst = max(r.makespan for r in recs)
    med = statistics.median(r.makespan for r in recs)
    med_ratio = statistics.median(ratios)
    ok = worst <= 15 and med_ratio <= 2.0 and med <= 6
    _report(2, ok, f"max_mk={worst} median_mk={med} median_ratio={med_ratio:.2f}")


def test_criterion_03_oracle_agreement():
    sizes = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2)]
    checked = solved = 0
    ok = True
    for n, na in sizes:
        recs = run_full_accuracy([(n, na)], instances=20, master_seed=7)
        for r in recs:
            checked += 1
            if r.oracle_solvable:
                solved += 1
                if r.success_rate != 1.0 or r.makespan < r.oracle_makespan:
                    ok = False
    assert checked == 100
    _report(3, ok, f"{solved}/{checked} solvable, all matched" if ok
            else f"{solved}/{checked} solvable, mismatch found")


def test_criterion_04_delta_rollout_equals_reference():
    meta = Random(424242)
    pairs = bad = 0
    while pairs < 1000:
        n = meta.choice([3, 4, 5])
        na = meta.choice([1, 2, 3])
        cells = [Position(r, c) for r in range(n) for c in range(n)]
        meta.shuffle(cells)
        s = initial_state(GridConfig(n, na), cells[:na], cells[na : 2 * na])
        if all(s.captured):
            continue
        p = ValueParams(meta.choice([0.0, 0.5, 1.0]), UpdateRule.MEAN, na, 3 * n)
        planner = meta.randrange(na)
        root = make_root(s, planner, p)
        tree = RefTree(s, planner, p)
        path = [root]
        # a third of the pairs descend first so the rollout replays a
        # delta chain instead of starting at the root state; a Stay-only
        # level, counted on the leaf, is a step down too
        for _ in range(meta.choice([0, 0, meta.randrange(1, na + 2)])):
            if path[-1].children is None:
                try:
                    if expand(path) is path[-1]:
                        continue
                except ValueError:
                    break  # terminal node, roll out from here
            i = meta.randrange(len(path[-1].children))
            path.append(path[-1].children[i])
        seed = meta.randrange(2**60)
        got_rng, want_rng = Random(seed), Random(seed)
        got = rollout(path, got_rng)
        want = ref_rollout(tree, ref_node_at(tree, path), want_rng)
        # equal samples can hide a different number of draws; the RNG's
        # end state cannot
        if got != want or got_rng.getstate() != want_rng.getstate():
            bad += 1
        pairs += 1
    _report(4, bad == 0, f"{pairs - bad}/{pairs} samples and RNG end states bit-identical")


def test_criterion_05_value_identities_exact():
    p4 = ValueParams(1.0, UpdateRule.MEAN, 4, 10)
    p4z = ValueParams(0.0, UpdateRule.MEAN, 4, 10)
    p2 = ValueParams(0.5, UpdateRule.MEAN, 2, 10)
    checks = [
        value_naive(0, 4) == 0,
        value_naive(2, 4) == F(1, 2),
        value_naive(4, 4) == 1,
        value_mod(2, True, p4) == F(1, 4),
        value_mod(2, False, p4) == F(1, 2),
        value_mod(2, True, p4z) == value_naive(2, 4),  # zero-penalty degeneracy
        depth_adjusted(F(1, 2), F(1), p2) == F(19, 20),
        depth_adjusted(F(1, 2), F(10), p2) == F(1, 2),  # bonus gone at horizon
        update_value(NodeStats(F(1, 2), 1), F(1), UpdateRule.MEAN)
        == NodeStats(F(3, 4), 2),
        update_value(NodeStats(F(1, 2), 3), F(1, 4), UpdateRule.MAX)
        == NodeStats(F(1, 2), 4),
        update_value(NodeStats(F(3, 5), 7), F(3, 5), UpdateRule.MEAN)
        == NodeStats(F(3, 5), 8),
        # equal outcomes, shallower node wins after the depth bonus
        depth_adjusted(F(1, 2), F(2), p2) > depth_adjusted(F(1, 2), F(3), p2),
    ]
    _report(5, all(checks), f"{sum(checks)}/{len(checks)} identities exact")


def _random_live_state(meta):
    n = meta.randrange(2, 6)
    na = meta.randrange(1, min(5, n * n // 2) + 1)
    cells = [Position(r, c) for r in range(n) for c in range(n)]
    meta.shuffle(cells)
    return initial_state(GridConfig(n, na), cells[:na], cells[na : 2 * na])


def test_criterion_06_merge_stress_and_monotone_traces():
    meta = Random(606060)
    merges = 0
    ok = True
    state = _random_live_state(meta)
    while merges < 100_000:
        if all(state.captured) or state.t > 40:
            state = _random_live_state(meta)
        proposals = tuple(
            meta.choice(legal_moves(state, a)) for a in range(state.n_agents)
        )
        nxt = merge_states(state, proposals)
        merges += 1
        if len(set(nxt.agent_pos)) != nxt.n_agents:
            ok = False  # vertex collision
        for a in range(state.n_agents):
            if state.captured[a] and (
                not nxt.captured[a] or nxt.agent_pos[a] != state.agent_pos[a]
            ):
                ok = False  # captured agent moved or thawed
            if manhattan(state.agent_pos[a], nxt.agent_pos[a]) > 1:
                ok = False  # super-unit step
        state = nxt
    traces_ok = True
    for k in range(30):
        n = 3 + k % 3
        na = 1 + k % 3
        inst = generate_instance(n, na, k, 1212)
        cfg = EpisodeConfig(
            grid=inst.grid,
            budget=SearchBudget(60, 3 * n),
            params=ValueParams(0.5, UpdateRule.MEAN, na, 3 * n),
            global_seed=k,
        )
        trace = run_episode(cfg, inst)
        srs = [success_rate(s) for s in trace.states]
        if any(b < a for a, b in zip(srs, srs[1:])):
            traces_ok = False
    _report(6, ok and traces_ok,
            f"{merges} merges clean={ok}, 30 traces monotone={traces_ok}")


def test_criterion_07_plans_independent_of_order():
    # every plan call is seeded from (global_seed, agent, t) alone, so
    # planning the live agents in reverse id order replays each round
    ok = True
    rounds = 0
    for n, na, seed in [(3, 2, 5), (4, 3, 6), (5, 5, 7), (5, 4, 8)]:
        inst = generate_instance(n, na, 0, seed)
        cfg = EpisodeConfig(
            grid=inst.grid,
            budget=SearchBudget(250, 3 * n),
            params=ValueParams(0.5, UpdateRule.MEAN, na, 3 * n),
            global_seed=seed,
        )
        trace = run_episode(cfg, inst)
        for state, nxt in zip(trace.states, trace.states[1:]):
            moves = [Move.STAY] * na
            for a in reversed(range(na)):
                if not state.captured[a]:
                    rng = Random(derive_agent_seed(cfg.global_seed, a, state.t))
                    moves[a] = plan_move(state, a, cfg.budget, cfg.params, rng)
            if merge_states(state, moves) != nxt:
                ok = False
            rounds += 1
    _report(7, ok, f"{rounds} rounds of 4 configs replayed in reverse agent order")


def _mean_live_plan_seconds(trace) -> float:
    secs = [
        row[a]
        for t, row in enumerate(trace.plan_seconds)
        for a in range(len(row))
        if not trace.states[t].captured[a]
    ]
    return sum(secs) / len(secs)


def _episode_at(n, na, iterations, seed=0, k=0):
    inst = generate_instance(n, na, k, seed)
    cfg = EpisodeConfig(
        grid=inst.grid,
        budget=SearchBudget(iterations, 3 * n),
        params=ValueParams(0.5, UpdateRule.MEAN, na, 3 * n),
        global_seed=seed,
    )
    return run_episode(cfg, inst)


def test_criterion_08_scaling_sanity():
    # iteration scaling on a fixed 10x10/5 instance
    slow = _mean_live_plan_seconds(_episode_at(10, 5, 2000))
    fast = _mean_live_plan_seconds(_episode_at(10, 5, 500))
    iter_ratio = slow / fast
    # size doubling at fixed agent count (horizon scales with n)
    t6 = statistics.mean(
        _mean_live_plan_seconds(_episode_at(6, 3, 500, k=k)) for k in range(2)
    )
    t12 = statistics.mean(
        _mean_live_plan_seconds(_episode_at(12, 3, 500, k=k)) for k in range(2)
    )
    size_ratio = t12 / t6
    ok = iter_ratio <= 20.0 and size_ratio <= 16.0
    _report(8, ok,
            f"I 500->2000 ratio {iter_ratio:.1f}x (cap 20), "
            f"n 6->12 ratio {size_ratio:.1f}x (cap 16)")


def test_criterion_09_success_vs_horizon_trend():
    points = run_time_accuracy_sweep(
        5, 2, [5, 7, 10, 15], instances=5, repeats=6, master_seed=0
    )
    assert all(p.runs == 30 for p in points)
    srs = [p.mean_success_rate for p in points]
    ok = all(b >= a - 0.05 for a, b in zip(srs, srs[1:]))
    detail = " ".join(
        f"t={p.t_final}:sr={p.mean_success_rate:.3f}" for p in points
    )
    _report(9, ok, detail)
