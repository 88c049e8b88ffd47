"""Episode loop: merge semantics, seeding, determinism, accounting."""
from random import Random

import pytest

from gridmcts.coordinator import (
    EpisodeConfig,
    EpisodeTrace,
    derive_agent_seed,
    merge_states,
    run_episode,
)
from gridmcts.grid import (
    GridConfig,
    Move,
    Position,
    WorldState,
    initial_state,
    legal_moves,
    manhattan,
    success_rate,
)
from gridmcts.mcts import SearchBudget
from gridmcts.scenarios import Instance, generate_instance
from gridmcts.values import UpdateRule, ValueParams


def mk(n, starts, goals, t=0):
    starts = tuple(Position(*p) for p in starts)
    return WorldState(n, t, starts, frozenset(Position(*p) for p in goals))


def episode_config(n, n_agents, t_final, iterations=300, seed=0, alpha=0.5):
    return EpisodeConfig(
        grid=GridConfig(n, n_agents),
        budget=SearchBudget(iterations, t_final),
        params=ValueParams(alpha, UpdateRule.MEAN, n_agents, max(t_final, 1)),
        global_seed=seed,
    )


# ----------------------------------------------------------- agent seeding


def test_derive_agent_seed_deterministic():
    assert derive_agent_seed(5, 1, 2) == derive_agent_seed(5, 1, 2)
    assert derive_agent_seed(5, 1, 2) != derive_agent_seed(5, 2, 1)


def test_derive_agent_seed_rejects_negative():
    with pytest.raises(ValueError):
        derive_agent_seed(5, -1, 0)
    with pytest.raises(ValueError):
        derive_agent_seed(5, 0, -1)


def test_derive_agent_seed_no_collisions_across_seeds():
    """Agents 0 and 1 at t=0 never share a stream, over 10^6 seeds."""
    rng = Random(404)
    for _ in range(10**6):
        g = rng.randrange(2**64)
        assert derive_agent_seed(g, 0, 0) != derive_agent_seed(g, 1, 0)


# ------------------------------------------------------------ merge_states


def test_merge_no_conflicts_applies_verbatim():
    s = mk(5, [(0, 0), (4, 4)], [(2, 2), (3, 3)])
    out = merge_states(s, [Move.RIGHT, Move.UP])
    assert out.agent_pos == (Position(0, 1), Position(3, 4))
    assert out.t == 1


def test_merge_same_cell_lowest_id_moves():
    # agents 0 and 2 converge on (3,3): 0 wins, 2 is forced to stay
    s = mk(5, [(3, 2), (0, 0), (3, 4)], [(1, 1), (2, 2), (4, 4)])
    out = merge_states(s, [Move.RIGHT, Move.DOWN, Move.LEFT])
    assert out.agent_pos[0] == (3, 3)
    assert out.agent_pos[2] == (3, 4)
    assert out.agent_pos[1] == (1, 0)


def test_merge_holder_staying_cannot_be_displaced():
    # agent 1 stays on (2,2); agent 0 tries to enter it
    s = mk(5, [(2, 1), (2, 2)], [(4, 4), (4, 3)])
    out = merge_states(s, [Move.RIGHT, Move.STAY])
    assert out.agent_pos == (Position(2, 1), Position(2, 2))


def test_merge_chain_of_forced_stays_reaches_fixed_point():
    # 2 -> 1's cell while 1 -> 0's cell while 0 stays: everyone stays
    s = mk(5, [(2, 2), (2, 3), (2, 4)], [(0, 0), (0, 1), (0, 2)])
    out = merge_states(s, [Move.STAY, Move.LEFT, Move.LEFT])
    assert out.agent_pos == s.agent_pos


def test_merge_swap_passes_through():
    s = mk(5, [(2, 2), (2, 3)], [(4, 4), (0, 0)])
    out = merge_states(s, [Move.RIGHT, Move.LEFT])
    assert out.agent_pos == (Position(2, 3), Position(2, 2))


def test_merge_rotation_passes_through():
    s = mk(5, [(0, 0), (0, 1), (1, 1), (1, 0)], [(4, 4), (4, 3), (4, 2), (3, 4)])
    out = merge_states(s, [Move.RIGHT, Move.DOWN, Move.LEFT, Move.UP])
    assert out.agent_pos == (Position(0, 1), Position(1, 1), Position(1, 0), Position(0, 0))


def test_merge_captures_after_placement():
    s = mk(5, [(2, 1), (0, 0)], [(2, 2), (4, 4)])
    out = merge_states(s, [Move.RIGHT, Move.DOWN])
    assert out.captured == (True, False)


def test_merge_rejects_illegal_proposal():
    s = mk(5, [(0, 0), (4, 4)], [(2, 2), (3, 3)])
    with pytest.raises(ValueError):
        merge_states(s, [Move.UP, Move.STAY])
    with pytest.raises(ValueError):
        merge_states(s, [Move.STAY])  # wrong arity


def test_merge_rejects_agents_sharing_a_cell():
    # WorldState allows two live agents on one cell; merge_states rejects
    # such an input up front, naming the agents, rather than blaming the merge
    s = mk(5, [(4, 4), (0, 0), (0, 0)], [(2, 2), (3, 3), (1, 1)])
    with pytest.raises(ValueError, match=r"agents 1 and 2 share cell Position\(row=0, col=0\)"):
        merge_states(s, [Move.STAY, Move.STAY, Move.STAY])


def test_merge_stress_invariants():
    """Randomized proposal sets: distinct cells, frozen agents, unit steps."""
    rng = Random(99)
    for _ in range(3000):
        n = rng.choice([3, 4, 5])
        na = rng.randrange(1, min(6, n * n // 2) + 1)
        cells = [Position(r, c) for r in range(n) for c in range(n)]
        rng.shuffle(cells)
        s = initial_state(GridConfig(n, na), cells[:na], cells[na : 2 * na])
        for _ in range(3):
            props = [rng.choice(legal_moves(s, a)) for a in range(na)]
            out = merge_states(s, props)
            assert len(set(out.agent_pos)) == na
            assert out.t == s.t + 1
            for i in range(na):
                assert manhattan(s.agent_pos[i], out.agent_pos[i]) <= 1
                if s.captured[i]:
                    assert out.agent_pos[i] == s.agent_pos[i]
                    assert out.captured[i]
            assert success_rate(out) >= success_rate(s)
            s = out


# ----------------------------------------------------------- EpisodeConfig


def test_episode_config_checks_consistency():
    with pytest.raises(ValueError):
        EpisodeConfig(
            grid=GridConfig(5, 2),
            budget=SearchBudget(10, 15),
            params=ValueParams(0.5, UpdateRule.MEAN, 3, 15),
            global_seed=0,
        )
    with pytest.raises(ValueError):
        EpisodeConfig(
            grid=GridConfig(5, 2),
            budget=SearchBudget(10, 15),
            params=ValueParams(0.5, UpdateRule.MEAN, 2, 12),
            global_seed=0,
        )


# ------------------------------------------------------------- run_episode


def _instance(n, na, k=0, seed=1234):
    return generate_instance(n, na, k, seed)


def test_everyone_starting_on_goals_is_a_one_state_trace():
    inst = Instance(
        name="MP52-0",
        grid=GridConfig(5, 2),
        starts=(Position(1, 1), Position(3, 3)),
        goals=(Position(1, 1), Position(3, 3)),
    )
    trace = run_episode(episode_config(5, 2, 15), inst)
    assert len(trace.states) == 1
    assert trace.success_rate == 1.0
    assert trace.makespan == 0
    assert trace.plan_seconds == ()


def test_episode_rejects_mismatched_instance():
    inst = _instance(5, 2)
    with pytest.raises(ValueError):
        run_episode(episode_config(4, 2, 12), inst)


def test_zero_horizon_never_plans():
    inst = _instance(5, 2)
    trace = run_episode(episode_config(5, 2, 0), inst)
    assert len(trace.states) == 1
    assert trace.makespan == 0
    assert trace.success_rate == success_rate(trace.states[0])


def test_trace_accounting_and_invariants():
    inst = _instance(5, 2, k=3)
    cfg = episode_config(5, 2, 15, iterations=250, seed=42)
    trace = run_episode(cfg, inst)
    assert trace.states[0].t == 0
    assert [s.t for s in trace.states] == list(range(len(trace.states)))
    assert len(trace.plan_seconds) == len(trace.states) - 1
    assert all(len(row) == 2 for row in trace.plan_seconds)
    assert trace.makespan <= 15
    rates = [success_rate(s) for s in trace.states]
    assert rates == sorted(rates)
    if trace.success_rate == 1.0:
        assert trace.makespan == trace.states[-1].t
        assert all(trace.states[-1].captured)


def test_captured_agents_cost_no_planning_time():
    # drive an episode to completion, then look for zero rows
    inst = _instance(5, 2, k=3)
    trace = run_episode(episode_config(5, 2, 15, iterations=250, seed=42), inst)
    for row, state in zip(trace.plan_seconds, trace.states):
        for a in range(2):
            if state.captured[a]:
                assert row[a] == 0.0


def test_same_seed_same_trace_different_seed_probably_not():
    inst = _instance(5, 2, k=5)
    t1 = run_episode(episode_config(5, 2, 15, seed=1), inst)
    t2 = run_episode(episode_config(5, 2, 15, seed=1), inst)
    assert t1.states == t2.states
    outcomes = {
        run_episode(episode_config(5, 2, 15, seed=s), inst).states
        for s in range(4)
    }
    assert len(outcomes) > 1  # seeds actually steer the runs
