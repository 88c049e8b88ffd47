"""Board mechanics: moves, captures, state invariants."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmcts.grid import (
    CARDINAL_MOVES,
    GridConfig,
    Move,
    Position,
    WorldState,
    apply_move,
    cell_tables,
    goal_walled_distances,
    initial_state,
    is_terminal,
    legal_moves,
    manhattan,
    move_dest,
    success_rate,
)

# ---------------------------------------------------------------- helpers


def make_state(n, starts, goals, t=0):
    starts = tuple(Position(*p) for p in starts)
    return WorldState(n, t, starts, frozenset(Position(*p) for p in goals))


@st.composite
def random_states(draw):
    n = draw(st.integers(2, 6))
    n_agents = draw(st.integers(1, min(4, n * n // 2)))
    cells = [Position(r, c) for r in range(n) for c in range(n)]
    picked = draw(st.permutations(cells))[: 2 * n_agents]
    starts, goals = picked[:n_agents], picked[n_agents:]
    return initial_state(GridConfig(n, n_agents), starts, goals)


# ------------------------------------------------------------- primitives


def test_move_order_is_canonical():
    assert [m.name for m in Move] == ["UP", "DOWN", "LEFT", "RIGHT", "STAY"]
    assert list(Move) == sorted(Move)


def test_move_dest_deltas():
    p = Position(3, 3)
    assert move_dest(p, Move.UP) == (2, 3)
    assert move_dest(p, Move.DOWN) == (4, 3)
    assert move_dest(p, Move.LEFT) == (3, 2)
    assert move_dest(p, Move.RIGHT) == (3, 4)
    assert move_dest(p, Move.STAY) == p


def test_manhattan():
    assert manhattan(Position(0, 0), Position(0, 0)) == 0
    assert manhattan(Position(0, 0), Position(2, 2)) == 4
    assert manhattan(Position(1, 3), Position(4, 1)) == 5
    assert manhattan(Position(4, 1), Position(1, 3)) == 5


@given(st.integers(0, 9), st.integers(0, 9), st.sampled_from(list(Move)))
def test_moves_displace_by_at_most_one(r, c, mv):
    d = manhattan(Position(r, c), move_dest(Position(r, c), mv))
    assert d == (0 if mv is Move.STAY else 1)


# ------------------------------------------------------------- GridConfig


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=1, n_agents=1),
        dict(n=5, n_agents=0),
        dict(n=2, n_agents=3),  # 6 cells needed, 4 available
        dict(n=3, n_agents=5),  # 10 cells needed, 9 available: one short
    ],
)
def test_grid_config_rejects_bad_shapes(kwargs):
    with pytest.raises(ValueError):
        GridConfig(**kwargs)


@pytest.mark.parametrize("field, args, bad", [
    # unchecked, a float size would fail only inside the seed mixer, and
    # a bool count in the instance name's int() parse
    ("n", (5.0, 2), 5.0),
    ("n", (True, 1), True),
    ("n_agents", (5, 2.0), 2.0),
    ("n_agents", (3, True), True),
], ids=["n-float", "n-bool", "n_agents-float", "n_agents-bool"])
def test_grid_config_rejects_a_size_that_is_not_an_int(field, args, bad):
    with pytest.raises(TypeError, match=f"^{field} must be an int, got {bad!r}$"):
        GridConfig(*args)


# ------------------------------------------------------------- WorldState


def test_state_rejects_negative_time():
    with pytest.raises(ValueError):
        make_state(5, [(0, 0)], [(2, 2)], t=-1)


def test_state_rejects_out_of_bounds():
    with pytest.raises(ValueError):
        make_state(3, [(0, 3)], [(2, 2)])
    with pytest.raises(ValueError):
        make_state(3, [(0, 0)], [(3, 1)])


def test_state_rejects_two_captured_on_one_goal():
    with pytest.raises(ValueError):
        WorldState(
            4, 0,
            (Position(1, 1), Position(1, 1)),
            frozenset({Position(1, 1), Position(2, 2)}),
        )


def test_initial_state_captures_agents_starting_on_goals():
    s = make_state(5, [(2, 2), (0, 0)], [(2, 2), (4, 4)])
    assert s.captured == (True, False)
    assert s.t == 0


def test_initial_state_rejects_duplicate_starts():
    with pytest.raises(ValueError):
        initial_state(GridConfig(5, 2), [(0, 0), (0, 0)], [(1, 1), (2, 2)])


# ------------------------------------------------------------ legal_moves


def test_corner_agent_has_three_options():
    s = make_state(5, [(0, 0)], [(4, 4)])
    assert set(legal_moves(s, 0)) == {Move.STAY, Move.DOWN, Move.RIGHT}
    assert len(legal_moves(s, 0)) == 3


def test_interior_agent_has_all_five():
    s = make_state(5, [(2, 2)], [(4, 4)])
    assert legal_moves(s, 0) == (Move.UP, Move.DOWN, Move.LEFT, Move.RIGHT, Move.STAY)


def test_captured_agent_only_stays():
    s = make_state(5, [(2, 2), (0, 0)], [(2, 2), (4, 4)])
    assert legal_moves(s, 0) == (Move.STAY,)


def test_locked_goal_cell_is_impassable():
    # agent 0 is captured at (2,2); agent 1 stands right of it
    s = make_state(5, [(2, 2), (2, 3)], [(2, 2), (4, 4)])
    assert Move.LEFT not in legal_moves(s, 1)
    assert Move.UP in legal_moves(s, 1)


def test_live_agent_cell_is_enterable_at_proposal_time():
    s = make_state(5, [(2, 2), (2, 3)], [(0, 0), (4, 4)])
    assert Move.LEFT in legal_moves(s, 1)


def test_free_goal_cell_is_enterable():
    s = make_state(5, [(2, 3)], [(2, 2)])
    assert Move.LEFT in legal_moves(s, 0)


def test_legal_moves_rejects_bad_agent_id():
    s = make_state(5, [(2, 2)], [(4, 4)])
    with pytest.raises(IndexError):
        legal_moves(s, 1)


@given(random_states())
def test_legal_moves_canonical_order_and_stay(s):
    for a in range(s.n_agents):
        ms = legal_moves(s, a)
        assert ms[-1] is Move.STAY or ms == (Move.STAY,)
        assert list(ms) == sorted(ms)


# ------------------------------------------------------------ cell_tables


@pytest.mark.parametrize("n", range(2, 8))
def test_cell_tables_match_the_public_moves(n):
    # the per-cell table the tree search and the exact oracle step from
    moves, dests_at, draws_at = cell_tables(n)
    assert len(moves) == len(dests_at) == len(draws_at) == n * n
    for cell in range(n * n):
        here = Position(*divmod(cell, n))
        # a lone live agent: its free goal elsewhere locks nothing
        goal = Position(*divmod((cell + 1) % (n * n), n))
        assert moves[cell] == legal_moves(make_state(n, [here], [goal]), 0)
        dests = tuple(
            q.row * n + q.col for q in (move_dest(here, m) for m in moves[cell])
        )
        assert dests[-1] == cell
        draws = tuple(dests[r % len(dests)] for r in range(60)) + (n * n,) * 4
        assert dests_at[cell] == dests
        assert draws_at[cell] == draws


@pytest.mark.parametrize("n", range(2, 7))
def test_draw_table_fills_sixty_entries_evenly_and_four_with_the_sentinel(n):
    # a six-bit draw r < 60 must land on every destination equally often,
    # and r >= 60 on the sentinel, one past the last cell
    _, dests_at, draws_at = cell_tables(n)
    for dests, draws in zip(dests_at, draws_at, strict=True):
        assert len(draws) == 64
        assert len(dests) in (3, 4, 5)
        assert all(draws[:60].count(q) == 60 // len(dests) for q in dests)
        assert set(draws[:60]) == set(dests)
        assert draws[60:] == (n * n,) * 4


# ------------------------------------------------------------- apply_move


def test_apply_move_single_entry_delta():
    s = make_state(5, [(1, 1), (3, 3)], [(4, 4), (4, 0)])
    s2 = apply_move(s, 0, Move.RIGHT)
    assert s2.agent_pos == (Position(1, 2), Position(3, 3))
    assert s2.t == s.t
    assert s2.goals == s.goals
    assert s2.captured == s.captured


def test_apply_stay_changes_nothing():
    s = make_state(5, [(1, 1)], [(4, 4)])
    assert apply_move(s, 0, Move.STAY) == s


def test_apply_move_captures_on_goal_entry():
    s = make_state(5, [(2, 1)], [(2, 2)])
    s2 = apply_move(s, 0, Move.RIGHT)
    assert s2.agent_pos[0] == (2, 2)
    assert s2.captured == (True,)


def test_apply_move_rejects_illegal():
    s = make_state(5, [(0, 0)], [(4, 4)])
    with pytest.raises(ValueError):
        apply_move(s, 0, Move.UP)


@given(random_states(), st.data())
@settings(max_examples=200)
def test_apply_move_keeps_invariants(s, data):
    # walk a few random legal single-agent moves; construction of each
    # WorldState revalidates every invariant
    for _ in range(6):
        live = [a for a in range(s.n_agents) if not s.captured[a]]
        if not live:
            break
        a = data.draw(st.sampled_from(live))
        mv = data.draw(st.sampled_from(list(legal_moves(s, a))))
        s2 = apply_move(s, a, mv)
        for b in range(s.n_agents):
            if b != a:
                assert s2.agent_pos[b] == s.agent_pos[b]
                assert s2.captured[b] == s.captured[b]
        assert manhattan(s.agent_pos[a], s2.agent_pos[a]) <= 1
        assert s.captured[a] <= s2.captured[a]  # absorption
        s = s2


# ------------------------------------------------------ terminal & rates


def test_success_rate_fractions():
    s = make_state(5, [(0, 0), (1, 1), (2, 2), (3, 3)], [(2, 2), (3, 3), (4, 4), (4, 0)])
    assert s.captured == (False, False, True, True)
    assert success_rate(s) == 0.5
    s0 = make_state(5, [(0, 0)], [(4, 4)])
    assert success_rate(s0) == 0.0


def test_is_terminal_cases():
    done = make_state(5, [(2, 2)], [(2, 2)], t=3)
    assert is_terminal(done, 15)
    out_of_time = make_state(5, [(0, 0)], [(4, 4)], t=15)
    assert is_terminal(out_of_time, 15)
    running = make_state(5, [(0, 0), (2, 2)], [(2, 2), (4, 4)], t=3)
    assert success_rate(running) == 0.5
    assert not is_terminal(running, 15)


# ---------------------------------------------------- goal_walled_distances


def test_goal_walled_distances_route_around_other_goals():
    # 3x3, target (0,2); the goals (0,1) and (1,1) force the long way
    # round through the bottom row and cannot be passed themselves
    goals = [Position(0, 2), Position(0, 1), Position(1, 1)]
    d = goal_walled_distances(3, goals, Position(0, 2))
    assert d[Position(0, 2)] == 0
    assert d[Position(1, 2)] == 1
    assert d[Position(0, 0)] == 6  # Manhattan would say 2
    assert Position(0, 1) not in d and Position(1, 1) not in d


def test_goal_walled_distances_unreachable_target():
    goals = [Position(0, 0), Position(0, 1), Position(1, 0)]
    assert goal_walled_distances(3, goals, Position(0, 0)) == {Position(0, 0): 0}
