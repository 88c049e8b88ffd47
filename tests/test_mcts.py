"""Tree search engine: structure, selection, rollouts, equivalence."""
import dataclasses
import functools
import gc
import math
import os
import subprocess
import sys
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmcts.coordinator import EpisodeConfig, merge_states, run_episode
from gridmcts.grid import (
    GridConfig,
    Move,
    Position,
    WorldState,
    cell_tables,
    initial_state,
    legal_moves,
    move_dest,
)
from gridmcts.mcts import (
    DEFAULT_EXPLORATION_C,
    SearchBudget,
    SearchNode,
    SearchRoot,
    _goal_tables,
    _turns,
    _turns_source,
    backpropagate,
    best_action,
    expand,
    make_root,
    plan_move,
    rollout,
    select,
)
from gridmcts.values import (
    NodeStats,
    UpdateRule,
    ValueParams,
    depth_adjusted,
    distance_adjusted,
    distance_cap,
    update_value,
    value_mod,
)

from gridmcts.scenarios import generate_instance

import reference
from reference import (
    compare_trees,
    ref_goal_distances,
    ref_node_at,
    ref_plan_move,
    ref_plan_tree,
    ref_rollout,
    RefTree,
    RefNode,
)


def mk(n, starts, goals, t=0):
    starts = tuple(Position(*p) for p in starts)
    return WorldState(n, t, starts, frozenset(Position(*p) for p in goals))


def params_for(state, t_final, alpha=0.5, rule=UpdateRule.MEAN):
    return ValueParams(alpha, rule, state.n_agents, t_final)


def exhaust(root, depth):
    """Grow the whole tree `depth` levels deep; returns, by level, the
    root-to-node path that stands at each position of that level. A leaf
    whose Stay-only level was counted stands one level deeper on the same
    path."""
    levels = [[[root]]]
    for _ in range(depth):
        nxt = []
        for path in levels[-1]:
            try:
                first = expand(path)
            except ValueError:
                continue  # terminal leaf
            if first is path[-1]:
                nxt.append(path)
            else:
                nxt.extend(path + [ch] for ch in path[-1].children)
        levels.append(nxt)
    return levels


def grow_by_public_steps(root, budget, rng):
    """The search loop spelled with the public step functions only.

    A terminal leaf shows itself by expand refusing it; the sample is
    then rolled out from the leaf itself, as in plan_move. Only a new node
    joins the path: a Stay-only level counted on the leaf leaves the path
    as it is, and the rollout starts below that level.
    """
    for _ in range(budget.iterations):
        path = select(root, budget.exploration_c)
        try:
            first = expand(path)
            if first is not path[-1]:
                path.append(first)
        except ValueError as e:
            assert "terminal" in str(e), e
        backpropagate(path, rollout(path, rng), root.params.update_rule)


# ------------------------------------------------------------ SearchBudget


def test_budget_validation():
    SearchBudget(1, 0)
    with pytest.raises(ValueError):
        SearchBudget(0, 10)
    with pytest.raises(ValueError):
        SearchBudget(5, -1)
    with pytest.raises(ValueError):
        SearchBudget(5, 10, -0.1)
    for c in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="exploration_c"):
            SearchBudget(5, 10, c)
    assert SearchBudget(5, 10).exploration_c == DEFAULT_EXPLORATION_C


@pytest.mark.parametrize("field, args, bad", [
    # a float count used to fail only inside the search loop, a bool
    # planned one iteration, and a float horizon passed plan_move's
    # agreement check (12.0 == 12) before failing in the playout
    ("iterations", (2.5, 12), 2.5),
    ("iterations", (True, 12), True),
    ("t_final", (5, 12.0), 12.0),
    ("t_final", (5, False), False),
], ids=["iterations-float", "iterations-bool", "t_final-float", "t_final-bool"])
def test_budget_rejects_a_count_that_is_not_an_int(field, args, bad):
    with pytest.raises(TypeError, match=f"^{field} must be an int, got {bad!r}$"):
        SearchBudget(*args)


@pytest.mark.parametrize("bad", [True, False])
def test_budget_rejects_a_bool_exploration_c(bad):
    # math.isfinite(True) holds, so the range check alone let both through
    with pytest.raises(TypeError, match=f"^exploration_c must be a number, got {bad!r}$"):
        SearchBudget(5, 10, bad)


# --------------------------------------------------------------- make_root


def test_root_turn_order_planner_first():
    s = mk(5, [(0, 0), (1, 1), (2, 3)], [(4, 4), (4, 3), (4, 2)])
    root = make_root(s, 1, params_for(s, 15))
    assert root.order == (1, 0, 2)
    assert not root.expanded
    # the levels below the root enumerate the agents in that order
    path = [root]
    for agent in (1, 0, 2, 1):
        expand(path)
        assert {c.agent for c in path[-1].children} == {agent}
        path.append(path[-1].children[0])


def test_root_validation():
    s = mk(5, [(0, 0)], [(4, 4)])
    with pytest.raises(IndexError):
        make_root(s, 1, params_for(s, 15))
    with pytest.raises(ValueError):
        make_root(s, 0, ValueParams(0.5, UpdateRule.MEAN, 2, 15))


def test_root_board_locks_exactly_the_captured_goals():
    # states reached by random legal joint steps, some with agents that
    # start on a goal: the board locks the goals its agents stand on and
    # counts them, with no per-agent flag to disagree
    meta = Random(9004)
    for _ in range(40):
        n = meta.choice([3, 4, 5, 6])
        na = meta.randint(1, min(5, n * n // 2))
        cells = [Position(r, c) for r in range(n) for c in range(n)]
        meta.shuffle(cells)
        s = initial_state(GridConfig(n, na), cells[:na], meta.sample(cells[:2 * na], na))
        for _ in range(meta.randrange(1, 6)):
            root = make_root(s, 0, params_for(s, 3 * n))
            locked = {Position(*divmod(c, n)) for c in range(n * n) if root.cap_at[c]}
            assert locked == s.captured_cells()
            assert root.n_captured == sum(s.captured)
            s = merge_states(s, [meta.choice(legal_moves(s, a)) for a in range(na)])


# ------------------------------------------------------------------ expand


def test_expand_one_child_per_legal_move():
    s = mk(5, [(2, 2)], [(4, 4)])
    root = make_root(s, 0, params_for(s, 15))
    first = expand([root])
    assert root.expanded
    assert [c.move for c in root.children] == list(legal_moves(s, 0))
    assert first is root.children[0]
    assert first.move is Move.UP


def test_expand_corner_gives_three_children():
    s = mk(5, [(0, 0)], [(4, 4)])
    root = make_root(s, 0, params_for(s, 15))
    expand([root])
    assert len(root.children) == 3
    assert [c.move for c in root.children] == [Move.DOWN, Move.RIGHT, Move.STAY]


def test_expand_counts_a_captured_actors_level_without_a_node():
    s = mk(5, [(0, 0), (2, 2)], [(2, 2), (4, 4)])
    root = make_root(s, 0, params_for(s, 15))
    expand([root])  # planner acts first, it is live
    kid = root.children[0]
    kid.visits = 3
    # captured agent's turn: no node, the level is counted on kid
    assert expand([root, kid]) is kid
    assert kid.children is None
    assert (kid.stays, kid.stay_visits) == (1, 3)
    # the next level is the planner's own again, one level deeper
    first = expand([root, kid])
    assert first is kid.children[0] and first.agent == 0
    assert (kid.stays, kid.stay_visits) == (1, 3)


def test_turn_wrap_increments_sim_time_exactly_once():
    # two turns left for two agents: the clock reaches the horizon at
    # depth 4, after two wraps, and not one level earlier or later
    s = mk(5, [(0, 0), (1, 1)], [(4, 4), (3, 3)], t=2)
    root = make_root(s, 0, params_for(s, 4))
    path = [root]
    for _ in range(s.n_agents * 2):
        path.append(expand(path))
    with pytest.raises(ValueError, match="terminal"):
        expand(path)


def test_expand_rejects_double_expansion():
    s = mk(5, [(2, 2)], [(4, 4)])
    root = make_root(s, 0, params_for(s, 15))
    expand([root])
    with pytest.raises(ValueError, match="already expanded"):
        expand([root])


def test_expand_rejects_terminal_nodes():
    done = mk(5, [(4, 4), (3, 3)], [(4, 4), (3, 3)])
    root = make_root(done, 0, params_for(done, 15))
    with pytest.raises(ValueError, match="terminal"):
        expand([root])
    out_of_time = mk(5, [(0, 0)], [(4, 4)], t=15)
    root2 = make_root(out_of_time, 0, params_for(out_of_time, 15))
    with pytest.raises(ValueError, match="terminal"):
        expand([root2])


def test_expand_and_rollout_reject_a_path_not_headed_by_a_root():
    s = mk(5, [(2, 2), (0, 0)], [(4, 4), (0, 4)])
    root = make_root(s, 0, params_for(s, 15))
    kid = expand([root])
    for bad in ([], [kid], [SearchNode(0, Move.STAY, 12)]):
        with pytest.raises(ValueError, match="make_root"):
            expand(bad)
        rng = Random(0)
        with pytest.raises(ValueError, match="make_root"):
            rollout(bad, rng)
        assert rng.getstate() == Random(0).getstate()
    assert kid.children is None


def test_expand_and_rollout_reject_a_path_that_is_not_a_chain_of_children():
    s = mk(5, [(2, 2), (0, 0)], [(4, 4), (0, 4)])
    root = make_root(s, 0, params_for(s, 15))
    other = make_root(s, 0, params_for(s, 15))
    a = expand([root])
    b = expand([root, a])
    o = expand([other])
    broken = (
        [root, b],  # skips a level
        [root, o],  # a child of another root
        [other, a],
        [root, root.children[1], b],  # b's parent is a, not its sibling
        [root, a, a],
        [root, a, root],
    )
    for path in broken:
        with pytest.raises(ValueError, match="not a child"):
            expand(path)
        with pytest.raises(ValueError, match="not a child"):
            rollout(path, Random(0))
    assert root.children[1].children is None and b.children is None


def test_turn_completeness_along_paths():
    """Every simulated time step spans each agent exactly once, planner
    first: each level of a turn is a node of its own agent or, when that
    agent stands on a goal, a Stay-only level counted on the node above."""
    s = mk(4, [(0, 0), (1, 1), (2, 2)], [(3, 3), (3, 2), (3, 1)])
    root = make_root(s, 2, params_for(s, 12))
    levels = exhaust(root, 7)
    turn = (2, 0, 1)
    counted = 0
    # walk a spread of root-to-leaf paths
    for leaf_path in levels[-1][::97]:
        pos = list(s.agent_pos)
        level = 0
        for nd in leaf_path:
            if nd is not root:
                assert nd.agent == turn[level % 3]
                pos[nd.agent] = Position(*divmod(nd.dest, s.n))
                level += 1
            for _ in range(nd.stays):
                assert pos[turn[level % 3]] in s.goals
                level += 1
                counted += 1
        assert level == 7
    assert counted > 0


def test_depth_bound_is_population_times_horizon():
    s = mk(3, [(0, 0), (2, 2)], [(0, 2), (2, 0)], t=0)
    t_final = 2
    root = make_root(s, 0, params_for(s, t_final))
    levels = exhaust(root, 10)
    deepest = max(i for i, lv in enumerate(levels) if lv)
    assert deepest == s.n_agents * (t_final - s.t)


def test_no_duplicate_states_within_one_round_window():
    """Distinct equal-depth paths stay distinct for n_agents+1 levels.

    The fixed turn order delays transpositions: two paths that diverge
    can only reconverge once the diverging agent moves again, a full
    round later. Verified exhaustively on a small tree, plus a witness
    that duplicates do appear right after the window closes.
    """
    s = mk(3, [(0, 0), (2, 2)], [(0, 2), (2, 0)])
    n_agents = 2
    root = make_root(s, 0, params_for(s, 9))
    levels = exhaust(root, n_agents + 1)

    def realize(path):
        pos = {a: p.row * s.n + p.col for a, p in enumerate(s.agent_pos)}
        for nd in path[1:]:
            pos[nd.agent] = nd.dest
        return tuple(sorted(pos.items()))

    for depth in range(1, n_agents + 1):
        seen = {}
        for path in levels[depth]:
            key = realize(path)
            assert key not in seen, f"duplicate at depth {depth}"
            seen[key] = path
    # tightness: one round plus one level is exactly where stay/undo
    # cycles close, so duplicates must exist there
    final = [realize(path) for path in levels[n_agents + 1]]
    assert len(set(final)) < len(final)


# ------------------------------------------------------------------ select


def test_select_unexpanded_root_is_single_node_path():
    s = mk(5, [(2, 2)], [(4, 4)])
    root = make_root(s, 0, params_for(s, 15))
    assert select(root) == [root]


def test_select_prefers_unvisited_children():
    s = mk(5, [(2, 2)], [(4, 4)])
    root = make_root(s, 0, params_for(s, 15))
    expand([root])
    backpropagate([root, root.children[0]], 0.9, UpdateRule.MEAN)
    path = select(root, 1.0)
    assert path == [root, root.children[1]]  # first unvisited wins


def test_select_exploits_at_zero_c():
    s = mk(5, [(2, 2)], [(4, 4)])
    root = make_root(s, 0, params_for(s, 15))
    expand([root])
    vals = [0.2, 0.8, 0.3, 0.1, 0.4]
    for child, v in zip(root.children, vals):
        child.value, child.visits = v, 1
    root.visits = 5
    path = select(root, 0.0)
    assert path[1] is root.children[1]  # the 0.8 child


def test_select_matches_manual_uct():
    s = mk(5, [(2, 2)], [(4, 4)])
    root = make_root(s, 0, params_for(s, 15))
    expand([root])
    visits = [3, 1, 2, 5, 4]
    vals = [0.52, 0.61, 0.47, 0.55, 0.50]
    for child, v, k in zip(root.children, vals, visits):
        child.value, child.visits = v, k
    root.visits = sum(visits)
    c = 0.9
    scores = [
        v + c * math.sqrt(math.log(root.visits) / k)
        for v, k in zip(vals, visits)
    ]
    want = root.children[scores.index(max(scores))]
    assert select(root, c)[1] is want


def test_select_takes_the_first_unvisited_child_past_a_better_score():
    s = mk(5, [(2, 2)], [(4, 4)])
    root = make_root(s, 0, params_for(s, 15))
    expand([root])
    # scored among the visited children alone, child 1 would win
    for child, v, k in zip(root.children, [0.1, 0.9, 0.5, 0.5, 0.5], [4, 2, 0, 0, 0]):
        child.value, child.visits = v, k
    root.visits = 6
    assert select(root, 1.0) == [root, root.children[2]]


def _boxed_scenario():
    """Agent 0 boxed in at (0,0) of a 3x3 board for good: agents 1 and 2
    hold the goals beside it, so each of its levels is a lone Stay child;
    agent 3 is live."""
    s = mk(3, [(0, 0), (0, 1), (1, 0), (1, 1)], [(0, 1), (1, 0), (2, 0), (2, 2)])
    return s, ValueParams(0.5, UpdateRule.MEAN, 4, 9)


def test_select_walks_lone_children_and_unvisited_tails_without_scoring(monkeypatch):
    import gridmcts.mcts as M

    # the planner, agent 0, is boxed in, so the root has a lone Stay
    # child; the levels of agents 1 and 2 are counted on that child, and
    # agent 3 then has three moves
    s, p = _boxed_scenario()
    root = make_root(s, 0, p)
    a = expand([root])
    assert expand([root, a]) is a and expand([root, a]) is a
    expand([root, a])
    assert [c.move for c in root.children] == [Move.STAY]
    assert a.stays == 2 and [c.agent for c in a.children] == [3, 3, 3]
    for nd in (root, a, a.children[0]):
        nd.value, nd.visits = 0.5, 6

    def boom(*_):
        raise AssertionError("select scored a node where the rule has no choice")

    monkeypatch.setattr(M.math, "log", boom)
    monkeypatch.setattr(M.math, "sqrt", boom)
    assert select(root) == [root, a, a.children[1]]
    monkeypatch.undo()
    # once every child of a is visited, a is scored
    for child, v in zip(a.children, [0.1, 0.9, 0.3]):
        child.value, child.visits = v, 6
    a.visits = 18
    assert select(root, 0.0) == [root, a, a.children[1]]


def test_select_counts_the_parent_from_the_last_stay_level():
    # a node whose live level lies below counted Stay-only levels scores
    # its children with the visits of the last of them, visits -
    # stay_visits, not its own: here 11 of its 1000 visits. The two
    # counts pick different children at this c
    s = mk(5, [(2, 2)], [(4, 4)])
    root = make_root(s, 0, params_for(s, 15))
    expand([root])
    for child, v, k in zip(root.children, [0.5, 0.6, 0.1, 0.1, 0.1], [1, 10, 0, 0, 0]):
        child.value, child.visits = v, k
    root.children[2:] = []
    c = 0.075
    root.visits, root.stay_visits = 1000, 989
    assert select(root, c)[1] is root.children[1]
    root.stay_visits = 0
    assert select(root, c)[1] is root.children[0]


def _uct_child(node, c):
    """The UCT rule spelled out plainly: score every child, an unvisited
    one infinitely, and keep the first maximum. The parent count is the
    visits of the last Stay-only level counted on the node, if any."""
    n = node.visits - node.stay_visits
    lp = math.log(n) if n > 0 else 0.0
    scores = [
        math.inf if ch.visits == 0 else ch.value + c * math.sqrt(lp / ch.visits)
        for ch in node.children
    ]
    return node.children[scores.index(max(scores))]


def test_select_equals_plain_uct_from_every_node_of_grown_trees():
    meta = Random(9005)
    boxed, bp = _boxed_scenario()
    scenarios = [_mixed_scenario(meta) for _ in range(16)] + [
        (boxed, bp, SearchBudget(1, bp.t_final), agent) for agent in (0, 3)
    ]
    # nodes seen with a lone child, an unvisited last child, all visited,
    # and all visited below counted Stay-only levels
    kinds = [0, 0, 0, 0]
    for s, p, b, agent in scenarios:
        b = SearchBudget(meta.choice([64, 300]), b.t_final, b.exploration_c)
        root = make_root(s, agent, p)
        root.run(b, Random(meta.randrange(2**60)))
        stack = [root]
        while stack:
            node = stack.pop()
            if not node.children:
                continue
            stack.extend(node.children)
            # children are first visited in creation order: the unvisited
            # ones come last, which a stable sort on "unvisited" keeps
            visits = [ch.visits for ch in node.children]
            assert visits == sorted(visits, key=lambda v: v == 0)
            kinds[0 if len(visits) == 1 else 1 if visits[-1] == 0
                  else 3 if node.stays else 2] += 1
            path = select(node, b.exploration_c)
            want = [node]
            while want[-1].children:
                want.append(_uct_child(want[-1], b.exploration_c))
            assert path == want
    assert min(kinds) > 100, kinds


def _scored_root(visits, stay_visits):
    """A root whose five children are all visited, so select scores
    them; at c = 1 with a parent count of several hundred or more the
    rarely visited child 2 wins, and with a log term of 0.0 child 0,
    the best value, does."""
    s = mk(5, [(2, 2)], [(4, 4)])
    root = make_root(s, 0, params_for(s, 15))
    expand([root])
    for child, v, k in zip(root.children, [0.9, 0.6, 0.5, 0.4, 0.3],
                           [3000, 100, 20, 400, 900]):
        child.value, child.visits = v, k
    root.visits, root.stay_visits = visits, stay_visits
    return root


def test_select_reads_the_log_table_as_the_closed_form_uct():
    import gridmcts.mcts as M

    # a parent count past the table's end, read through its growth
    nv = len(M._LOGS) + 777
    root = _scored_root(nv, 0)
    assert select(root, 1.0)[1] is _uct_child(root, 1.0) is root.children[2]
    assert len(M._LOGS) == nv + 1
    # a parent count of 0, all visits taken by counted Stay-only levels
    root = _scored_root(4420, 4420)
    assert select(root, 1.0)[1] is _uct_child(root, 1.0) is root.children[0]


def test_log_table_holds_exact_logs_up_to_the_largest_count_read(monkeypatch):
    import gridmcts.mcts as M

    # importing builds nothing: the table starts as [0.0]
    probe = "import gridmcts.mcts as M; print(M._LOGS)"
    src = os.path.dirname(os.path.dirname(M.__file__))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[0.0]"
    monkeypatch.setattr(M, "_LOGS", [0.0])
    select(_scored_root(5003, 0), 1.0)
    assert len(M._LOGS) == 5004
    assert M._LOGS[0] == 0.0
    assert all(M._LOGS[i].hex() == math.log(i).hex() for i in range(1, 5004))


def test_importing_the_engine_generates_no_kernel():
    # a turn kernel is generated on first use, one per mover count, and
    # kept: importing compiles none, and a second call builds nothing
    import gridmcts.mcts as M

    probe = "import gridmcts.mcts as M; print(M._turns.cache_info().currsize)"
    src = os.path.dirname(os.path.dirname(M.__file__))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "0"
    assert _turns(3) is _turns(3)


# ----------------------------------------------------------------- rollout


def test_rollout_deterministic_under_fixed_seed():
    s = mk(5, [(0, 0), (3, 1)], [(4, 4), (1, 3)])
    root = make_root(s, 0, params_for(s, 15))
    a = rollout([root], Random(99))
    b = rollout([root], Random(99))
    assert a == b
    assert root.stats == NodeStats(0.0, 0)  # tree untouched


def test_rollout_on_all_captured_node_is_closed_form():
    s = mk(5, [(2, 2), (3, 3)], [(2, 2), (3, 3)], t=4)
    p = params_for(s, 15)
    root = make_root(s, 0, p)
    got = rollout([root], Random(0))
    assert got == depth_adjusted(value_mod(2, True, p), 4, p)


def test_rollout_mark_is_planners_own_capture():
    # planner 1 is captured, planner 0 is not: same state, different mark
    s = mk(5, [(0, 0), (3, 3)], [(4, 4), (3, 3)], t=15)
    p = params_for(s, 15)
    v0 = rollout([make_root(s, 0, p)], Random(1))
    v1 = rollout([make_root(s, 1, p)], Random(1))
    # horizon is spent so both rollouts are empty: values differ by the
    # mark penalty alone
    assert v0 == depth_adjusted(value_mod(1, False, p), 15, p)
    assert v1 == depth_adjusted(value_mod(1, True, p), 15, p)


def test_rollout_sample_matches_full_copy_reference():
    meta = Random(2024)
    pairs = 0
    while pairs < 120:
        n = meta.choice([3, 4, 5])
        na = meta.choice([1, 2, 3])
        cells = [Position(r, c) for r in range(n) for c in range(n)]
        meta.shuffle(cells)
        s = initial_state(GridConfig(n, na), cells[:na], cells[na : 2 * na])
        if all(s.captured):
            continue
        p = ValueParams(meta.choice([0.0, 0.5, 1.0]), UpdateRule.MEAN, na, 3 * n)
        root = make_root(s, meta.randrange(na), p)
        seed = meta.randrange(2**60)
        got = rollout([root], Random(seed))
        tree = RefTree(s, root.planning_agent, p)
        want = ref_rollout(tree, tree.root, Random(seed))
        assert got == want
        pairs += 1


def test_a_redraw_from_a_lock_onto_a_free_goal_captures_as_the_reference_does():
    # agent 0 in the middle of a 3x3 board: above it a goal agent 1
    # holds, to its left a free goal. A first draw on the locked goal or
    # on the sentinel is redrawn; a redraw onto the free goal captures,
    # which ends the playout. Seeds for both kinds are found by a scan
    s = mk(3, [(1, 1), (0, 1)], [(0, 1), (1, 0)])
    p = params_for(s, 9)
    root = make_root(s, 0, p)
    # the cell's draw table, which the playout's step table codes
    draws = cell_tables(3)[2][root.pos[0]]
    sentinel = len(root.cap_at) - 1
    free_goal = 1 * 3 + 0
    found = {}
    for seed in range(10_000):
        bits = Random(seed)
        first, second = draws[bits.getrandbits(6)], draws[bits.getrandbits(6)]
        if second == free_goal and root.cap_at[first]:
            found.setdefault(first == sentinel, seed)
        if len(found) == 2:
            break
    assert len(found) == 2, found
    tree = RefTree(s, 0, p)
    for seed in found.values():
        got_rng, want_rng = Random(seed), Random(seed)
        got = rollout([root], got_rng)
        assert got == ref_rollout(tree, tree.root, want_rng)
        assert got_rng.getstate() == want_rng.getstate()
        assert got == depth_adjusted(value_mod(2, True, p), 0, p)
        # two draws and no more
        spent = Random(seed)
        spent.getrandbits(6), spent.getrandbits(6)
        assert got_rng.getstate() == spent.getstate()


def test_accepted_draws_are_uniform_over_the_unlocked_legal_moves():
    # every six-bit value r, read through the mover's draw table and the
    # root board's locks, the sentinel's included: the values the playout
    # accepts must hit each legal move equally often and nothing else
    meta = Random(9010)
    locked_seen = 0
    for _ in range(300):
        n = meta.choice([2, 3, 4, 5, 6])
        na = meta.randint(1, n * n // 2)
        cells = [Position(r, c) for r in range(n) for c in range(n)]
        meta.shuffle(cells)
        goals = cells[:na]
        # some agents start on goals, so some neighbours are locked
        starts = meta.sample(cells[: 2 * na], na)
        s = initial_state(GridConfig(n, na), starts, goals)
        root = make_root(s, 0, params_for(s, 3 * n))
        for a in range(na):
            if s.captured[a]:
                continue
            here = s.agent_pos[a]
            legal = [move_dest(here, mv) for mv in legal_moves(s, a)]
            # the step table stores goals and the sentinel as ~cell
            steps = root.steps[root.pos[a]]
            draws = [~q if q < 0 else q for q in steps]
            coded = {g.row * n + g.col for g in s.goals} | {n * n}
            assert [q < 0 for q in steps] == [q in coded for q in draws]
            accepted = [draws[r] for r in range(64) if not root.cap_at[draws[r]]]
            counts = {q: accepted.count(q) for q in set(accepted)}
            assert set(counts) == {q.row * n + q.col for q in legal}
            assert len(set(counts.values())) == 1
            locked_seen += len(legal) < len(set(draws[:60]))
    assert locked_seen > 300


def test_playout_keeps_its_board_out_of_closure_cells():
    # before CPython 3.12 a comprehension in _playout that read pos or
    # goal_at would make them closure cells, and every read of them in
    # the playout loop would go through an extra indirection
    assert SearchRoot._playout.__code__.co_cellvars == ()
    # the same holds for select's locals, which is why the log table
    # grows in a helper and not in a generator expression inside select
    assert select.__code__.co_cellvars == ()
    # and for the other steps of every iteration: _grow builds its
    # children with a plain loop for this reason
    for step in (SearchRoot._grow, SearchRoot._realize, SearchRoot._reset, SearchRoot.run):
        assert step.__code__.co_cellvars == (), step.__name__
    # the generated turn kernels keep their movers' cells in plain locals
    # and close over nothing
    for m in (1, 2, 7):
        code = _turns(m).__code__
        assert code.co_cellvars == code.co_freevars == (), m


def test_root_board_is_plain_lists_of_ints():
    # CPython specializes list subscripts and not bytearray ones: a board
    # of bytearrays keeps every decision but slows every playout step, so
    # no fingerprint can see it. Snapshot and reset must keep the lists
    s = mk(5, [(0, 0), (2, 2), (4, 1)], [(4, 4), (2, 2), (0, 3)])
    root = make_root(s, 0, params_for(s, 15))
    boards = (root.pos, root.goal_at, root.cap_at)
    # goal_at flags the goal cells and no more: the sentinel past the
    # last cell is locked in cap_at and coded in the step tables
    built = root.goal_at[:]
    assert len(built) == 5 * 5 and sum(built) == 3
    # the snapshot keeps the agent cells and the goals free at the root,
    # the only cells a step can lock; goal (2, 2), held by agent 1, and
    # the sentinel are locked here and must stay locked
    locked = root.cap_at[:]
    assert [c for c in range(5 * 5 + 1) if locked[c]] == [2 * 5 + 2, 5 * 5]
    assert root.snapshot[:2] == ([0, 12, 21], [3, 24])
    root.run(SearchBudget(50, 15), Random(1))
    assert (root.pos, root.goal_at, root.cap_at) == boards
    assert all(now is then for now, then in zip((root.pos, root.goal_at, root.cap_at), boards))
    assert root.goal_at == built
    assert root.cap_at == locked
    for board in (root.pos, root.goal_at, root.cap_at, *root.snapshot[:2]):
        assert type(board) is list
        assert {type(v) for v in board} == {int}


# ----------------------------------------------------------- backpropagate


def test_backpropagate_single_node_path():
    s = mk(5, [(2, 2)], [(4, 4)])
    root = make_root(s, 0, params_for(s, 15))
    backpropagate([root], 0.7, UpdateRule.MEAN)
    assert root.stats == NodeStats(0.7, 1)


def test_backpropagate_bitwise_equals_update_value():
    rng = Random(5)
    for rule in UpdateRule:
        s = mk(5, [(2, 2)], [(4, 4)])
        root = make_root(s, 0, params_for(s, 15, rule=rule))
        expand([root])
        node = root.children[0]
        mirror_root = NodeStats(0.0, 0)
        mirror_node = NodeStats(0.0, 0)
        for _ in range(500):
            sample = rng.uniform(-0.25, 1.2)
            backpropagate([root, node], sample, rule)
            mirror_root = update_value(mirror_root, sample, rule)
            mirror_node = update_value(mirror_node, sample, rule)
            assert root.stats == mirror_root  # == is exact on floats
            assert node.stats == mirror_node


def test_max_update_never_decreases_along_path():
    s = mk(5, [(2, 2)], [(4, 4)])
    root = make_root(s, 0, params_for(s, 15, rule=UpdateRule.MAX))
    rng = Random(3)
    prev = -math.inf
    for _ in range(100):
        backpropagate([root], rng.uniform(-1, 1), UpdateRule.MAX)
        assert root.value >= prev
        prev = root.value


# ------------------------------------------------------------- best_action


def test_best_action_single_child():
    # agent 0 is boxed into a corner by agents 1 and 2, captured on the
    # goals right of and below it; agent 3 is live beside them
    s = mk(3, [(0, 0), (0, 1), (1, 0), (1, 1)], [(0, 1), (1, 0), (2, 0), (2, 2)])
    assert s.captured == (False, True, True, False)
    root = make_root(s, 0, ValueParams(0.5, UpdateRule.MEAN, 4, 15))
    expand([root])
    assert [c.move for c in root.children] == [Move.STAY]
    assert best_action(root) is Move.STAY


def test_best_action_requires_expansion():
    s = mk(5, [(2, 2)], [(4, 4)])
    root = make_root(s, 0, params_for(s, 15))
    with pytest.raises(ValueError):
        best_action(root)


def test_best_action_tie_breaks_by_canonical_order():
    s = mk(5, [(2, 2)], [(4, 4)])
    root = make_root(s, 0, params_for(s, 15))
    expand([root])
    for child, v in zip(root.children, [0.3, 0.9, 0.9, 0.1, 0.2]):
        child.value, child.visits = v, 1
    assert best_action(root) is Move.DOWN  # first of the tied pair


# --------------------------------------------------------------- plan_move


def test_plan_move_validations():
    s = mk(5, [(2, 2)], [(4, 4)])
    p = params_for(s, 15)
    with pytest.raises(IndexError):
        plan_move(s, 3, SearchBudget(10, 15), p, Random(0))
    with pytest.raises(ValueError):
        plan_move(s, 0, SearchBudget(10, 12), p, Random(0))
    # a captured planner stays even when the whole board is done...
    done = mk(5, [(4, 4)], [(4, 4)])
    assert plan_move(done, 0, SearchBudget(10, 15), params_for(done, 15), Random(0)) is Move.STAY
    # ...but a live planner with no time left is a caller bug
    stuck = mk(5, [(0, 0)], [(4, 4)], t=15)
    with pytest.raises(ValueError):
        plan_move(stuck, 0, SearchBudget(10, 15), params_for(stuck, 15), Random(0))


def test_plan_move_captured_planner_stays():
    s = mk(5, [(2, 2), (0, 0)], [(2, 2), (4, 4)])
    mv = plan_move(s, 0, SearchBudget(10, 15), params_for(s, 15), Random(0))
    assert mv is Move.STAY


def test_plan_move_single_agent_takes_unique_optimal_move():
    # goal one step right; every alternative strictly lengthens the path,
    # checked exhaustively over first moves
    s = mk(5, [(2, 2)], [(2, 3)])
    from gridmcts.grid import apply_move, manhattan, move_dest

    dists = {
        mv: manhattan(move_dest(s.agent_pos[0], mv), Position(2, 3))
        for mv in legal_moves(s, 0)
    }
    assert min(dists.values()) == 0 and list(dists.values()).count(0) == 1
    for seed in range(5):
        mv = plan_move(s, 0, SearchBudget(50, 15), params_for(s, 15), Random(seed))
        assert mv is Move.RIGHT


def test_plan_move_reproducible():
    s = mk(5, [(0, 0), (3, 1)], [(4, 4), (1, 3)])
    p = params_for(s, 15)
    b = SearchBudget(200, 15)
    moves = {plan_move(s, 0, b, p, Random(42)) for _ in range(3)}
    assert len(moves) == 1


def test_plan_move_and_its_tree_match_the_reference():
    s = mk(4, [(0, 0), (3, 3)], [(2, 2), (1, 1)])
    p = params_for(s, 12)
    b = SearchBudget(150, 12)
    assert plan_move(s, 0, b, p, Random(7)) == ref_plan_move(s, 0, b, p, Random(7))
    root = make_root(s, 0, p)
    root.run(b, Random(7))
    diffs = compare_trees(ref_plan_tree(s, 0, b, p, Random(7)).root, root)
    assert not diffs, diffs[:4]


def test_root_visits_equal_iteration_budget():
    s = mk(5, [(0, 0), (3, 1)], [(4, 4), (1, 3)])
    p = params_for(s, 15)
    budget = SearchBudget(137, 15)
    root = make_root(s, 0, p)
    root.run(budget, Random(11))
    assert root.visits == budget.iterations
    public = make_root(s, 0, p)
    grow_by_public_steps(public, budget, Random(11))
    assert public.visits == budget.iterations


# ------------------------------------------------------------ tree lifetime


def _cyclic_garbage(call):
    """Objects the cyclic collector finds after `call`, run with it off.

    A tree that held a reference cycle would outlive its plan until the
    collector found it; a tree freed by reference count leaves nothing.
    """
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("weight", [0.0, 0.5])
@pytest.mark.parametrize("rule", list(UpdateRule))
def test_plan_move_leaves_no_cyclic_garbage(rule, weight):
    inst = generate_instance(6, 4, 0, 0)
    p = ValueParams(0.5, rule, 4, 18, distance_weight=weight)
    b = SearchBudget(300, 18)
    # with agents 1 and 2 moved onto goals at the root too, whose levels
    # are counted on nodes instead of being nodes
    for starts in (inst.starts, inst.starts[:1] + inst.goals[1:3] + inst.starts[3:]):
        s = WorldState(6, 0, starts, frozenset(inst.goals))
        assert _cyclic_garbage(lambda: plan_move(s, 0, b, p, Random(3))) == 0
    assert s.captured == (False, True, True, False)


def test_episode_leaves_no_cyclic_garbage():
    inst = generate_instance(6, 4, 0, 0)
    assert _cyclic_garbage(lambda: run_episode(_episode(inst), inst)) == 0


def test_a_deep_chain_of_nodes_is_freed_without_error():
    # freeing a tree cascades by reference count, one nested
    # deallocation per level; CPython's trashcan must bound the C stack
    def build_and_drop():
        head = node = SearchNode(0, Move.STAY, 0)
        for _ in range(100_000 - 1):
            node.children = [SearchNode(0, Move.STAY, 0)]
            node = node.children[0]
        del head, node

    assert _cyclic_garbage(build_and_drop) == 0


# ------------------------------------------------------- collector pause


@pytest.fixture
def collector_state():
    """Sets the collector on or off for a test; restores it after."""
    was_enabled = gc.isenabled()

    def set_to(on):
        (gc.enable if on else gc.disable)()

    yield set_to
    set_to(was_enabled)


@pytest.mark.parametrize("enabled", [True, False])
def test_search_leaves_the_collector_as_it_found_it(collector_state, enabled):
    s = mk(5, [(0, 0), (2, 2), (4, 1)], [(4, 4), (2, 2), (0, 3)])
    p = params_for(s, 15)
    b = SearchBudget(200, 15)
    collector_state(enabled)
    plan_move(s, 0, b, p, Random(1))
    assert gc.isenabled() is enabled
    # a captured planner returns before any search
    assert plan_move(s, 1, b, p, Random(1)) is Move.STAY
    assert gc.isenabled() is enabled
    make_root(s, 2, p).run(b, Random(1))
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_a_search_that_raises_still_restores_the_collector(
    monkeypatch, collector_state, enabled
):
    import gridmcts.mcts as M

    def select_failing_late(root, exploration_c):
        if root.visits == 50:
            raise RuntimeError("select failed")
        return select(root, exploration_c)

    monkeypatch.setattr(M, "select", select_failing_late)
    s = mk(5, [(0, 0), (2, 2), (4, 1)], [(4, 4), (2, 2), (0, 3)])
    p = params_for(s, 15)
    b = SearchBudget(200, 15)
    collector_state(enabled)
    with pytest.raises(RuntimeError, match="select failed"):
        plan_move(s, 0, b, p, Random(1))
    assert gc.isenabled() is enabled
    with pytest.raises(RuntimeError, match="select failed"):
        make_root(s, 2, p).run(b, Random(1))
    assert gc.isenabled() is enabled


def test_no_collection_runs_during_a_plan(collector_state):
    # one I=2000 plan on 10x10/10 allocates thousands of nodes, enough for
    # many collections of the youngest generation were the collector on
    # during the search, and for one more if the tree outlived the pause
    inst = generate_instance(10, 10, 0, 0)
    s = WorldState(10, 0, inst.starts, frozenset(inst.goals))
    p = ValueParams(0.5, UpdateRule.MEAN, 10, 30, distance_weight=0.5)
    b = SearchBudget(2000, 30)
    make_root(s, 0, p)  # builds the goal tables, once per goal set
    seen = []

    def hook(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    collector_state(True)
    gc.collect()
    gc.callbacks.append(hook)
    try:
        plan_move(s, 0, b, p, Random(0))
    finally:
        gc.callbacks.remove(hook)
    assert seen == []


# ------------------------------------------------- engine <-> reference


def _random_scenario(meta):
    n = meta.choice([3, 4, 5])
    na = meta.choice([1, 2, 3])
    cells = [Position(r, c) for r in range(n) for c in range(n)]
    meta.shuffle(cells)
    s = initial_state(GridConfig(n, na), cells[:na], cells[na : 2 * na])
    tf = 3 * n
    p = ValueParams(
        meta.choice([0.0, 0.5]),
        meta.choice([UpdateRule.MEAN, UpdateRule.MAX]),
        na,
        tf,
    )
    b = SearchBudget(meta.choice([1, 8, 33, 64]), tf, meta.choice([0.5, 2**0.5]))
    return s, p, b


def test_plan_move_matches_full_copy_reference():
    meta = Random(31337)
    checked = 0
    while checked < 30:
        s, p, b = _random_scenario(meta)
        agent = meta.randrange(s.n_agents)
        if s.captured[agent] or all(s.captured):
            continue
        seed = meta.randrange(2**60)
        assert plan_move(s, agent, b, p, Random(seed)) == \
            ref_plan_move(s, agent, b, p, Random(seed))
        checked += 1


def test_full_tree_statistics_match_reference():
    meta = Random(777)
    checked = 0
    while checked < 12:
        s, p, b = _random_scenario(meta)
        agent = meta.randrange(s.n_agents)
        if s.captured[agent] or all(s.captured):
            continue
        seed = meta.randrange(2**60)
        ref = ref_plan_tree(s, agent, b, p, Random(seed))
        # the session's own iterations: the code plan_move runs
        root = make_root(s, agent, p)
        root.run(b, Random(seed))
        diffs = compare_trees(ref.root, root)
        assert not diffs, diffs[:4]
        # the public step functions build the same tree
        root = make_root(s, agent, p)
        grow_by_public_steps(root, b, Random(seed))
        diffs = compare_trees(ref.root, root)
        assert not diffs, diffs[:4]
        checked += 1


# --------------------------------------------------- goal-distance leaf term


def _with_weight(p, meta):
    return dataclasses.replace(p, distance_weight=meta.choice([0.25, 0.5, 0.9]))


def test_distance_weight_zero_returns_todays_sample():
    # plain samples pinned from the reference twin's ref_rollout at
    # weight 0; the engine's weight 0 must reproduce them bit for bit
    s = mk(5, [(0, 0), (3, 1), (2, 4)], [(4, 4), (1, 3), (0, 2)], t=1)
    p = ValueParams(0.5, UpdateRule.MEAN, 3, 15, distance_weight=0.0)
    want = {
        (0, 1): "0x1.49f49f49f49f4p-1",
        (1, 2): "0x1.f49f49f49f49fp-1",
        (2, 3): "0x1.9f49f49f49f4ap-1",
        (0, 4): "0x1.9f49f49f49f4ap-1",
    }
    for (agent, seed), hx in want.items():
        got = rollout([make_root(s, agent, p)], Random(seed))
        assert got == float.fromhex(hx)
    assert ValueParams(0.5, UpdateRule.MEAN, 3, 15) == p  # 0 is the default


def test_distance_term_subtracts_less_than_one_capture_step():
    meta = Random(4711)
    checked = 0
    while checked < 200:
        s, p0, _ = _random_scenario(meta)
        if all(s.captured):
            continue
        pw = dataclasses.replace(p0, distance_weight=0.99)
        planner = meta.randrange(s.n_agents)
        seed = meta.randrange(2**60)
        plain = rollout([make_root(s, planner, p0)], Random(seed))
        shaped = rollout([make_root(s, planner, pw)], Random(seed))
        # the term draws no randomness: same playout, value shifted
        assert shaped == distance_adjusted(plain, ref_goal_distances(s), s.n, pw)
        assert 0 < plain - shaped < 1 / s.n_agents
        checked += 1
    with pytest.raises(ValueError):
        ValueParams(0.5, UpdateRule.MEAN, 3, 15, distance_weight=1.0)
    with pytest.raises(ValueError):
        ValueParams(0.5, UpdateRule.MEAN, 3, 15, distance_weight=-0.1)


def test_distance_term_vanishes_on_all_captured_node():
    s = mk(5, [(2, 2), (3, 3)], [(2, 2), (3, 3)], t=4)
    p = ValueParams(0.5, UpdateRule.MEAN, 2, 15, distance_weight=0.9)
    got = rollout([make_root(s, 0, p)], Random(0))
    assert got == depth_adjusted(value_mod(2, True, p), 4, p)


def test_distance_term_uses_goal_walled_path_in_mp88_pocket():
    # MP88-1 late in its episode: seven agents hold every goal but (7,6).
    # (6,6) and (7,5) are locked, so (7,6) is entered only from (7,7);
    # with (5,6) a goal too, the last agent at (6,4) is 9 steps away
    # around the top, not Manhattan 3.
    goals = generate_instance(8, 8, 1, 0).goals
    held = [g for g in goals if g != Position(7, 6)]
    s = WorldState(8, 14, tuple(held) + (Position(6, 4),), frozenset(goals))
    p0 = ValueParams(0.0, UpdateRule.MEAN, 8, 24)
    pw = dataclasses.replace(p0, distance_weight=0.5)
    root0, rootw = make_root(s, 7, p0), make_root(s, 7, pw)
    expand([root0])
    expand([rootw])
    walled = {Move.UP: 8, Move.DOWN: 10, Move.LEFT: 10, Move.RIGHT: 8, Move.STAY: 9}
    penalty = {}
    for c0, cw in zip(root0.children, rootw.children):
        plain = rollout([root0, c0], Random(3))
        shaped = rollout([rootw, cw], Random(3))
        assert shaped == distance_adjusted(plain, [walled[cw.move]], 8, pw)
        penalty[cw.move] = plain - shaped
    # stepping down into the dead end costs more than climbing round,
    # the reverse of what Manhattan distance would say
    assert penalty[Move.DOWN] > penalty[Move.STAY] > penalty[Move.UP]
    assert penalty[Move.UP] == penalty[Move.RIGHT]


# -------------------------------- engine <-> reference, distance term on


def test_the_nearest_goal_shortcut_equals_the_nearest_first_scan():
    # a 5x5 board with 4 goals: agent 0 on every non-goal cell in turn,
    # under every set of locked goals, each held by an agent of its own,
    # and the other agents live on the first free non-goal cells. (0, 1)
    # and (1, 0) wall the corner off from the other two goals, so with
    # both locked it reaches no free goal. At the horizon the playout
    # draws nothing and the distance term is all that tells the samples
    # of the two weights apart. With all four goals locked nobody is live
    n = 5
    goals = [Position(0, 1), Position(1, 0), Position(2, 3), Position(4, 4)]
    near = _goal_tables(n, frozenset(goals))[0]
    cap = distance_cap(n)

    def scan(cell, locked_cells):
        for d, g in near[cell]:
            if g not in locked_cells:
                return d
        return cap

    plain_cells = [p for p in (Position(*divmod(c, n)) for c in range(n * n)) if p not in goals]
    seen = set()
    for mask in range(2 ** len(goals) - 1):
        locked = [g for i, g in enumerate(goals) if mask >> i & 1]
        locked_cells = {g.row * n + g.col for g in locked}
        for p in plain_cells:
            others = [q for q in plain_cells if q != p][:len(goals) - 1 - len(locked)]
            s = mk(n, [p, *others, *locked], goals, t=10)
            want = [scan(q.row * n + q.col, locked_cells) for q in (p, *others)]
            assert want == [min(d, cap) for d in ref_goal_distances(s)]
            plain = params_for(s, 10)
            shaped = dataclasses.replace(plain, distance_weight=0.5)
            got = rollout([make_root(s, 0, shaped)], Random(0))
            assert got == distance_adjusted(
                rollout([make_root(s, 0, plain)], Random(0)), want, n, shaped)
            cell = p.row * n + p.col
            seen.add((near[cell][0][1] in locked_cells, want[0] == cap))
    # agent 0's nearest goal free, locked with another free, and none free
    assert seen == {(False, False), (True, False), (True, True)}


def test_shaped_rollout_sample_matches_full_copy_reference():
    meta = Random(2025)
    pairs = 0
    while pairs < 120:
        s, p, _ = _random_scenario(meta)
        if all(s.captured):
            continue
        p = _with_weight(p, meta)
        planner = meta.randrange(s.n_agents)
        root = make_root(s, planner, p)
        tree = RefTree(s, planner, p)
        path = [root]
        # descend a little so the term is read at a node that differs
        # from the root, captures made inside the tree included; a
        # Stay-only level counts as a step down
        for _ in range(meta.choice([0, meta.randrange(1, 2 * s.n_agents + 2)])):
            if path[-1].children is None:
                try:
                    if expand(path) is path[-1]:
                        continue
                except ValueError:
                    break
            path.append(meta.choice(path[-1].children))
        seed = meta.randrange(2**60)
        ref_node = ref_node_at(tree, path)
        assert rollout(path, Random(seed)) == ref_rollout(tree, ref_node, Random(seed))
        pairs += 1


def test_shaped_plan_move_matches_full_copy_reference():
    meta = Random(31338)
    checked = 0
    while checked < 30:
        s, p, b = _random_scenario(meta)
        agent = meta.randrange(s.n_agents)
        if s.captured[agent] or all(s.captured):
            continue
        p = _with_weight(p, meta)
        seed = meta.randrange(2**60)
        assert plan_move(s, agent, b, p, Random(seed)) == \
            ref_plan_move(s, agent, b, p, Random(seed))
        checked += 1


def test_shaped_full_tree_statistics_match_reference():
    meta = Random(778)
    checked = 0
    while checked < 12:
        s, p, b = _random_scenario(meta)
        agent = meta.randrange(s.n_agents)
        if s.captured[agent] or all(s.captured):
            continue
        p = _with_weight(p, meta)
        seed = meta.randrange(2**60)
        ref = ref_plan_tree(s, agent, b, p, Random(seed))
        # the session's own iterations: the code plan_move runs
        root = make_root(s, agent, p)
        root.run(b, Random(seed))
        diffs = compare_trees(ref.root, root)
        assert not diffs, diffs[:4]
        # the public step functions build the same tree
        root = make_root(s, agent, p)
        grow_by_public_steps(root, b, Random(seed))
        diffs = compare_trees(ref.root, root)
        assert not diffs, diffs[:4]
        checked += 1


# ------------------------- engine <-> reference, agents captured at the root


def _captured_scenario(meta):
    """A state in which 1 to n_agents - 1 agents already hold a goal.

    Starts and goals are not disjoint here, unlike _random_scenario, so
    locked goals sit on the root board from the first iteration on.
    """
    n = meta.choice([3, 4, 5])
    na = meta.choice([2, 3, 4])
    cells = [Position(r, c) for r in range(n) for c in range(n)]
    meta.shuffle(cells)
    goals = cells[:na]
    held = meta.randrange(1, na)
    starts = goals[:held] + cells[na : 2 * na - held]
    meta.shuffle(starts)
    tf = 3 * n
    s = WorldState(n, meta.randrange(3), tuple(starts), frozenset(goals))
    p = ValueParams(meta.choice([0.0, 0.5, 1.0]),
                    meta.choice([UpdateRule.MEAN, UpdateRule.MAX]), na, tf)
    b = SearchBudget(meta.choice([8, 33, 64]), tf, meta.choice([0.5, 2**0.5]))
    agent = meta.choice([a for a in range(na) if not s.captured[a]])
    return s, p, b, agent


def _mixed_scenario(meta):
    """_captured_scenario or _random_scenario, one in two each; the
    planning agent of a random one may be captured."""
    if meta.random() < 0.5:
        return _captured_scenario(meta)
    s, p, b = _random_scenario(meta)
    return s, p, b, meta.randrange(s.n_agents)


def test_plan_move_matches_reference_with_agents_captured_at_root():
    meta = Random(9001)
    for _ in range(30):
        s, p, b, agent = _captured_scenario(meta)
        assert 0 < sum(s.captured) < s.n_agents
        seed = meta.randrange(2**60)
        for w in (0.0, 0.5):
            pw = dataclasses.replace(p, distance_weight=w)
            assert plan_move(s, agent, b, pw, Random(seed)) == \
                ref_plan_move(s, agent, b, pw, Random(seed))


def test_tree_statistics_match_reference_with_agents_captured_at_root():
    meta = Random(9002)
    for _ in range(12):
        s, p, b, agent = _captured_scenario(meta)
        seed = meta.randrange(2**60)
        for w in (0.0, 0.5):
            pw = dataclasses.replace(p, distance_weight=w)
            ref = ref_plan_tree(s, agent, b, pw, Random(seed))
            # the session's own iterations: the code plan_move runs
            root = make_root(s, agent, pw)
            root.run(b, Random(seed))
            diffs = compare_trees(ref.root, root)
            assert not diffs, diffs[:4]
            # the public step functions build the same tree
            root = make_root(s, agent, pw)
            grow_by_public_steps(root, b, Random(seed))
            diffs = compare_trees(ref.root, root)
            assert not diffs, diffs[:4]


@st.composite
def _search_cases(draw):
    """A live planner on a 3x3-5x5 board with 1-4 agents, some of them
    on goals at the root, others able to capture inside the tree; often
    with only 1-3 turns left, so the horizon cuts runs of Stay-only
    levels, mid-turn ones included."""
    n = draw(st.integers(3, 5))
    na = draw(st.integers(1, 4))
    cells = draw(st.permutations([Position(r, c) for r in range(n) for c in range(n)]))
    goals = cells[:na]
    held = draw(st.integers(0, na - 1))
    starts = draw(st.permutations(goals[:held] + cells[na:2 * na - held]))
    t = draw(st.integers(0, 2))
    t_final = t + draw(st.one_of(st.integers(1, 3), st.integers(4, 3 * n)))
    s = WorldState(n, t, tuple(starts), frozenset(goals))
    agent = draw(st.sampled_from([a for a in range(na) if not s.captured[a]]))
    p = ValueParams(
        draw(st.sampled_from([0.0, 0.5])),
        draw(st.sampled_from(list(UpdateRule))),
        na,
        t_final,
        distance_weight=draw(st.sampled_from([0.0, 0.5])),
    )
    b = SearchBudget(draw(st.integers(1, 80)), t_final, draw(st.sampled_from([0.5, 2**0.5])))
    return s, p, b, agent, draw(st.integers(0, 2**32))


def _nodes_on_goals(root, s):
    """Engine nodes whose agent stands on a goal at its parent's board:
    each would be a Stay-only level made a node."""
    goal_cells = {g.row * s.n + g.col for g in s.goals}
    bad = []
    stack = [(root, tuple(root.pos))]
    while stack:
        node, pos = stack.pop()
        for ch in node.children or ():
            if pos[ch.agent] in goal_cells:
                bad.append(ch)
            stack.append((ch, pos[:ch.agent] + (ch.dest,) + pos[ch.agent + 1:]))
    return bad


@settings(max_examples=150, deadline=None)
@given(_search_cases())
def test_search_matches_the_twin_and_makes_no_node_for_a_stay_only_level(case):
    s, p, b, agent, seed = case
    assert plan_move(s, agent, b, p, Random(seed)) == ref_plan_move(s, agent, b, p, Random(seed))
    root = make_root(s, agent, p)
    root.run(b, Random(seed))
    diffs = compare_trees(ref_plan_tree(s, agent, b, p, Random(seed)).root, root)
    assert not diffs, diffs[:4]
    assert not _nodes_on_goals(root, s)


def test_rollout_leaves_the_rng_where_the_reference_does():
    # an equal sample can hide a different number of draws; the RNG's end
    # state cannot. Nodes are taken from grown trees, mid-turn ones and
    # ones below a capture made inside the tree among them
    meta = Random(9006)
    mid_turn = captured_in_tree = 0
    for _ in range(24):
        s, p, b, agent = _mixed_scenario(meta)
        p = dataclasses.replace(p, distance_weight=meta.choice([0.0, 0.5]))
        root = make_root(s, agent, p)
        root.run(b, Random(meta.randrange(2**60)))
        tree = RefTree(s, agent, p)
        for _ in range(8):
            path = [root]
            stop = meta.randrange(12)
            while path[-1].children and len(path) - 1 < stop:
                path.append(meta.choice(path[-1].children))
            ref_node = ref_node_at(tree, path)
            depth = len(path) - 1 + sum(nd.stays for nd in path)
            assert (ref_node.turn_pos, ref_node.sim_time) == \
                (depth % s.n_agents, s.t + depth // s.n_agents)
            mid_turn += depth % s.n_agents != 0
            captured_in_tree += sum(ref_node.state.captured) > sum(s.captured)
            seed = meta.randrange(2**60)
            got_rng, want_rng = Random(seed), Random(seed)
            assert rollout(path, got_rng) == ref_rollout(tree, ref_node, want_rng)
            assert got_rng.getstate() == want_rng.getstate()
    assert mid_turn > 20 and captured_in_tree > 5


@st.composite
def _rollout_cases(draw):
    """A 2x2-5x5 board with 1-5 agents, any number of them but one on
    goals at the root, so whole turns are played by every mover count
    from 1 to the agent count; a walk down the tree to any turn
    position, so first turns are partial; often only 1-3 turns left,
    so the horizon can end the turn a capture happens."""
    n = draw(st.integers(2, 5))
    na = draw(st.integers(1, min(5, n * n // 2)))
    cells = draw(st.permutations([Position(r, c) for r in range(n) for c in range(n)]))
    goals = cells[:na]
    held = draw(st.integers(0, na - 1))
    starts = draw(st.permutations(goals[:held] + cells[na:2 * na - held]))
    t = draw(st.integers(0, 2))
    t_final = t + draw(st.one_of(st.integers(1, 3), st.integers(4, 3 * n)))
    s = WorldState(n, t, tuple(starts), frozenset(goals))
    p = ValueParams(draw(st.sampled_from([0.0, 0.5])), UpdateRule.MEAN, na, t_final,
                    distance_weight=draw(st.sampled_from([0.0, 0.5])))
    walk = draw(st.lists(st.integers(0, 4), max_size=3 * na + 3))
    return s, p, draw(st.integers(0, na - 1)), walk, draw(st.integers(0, 2**64 - 1))


def _twin_rollout_and_end(tree, node, rng):
    """ref_rollout's sample and the state its playout ends in, the one
    its last apply_move returns; the distance term's own searches, which
    run before the playout, apply moves too and are not counted."""
    made = []
    real_move, real_distances = reference.apply_move, reference.ref_goal_distances

    def move(*args):
        made.append(real_move(*args))
        return made[-1]

    def distances(state):
        dists = real_distances(state)
        made.clear()
        return dists

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reference, "apply_move", move)
        mp.setattr(reference, "ref_goal_distances", distances)
        sample = ref_rollout(tree, node, rng)
    return sample, made[-1] if made else node.state


@settings(max_examples=500, deadline=None)
@given(_rollout_cases())
def test_rollout_through_the_turn_kernel_matches_the_twin(case):
    # the sample, the board the playout leaves before its reset and the
    # RNG's end state, from the node at the end of a random walk
    s, p, planner, walk, seed = case
    n = s.n
    root = make_root(s, planner, p)
    path = [root]
    for pick in walk:
        if path[-1].children is None:
            try:
                if expand(path) is path[-1]:
                    continue
            except ValueError:
                break
        kids = path[-1].children
        path.append(kids[pick % len(kids)])
    tree = RefTree(s, planner, p)
    ref_node = ref_node_at(tree, path)
    got_rng, want_rng = Random(seed), Random(seed)
    got = root._playout(root._realize(path[1:]), got_rng.getrandbits)
    pos, cap_at = root.pos[:], root.cap_at[:]
    root._reset()
    want, end = _twin_rollout_and_end(tree, ref_node, want_rng)
    assert got == want
    assert got_rng.getstate() == want_rng.getstate()
    assert pos == [q.row * n + q.col for q in end.agent_pos]
    locked = {q.row * n + q.col for q in end.captured_cells()} | {n * n}
    assert {c for c, flag in enumerate(cap_at) if flag} == locked
    # the public rollout takes the same route from a clean board
    assert rollout(path, Random(seed)) == got


def test_plan_move_leaves_the_rng_where_the_reference_does():
    meta = Random(9007)
    for _ in range(20):
        s, p, b, agent = _mixed_scenario(meta)
        if s.captured[agent]:
            continue
        p = dataclasses.replace(p, distance_weight=meta.choice([0.0, 0.5]))
        seed = meta.randrange(2**60)
        got_rng, want_rng = Random(seed), Random(seed)
        assert plan_move(s, agent, b, p, got_rng) == ref_plan_move(s, agent, b, p, want_rng)
        assert got_rng.getstate() == want_rng.getstate()


def test_public_steps_leave_the_session_board_clean():
    # expand and rollout realize nodes on the root's own board, the one
    # the session's iterations run on; a board either left dirty would
    # change every later iteration and so the tree
    meta = Random(9003)
    rejected = 0
    for _ in range(12):
        s, p, b, agent = _captured_scenario(meta)
        # one or two turns left, so terminal leaves lie inside the tree
        s = dataclasses.replace(s, t=p.t_final - meta.choice([1, 2]))
        p = dataclasses.replace(p, distance_weight=meta.choice([0.0, 0.5]))
        b = SearchBudget(48, p.t_final, b.exploration_c)
        seed = meta.randrange(2**60)
        root = make_root(s, agent, p)
        rng, side = Random(seed), Random(seed + 1)
        one = SearchBudget(1, b.t_final, b.exploration_c)
        for _ in range(b.iterations):
            root.run(one, rng)
            path = [root]
            while path[-1].children and side.random() < 0.85:
                path.append(side.choice(path[-1].children))
            rollout(path, side)
            # the session grows every leaf it selects unless it is
            # terminal, by a node or a counted Stay-only level, so a leaf
            # visited more often than once plus its counted levels is
            # terminal
            node = path[-1]
            if node.children is None and node.visits >= node.stays + 2:
                with pytest.raises(ValueError, match="terminal"):
                    expand(path)
                rejected += 1
        diffs = compare_trees(ref_plan_tree(s, agent, b, p, Random(seed)).root, root)
        assert not diffs, diffs[:4]
    assert rejected > 0


def _terminal_reuse_scenarios():
    # the crowded fault state two turns from its horizon, where most
    # leaves are terminal by the horizon, and three agents next to their
    # goals, whose full-capture leaves the search keeps returning to
    crowded = mk(4, [(0, 0), (2, 2), (3, 3), (1, 2)], [(2, 2), (3, 3), (0, 3), (3, 0)], t=10)
    near = mk(4, [(0, 0), (3, 3), (2, 1)], [(0, 1), (3, 2), (1, 1)])
    shaped = dataclasses.replace(params_for(near, 12), distance_weight=0.5)
    return [(crowded, params_for(crowded, 12), SearchBudget(500, 12)),
            (near, shaped, SearchBudget(500, 12))]


@pytest.mark.parametrize("case", range(2))
def test_a_terminal_leaf_is_played_out_once_per_search(monkeypatch, case):
    import gridmcts.mcts as M

    s, p, b = _terminal_reuse_scenarios()[case]
    selected, played = {}, {}
    n_playouts, grown_to_none = 0, None
    real_select, real_grow, real_playout = M.select, SearchRoot._grow, SearchRoot._playout

    def recording_select(root, c):
        path = real_select(root, c)
        selected[path[-1]] = selected.get(path[-1], 0) + 1
        return path

    def recording_grow(self, leaf, depth):
        nonlocal grown_to_none
        first = real_grow(self, leaf, depth)
        grown_to_none = leaf if first is None else None
        return first

    def recording_playout(self, depth, rand):
        nonlocal n_playouts, grown_to_none
        n_playouts += 1
        if grown_to_none is not None:
            played[grown_to_none] = played.get(grown_to_none, 0) + 1
            grown_to_none = None
        return real_playout(self, depth, rand)

    monkeypatch.setattr(M, "select", recording_select)
    monkeypatch.setattr(SearchRoot, "_grow", recording_grow)
    monkeypatch.setattr(SearchRoot, "_playout", recording_playout)
    root = make_root(s, 0, p)
    got_rng, want_rng = Random(17), Random(17)
    root.run(b, got_rng)
    monkeypatch.undo()
    # every terminal leaf is played out once, however often it is
    # selected, and every other iteration plays out once
    assert played and set(played.values()) == {1}
    assert max(selected[leaf] for leaf in played) >= 3
    assert all(leaf.visits >= selected[leaf] for leaf in played)
    assert n_playouts == b.iterations - sum(selected[leaf] - 1 for leaf in played)
    diffs = compare_trees(ref_plan_tree(s, 0, b, p, want_rng).root, root)
    assert not diffs, diffs[:4]
    assert got_rng.getstate() == want_rng.getstate()


# ------------------------------- the twin catches every scratch-board fault


def _realize_without_lock(self, nodes):
    # a capture is counted but its goal is never locked
    for nd in nodes:
        if self.goal_at[nd.dest] and not self.cap_at[nd.dest]:
            self.n_captured += 1
        self.pos[nd.agent] = nd.dest
    return self.stays + sum(1 + nd.stays for nd in nodes)


def _realize_without_count(self, nodes):
    # a captured goal is locked but the capture is never counted
    for nd in nodes:
        if self.goal_at[nd.dest]:
            self.cap_at[nd.dest] = 1
        self.pos[nd.agent] = nd.dest
    return self.stays + sum(1 + nd.stays for nd in nodes)


def _reset_all_but_the_last_cell(self):
    pos, free, self.n_captured = self.snapshot
    self.pos[:-1] = pos[:-1]
    for g in free:
        self.cap_at[g] = 0


def _reset_all_but_one_free_goal(self):
    # the first goal free at the root stays locked once a step takes it
    pos, free, self.n_captured = self.snapshot
    self.pos[:] = pos
    for g in free[1:]:
        self.cap_at[g] = 0


def _run_reusing_every_leafs_first_sample(self, budget, rng):
    # SearchRoot.run with its terminal map keyed by every leaf: a leaf
    # whose Stay-only level was counted stays a leaf, and is then backed
    # up with its first sample and never grown again
    samples = {}
    for _ in range(budget.iterations):
        path = select(self, budget.exploration_c)
        leaf = path[-1]
        if leaf not in samples:
            depth = self._realize(path[1:])
            child = self._grow(leaf, depth)
            if child is not None:
                depth += 1
                if child is not leaf:
                    path.append(child)
                    self._realize((child,))
            samples[leaf] = self._playout(depth, rng.getrandbits)
            self._reset()
        backpropagate(path, samples[leaf], self.params.update_rule)


def _select_with_raw_visits(root, exploration_c):
    # the UCT parent count taken from a node's own visits, ignoring the
    # Stay-only levels counted on it
    path = [root]
    while path[-1].children:
        node = path[-1]
        stay_visits, node.stay_visits = node.stay_visits, 0
        path.append(_uct_child(node, exploration_c))
        node.stay_visits = stay_visits
    return path


_grow = SearchRoot._grow


def _grow_counting_past_the_end(self, leaf, depth):
    # a terminal leaf gets a Stay-only level counted on it
    first = _grow(self, leaf, depth)
    if first is None:
        leaf.stays += 1
        leaf.stay_visits = leaf.visits
        return leaf
    return first


def _kernel_with(old, new):
    """_turns generating kernels whose source reads `new` where it read
    `old`, once per mover; {i} stands for the mover's index."""
    @functools.lru_cache(maxsize=None)
    def build(m):
        src = _turns_source(m)
        for i in range(m):
            was = old.format(i=i)
            assert was in src
            src = src.replace(was, new.format(i=i))
        namespace = {}
        exec(src, namespace)
        return namespace["turns"]
    return build


# a captured mover is not skipped: it keeps drawing, from its goal's cell
_kernel_drawing_when_captured = _kernel_with(
    "        if p{i} >= 0:\n            s = steps[p{i}]",
    "        if True:\n            s = steps[p{i} if p{i} >= 0 else ~p{i}]",
)
# a captured mover's cell is written back still coded, as ~cell
_kernel_writing_coded_cells = _kernel_with(
    "pos[a{i}] = p{i} if p{i} >= 0 else ~p{i}", "pos[a{i}] = p{i}",
)

# entry i holds the log of i + 1, not of i
_LOGS_SHIFTED = [math.log(i + 1) for i in range(4096)]

_ALL = ("captured", "shaped", "crowded")

# fault: (owner, name, broken, the scenarios whose twin must see it); an
# owner of None is the gridmcts.mcts module. Only the crowded tree has
# both scored nodes below counted Stay-only levels and terminal leaves,
# which select-raw-visits and stay-on-terminal need; reuse-every-leaf
# needs a leaf selected again after a Stay-only level was counted on it,
# which the shaped tree, with no agent on a goal at its root, never has.
# A cell written back coded shows only in the planner's own-capture
# mark, read at goal_at[~cell], that is at cell n * n - 1 - cell: on the
# crowded board that cell is a goal for both goals the planner can take
_BOARD_FAULTS = {
    "realize-no-lock": (SearchRoot, "_realize", _realize_without_lock, _ALL),
    "realize-no-count": (SearchRoot, "_realize", _realize_without_count, _ALL),
    "reset-last-cell": (SearchRoot, "_reset", _reset_all_but_the_last_cell, _ALL),
    "reset-one-goal-locked": (SearchRoot, "_reset", _reset_all_but_one_free_goal, _ALL),
    "reuse-every-leaf": (SearchRoot, "run", _run_reusing_every_leafs_first_sample,
                         ("captured", "crowded")),
    "select-raw-visits": (None, "select", _select_with_raw_visits, ("crowded",)),
    "stay-on-terminal": (SearchRoot, "_grow", _grow_counting_past_the_end, ("crowded",)),
    "log-table-shifted": (None, "_LOGS", _LOGS_SHIFTED, _ALL),
    "kernel-captured-draws": (None, "_turns", _kernel_drawing_when_captured, _ALL),
    "kernel-coded-cells": (None, "_turns", _kernel_writing_coded_cells,
                           ("captured", "shaped")),
}


def _fault_scenarios():
    # agent 1 holds a goal at the root of the captured state, agents 1
    # and 2 at that of the crowded one; the last agent is live in all
    # three, so a cell left unrestored misplaces an agent that still
    # moves. The crowded state has six turns left
    captured = mk(4, [(0, 0), (2, 2), (3, 3)], [(2, 2), (1, 1), (0, 3)])
    shaped = mk(5, [(0, 0), (3, 1), (2, 4)], [(4, 4), (1, 3), (0, 2)])
    crowded = mk(4, [(0, 0), (2, 2), (3, 3), (1, 2)], [(2, 2), (3, 3), (0, 3), (3, 0)], t=6)
    return {
        "captured": (captured, params_for(captured, 12), SearchBudget(200, 12)),
        "shaped": (shaped, dataclasses.replace(params_for(shaped, 15), distance_weight=0.5),
                   SearchBudget(137, 15)),
        "crowded": (crowded, params_for(crowded, 12), SearchBudget(500, 12)),
    }


@pytest.mark.parametrize("fault", sorted(_BOARD_FAULTS))
def test_reference_twin_sees_each_scratch_board_fault(monkeypatch, fault):
    import gridmcts.mcts as M

    owner, name, broken, seen_in = _BOARD_FAULTS[fault]
    trees = []
    for key, (s, p, b) in _fault_scenarios().items():
        ref = ref_plan_tree(s, 0, b, p, Random(5)).root
        root = make_root(s, 0, p)
        root.run(b, Random(5))
        assert not compare_trees(ref, root)
        if key in seen_in:
            trees.append((s, p, b, ref))
    monkeypatch.setattr(owner or M, name, broken)
    for s, p, b, ref in trees:
        root = make_root(s, 0, p)
        root.run(b, Random(5))
        assert compare_trees(ref, root), (fault, s)


def test_plan_move_looks_up_traced_names_at_call_time(monkeypatch):
    # perfbench/tracing.py records its spans by rebinding these module
    # globals; a search that bound them early would record nothing
    import gridmcts.mcts as M

    s = mk(5, [(0, 0), (3, 1), (2, 4)], [(4, 4), (1, 3), (0, 2)])
    p = dataclasses.replace(params_for(s, 15), distance_weight=0.5)
    b = SearchBudget(137, 15)
    want = plan_move(s, 0, b, p, Random(11))
    calls = {"select": 0, "backpropagate": 0}

    def counted(name):
        real = getattr(M, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    targets = []
    real_sweep = M.goal_walled_distances

    def sweep(n, goals, target):
        targets.append(target)
        return real_sweep(n, goals, target)

    for name in calls:
        monkeypatch.setattr(M, name, counted(name))
    monkeypatch.setattr(M, "goal_walled_distances", sweep)
    M._goal_tables.cache_clear()
    assert plan_move(s, 0, b, p, Random(11)) is want
    assert calls == {"select": b.iterations, "backpropagate": b.iterations}
    assert sorted(targets) == sorted(s.goals)


# ------------------------------------------------------ goal table memo


def _episode(inst, iterations=40):
    n, na = inst.grid.n, inst.grid.n_agents
    tf = 3 * n
    return EpisodeConfig(
        grid=inst.grid,
        budget=SearchBudget(iterations, tf),
        params=ValueParams(0.0, UpdateRule.MEAN, na, tf, distance_weight=0.5),
        global_seed=5,
    )


def test_episode_sweeps_each_goal_once(monkeypatch):
    import gridmcts.mcts as M

    a, b = generate_instance(6, 4, 0, 0), generate_instance(6, 4, 1, 0)
    assert set(a.goals) != set(b.goals)
    run_episode(_episode(b), b)  # whatever the memo held, it holds b now
    targets = []
    real_sweep = M.goal_walled_distances

    def counted(n, goals, target):
        targets.append(target)
        return real_sweep(n, goals, target)

    monkeypatch.setattr(M, "goal_walled_distances", counted)
    trace = run_episode(_episode(a), a)
    # several plan calls, each of which would sweep again without the memo
    assert trace.states[0].captured.count(False) >= 2
    assert sorted(targets) == sorted(a.goals)


def test_an_unshaped_plan_sweeps_no_goal(monkeypatch):
    # the playout's step tables are built without a sweep, so only the
    # distance term's tables sweep, and a plan with distance_weight 0
    # runs none (test_episode_sweeps_each_goal_once covers a shaped one)
    import gridmcts.mcts as M

    s = mk(5, [(0, 0), (3, 1), (2, 4)], [(4, 4), (1, 3), (0, 2)])
    targets = []
    real_sweep = M.goal_walled_distances

    def counted(n, goals, target):
        targets.append(target)
        return real_sweep(n, goals, target)

    monkeypatch.setattr(M, "goal_walled_distances", counted)
    M._goal_tables.cache_clear()
    M._step_tables.cache_clear()
    plain = params_for(s, 15)
    assert plain.distance_weight == 0
    plan_move(s, 0, SearchBudget(137, 15), plain, Random(11))
    assert M._step_tables.cache_info().currsize == 1
    assert targets == []


def test_goal_tables_are_never_served_stale():
    import gridmcts.mcts as M

    a, b = generate_instance(6, 4, 0, 0), generate_instance(6, 4, 1, 0)

    def states(inst):
        return run_episode(_episode(inst), inst).states

    in_turn = [states(i) for i in (a, b, a)]
    fresh = []
    for inst in (a, b, a):
        M._goal_tables.cache_clear()
        fresh.append(states(inst))
    assert in_turn == fresh
