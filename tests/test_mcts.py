"""Tree search engine: structure, selection, rollouts, equivalence."""
import dataclasses
import gc
import math
from random import Random

import pytest

from gridmcts.coordinator import EpisodeConfig, merge_states, run_episode
from gridmcts.grid import (
    GridConfig,
    Move,
    Position,
    WorldState,
    initial_state,
    legal_moves,
)
from gridmcts.mcts import (
    DEFAULT_EXPLORATION_C,
    SearchBudget,
    SearchNode,
    SearchRoot,
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
    update_value,
    value_mod,
)

from gridmcts.scenarios import generate_instance

from reference import (
    compare_trees,
    ref_expand,
    ref_goal_distances,
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
    """Expand the whole tree `depth` levels deep; returns the root-to-node
    path of every node, by level."""
    levels = [[[root]]]
    for _ in range(depth):
        nxt = []
        for path in levels[-1]:
            try:
                expand(path)
            except ValueError:
                continue  # terminal leaf
            nxt.extend(path + [ch] for ch in path[-1].children)
        levels.append(nxt)
    return levels


def grow_by_public_steps(root, budget, rng):
    """The search loop spelled with the public step functions only.

    A terminal leaf shows itself by expand refusing it; the sample is
    then rolled out from the leaf itself, as in plan_move.
    """
    for _ in range(budget.iterations):
        path = select(root, budget.exploration_c)
        try:
            path.append(expand(path))
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


def test_expand_captured_actor_single_stay_child():
    s = mk(5, [(0, 0), (2, 2)], [(2, 2), (4, 4)])
    root = make_root(s, 0, params_for(s, 15))
    expand([root])  # planner acts first, it is live
    kid = root.children[0]
    expand([root, kid])  # captured agent's turn
    assert [(c.agent, c.move) for c in kid.children] == [(1, Move.STAY)]


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
    """Every simulated time step spans each agent exactly once."""
    s = mk(4, [(0, 0), (1, 1), (2, 2)], [(3, 3), (3, 2), (3, 1)])
    root = make_root(s, 2, params_for(s, 12))
    levels = exhaust(root, 7)
    # walk a handful of root-to-leaf paths
    for leaf_path in levels[-1][:200:7]:
        path = leaf_path[1:]
        for start in range(0, len(path) - 2, 3):
            turn = [p.agent for p in path[start : start + 3]]
            assert sorted(turn) == [0, 1, 2]
            assert turn[0] == 2  # planner first


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


def test_select_walks_lone_children_and_unvisited_tails_without_scoring(monkeypatch):
    import gridmcts.mcts as M

    # agents 0 and 1 hold goals, so the two levels below the root are
    # lone Stay children; agent 2 then has five moves
    s = mk(5, [(0, 0), (4, 4), (2, 2)], [(0, 0), (4, 4), (0, 4)])
    root = make_root(s, 0, params_for(s, 15))
    a = expand([root])
    b = expand([root, a])
    expand([root, a, b])
    assert len(root.children) == len(a.children) == 1
    for nd in (root, a, b, b.children[0]):
        nd.value, nd.visits = 0.5, 6

    def boom(*_):
        raise AssertionError("select scored a node where the rule has no choice")

    monkeypatch.setattr(M.math, "log", boom)
    monkeypatch.setattr(M.math, "sqrt", boom)
    assert select(root) == [root, a, b, b.children[1]]
    monkeypatch.undo()
    # once every child of b is visited, b is scored
    for child, v in zip(b.children, [0.1, 0.2, 0.9, 0.3, 0.4]):
        child.value, child.visits = v, 6
    b.visits = 30
    assert select(root, 0.0) == [root, a, b, b.children[2]]


def _uct_child(node, c):
    """The UCT rule spelled out plainly: score every child, an unvisited
    one infinitely, and keep the first maximum."""
    lp = math.log(node.visits) if node.visits > 0 else 0.0
    scores = [
        math.inf if ch.visits == 0 else ch.value + c * math.sqrt(lp / ch.visits)
        for ch in node.children
    ]
    return node.children[scores.index(max(scores))]


def test_select_equals_plain_uct_from_every_node_of_grown_trees():
    meta = Random(9005)
    # nodes seen with a lone child, an unvisited last child, all visited
    kinds = [0, 0, 0]
    for _ in range(16):
        s, p, b, agent = _mixed_scenario(meta)
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
            kinds[0 if len(visits) == 1 else 1 if visits[-1] == 0 else 2] += 1
            path = select(node, b.exploration_c)
            want = [node]
            while want[-1].children:
                want.append(_uct_child(want[-1], b.exploration_c))
            assert path == want
    assert min(kinds) > 100, kinds


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


def test_playout_keeps_its_board_out_of_closure_cells():
    # before CPython 3.12 a comprehension in _playout that read pos or
    # goal_at would make them closure cells, and every read of them in
    # the playout loop would go through an extra indirection
    assert SearchRoot._playout.__code__.co_cellvars == ()


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
    s = initial_state(inst.grid, inst.starts, inst.goals)
    p = ValueParams(0.5, rule, 4, 18, distance_weight=weight)
    b = SearchBudget(300, 18)
    assert _cyclic_garbage(lambda: plan_move(s, 0, b, p, Random(3))) == 0


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
    # samples pinned from the engine as it was before the distance term
    # existed; weight 0 must reproduce them bit for bit
    s = mk(5, [(0, 0), (3, 1), (2, 4)], [(4, 4), (1, 3), (0, 2)], t=1)
    p = ValueParams(0.5, UpdateRule.MEAN, 3, 15, distance_weight=0.0)
    want = {
        (0, 1): "0x1.9f49f49f49f4ap-1",
        (1, 2): "0x1.49f49f49f49f4p-1",
        (2, 3): "0x1.9f49f49f49f4ap-1",
        (0, 4): "0x1.f49f49f49f49fp-1",
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
        path, ref_node = [root], tree.root
        # descend a little so the term is read at a node that differs
        # from the root, captures made inside the tree included
        for _ in range(meta.choice([0, meta.randrange(1, 2 * s.n_agents + 2)])):
            if path[-1].children is None:
                try:
                    expand(path)
                except ValueError:
                    break
                ref_expand(tree, ref_node)
            i = meta.randrange(len(path[-1].children))
            path.append(path[-1].children[i])
            ref_node = ref_node.children[i]
        seed = meta.randrange(2**60)
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
            path, ref_node = [root], tree.root
            stop = meta.randrange(12)
            while path[-1].children and len(path) - 1 < stop:
                i = meta.randrange(len(path[-1].children))
                if ref_node.children is None:
                    ref_expand(tree, ref_node)
                path.append(path[-1].children[i])
                ref_node = ref_node.children[i]
            depth = len(path) - 1
            mid_turn += depth % s.n_agents != 0
            captured_in_tree += sum(ref_node.state.captured) > sum(s.captured)
            seed = meta.randrange(2**60)
            got_rng, want_rng = Random(seed), Random(seed)
            assert rollout(path, got_rng) == ref_rollout(tree, ref_node, want_rng)
            assert got_rng.getstate() == want_rng.getstate()
    assert mid_turn > 20 and captured_in_tree > 5


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
            # the session expands every leaf it selects unless it is
            # terminal, so a leaf visited twice is terminal
            node = path[-1]
            if node.children is None and node.visits >= 2:
                with pytest.raises(ValueError, match="terminal"):
                    expand(path)
                rejected += 1
        diffs = compare_trees(ref_plan_tree(s, agent, b, p, Random(seed)).root, root)
        assert not diffs, diffs[:4]
    assert rejected > 0


# ------------------------------- the twin catches every scratch-board fault


def _realize_without_lock(self, nodes):
    # a capture is counted but its goal is never locked
    for nd in nodes:
        if self.goal_at[nd.dest] and not self.cap_at[nd.dest]:
            self.n_captured += 1
        self.pos[nd.agent] = nd.dest


def _realize_without_count(self, nodes):
    # a captured goal is locked but the capture is never counted
    for nd in nodes:
        if self.goal_at[nd.dest]:
            self.cap_at[nd.dest] = 1
        self.pos[nd.agent] = nd.dest


def _reset_all_but_the_last_cell(self):
    pos, cap_at, self.n_captured = self.snapshot
    self.pos[:-1] = pos[:-1]
    self.cap_at[:] = cap_at


_BOARD_FAULTS = {
    "realize-no-lock": ("_realize", _realize_without_lock),
    "realize-no-count": ("_realize", _realize_without_count),
    "reset-last-cell": ("_reset", _reset_all_but_the_last_cell),
}


def _fault_scenarios():
    # agent 1 holds a goal at the root; the last agent is live in both,
    # so a cell left unrestored misplaces an agent that still moves
    captured = mk(4, [(0, 0), (2, 2), (3, 3)], [(2, 2), (1, 1), (0, 3)])
    shaped = mk(5, [(0, 0), (3, 1), (2, 4)], [(4, 4), (1, 3), (0, 2)])
    return [
        (captured, params_for(captured, 12), SearchBudget(200, 12)),
        (shaped, dataclasses.replace(params_for(shaped, 15), distance_weight=0.5),
         SearchBudget(137, 15)),
    ]


@pytest.mark.parametrize("fault", sorted(_BOARD_FAULTS))
def test_reference_twin_sees_each_scratch_board_fault(monkeypatch, fault):
    name, broken = _BOARD_FAULTS[fault]
    trees = []
    for s, p, b in _fault_scenarios():
        ref = ref_plan_tree(s, 0, b, p, Random(5)).root
        root = make_root(s, 0, p)
        root.run(b, Random(5))
        assert not compare_trees(ref, root)
        trees.append((s, p, b, ref))
    monkeypatch.setattr(SearchRoot, name, broken)
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
