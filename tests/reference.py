"""Full-copy reference twin of the search engine, for equivalence tests.

Deliberately naive: every node stores a complete immutable WorldState and
all transitions go through the public domain layer (apply_move), so this
implementation shares no state-mutation code with gridmcts.mcts. Values
are computed only through the public functions in gridmcts.values. It
consumes randomness with the exact same draw sequence as the engine
(rollout-only: six-bit draws, rejection sampling over in-bounds
neighbors), which makes move choices and tree statistics comparable bit
for bit. It draws each step arithmetically, where the engine reads the
destination from a 64-entry table per cell. The twin gives
every tree level a node, a captured agent's forced Stay included, where
the engine counts such a level on the node above it; compare_trees and
ref_node_at map the one tree onto the other.

The optional goal-distance leaf term is computed here from scratch too:
a forward search per live agent through legal_moves and apply_move
until the domain layer itself reports a capture, where the engine runs
backward sweeps from the goals over a flat board.

The exact oracle has a twin here too: ref_exact_joint_search is a
breadth-first search over Position tuples and capture flags, expanding
through oracle._joint_successors. It is the only breadth-first joint-state
search left: gridmcts.oracle.exact_joint_search answers the same
question with a time-expanded max-flow at any size, and this twin, like
oracle.iterative_deepening_search (the independent check the benchmark
uses), stops at 5x5 with 3 agents. The two agree on verdict and
optimum; their witnesses differ, so tests replay the flow's instead of
comparing it. ref_assignment_lower_bound is the bound's original form,
a loop over every goal permutation, where the oracle now runs a
bottleneck matching.

Slow on purpose. Keep grids small when driving it.
"""
from __future__ import annotations

import math
from collections import deque
from itertools import permutations
from random import Random

from gridmcts.grid import (
    CARDINAL_MOVES,
    Move,
    WorldState,
    apply_move,
    is_terminal,
    legal_moves,
    manhattan,
    move_dest,
)
from gridmcts.mcts import SearchBudget
from gridmcts.oracle import (
    _MAX_AGENTS,
    _MAX_N,
    OracleResult,
    _flatten,
    _joint_successors,
    _per_agent,
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


class RefNode:
    """Tree node carrying a full state snapshot."""

    def __init__(self, parent, agent, move, state, acting_agent, turn_pos, sim_time):
        self.parent = parent
        self.agent = agent
        self.move = move
        self.state = state
        self.acting_agent = acting_agent
        self.turn_pos = turn_pos
        self.sim_time = sim_time
        self.stats = NodeStats(0.0, 0)
        self.children = None


class RefTree:
    """Root plus the search context shared by the whole tree."""

    def __init__(self, state: WorldState, planning_agent: int, params: ValueParams):
        self.planner = planning_agent
        self.params = params
        self.order = (planning_agent,) + tuple(
            a for a in range(state.n_agents) if a != planning_agent
        )
        self.root = RefNode(None, None, None, state, planning_agent, 0, state.t)


def ref_select(tree: RefTree, exploration_c: float) -> list[RefNode]:
    path = [tree.root]
    node = tree.root
    while node.children:
        lp = math.log(node.stats.visits) if node.stats.visits > 0 else 0.0
        best = None
        best_score = -math.inf
        for ch in node.children:
            if ch.stats.visits == 0:
                best = ch
                break
            score = ch.stats.value + exploration_c * math.sqrt(lp / ch.stats.visits)
            if score > best_score:
                best_score = score
                best = ch
        node = best
        path.append(node)
    return path


def ref_is_terminal(tree: RefTree, node: RefNode) -> bool:
    return all(node.state.captured) or node.sim_time >= tree.params.t_final


def ref_expand(tree: RefTree, leaf: RefNode) -> RefNode:
    actor = tree.order[leaf.turn_pos]
    ntp = leaf.turn_pos + 1
    nst = leaf.sim_time
    if ntp == len(tree.order):
        ntp = 0
        nst += 1
    nact = tree.order[ntp]
    kids = []
    for mv in legal_moves(leaf.state, actor):
        child_state = apply_move(leaf.state, actor, mv)
        kids.append(RefNode(leaf, actor, mv, child_state, nact, ntp, nst))
    leaf.children = kids
    return kids[0]


def _neighbor_cells(state: WorldState, pos):
    """In-bounds cardinal destinations in canonical order, locks ignored."""
    out = []
    for mv in CARDINAL_MOVES:
        q = move_dest(pos, mv)
        if 0 <= q.row < state.n and 0 <= q.col < state.n:
            out.append((mv, q))
    return out


def ref_goal_distances(state: WorldState) -> list:
    """Per live agent, the fewest own moves after which it is captured.

    Breadth-first over single-agent moves with everyone else frozen:
    legal_moves keeps locked goals out, and the first apply_move that
    flags the agent captured is the nearest free goal it can take, any
    free goal on the way having pinned it first. math.inf when none is
    reachable.
    """
    out = []
    for a in range(state.n_agents):
        if state.captured[a]:
            continue
        seen = {state.agent_pos[a]}
        frontier = [state]
        steps = 0
        found = math.inf
        while frontier and found == math.inf:
            steps += 1
            nxt = []
            for s in frontier:
                for mv in legal_moves(s, a):
                    s2 = apply_move(s, a, mv)
                    if s2.captured[a]:
                        found = steps
                        break
                    if s2.agent_pos[a] not in seen:
                        seen.add(s2.agent_pos[a])
                        nxt.append(s2)
                if found != math.inf:
                    break
            frontier = nxt
        out.append(found)
    return out


def ref_rollout(tree: RefTree, node: RefNode, rng: Random) -> float:
    """Uniform random playout, scored like the engine scores it.

    Draw protocol per live acting agent: with m in-bounds neighbors,
    r = rng.getrandbits(6), redrawn while r >= 60; then j = r % (m + 1),
    and j == m stays, otherwise neighbor j is taken unless locked, in
    which case the draw repeats. Captured agents consume no randomness.
    The playout's final state supplies captured count and the planner's
    mark; the time bonus uses the evaluated node's own turn (sim_time,
    plus one if mid-turn), and the distance term the evaluated node's
    own state.
    """
    params = tree.params
    t_final = params.t_final
    order = tree.order
    state = node.state
    dists = ref_goal_distances(state) if params.distance_weight else []
    t = node.sim_time
    tp = node.turn_pos
    node_time = t if tp == 0 else t + 1
    if not all(state.captured):
        done = False
        while t < t_final:
            for i in range(tp, len(order)):
                a = order[i]
                if state.captured[a]:
                    continue
                nb = _neighbor_cells(state, state.agent_pos[a])
                m = len(nb)
                locked = state.captured_cells()
                while True:
                    r = rng.getrandbits(6)
                    if r >= 60:
                        continue
                    j = r % (m + 1)
                    if j == m:
                        mv = Move.STAY
                        break
                    mv, q = nb[j]
                    if q not in locked:
                        break
                state = apply_move(state, a, mv)
                if all(state.captured):
                    done = True
                    break
            tp = 0
            t += 1
            if done:
                break
    g = sum(state.captured)
    mark = state.captured[tree.planner]
    value = depth_adjusted(value_mod(g, mark, params), node_time, params)
    return distance_adjusted(value, dists, state.n, params)


def ref_backpropagate(path: list[RefNode], sample: float, rule: UpdateRule) -> None:
    for node in path:
        node.stats = update_value(node.stats, sample, rule)


def ref_best_action(tree: RefTree) -> Move:
    best = None
    for ch in tree.root.children:
        if best is None or ch.stats.value > best.stats.value:
            best = ch
    return Move(best.move)


def ref_plan_move(
    state: WorldState,
    planning_agent: int,
    budget: SearchBudget,
    params: ValueParams,
    rng: Random,
) -> Move:
    """Mirror of gridmcts.mcts.plan_move built on full state copies."""
    if state.captured[planning_agent]:
        return Move.STAY
    if is_terminal(state, budget.t_final):
        raise ValueError("cannot plan from a terminal state")
    tree = RefTree(state, planning_agent, params)
    for _ in range(budget.iterations):
        path = ref_select(tree, budget.exploration_c)
        leaf = path[-1]
        if not ref_is_terminal(tree, leaf):
            leaf = ref_expand(tree, leaf)
            path.append(leaf)
        sample = ref_rollout(tree, leaf, rng)
        ref_backpropagate(path, sample, params.update_rule)
    return ref_best_action(tree)


def ref_plan_tree(state, planning_agent, budget, params, rng) -> RefTree:
    """Like ref_plan_move but hands back the whole tree for inspection."""
    tree = RefTree(state, planning_agent, params)
    for _ in range(budget.iterations):
        path = ref_select(tree, budget.exploration_c)
        leaf = path[-1]
        if not ref_is_terminal(tree, leaf):
            leaf = ref_expand(tree, leaf)
            path.append(leaf)
        sample = ref_rollout(tree, leaf, rng)
        ref_backpropagate(path, sample, params.update_rule)
    return tree


def ref_node_at(tree: RefTree, path) -> RefNode:
    """The twin's node at the level where the engine `path` ends.

    Follows `path` child by child, then, below each engine node, the lone
    Stay child of every Stay-only level counted on it, expanding twin
    nodes where the walk needs them.
    """
    r = tree.root
    for i, nd in enumerate(path):
        if i:
            if r.children is None:
                ref_expand(tree, r)
            r = r.children[path[i - 1].children.index(nd)]
        for _ in range(nd.stays):
            if r.children is None:
                ref_expand(tree, r)
            r = r.children[0]
    return r


def compare_trees(ref_node: RefNode, node) -> list[str]:
    """Structural and statistical diff between reference and engine trees.

    Returns human-readable mismatch strings; empty means the trees agree
    exactly (same shape, same moves, identical float values and visit
    counts node for node). Engine nodes store no clock, so the twin's
    stored clock at depth d is checked against the one the engine derives
    from depth: turn position d % n_agents of turn t + d // n_agents.

    The twin gives a Stay-only level, one whose acting agent is captured,
    its lone Stay node; the engine counts the level on the node above it.
    So each chain of such levels below a twin node is collapsed onto the
    matching engine node: its `stays` must equal the chain's length and
    its `stay_visits` the node's visits minus those of the chain's bottom
    node. The bottom's clock is checked at the depth it lies at, and its
    children are compared with the engine node's.
    """
    diffs: list[str] = []
    t0, n_agents = ref_node.state.t, ref_node.state.n_agents

    def clock_diff(r, trail, depth):
        clock = (depth % n_agents, t0 + depth // n_agents)
        if (r.turn_pos, r.sim_time) != clock:
            diffs.append(f"{trail}: clock ({r.turn_pos},{r.sim_time}) != {clock}")

    def walk(r, e, trail, depth):
        if (r.agent, r.move) != (e.agent, e.move):
            diffs.append(f"{trail}: delta ({r.agent},{r.move}) != ({e.agent},{e.move})")
            return
        clock_diff(r, trail, depth)
        if r.stats.visits != e.visits or r.stats.value != e.value:
            diffs.append(
                f"{trail}: stats ({r.stats.value!r},{r.stats.visits}) != "
                f"({e.value!r},{e.visits})"
            )
        bottom, stays = r, 0
        while bottom.children and bottom.state.captured[bottom.acting_agent]:
            bottom = bottom.children[0]
            stays += 1
        if stays:
            clock_diff(bottom, f"{trail}+{stays}", depth + stays)
        if (e.stays, e.stay_visits) != (stays, r.stats.visits - bottom.stats.visits):
            diffs.append(
                f"{trail}: stays ({stays},{r.stats.visits - bottom.stats.visits}) != "
                f"({e.stays},{e.stay_visits})"
            )
            return
        rk = bottom.children or []
        ek = e.children or []
        if len(rk) != len(ek):
            diffs.append(f"{trail}: {len(rk)} children != {len(ek)}")
            return
        for i, (rc, ec) in enumerate(zip(rk, ek)):
            walk(rc, ec, f"{trail}.{i}", depth + stays + 1)

    walk(ref_node, node, "root", 0)
    return diffs


def ref_exact_joint_search(instance, t_final: int) -> OracleResult:
    """Breadth-first search over (Position tuple, capture flags) states."""
    n, na = instance.grid.n, instance.grid.n_agents
    if n > _MAX_N or na > _MAX_AGENTS:
        raise ValueError(
            f"joint search handles up to {_MAX_N}x{_MAX_N} and {_MAX_AGENTS} agents, "
            f"got {n}x{n} with {na}"
        )
    if t_final < 0:
        raise ValueError(f"t_final must be non-negative, got {t_final}")
    starts, goals, cap0 = _flatten(instance)
    if all(cap0):
        return OracleResult(True, 0, _per_agent([], na))

    start_key = (starts, cap0)
    parent: dict = {start_key: None}
    frontier = deque([(start_key, 0)])
    while frontier:
        (pos, cap), depth = frontier.popleft()
        if depth >= t_final:
            continue
        for moves, dests, new_cap in _joint_successors(n, goals, pos, cap):
            key = (dests, new_cap)
            if key in parent:
                continue
            parent[key] = ((pos, cap), moves)
            if all(new_cap):
                # walk the parent chain back to the start for the witness
                chain = [moves]
                back = parent[key][0]
                while parent[back] is not None:
                    prev, mv = parent[back]
                    chain.append(mv)
                    back = prev
                chain.reverse()
                return OracleResult(True, depth + 1, _per_agent(chain, na))
            frontier.append((key, depth + 1))
    return OracleResult(False, None, None)


def ref_assignment_lower_bound(instance) -> int:
    """Minimum over goal permutations of the longest Manhattan walk."""
    na = instance.grid.n_agents
    if na > 8:
        raise ValueError(f"assignment bound enumerates up to 8 agents, got {na}")
    starts, goals, _ = _flatten(instance)
    best = None
    for perm in permutations(sorted(goals)):
        worst = max(manhattan(s, g) for s, g in zip(starts, perm))
        if best is None or worst < best:
            best = worst
    return best
