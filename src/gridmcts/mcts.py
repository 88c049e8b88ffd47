"""Single-agent Monte-Carlo tree search over the joint grid world.

Each agent plans its own next move by building a search tree rooted at
the current world state. Tree levels interleave all agents in a fixed
turn order, the planning agent first and the rest by ascending id, so
one simulated time step spans n_agents consecutive tree levels: a node
at depth d acts at turn position d % n_agents of turn t + d // n_agents,
where t is the root state's clock. Nodes store no clock of their own. The
searcher models everyone but only the root move of the planning agent is
ever executed; the coordinator merges the independently chosen moves.

Node deltas, not full states: a node stores only (agent, move, dest). The
root is the search session: it owns one mutable scratch board and
realizes a node's state by applying the deltas on its path to it. The
playout then mutates the same board in place, and a snapshot of the root
board is restored by slice assignment after every sample, so no N x N
grid is ever rebuilt during search and nothing is undone step by step.
plan_move and the public expand and rollout all run on that board. Its
one check is the full-copy twin in tests/reference.py, which builds the
same trees from whole WorldStates and must match them bit for bit.

A node knows only its children, never its parent, so the tree is a
downward-only structure owned by its root: it holds no reference cycle
and reference counting frees all of it the moment the root is dropped,
at the end of plan_move, with no work left for the cyclic collector.
A node's depth, and the deltas above it, come from the path down to it
that select returns; the public expand and rollout take that path.

Leaf evaluation splits its inputs: the playout's final state supplies
the outcome (captured count, planner's own-capture mark) while the
remaining-time bonus is anchored to the evaluated node's own turn, so
shallow nodes outscore deep ones at equal playout outcomes. The optional
goal-distance term (``ValueParams.distance_weight``) is anchored the
same way: it reads the evaluated node's own live agents and free goals.
Its goal-walled distance tables depend only on the board size and the
goal set, so they are built once per goal set, one breadth-first sweep
per goal, and shared by every search session of an episode. Uniform
playouts rarely reach a goal whose only approach is nearly as long as
the turns left, so without this term the root children of a stranded
last agent all score alike.

Randomness convention (shared with the reference simulator in the test
suite, bit-for-bit): for each live acting agent, let ``nb`` be its
in-bounds cardinal destination cells in UP, DOWN, LEFT, RIGHT order and
``m = len(nb)``. Draw ``j = int(rng.random() * (m + 1))``; ``j == m``
means Stay (always accepted), otherwise candidate ``nb[j]`` is accepted
unless that cell is a locked goal, in which case the draw repeats.
Rejection keeps the distribution exactly uniform over legal moves.
Captured agents act deterministically and consume no randomness.
The engine computes ``j`` with ``math.floor``, which equals ``int`` on
the non-negative product. A live agent never stands on a goal, so its
Stay cell is never locked: the engine refuses only locked neighbours.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from random import Random

from .grid import (
    Move,
    WorldState,
    cell_tables,
    goal_walled_distances,
    is_terminal,
)
from .values import NodeStats, UpdateRule, ValueParams, distance_cap

DEFAULT_EXPLORATION_C = math.sqrt(2)


@lru_cache(maxsize=1)
def _goal_tables(n: int, goals: frozenset):
    """near[cell]: (distance, goal cell) for every goal an agent on `cell`
    can capture, nearest first, distances clipped at distance_cap(n).

    Captured goals are listed too and skipped at lookup time, so one
    table serves every node of every tree over this goal set. One entry
    is kept: the goal set changes only between episodes.
    """
    cap = distance_cap(n)
    near = [[] for _ in range(n * n)]
    for g in goals:
        gcell = g.row * n + g.col
        for p, d in goal_walled_distances(n, goals, g).items():
            near[p.row * n + p.col].append((min(d, cap), gcell))
    return tuple(tuple(sorted(lst)) for lst in near)


@dataclass(frozen=True)
class SearchBudget:
    """Per-call search effort and episode horizon."""

    iterations: int
    t_final: int
    exploration_c: float = DEFAULT_EXPLORATION_C

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError(f"iterations must be positive, got {self.iterations}")
        if self.t_final < 0:
            raise ValueError(f"t_final must be non-negative, got {self.t_final}")
        if not (math.isfinite(self.exploration_c) and self.exploration_c >= 0):
            raise ValueError(
                f"exploration_c must be finite and non-negative, got {self.exploration_c}"
            )


class SearchNode:
    """One node of a plan tree.

    The node's delta is (agent, move): applying that single-agent move to
    the parent's state yields this node's state; dest is the flat cell
    the move lands on. The root is a SearchRoot, which has no delta.
    Whose turn it is at a node, and the simulated time, follow from the
    node's depth (see the module docstring), so they are not stored.
    A node knows only its children: the tree holds no back-pointer, so
    it dies with its root, freed by reference count.
    """

    __slots__ = ("agent", "move", "dest", "value", "visits", "children")

    def __init__(self, agent, move, dest):
        self.agent = agent
        self.move = move
        self.dest = dest
        self.value = 0.0
        self.visits = 0
        self.children = None

    @property
    def stats(self) -> NodeStats:
        return NodeStats(self.value, self.visits)

    @property
    def expanded(self) -> bool:
        return self.children is not None

    def __repr__(self) -> str:  # debugging aid only
        mv = self.move.name if self.move is not None else "ROOT"
        return f"SearchNode({mv} by {self.agent}, value={self.value:.4f}, visits={self.visits})"


class SearchRoot(SearchNode):
    """Root of a plan tree and its search session.

    Holds the full world state, the context of the whole tree (planning
    agent, value parameters, turn order), the leaf distance term's lookup
    data and the flat-indexed scratch board every search step runs on:
    agent cells, goal cells, locked goal cells and the captured count.
    As in grid.WorldState, an agent is captured exactly when its cell is
    a goal, so the board keeps no per-agent flag.
    Between steps the board equals its snapshot taken here; _reset()
    restores it in place, so the lists keep their identity.
    """

    __slots__ = ("state", "planning_agent", "params", "order", "shaping",
                 "pos", "goal_at", "cap_at", "n_captured",
                 "moves", "steps", "snapshot")

    def __init__(self, state: WorldState, planning_agent: int, params: ValueParams):
        super().__init__(None, None, None)
        self.state = state
        self.planning_agent = planning_agent
        self.params = params
        self.order = (planning_agent,) + tuple(
            a for a in range(state.n_agents) if a != planning_agent
        )
        n = state.n
        # (weight, near, cap): cap is the distance at which the term saturates
        w = params.distance_weight
        self.shaping = (w, _goal_tables(n, state.goals), distance_cap(n)) if w else None
        self.pos = [p.row * n + p.col for p in state.agent_pos]
        self.goal_at = bytearray(n * n)
        for g in state.goals:
            self.goal_at[g.row * n + g.col] = 1
        self.cap_at = bytearray(n * n)
        for cell in self.pos:
            self.cap_at[cell] = self.goal_at[cell]
        self.n_captured = sum(state.captured)
        self.moves, self.steps = cell_tables(n)
        self.snapshot = (self.pos[:], self.cap_at[:], self.n_captured)

    def _reset(self) -> None:
        pos, cap_at, self.n_captured = self.snapshot
        self.pos[:] = pos
        self.cap_at[:] = cap_at

    def _realize(self, nodes) -> None:
        """Apply the deltas of `nodes`, in order, to the scratch board.

        Mirrors grid.apply_move: landing on a free goal pins the agent and
        locks the goal. A captured agent's only move is Stay on its own,
        already locked goal. The engine's only way from tree to board.
        """
        pos = self.pos
        goal_at = self.goal_at
        cap_at = self.cap_at
        n_cap = self.n_captured
        for nd in nodes:
            q = nd.dest
            if goal_at[q] and not cap_at[q]:
                cap_at[q] = 1
                n_cap += 1
            pos[nd.agent] = q
        self.n_captured = n_cap

    def _grow(self, leaf: SearchNode, depth: int):
        """Create all children of `leaf`, `depth` levels below the root,
        given the board realized at it.

        One child per legal move of the acting agent, in canonical move
        order (a captured agent gets the single Stay child). Returns the
        first child, or None, leaving `leaf` a leaf, if it is terminal:
        board fully captured or horizon reached.
        """
        order = self.order
        turns, tp = divmod(depth, len(order))
        # tp > 0 implies the horizon is not reached: a mid-turn node shares
        # its turn with the node above it, and only non-terminal nodes get
        # expanded
        if self.n_captured == len(order) or self.state.t + turns >= self.params.t_final:
            return None
        act = order[tp]
        p = self.pos[act]
        if self.goal_at[p]:
            kids = [SearchNode(act, Move.STAY, p)]
        else:
            cap_at = self.cap_at
            # the playout's acceptance rule: Stay, or a cell that is not locked
            kids = [
                SearchNode(act, mv, q)
                for mv, q in zip(self.moves[p], self.steps[p][0])
                if q == p or not cap_at[q]
            ]
        leaf.children = kids
        return kids[0]

    def _playout(self, depth: int, rand) -> float:
        """Random playout from the board realized at the node at `depth`;
        returns the sample.

        Plays the board forward in place and leaves it at the playout's end;
        the caller resets it. The playout supplies the outcome (captured
        count and the planner's own-capture mark, both read from its final
        state) while the depth bonus is anchored to the evaluated node
        itself: its turn if it sits on a turn boundary, the turn completing
        around it otherwise. Deep nodes therefore score lower than shallow
        ones at equal playout outcomes, which is the entire point of the
        bonus. The distance term, when shaping is on, is read from the
        evaluated node too, before the playout moves anyone.

        Only live agents draw, so the loop walks a list of them, in turn
        order. After a partial first turn it is rebuilt from the full
        order; after a turn with a capture the current list is filtered.
        """
        params = self.params
        t_final = params.t_final
        order = self.order
        n_agents = len(order)
        pos = self.pos
        goal_at = self.goal_at
        cap_at = self.cap_at
        steps = self.steps
        shaping = self.shaping
        n_cap = self.n_captured
        floor = math.floor

        t, tp = divmod(depth, n_agents)
        t += self.state.t
        node_time = t if tp == 0 else t + 1
        live = n_agents - n_cap
        if shaping is not None and live:
            w, near, cap = shaping
            dist_sum = 0
            for p in pos:
                if goal_at[p]:
                    continue
                d = cap
                for dg, gcell in near[p]:
                    if not cap_at[gcell]:
                        d = dg  # nearest first, so the first free goal wins
                        break
                dist_sum += d

        # plain loops, not comprehensions: before CPython 3.12 a
        # comprehension reading pos or goal_at would make both closure
        # cells, and every read of them in the playout loop slower
        movers = []
        for a in order[tp:]:
            if not goal_at[pos[a]]:
                movers.append(a)
        partial = tp != 0
        while t < t_final:
            captured = False
            for a in movers:
                # a mover stands on no goal, so only a locked neighbour,
                # never Stay, is redrawn; floor equals int on this product
                cells, m1 = steps[pos[a]]
                q = cells[floor(rand() * m1)]
                while cap_at[q]:
                    q = cells[floor(rand() * m1)]
                pos[a] = q
                # q is legal here, so any goal it lands on is free
                if goal_at[q]:
                    cap_at[q] = 1
                    n_cap += 1
                    captured = True
            # an agent is captured only by its own draw, so the last live
            # agent is the last mover of the turn that captures everyone
            if n_cap == n_agents:
                break
            t += 1
            if partial or captured:
                kept = order if partial else movers
                movers = []
                for a in kept:
                    if not goal_at[pos[a]]:
                        movers.append(a)
                partial = False

        # same operation order as value_mod + depth_adjusted, so results are
        # bit-identical to the public value pipeline
        val = n_cap / n_agents
        if goal_at[pos[self.planning_agent]]:
            val -= params.alpha / n_agents
        val += (1.0 - node_time / t_final) / n_agents
        if shaping is not None and live:
            # same operation order as values.distance_adjusted
            val -= w * dist_sum / (live * cap) / n_agents
        return val

    def run(self, budget: SearchBudget, rng: Random) -> None:
        """Run budget.iterations search iterations on this tree.

        Each iteration selects a leaf, realizes it on the board, expands
        it unless it is terminal, rolls out from its first child (or from
        the terminal leaf), backs the sample up the path and resets the
        board. select and backpropagate are looked up as module globals
        at call time, so a tracer that rebinds them sees every step.
        budget.t_final must equal params.t_final; plan_move checks it.
        """
        rule = self.params.update_rule
        c = budget.exploration_c
        rand = rng.random
        for _ in range(budget.iterations):
            path = select(self, c)
            self._realize(path[1:])
            child = self._grow(path[-1], len(path) - 1)
            if child is not None:
                path.append(child)
                self._realize((child,))
            backpropagate(path, self._playout(len(path) - 1, rand), rule)
            self._reset()


def make_root(state: WorldState, planning_agent: int, params: ValueParams) -> SearchRoot:
    """Fresh unexpanded root, with its search session, for one plan_move call."""
    if not 0 <= planning_agent < state.n_agents:
        raise IndexError(f"planning agent {planning_agent} out of range")
    if params.n_agents != state.n_agents:
        raise ValueError(
            f"params built for {params.n_agents} agents, state has {state.n_agents}"
        )
    return SearchRoot(state, planning_agent, params)


def _path_root(path) -> SearchRoot:
    """The root of `path`, a root-to-node path as select returns it.

    Raises unless path[0] is a root built by make_root and every later
    node is a child of the one before it.
    """
    if not path or not isinstance(path[0], SearchRoot):
        raise ValueError("path does not start at a root built by make_root")
    for up, nd in zip(path, path[1:]):
        if nd not in (up.children or ()):
            raise ValueError("path has a node that is not a child of the one before it")
    return path[0]


def select(root: SearchNode, exploration_c: float = DEFAULT_EXPLORATION_C) -> list[SearchNode]:
    """Walk from the root to a leaf by the UCT rule; returns the path.

    At each expanded node the child maximizing
    value + c * sqrt(ln(parent.visits) / child.visits) is taken; an
    unvisited child scores infinite and the first one in creation order
    wins. Ties go to the earliest child, which is canonical move order.

    No score is computed where the rule has no choice: a lone child is
    taken as it is, and when the last child is unvisited the first
    unvisited one is taken. The rule itself visits children first in
    creation order, so in a tree grown by SearchRoot.run the unvisited
    children are always the last ones, and a node is scored only once
    all its children have been visited. The scoring loop still stops at
    an unvisited child, so a tree built by hand gets the same rule.
    """
    path = [root]
    node = root
    log = math.log
    sqrt = math.sqrt
    while node.children:
        kids = node.children
        if not kids[-1].visits:
            for best in kids:
                if not best.visits:
                    break
        elif len(kids) == 1:
            best = kids[0]
        else:
            lp = log(node.visits) if node.visits > 0 else 0.0
            best = None
            best_score = -math.inf
            for ch in kids:
                v = ch.visits
                if v == 0:
                    best = ch
                    break
                score = ch.value + exploration_c * sqrt(lp / v)
                if score > best_score:
                    best_score = score
                    best = ch
        node = best
        path.append(node)
    return path


def expand(path: list[SearchNode]) -> SearchNode:
    """Expand the leaf at the end of `path` in place; returns its first child.

    `path` runs from a root built by make_root down to the leaf, each
    node a child of the one before it, as select returns it. Raises if
    it does not, or if the leaf is already expanded or terminal (board
    fully captured or horizon reached). Runs on the root's board and
    resets it.
    """
    root = _path_root(path)
    leaf = path[-1]
    if leaf.expanded:
        raise ValueError("node is already expanded")
    root._realize(path[1:])
    first = root._grow(leaf, len(path) - 1)
    root._reset()
    if first is None:
        raise ValueError("cannot expand a terminal node")
    return first


def rollout(path: list[SearchNode], rng: Random) -> float:
    """Score one random playout from the state of the node at the end of
    `path`, up to the tree's own horizon, on the root's board, then
    reset the board; the tree is untouched. `path` is checked as for
    expand."""
    root = _path_root(path)
    root._realize(path[1:])
    value = root._playout(len(path) - 1, rng.random)
    root._reset()
    return value


def backpropagate(path: list[SearchNode], value: float, rule: UpdateRule) -> None:
    """Fold one sample into every node on the path.

    Field writes are inlined for speed but must stay equivalent to
    values.update_value; the test suite checks the two against each
    other sample by sample.
    """
    if rule is UpdateRule.MEAN:
        for nd in path:
            k = nd.visits + 1
            if k == 1:
                nd.value = value
            else:
                nd.value = ((k - 1) * nd.value + value) / k
            nd.visits = k
    elif rule is UpdateRule.MAX:
        for nd in path:
            if nd.visits == 0 or value > nd.value:
                nd.value = value
            nd.visits += 1
    else:
        raise ValueError(f"unknown update rule {rule!r}")


def best_action(root: SearchNode) -> Move:
    """Highest-valued root move.

    Children are scanned in creation order and only a strictly greater
    value displaces the incumbent, so ties resolve to the earliest move
    in canonical order. Root children all sit at depth 1, so they share
    one simulated time, which makes the depth part of the tie rule
    vacuous here.
    """
    if not root.expanded:
        raise ValueError("root has no children; run the search first")
    best = None
    for ch in root.children:
        if best is None or ch.value > best.value:
            best = ch
    return Move(best.move)


def plan_move(
    state: WorldState,
    planning_agent: int,
    budget: SearchBudget,
    params: ValueParams,
    rng: Random,
) -> Move:
    """Choose the planning agent's next move by tree search.

    Runs budget.iterations cycles of select / expand / rollout /
    backpropagate on a fresh tree rooted at `state`, then returns the
    best root move. A captured planning agent short-circuits to Stay
    without consuming any randomness. Raises on a terminal state or if
    budget and params disagree about the horizon or population. The
    scratch board is checked only by the twin in tests/reference.py.
    """
    root = make_root(state, planning_agent, params)
    if budget.t_final != params.t_final:
        raise ValueError(
            f"budget horizon {budget.t_final} disagrees with value params {params.t_final}"
        )
    if state.captured[planning_agent]:
        return Move.STAY
    if is_terminal(state, budget.t_final):
        raise ValueError("cannot plan from a terminal state")
    root.run(budget, rng)
    return best_action(root)
