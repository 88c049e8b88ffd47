"""Single-agent Monte-Carlo tree search over the joint grid world.

Each agent plans its own next move by building a search tree rooted at
the current world state. Tree levels interleave all agents in a fixed
turn order, the planning agent first and the rest by ascending id, so
one simulated time step spans n_agents consecutive tree levels: a node
at depth d acts at turn position d % n_agents of turn t + d // n_agents,
where t is the root state's clock. Nodes store no clock of their own. The
searcher models everyone but only the root move of the planning agent is
ever executed; the coordinator merges the independently chosen moves.

A Stay-only level, one whose acting agent stands on a goal and so can
only stay, gets no node: it is counted on the node above it (its
``stays``), and a node's depth is the number of nodes above it on its
path plus all their counts. A forced Stay moves nobody and draws no
randomness, and a lone child's value is never read, so the tree makes
the same choices as one with a node per level. The one statistic such a
node would carry that is read, its visit count as the UCT parent count
of the live level below it, is the node's visits minus ``stay_visits``,
its visits when its last level was counted.

Node deltas, not full states: a node stores only (agent, move, dest). The
root is the search session: it owns one mutable scratch board and
realizes a node's state by applying the deltas on its path to it. The
playout then mutates the same board in place, and after every sample
the board is reset from a snapshot of the root's: the agent cells are
copied back and the goals free at the root unlocked, the only entries a
step can change, so no N x N grid is ever rebuilt or copied during
search and nothing is undone step by step. A terminal leaf (everyone
captured, or the horizon reached) never grows and its playout draws
nothing, so its sample is fixed: a search keeps the first one and backs
it up again whenever select returns that leaf, with no board work at
all. plan_move and the public expand and rollout all run on that board. Its
one check is the full-copy twin in tests/reference.py, which builds the
same trees from whole WorldStates and must match them bit for bit.

A playout plays its turns in one call of a kernel generated for its
number of live movers, once per mover count and on first use (_turns):
the movers' agents and cells are the kernel's locals and their steps
are unrolled in turn order, so no step reads or writes an agent cell on
the board until the kernel returns; a mover captured on the way keeps
its cell coded as ~cell, whose sign skips it. A first turn that starts
mid-turn is the kernel's too: it steps only the movers from the node's
turn position on.

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
suite, which must consume the same draws and return the same sample
bit for bit): for each live acting agent, let ``nb`` be its in-bounds
cardinal destination cells in UP, DOWN, LEFT, RIGHT order and
``m = len(nb)``. Draw ``r = rng.getrandbits(6)``; ``r >= 60`` is
rejected and the draw repeats. Otherwise ``j = r % (m + 1)``;
``j == m`` means Stay (always accepted), and candidate ``nb[j]`` is
accepted unless that cell is a locked goal, in which case the draw
repeats too. m + 1 is 3, 4 or 5, a divisor of 60, so every accepted
draw is exactly uniform over legal moves. Captured agents act
deterministically and consume no randomness. The engine reads the
destination from its step table: grid.cell_tables' 64-entry draw table,
whose entries 60-63 are a sentinel cell the board keeps locked, with
every goal cell and the sentinel stored as ~cell, so one test rejects
both a locked goal and ``r >= 60``. Only goal cells and the sentinel
are ever locked, so a step that lands on a plain cell, the common case,
is screened by the sign of its entry and reads neither the locks nor a
goal flag. A live agent never stands on a goal, so its Stay cell is
never locked.

The board is lists of ints, not bytearrays: CPython specializes list
subscripts, not bytearray ones. plan_move pauses the cyclic collector
while its tree grows and until the tree is freed: a tree holds no cycle
for it to find.
"""
from __future__ import annotations

import gc
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from random import Random

from .grid import (
    Move,
    WorldState,
    _require_int,
    cell_tables,
    goal_walled_distances,
    is_terminal,
)
from .values import NodeStats, UpdateRule, ValueParams, distance_cap

DEFAULT_EXPLORATION_C = math.sqrt(2)

# _LOGS[i] is math.log(i), and _LOGS[0] is 0.0, the log term of a node
# with no visits; select grows it on demand, so importing builds nothing
_LOGS = [0.0]


@lru_cache(maxsize=1)
def _goal_tables(n: int, goals: frozenset):
    """(near, first_d, first_g): near[cell] holds (distance, goal cell)
    for every goal an agent on `cell` can capture, nearest first,
    distances clipped at distance_cap(n); first_d[cell] and first_g[cell]
    are its first entry, flat, so the common lookup, a nearest goal still
    free, reads no tuple. A cell that reaches no goal gets distance_cap(n)
    and the sentinel cell n * n, which the board keeps locked.

    Captured goals are listed too and skipped at lookup time, so one
    table serves every node of every tree over this goal set. One entry
    is kept: the goal set changes only between episodes. Only the
    distance term reads these tables, so a plan with distance_weight 0
    never builds them and runs none of their sweeps; the playout's own
    per-goal-set tables come from _step_tables.
    """
    cap = distance_cap(n)
    near = [[] for _ in range(n * n)]
    for g in goals:
        gcell = g.row * n + g.col
        for p, d in goal_walled_distances(n, goals, g).items():
            near[p.row * n + p.col].append((min(d, cap), gcell))
    near = tuple(tuple(sorted(lst)) for lst in near)
    first_d = [lst[0][0] if lst else cap for lst in near]
    first_g = [lst[0][1] if lst else n * n for lst in near]
    return near, first_d, first_g


@lru_cache(maxsize=1)
def _step_tables(n: int, goals: frozenset):
    """The playout's step tables over this goal set: steps[cell] is
    grid.cell_tables' 64-entry draw table of `cell` with every goal cell,
    and the sentinel n * n, stored as ~cell. So a drawn entry q is a
    plain cell exactly when q >= 0, and a step tests its sign where it
    would otherwise read a goal flag. One entry is kept, as for
    _goal_tables, and no goal is swept.
    """
    code = list(range(n * n + 1))
    for g in goals:
        cell = g.row * n + g.col
        code[cell] = ~cell
    code[n * n] = ~(n * n)
    return tuple(tuple(map(code.__getitem__, table)) for table in cell_tables(n)[2])


def _step_source(i: int, guard: str, indent: str) -> list:
    """Source lines of mover i's step, taken when `guard` holds: six bits
    read through its step table, a goal or the sentinel redrawn while it
    is locked, a free goal locked and captured on, its cell then kept as
    ~cell."""
    lines = [
        guard,
        f"    s = steps[p{i}]",
        f"    p{i} = s[rand(6)]",
        f"    if p{i} < 0:",
        f"        while cap_at[~p{i}]:",
        f"            p{i} = s[rand(6)]",
        f"            if p{i} >= 0:",
        "                break",
        "        else:",
        f"            cap_at[~p{i}] = 1",
        "            c += 1",
    ]
    return [indent + line for line in lines]


def _turns_source(m: int) -> str:
    """Source of the kernel that plays a playout's turns for m movers:
    see _turns. Mover i's agent is the argument a{i} and its cell the
    local p{i}, which holds ~cell from the draw that captures it on."""
    head = ", ".join(f"a{i}" for i in range(m))
    lines = [f"def turns(pos, steps, cap_at, rand, n_turns, first, {head}):"]
    lines += [f"    p{i} = pos[a{i}]" for i in range(m)]
    lines += ["    c = 0"]
    # every mover is live until its own step in the first turn
    for i in range(m):
        lines += _step_source(i, f"if first <= {i}:", "    ")
    lines += ["    for _ in range(n_turns - 1):", f"        if c == {m}:", "            break"]
    for i in range(m):
        lines += _step_source(i, f"if p{i} >= 0:", "        ")
    lines += [f"    pos[a{i}] = p{i} if p{i} >= 0 else ~p{i}" for i in range(m)]
    lines += ["    return c", ""]
    return "\n".join(lines)


@lru_cache(maxsize=None)
def _turns(m: int):
    """Kernel playing a playout's turns for m >= 1 live movers, built
    from _turns_source(m) on first use and kept; importing builds none.

    turns(pos, steps, cap_at, rand, n_turns, first, a0, ..., a{m-1})
    plays n_turns >= 1 turns, the movers a0.. stepping in that order,
    and returns the number of them it captured. The first turn steps
    only the movers from index `first` on, so a playout that starts
    mid-turn plays the rest of that turn in the same call. Each mover's
    cell is a local: a captured one holds its cell coded as ~cell, so
    the sign of the local skips it and it draws nothing. The kernel
    stops after a turn that captures the last mover, then writes every
    mover's cell back to pos, decoded.
    """
    namespace = {}
    exec(_turns_source(m), namespace)
    return namespace["turns"]


@dataclass(frozen=True)
class SearchBudget:
    """Per-call search effort and episode horizon."""

    iterations: int
    t_final: int
    exploration_c: float = DEFAULT_EXPLORATION_C

    def __post_init__(self) -> None:
        _require_int("iterations", self.iterations)
        _require_int("t_final", self.t_final)
        if self.iterations < 1:
            raise ValueError(f"iterations must be positive, got {self.iterations}")
        if self.t_final < 0:
            raise ValueError(f"t_final must be non-negative, got {self.t_final}")
        # math.isfinite(True) holds, so a bool would pass as 1.0
        if isinstance(self.exploration_c, bool):
            raise TypeError(f"exploration_c must be a number, got {self.exploration_c!r}")
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
    `stays` counts the Stay-only levels directly below the node, which
    get no node of their own; its children, if any, act on the first
    level after them. `stay_visits` is the node's visit count when its
    last Stay-only level was counted, so visits - stay_visits is the
    UCT parent count of its children: the visits the bottom Stay level
    would hold. Both stay 0 on a node with no such level below it.
    A node knows only its children: the tree holds no back-pointer, so
    it dies with its root, freed by reference count.
    """

    __slots__ = ("agent", "move", "dest", "value", "visits", "children",
                 "stays", "stay_visits")

    def __init__(self, agent, move, dest):
        self.agent = agent
        self.move = move
        self.dest = dest
        self.value = 0.0
        self.visits = 0
        self.children = None
        self.stays = 0
        self.stay_visits = 0

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

    Holds the context of the whole tree (planning agent, value
    parameters, turn order, the root state's clock t0 and the horizon
    t_final), the leaf distance term's lookup data (_goal_tables' three
    tables), the playout's step tables (_step_tables, shared by every
    root over the goal set) and the flat-indexed scratch board every
    search step runs on:
    pos, the agent cells; goal_at and cap_at, a 0/1 flag per goal cell
    and per locked goal cell; and the captured count. All three are
    lists of ints. cap_at has one entry past the last cell, always 1:
    the sentinel, which the playout's step tables map r >= 60 to and
    code as a goal, locked so that the redraw loop rejects it.
    As in grid.WorldState, an agent is captured exactly when its cell is
    a goal, so the board keeps no per-agent flag.
    Between steps the board equals its state built here. The snapshot
    holds what a step can change: the agent cells, the goal cells free
    here, as a list, and the captured count; _reset() restores the board
    from it in place, so the lists keep their identity, and goals locked
    here stay locked.
    """

    __slots__ = ("planning_agent", "params", "order", "shaping",
                 "t0", "t_final", "pos", "goal_at", "cap_at", "n_captured",
                 "moves", "dests", "steps", "snapshot")

    def __init__(self, state: WorldState, planning_agent: int, params: ValueParams):
        super().__init__(None, None, None)
        self.planning_agent = planning_agent
        self.params = params
        self.order = (planning_agent,) + tuple(
            a for a in range(state.n_agents) if a != planning_agent
        )
        self.t0 = state.t
        self.t_final = params.t_final
        n = state.n
        # (weight, near, first_d, first_g, cap): cap is the distance at
        # which the term saturates
        w = params.distance_weight
        self.shaping = (w, *_goal_tables(n, state.goals), distance_cap(n)) if w else None
        self.pos = [p.row * n + p.col for p in state.agent_pos]
        self.goal_at = [0] * (n * n)
        for g in state.goals:
            self.goal_at[g.row * n + g.col] = 1
        self.cap_at = [0] * (n * n + 1)
        self.cap_at[n * n] = 1
        for cell in self.pos:
            self.cap_at[cell] = self.goal_at[cell]
        self.n_captured = sum(state.captured)
        self.moves, self.dests = cell_tables(n)[:2]
        self.steps = _step_tables(n, state.goals)
        free = [c for c in range(n * n) if self.goal_at[c] and not self.cap_at[c]]
        self.snapshot = (self.pos[:], free, self.n_captured)

    def _reset(self) -> None:
        """Restore the board to its snapshot. A step only moves agents and
        locks free goals, so the agent cells are copied back and only the
        goals free at the root are unlocked; the rest of cap_at, like
        goal_at, never changes."""
        pos, free, self.n_captured = self.snapshot
        self.pos[:] = pos
        cap_at = self.cap_at
        for g in free:
            cap_at[g] = 0

    def _realize(self, nodes) -> int:
        """Apply the deltas of `nodes`, the path below the root in order,
        to the scratch board; returns the depth the board now stands at:
        one level per node plus the Stay-only levels counted on the root
        and on every node.

        Mirrors grid.apply_move: landing on a free goal pins the agent and
        locks the goal. A counted Stay-only level moves nobody. The
        engine's only way from tree to board.
        """
        pos = self.pos
        goal_at = self.goal_at
        cap_at = self.cap_at
        n_cap = self.n_captured
        depth = self.stays + len(nodes)
        for nd in nodes:
            q = nd.dest
            if goal_at[q] and not cap_at[q]:
                cap_at[q] = 1
                n_cap += 1
            pos[nd.agent] = q
            depth += nd.stays
        self.n_captured = n_cap
        return depth

    def _grow(self, leaf: SearchNode, depth: int):
        """Grow `leaf` by one level, the one below `depth`, given the board
        realized at that depth.

        Returns None, leaving `leaf` as it is, if the board is terminal:
        fully captured or horizon reached. If the acting agent stands on
        a goal, the level is Stay-only: it is counted on `leaf`, which
        records its visits, and `leaf` itself is returned. Otherwise `leaf`
        gets one child per legal move of the acting agent, in canonical
        move order, and the first child is returned.
        """
        order = self.order
        turns, tp = divmod(depth, len(order))
        # tp > 0 implies the horizon is not reached: a mid-turn level shares
        # its turn with the level above it, and only non-terminal levels
        # grow
        if self.n_captured == len(order) or self.t0 + turns >= self.t_final:
            return None
        act = order[tp]
        p = self.pos[act]
        if self.goal_at[p]:
            leaf.stays += 1
            leaf.stay_visits = leaf.visits
            return leaf
        cap_at = self.cap_at
        # the playout's acceptance rule: Stay, or a cell that is not locked.
        # A plain loop, as in _playout: a comprehension would make act,
        # cap_at and p closure cells before CPython 3.12
        kids = []
        for mv, q in zip(self.moves[p], self.dests[p]):
            if q == p or not cap_at[q]:
                kids.append(SearchNode(act, mv, q))
        leaf.children = kids
        return kids[0]

    def _playout(self, depth: int, rand) -> float:
        """Random playout from the board realized at level `depth`;
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

        Only live agents draw. `rand` is the rng's getrandbits: each step
        draws six bits and reads its destination from the mover's cell's
        step table (see _step_tables), where a goal or the sentinel is
        stored as ~cell. Only those can be locked, so only a negative
        entry enters the redraw loop, which redraws while the destination
        is locked (see the module docstring) and captures if it ends on a
        goal. Every step runs in one call of the kernel _turns(m), with
        the m agents live at the node in turn order, which returns its
        capture count: it plays the rest of the node's turn, from the
        node's turn position, then every whole turn left, and stops after
        the turn that captures the last of them.
        """
        params = self.params
        t_final = self.t_final
        order = self.order
        n_agents = len(order)
        pos = self.pos
        goal_at = self.goal_at
        cap_at = self.cap_at
        steps = self.steps
        shaping = self.shaping
        n_cap = self.n_captured

        t, tp = divmod(depth, n_agents)
        t += self.t0
        node_time = t if tp == 0 else t + 1
        live = n_agents - n_cap
        if shaping is not None and live:
            w, near, first_d, first_g, cap = shaping
            dist_sum = 0
            for p in pos:
                if goal_at[p]:
                    continue
                if not cap_at[first_g[p]]:
                    dist_sum += first_d[p]
                    continue
                # the nearest goal is locked (or, for a cell that reaches
                # no goal, is the sentinel): scan the rest
                d = cap
                for dg, gcell in near[p]:
                    if not cap_at[gcell]:
                        d = dg  # nearest first, so the first free goal wins
                        break
                dist_sum += d

        if n_cap < n_agents and t < t_final:
            # plain loops, not comprehensions: before CPython 3.12 a
            # comprehension reading pos or goal_at would make both closure
            # cells, and every read of them slower. The movers are listed in
            # turn order; the first turn skips those before the node's turn
            # position
            movers = []
            for a in order[:tp]:
                if not goal_at[pos[a]]:
                    movers.append(a)
            first = len(movers)
            for a in order[tp:]:
                if not goal_at[pos[a]]:
                    movers.append(a)
            n_cap += _turns(len(movers))(pos, steps, cap_at, rand, t_final - t, first, *movers)

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

        Each iteration selects a leaf, realizes it on the board, grows it
        by one level unless it is terminal, rolls out from that level
        (its first child, or the Stay-only level counted on it) or from
        the terminal leaf, resets the board and backs the sample up the
        path. Playouts draw through rng.getrandbits, six bits a step.

        A terminal leaf never grows and its playout draws nothing, so its
        sample is fixed by its path: the first one is kept in a map local
        to this call, and a later selection of that leaf backs the kept
        sample up without touching the board. select and backpropagate
        are still called on every iteration, looked up as module globals
        at call time, so a tracer that rebinds them sees every step; the
        four board methods are bound once, when the loop starts.
        budget.t_final must equal params.t_final; plan_move checks it,
        and pauses the cyclic collector around this loop.
        """
        rule = self.params.update_rule
        c = budget.exploration_c
        rand = rng.getrandbits
        realize, grow = self._realize, self._grow
        playout, reset = self._playout, self._reset
        # terminal leaf -> its sample
        terminal = {}
        for _ in range(budget.iterations):
            path = select(self, c)
            leaf = path[-1]
            value = terminal.get(leaf)
            if value is None:
                depth = realize(path[1:])
                child = grow(leaf, depth)
                if child is None:
                    value = terminal[leaf] = playout(depth, rand)
                else:
                    depth += 1
                    if child is not leaf:
                        path.append(child)
                        realize((child,))
                    value = playout(depth, rand)
                reset()
            backpropagate(path, value, rule)


@contextmanager
def _collector_paused():
    """Pause the cyclic collector; on every exit leave it as it was found,
    as timeit does. A plan tree holds no reference cycle
    (test_plan_move_leaves_no_cyclic_garbage and
    test_episode_leaves_no_cyclic_garbage), so reference counting frees
    all of it: a collection during a search would only scan the tree.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


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
    value + c * sqrt(ln(parent count) / child.visits) is taken; an
    unvisited child scores infinite and the first one in creation order
    wins. Ties go to the earliest child, which is canonical move order.
    The parent count is node.visits - node.stay_visits: the node's own
    visits, or, below counted Stay-only levels, the visits of the last
    of them (see SearchNode). Its log is read from the module's table
    _LOGS, which _log_of extends the first time a count is past its end;
    a count of 0 reads 0.0. The count is never negative: a node's visits
    only grow after stay_visits copies them.

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
    logs = _LOGS
    sqrt = math.sqrt
    ninf = -math.inf
    kids = root.children
    while kids:
        if not kids[-1].visits:
            for best in kids:
                if not best.visits:
                    break
        elif len(kids) == 1:
            best = kids[0]
        else:
            nv = node.visits - node.stay_visits
            try:
                lp = logs[nv]
            except IndexError:
                lp = _log_of(nv)
            best = None
            best_score = ninf
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
        kids = node.children
    return path


def _log_of(n: int) -> float:
    """math.log(n), after extending _LOGS with the logs of every count
    from its end up to n and no further. Kept out of select: before
    CPython 3.12 a comprehension there would make its locals closure
    cells, and every read of them slower."""
    _LOGS.extend(map(math.log, range(len(_LOGS), n + 1)))
    return _LOGS[n]


def expand(path: list[SearchNode]) -> SearchNode:
    """Grow the leaf at the end of `path` by one level in place; returns
    its first child, or the leaf itself if the level is Stay-only.

    The level is the one below the leaf's depth, which counts the nodes
    above the leaf and the Stay-only levels counted on them and on the
    leaf. A Stay-only level, whose acting agent stands on a goal, is
    counted on the leaf instead of becoming a node; the leaf stays a
    leaf, one level deeper. `path` runs from a root built by make_root
    down to the leaf, each node a child of the one before it, as select
    returns it. Raises if it does not, or if the leaf is already
    expanded or terminal (board fully captured or horizon reached). Runs
    on the root's board and resets it.
    """
    root = _path_root(path)
    leaf = path[-1]
    if leaf.expanded:
        raise ValueError("node is already expanded")
    first = root._grow(leaf, root._realize(path[1:]))
    root._reset()
    if first is None:
        raise ValueError("cannot expand a terminal node")
    return first


def rollout(path: list[SearchNode], rng: Random) -> float:
    """Score one random playout from the state of the node at the end of
    `path`, below the Stay-only levels counted on it, up to the tree's
    own horizon, on the root's board, then reset the board; the tree is
    untouched. `path` is checked as for expand."""
    root = _path_root(path)
    value = root._playout(root._realize(path[1:]), rng.getrandbits)
    root._reset()
    return value


def backpropagate(path: list[SearchNode], value: float, rule: UpdateRule) -> None:
    """Fold one sample into every node on the path.

    Field writes are inlined for speed but must stay equivalent to
    values.update_value; the test suite checks the two against each
    other sample by sample. The mean update has no first-visit branch:
    at 0 visits, (0 * nd.value + value) / 1 equals the sample for any
    finite nd.value, and a node starts at 0.0.
    """
    if rule is UpdateRule.MEAN:
        for nd in path:
            v = nd.visits
            nd.value = (v * nd.value + value) / (v + 1)
            nd.visits = v + 1
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
    with _collector_paused():
        root.run(budget, rng)
        move = best_action(root)
        # freed while the collector is still paused: every node of the
        # tree counts as a young object, and the first allocation after
        # the pause would start a collection that scans them all
        del root
    return move
