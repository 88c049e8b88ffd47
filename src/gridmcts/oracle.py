"""Exact solvers and bounds, used to ground-truth the searcher.

``exact_joint_search`` answers "can every goal be captured within t
steps, and how fast at best?" at any board size, as the least horizon
at which a time-expanded max-flow carries every agent to a goal.
``iterative_deepening_search`` answers it by an unrelated algorithm, a
depth-first search over Position tuples through _joint_successors with
an admissible distance prune. It is exponential, so it takes boards up
to 5x5 with 3 agents; perfbench/run.py checks the flow against it. The
breadth-first search over joint states that the flow replaced lives on
as the reference twin in tests/reference.py. All of them use the
coordinator's joint-move semantics: every agent steps or stays
simultaneously, destinations must be pairwise distinct, locked goals
are impassable, and landing on a free goal captures. Any such joint
move is realizable by the merge rule and vice versa, so the optimal
makespan found here is the true optimum of the executed system.

Two bounds answer coarser questions at any board size and any horizon,
both with one augmenting-path matcher over agents and goals.
``certify_unsolvable`` proves an instance unsolvable from reachability
alone; ``assignment_lower_bound`` is the bottleneck assignment, the
smallest Manhattan distance at which every goal can be given its own
agent.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .grid import (
    CARDINAL_MOVES,
    Move,
    Position,
    cell_tables,
    goal_walled_distances,
    manhattan,
    move_dest,
)
from .scenarios import Instance

_MAX_N = 5
_MAX_AGENTS = 3


@dataclass(frozen=True)
class OracleResult:
    """Verdict of an exact search up to a horizon.

    witness_plan[agent] is that agent's move sequence, one entry per
    turn, reaching full capture in optimal_makespan turns (all empty
    when the instance starts solved). None when the horizon is
    insufficient.
    """

    solvable_within: bool
    optimal_makespan: int | None
    witness_plan: tuple[tuple[Move, ...], ...] | None


def _check_tractable(instance: Instance, t_final: int) -> None:
    """Reject boards and populations beyond the deepening search's reach."""
    n, na = instance.grid.n, instance.grid.n_agents
    if n > _MAX_N or na > _MAX_AGENTS:
        raise ValueError(
            f"joint search handles up to {_MAX_N}x{_MAX_N} and {_MAX_AGENTS} agents, "
            f"got {n}x{n} with {na}"
        )
    if t_final < 0:
        raise ValueError(f"t_final must be non-negative, got {t_final}")


def _flatten(instance: Instance):
    starts = tuple(instance.starts)
    goals = frozenset(instance.goals)
    cap0 = tuple(p in goals for p in starts)
    return starts, goals, cap0


def _per_agent(joint_turns, n_agents) -> tuple[tuple[Move, ...], ...]:
    """Reshape a turn-major joint move list into per-agent sequences."""
    if not joint_turns:
        return tuple(() for _ in range(n_agents))
    return tuple(zip(*joint_turns))


def _joint_successors(n, goals, pos, cap):
    """All joint moves: per-agent legal steps with pairwise distinct dests."""
    locked = {p for p, c in zip(pos, cap) if c}
    options = []
    for p, c in zip(pos, cap):
        if c:
            options.append(((Move.STAY, p),))
            continue
        opts = []
        for m in CARDINAL_MOVES:
            q = move_dest(p, m)
            if 0 <= q.row < n and 0 <= q.col < n and q not in locked:
                opts.append((m, q))
        opts.append((Move.STAY, p))
        options.append(tuple(opts))
    for combo in product(*options):
        dests = tuple(q for _, q in combo)
        if len(set(dests)) != len(dests):
            continue
        moves = tuple(m for m, _ in combo)
        new_cap = tuple(
            c or (q in goals) for c, q in zip(cap, dests)
        )
        yield moves, dests, new_cap


def exact_joint_search(instance: Instance, t_final: int) -> OracleResult:
    """Least horizon at which a time-expanded max-flow carries every
    agent to a goal: the optimal makespan, at any board size.

    Node (c, t), cell c at turn t, has capacity 1, kept by an in and an
    out half. A non-goal cell links to itself and its in-bounds
    neighbours at t + 1, a goal only to itself, since capture pins its
    agent. Sources are the starts at t = 0, sinks the goals at the
    horizon. Unit paths through distinct nodes are exactly the joint
    moves with pairwise distinct destinations, swaps included. A flow
    at horizon T stays one at T + 1, each unit waiting on its goal, so
    the flow is kept as the horizon rises from 0 and grown by
    breadth-first augmenting paths. It holds the used edges (t, c, c')
    and one (-1, -1, start) edge per routed start. The witness follows
    each start's unit, its moves read from grid.cell_tables.
    """
    if t_final < 0:
        raise ValueError(f"t_final must be non-negative, got {t_final}")
    n = instance.grid.n
    moves, dests, _ = cell_tables(n)
    goal = {g.row * n + g.col for g in instance.goals}
    opts = [(c,) if c in goal else dests[c] for c in range(n * n)]
    src = [p.row * n + p.col for p in instance.starts]
    flow: set = set()
    for horizon in range(t_final + 1):
        flow |= {(horizon - 1, q, q) for t, _, q in flow if t == horizon - 2}
        while True:
            went = {(t, c): q for t, c, q in flow}
            came = {(t + 1, q): c for t, c, q in flow}
            parent = {(0, s, 0): None for s in src if (0, s) not in came}
            if not parent:
                plan = []
                for c in src:
                    path = [c]
                    for t in range(horizon):
                        path.append(went[t, path[-1]])
                    plan.append(tuple(moves[a][dests[a].index(b)] for a, b in zip(path, path[1:])))
                return OracleResult(True, horizon, tuple(plan))
            # residual moves: an out half takes every edge its unit does not
            # and, on a used node, backs into its in half; a used in half
            # backs along its unit's edge in, an unused one crosses its node
            frontier, end = list(parent), None
            for t, c, out in frontier:
                if out:
                    nxt = [(t + 1, q, 0) for q in opts[c] if q != went.get((t, c))]
                    if (t, c) in came:
                        nxt.append((t, c, 0))
                elif (t, c) in came:
                    nxt = [(t - 1, came[t, c], 1)] if t else []
                elif t < horizon:
                    nxt = [(t, c, 1)]
                elif c in goal:
                    end = (t, c, 0)
                    break
                else:
                    continue
                for state in nxt:
                    if state not in parent:
                        parent[state] = (t, c, out)
                        frontier.append(state)
            if end is None:
                break
            # a forward step of the path adds its edge to the flow, a
            # backward step cancels the edge it retraces
            while parent[end] is not None:
                (t0, c0, _), (t1, c1, _) = parent[end], end
                if t0 != t1:
                    flow ^= {(t0, c0, c1) if t1 > t0 else (t1, c1, c0)}
                end = parent[end]
            flow.add((-1, -1, end[1]))
    return OracleResult(False, None, None)


def _nearest_free_goal_bound(pos, cap, goals):
    """Max over live agents of distance to the closest unlocked goal."""
    locked = {p for p, c in zip(pos, cap) if c}
    free = goals - locked
    worst = 0
    for p, c in zip(pos, cap):
        if c:
            continue
        d = min(manhattan(p, g) for g in free)
        if d > worst:
            worst = d
    return worst


def iterative_deepening_search(instance: Instance, t_final: int) -> OracleResult:
    """Same verdict as exact_joint_search via an unrelated algorithm.

    Depth-first with an iteratively raised turn limit. Prunes branches
    whose relaxed single-agent distances already exceed the remaining
    turns (relaxation drops collisions, so it never prunes a real
    solution) and remembers states that failed with at least as many
    turns left. The first limit that succeeds is the optimal makespan.
    """
    _check_tractable(instance, t_final)
    n, na = instance.grid.n, instance.grid.n_agents
    starts, goals, cap0 = _flatten(instance)
    if all(cap0):
        return OracleResult(True, 0, _per_agent([], na))

    def dfs(pos, cap, left, failed):
        bound = _nearest_free_goal_bound(pos, cap, goals)
        if bound > left:
            return None
        if failed.get((pos, cap), -1) >= left:
            return None
        for moves, dests, new_cap in _joint_successors(n, goals, pos, cap):
            if all(new_cap):
                return [moves]
            if left > 1:
                rest = dfs(dests, new_cap, left - 1, failed)
                if rest is not None:
                    return [moves] + rest
        failed[(pos, cap)] = left
        return None

    floor = _nearest_free_goal_bound(starts, cap0, goals)
    for limit in range(max(floor, 1), t_final + 1):
        found = dfs(starts, cap0, limit, {})
        if found is not None:
            return OracleResult(True, len(found), _per_agent(found, na))
    return OracleResult(False, None, None)


def _unmatched(reach) -> list[int]:
    """Goals a maximum matching leaves unmatched, as indices into `reach`.

    reach[j] lists the agents that may take goal j. Kuhn's augmenting
    path search, goals tried in index order: a goal that fails to
    augment stays unmatched in every later augmentation too, so the
    failures are exactly the unmatched goals. Goals no agent reaches
    are always among them; beyond those, which goals stay unmatched
    depends on the order, but their number does not.
    """
    owner: dict[int, int] = {}

    def augment(j, seen) -> bool:
        for i in reach[j]:
            if i in seen:
                continue
            seen.add(i)
            if i not in owner or augment(owner[i], seen):
                owner[i] = j
                return True
        return False

    return [j for j in range(len(reach)) if not augment(j, set())]


def certify_unsolvable(instance: Instance) -> tuple[Position, ...]:
    """Free goals that no plan can get captured, at any horizon.

    An agent reaches a goal only along a path whose interior avoids
    every goal cell (grid.goal_walled_distances), so every free goal
    needs its own live agent that can reach it that way. This builds
    the bipartite graph of live agents and free goals by that
    reachability and returns the goals a maximum matching leaves
    unmatched, in sorted order. A non-empty result certifies that the
    instance can never be fully solved. An empty one certifies that it
    is solvable within k * (n * n - 1) turns for k agents. Swaps are
    legal and only goals wall a goal-walled path, so given a perfect
    matching the agents can walk their matched paths one at a time,
    swapping past any live agent in the way. The swapped agent steps to
    an adjacent non-goal cell, the one the walker left, and so keeps
    every goal it could reach.
    """
    n = instance.grid.n
    starts, goals, cap0 = _flatten(instance)
    live = [p for p, c in zip(starts, cap0) if not c]
    free = sorted(goals - set(starts))
    reach = []
    for g in free:
        dist = goal_walled_distances(n, goals, g)
        reach.append([i for i, p in enumerate(live) if p in dist])
    return tuple(free[j] for j in _unmatched(reach))


def assignment_lower_bound(instance: Instance) -> int:
    """Best-case makespan ignoring every interaction between agents.

    Minimum over goal assignments of the longest straight-line walk any
    agent would need: the bottleneck assignment, found as the smallest
    Manhattan distance at which agents can be matched to goals one to
    one. Real episodes add collision detours and search noise on top,
    so no run can beat this number.
    """
    starts, goals, _ = _flatten(instance)
    dist = [[manhattan(s, g) for s in starts] for g in goals]
    # ascending thresholds; the largest admits every pair, so the loop
    # always breaks
    for t in sorted({d for row in dist for d in row}):
        if not _unmatched([[i for i, d in enumerate(row) if d <= t] for row in dist]):
            break
    return t
