"""Checks of episode outputs that share no code with the program.

Everything here works on plain tuples: a cell is ``(row, col)``, a
state is ``(t, positions, captured)``. The rules are taken from the
README's "Rules of the world", not from ``gridmcts.grid``: agents move
one cell per step in four directions or stay, two agents never share a
cell, an agent that stands on a goal it did not start captured on is
captured there and never moves again.
"""
from __future__ import annotations

from collections import deque

_STEPS = ((-1, 0), (1, 0), (0, -1), (0, 1))


def check_episode(n, starts, goals, states, success_rate, makespan, t_final):
    """Every rule breach and reporting error of one episode, as strings.

    ``states[k]`` is the world at time k; ``success_rate`` and
    ``makespan`` are what the program reported. An empty list means the
    episode obeyed the rules and its report matches its states.
    """
    goals = frozenset(goals)
    errors = []
    if not states:
        return ["no states"]
    t0, pos0, cap0 = states[0]
    if t0 != 0:
        errors.append(f"first state at t={t0}")
    if tuple(pos0) != tuple(starts):
        errors.append(f"initial positions {pos0} differ from starts {starts}")
    if tuple(cap0) != tuple(p in goals for p in starts):
        errors.append(f"initial captures {cap0} wrong")
    for k, (t, pos, cap) in enumerate(states):
        if t != k:
            errors.append(f"state {k} has t={t}")
        if len(set(pos)) != len(pos):
            errors.append(f"t={k}: two agents share a cell in {pos}")
        for r, c in pos:
            if not (0 <= r < n and 0 <= c < n):
                errors.append(f"t={k}: cell {(r, c)} off the board")
        for i, (p, cp) in enumerate(zip(pos, cap)):
            if cp and p not in goals:
                errors.append(f"t={k}: agent {i} captured off goal at {p}")
    for k in range(1, len(states)):
        _, before, cap_before = states[k - 1]
        _, after, cap_after = states[k]
        for i, (p, q) in enumerate(zip(before, after)):
            if abs(p[0] - q[0]) + abs(p[1] - q[1]) > 1:
                errors.append(f"t={k}: agent {i} jumped from {p} to {q}")
            if cap_before[i]:
                if q != p:
                    errors.append(f"t={k}: captured agent {i} moved from {p} to {q}")
                if not cap_after[i]:
                    errors.append(f"t={k}: agent {i} lost its capture")
            elif cap_after[i] != (q in goals):
                errors.append(f"t={k}: agent {i} on {q} has capture flag {cap_after[i]}")

    final_cap = states[-1][2]
    done = next((k for k, s in enumerate(states) if all(s[2])), None)
    if done is not None and done != len(states) - 1:
        errors.append(f"episode went on after full capture at t={done}")
    if done is None and len(states) - 1 != t_final:
        errors.append(f"episode stopped at t={len(states) - 1} before the horizon {t_final}")
    want_makespan = t_final if done is None else done
    if makespan != want_makespan:
        errors.append(f"reported makespan {makespan}, states say {want_makespan}")
    want_success = sum(final_cap) / len(final_cap)
    if success_rate != want_success:
        errors.append(f"reported success {success_rate}, states say {want_success}")
    return errors


def check_optimum(makespan, solved, optimum):
    """Errors of an episode against the exact optimal makespan.

    ``optimum`` is None when no plan captures every goal within the
    horizon. No episode may finish faster than the optimum, and none
    may finish at all when there is no optimum.
    """
    if not solved:
        return []
    if optimum is None:
        return [f"solved in {makespan} steps, but the exact search finds no plan"]
    if makespan < optimum:
        return [f"makespan {makespan} below the exact optimum {optimum}"]
    return []


def _reach(n, goals, target):
    """Cells from which an agent can still capture ``target``.

    A path into a goal must avoid every other goal on its way: entering
    a free goal pins an agent and a captured one is impassable.
    """
    seen = {target}
    queue = deque([target])
    while queue:
        r, c = queue.popleft()
        for dr, dc in _STEPS:
            q = (r + dr, c + dc)
            if 0 <= q[0] < n and 0 <= q[1] < n and q not in goals and q not in seen:
                seen.add(q)
                queue.append(q)
    return seen


def unmatched_goals(n, starts, goals):
    """Free goals left over by a maximum matching of agents to goals.

    An agent may take a goal only if it can reach it along a path
    through non-goal cells. A non-empty result proves the instance can
    never be fully solved, at any horizon.
    """
    goals = frozenset(goals)
    live = [p for p in starts if p not in goals]
    free = sorted(goals - set(starts))
    reach = {}
    for g in free:
        cells = _reach(n, goals, g)
        reach[g] = [i for i, p in enumerate(live) if p in cells]
    owner = {}

    def augment(g, seen):
        for i in reach[g]:
            if i not in seen:
                seen.add(i)
                if i not in owner or augment(owner[i], seen):
                    owner[i] = g
                    return True
        return False

    return [g for g in free if not augment(g, set())]
