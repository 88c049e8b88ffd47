"""Grid world for cooperative goal capture.

The arena is an N x N board. Each agent occupies one cell; a set of goal
cells must all end up occupied, one agent per goal. Agents move one cell
per time step (four-way) or stay put. An agent that steps onto an
unoccupied goal is captured there: it never moves again and its cell
becomes impassable to everyone else. So an agent is captured exactly
when it stands on a goal, and capture is derived from the positions,
never stored beside them.

States are immutable; all transition helpers return new states. Time is
owned by the caller: ``apply_move`` repositions a single agent without
touching the clock, and the coordinator advances ``t`` once per joint
turn.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from functools import lru_cache
from typing import NamedTuple


class Position(NamedTuple):
    row: int
    col: int


class Move(IntEnum):
    """One-step action. Enum order is the canonical tie-break order."""

    UP = 0
    DOWN = 1
    LEFT = 2
    RIGHT = 3
    STAY = 4


# row/col deltas, indexed by Move value
_DELTAS = ((-1, 0), (1, 0), (0, -1), (0, 1), (0, 0))

CARDINAL_MOVES = (Move.UP, Move.DOWN, Move.LEFT, Move.RIGHT)


def move_dest(pos: Position, move: Move) -> Position:
    """Destination cell of `move` taken from `pos` (bounds not checked)."""
    dr, dc = _DELTAS[move]
    return Position(pos.row + dr, pos.col + dc)


def manhattan(a: Position, b: Position) -> int:
    return abs(a.row - b.row) + abs(a.col - b.col)


@lru_cache(maxsize=None)
def cell_tables(n: int):
    """Per-cell moves, destinations and draw tables, three flat tuples
    indexed by cell (r * n + c); cached per grid size.

    moves[cell] lists the in-bounds cardinal Moves in canonical order,
    then Stay. dests[cell] lists the matching destination cells, `cell`
    itself last for Stay, so a destination equals `cell` exactly when the
    move is Stay. draws[cell] is the playout's draw table. Locked goals
    are not filtered out; callers skip them.

    draws[cell] has 64 entries, one per value of a six-bit draw r: with
    m = len(dests[cell]), entry r < 60 is dests[cell][r % m], and entries
    60-63 are the sentinel n * n, one past the last cell. m is 3, 4 or 5,
    a divisor of 60, so every destination fills exactly 60 / m of the 60.
    """
    moves = []
    dests = []
    draws = []
    for cell in range(n * n):
        r, c = divmod(cell, n)
        mm = []
        dd = []
        for mv, ok, q in zip(
            CARDINAL_MOVES,
            (r > 0, r < n - 1, c > 0, c < n - 1),
            (cell - n, cell + n, cell - 1, cell + 1),
        ):
            if ok:
                mm.append(mv)
                dd.append(q)
        moves.append(tuple(mm) + (Move.STAY,))
        cells = tuple(dd) + (cell,)
        m1 = len(cells)
        dests.append(cells)
        draws.append(tuple(cells[r % m1] for r in range(60)) + (n * n,) * 4)
    return tuple(moves), tuple(dests), tuple(draws)


def _require_int(name: str, value) -> None:
    """Raise TypeError naming `name` unless `value` is an int and not a
    bool: a float count fails deep inside a search, and True counts as 1."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {value!r}")


@dataclass(frozen=True)
class GridConfig:
    """Board size and population. Every agent has exactly one goal, so
    goals equal agents in count and need no field of their own."""

    n: int
    n_agents: int

    def __post_init__(self) -> None:
        _require_int("n", self.n)
        _require_int("n_agents", self.n_agents)
        if self.n < 2:
            raise ValueError(f"grid size must be at least 2, got {self.n}")
        if self.n_agents < 1:
            raise ValueError(f"need at least one agent, got {self.n_agents}")
        if 2 * self.n_agents > self.n * self.n:
            raise ValueError(
                f"{self.n_agents} agents need {2 * self.n_agents} distinct "
                f"cells but a {self.n}x{self.n} grid has {self.n * self.n}"
            )


@dataclass(frozen=True)
class WorldState:
    """Snapshot of the board at time ``t``.

    ``captured[i]`` means agent i is pinned to the goal cell it sits on.
    It is derived from the positions, never passed in: an agent is
    captured exactly when it stands on a goal.
    Two live agents may transiently share a cell while a joint move is
    being assembled (single-agent proposals are applied one at a time);
    coordinator outputs are always pairwise distinct. Captured agents can
    never share: each one owns its goal exclusively.
    """

    n: int
    t: int
    agent_pos: tuple[Position, ...]
    goals: frozenset[Position]
    captured: tuple[bool, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ValueError(f"time must be non-negative, got {self.t}")
        if len(self.goals) != len(self.agent_pos):
            raise ValueError(
                f"{len(self.agent_pos)} agents but {len(self.goals)} goals"
            )
        for cell in list(self.agent_pos) + list(self.goals):
            if not (0 <= cell.row < self.n and 0 <= cell.col < self.n):
                raise ValueError(f"cell {cell} outside {self.n}x{self.n} grid")
        captured = tuple(p in self.goals for p in self.agent_pos)
        held = [p for p, c in zip(self.agent_pos, captured) if c]
        if len(set(held)) != len(held):
            raise ValueError(f"two captured agents share a goal: {held}")
        object.__setattr__(self, "captured", captured)

    @property
    def n_agents(self) -> int:
        return len(self.agent_pos)

    def captured_cells(self) -> frozenset[Position]:
        """Goal cells already locked by a captured agent."""
        return frozenset(
            p for p, c in zip(self.agent_pos, self.captured) if c
        )


def initial_state(grid: GridConfig, starts, goals) -> WorldState:
    """Build the t=0 state; agents that start on a goal are captured there."""
    starts = tuple(Position(*p) for p in starts)
    goal_set = frozenset(Position(*p) for p in goals)
    if len(starts) != grid.n_agents:
        raise ValueError(f"expected {grid.n_agents} starts, got {len(starts)}")
    if len(goal_set) != grid.n_agents:
        raise ValueError(f"expected {grid.n_agents} distinct goals")
    if len(set(starts)) != len(starts):
        raise ValueError("start cells must be pairwise distinct")
    return WorldState(grid.n, 0, starts, goal_set)


def legal_moves(state: WorldState, agent: int) -> tuple[Move, ...]:
    """Moves agent may propose, in canonical order.

    Captured agents only stay. Live agents may stay or step to any
    in-bounds neighbor that is not a locked goal cell. Stepping onto
    another live agent's current cell is allowed at proposal time; the
    coordinator resolves those collisions when merging.
    """
    if not 0 <= agent < state.n_agents:
        raise IndexError(f"agent id {agent} out of range")
    if state.captured[agent]:
        return (Move.STAY,)
    pos = state.agent_pos[agent]
    locked = state.captured_cells()
    out = []
    for m in CARDINAL_MOVES:
        q = move_dest(pos, m)
        if 0 <= q.row < state.n and 0 <= q.col < state.n and q not in locked:
            out.append(m)
    out.append(Move.STAY)
    return tuple(out)


def apply_move(state: WorldState, agent: int, move: Move) -> WorldState:
    """Reposition one agent; landing on a goal captures it (locked goals
    are not legal destinations, so any goal it lands on is free).

    ``t`` is untouched. Raises ValueError for a move not in
    ``legal_moves(state, agent)``.
    """
    if move not in legal_moves(state, agent):
        raise ValueError(f"agent {agent} cannot play {move.name} at {state.agent_pos[agent]}")
    dest = move_dest(state.agent_pos[agent], move)
    new_pos = list(state.agent_pos)
    new_pos[agent] = dest
    return WorldState(state.n, state.t, tuple(new_pos), state.goals)


def goal_walled_distances(n: int, goals, target: Position) -> dict[Position, int]:
    """Steps from every cell that can still capture `target` to it.

    An agent can only ever reach a goal along a path whose interior
    avoids every goal cell: entering a free goal pins it there and a
    locked one is impassable. So the breadth-first sweep runs backwards
    from `target` over non-goal cells, every other goal acting as a
    wall. Other agents are ignored. Cells missing from the result can
    never capture `target`; `target` itself maps to 0.
    """
    target = Position(*target)
    walls = set(goals)
    dist = {target: 0}
    frontier = [target]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for p in frontier:
            for m in CARDINAL_MOVES:
                q = move_dest(p, m)
                if (0 <= q.row < n and 0 <= q.col < n
                        and q not in walls and q not in dist):
                    dist[q] = d
                    nxt.append(q)
        frontier = nxt
    return dist


def success_rate(state: WorldState) -> float:
    """Fraction of agents captured on goals, in [0, 1]."""
    return sum(state.captured) / len(state.captured)


def is_terminal(state: WorldState, t_final: int) -> bool:
    """Episode over: every goal is held, or the deadline has passed."""
    return all(state.captured) or state.t >= t_final
