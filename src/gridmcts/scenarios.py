"""Problem instances: naming and generation.

An instance is a board size plus matching start and goal cell lists.
Names follow ``MP{N}{N_A}-{k}``, e.g. MP52-1 for the second generated
5x5 two-agent instance. Because the two numbers are concatenated, some
size pairs would collide (MP816 could be 8x8 with 16 agents or 81x81
with 6); for exactly those pairs the name switches to an explicit
``MP{N}x{N_A}-{k}`` form, and parsing accepts the concatenated form
only when a single size pair explains it.

Instances are never stored: ``generate_instance`` rebuilds each one
from its name and a master seed.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from random import Random

from .grid import GridConfig, Position, _require_int
from .seeds import mix_chain

_NAME_X = re.compile(r"^MP(\d+)x(\d+)-(\d+)$")
_NAME_CAT = re.compile(r"^MP(\d+)-(\d+)$")


def _size_splits(digits: str) -> list[tuple[int, int]]:
    """All (n, n_agents) readings of a concatenated size string."""
    out = []
    for cut in range(1, len(digits)):
        a, b = digits[:cut], digits[cut:]
        if b.startswith("0") and b != "0":
            continue
        if a.startswith("0"):
            continue
        n, na = int(a), int(b)
        try:
            GridConfig(n, na)
        except ValueError:
            continue
        out.append((n, na))
    return out


def parse_instance_name(name: str) -> tuple[int, int, int]:
    """Recover (n, n_agents, k) from an instance name.

    Rejects concatenated names that more than one size pair could have
    produced; the generator never emits those (it falls back to the
    x-separated form).
    """
    m = _NAME_X.match(name)
    if m:
        return int(m.group(1)), int(m.group(2)), int(m.group(3))
    m = _NAME_CAT.match(name)
    if not m:
        raise ValueError(f"malformed instance name {name!r}")
    splits = _size_splits(m.group(1))
    if not splits:
        raise ValueError(f"no valid board size reading for name {name!r}")
    if len(splits) > 1:
        raise ValueError(f"ambiguous instance name {name!r}: could be any of {splits}")
    n, na = splits[0]
    return n, na, int(m.group(2))


def instance_name(n: int, n_agents: int, k: int) -> str:
    """Canonical name for the k-th instance of a size."""
    _require_int("k", k)
    if k < 0:
        raise ValueError(f"instance index must be non-negative, got {k}")
    GridConfig(n, n_agents)  # validate the size pair itself
    cat = f"MP{n}{n_agents}-{k}"
    if _size_splits(f"{n}{n_agents}") == [(n, n_agents)]:
        return cat
    return f"MP{n}x{n_agents}-{k}"


@dataclass(frozen=True)
class Instance:
    """One concrete problem: a board with start and goal cells.

    Starts are pairwise distinct and so are goals; a start may coincide
    with a goal, which simply means that agent begins captured. Names
    shaped like generator output must agree with the actual board size.
    """

    name: str
    grid: GridConfig
    starts: tuple[Position, ...]
    goals: tuple[Position, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "starts", tuple(Position(*p) for p in self.starts))
        object.__setattr__(self, "goals", tuple(Position(*p) for p in self.goals))
        na, n = self.grid.n_agents, self.grid.n
        if len(self.starts) != na:
            raise ValueError(f"expected {na} starts, got {len(self.starts)}")
        if len(self.goals) != na:
            raise ValueError(f"expected {na} goals, got {len(self.goals)}")
        for p in self.starts + self.goals:
            if not (0 <= p.row < n and 0 <= p.col < n):
                raise ValueError(f"cell {p} outside {n}x{n} grid")
        if len(set(self.starts)) != na:
            raise ValueError("start cells must be pairwise distinct")
        if len(set(self.goals)) != na:
            raise ValueError("goal cells must be pairwise distinct")
        if self.name.startswith("MP"):
            pn, pna, _ = parse_instance_name(self.name)
            if (pn, pna) != (n, na):
                raise ValueError(
                    f"name {self.name!r} says {pn}x{pn} with {pna} agents, "
                    f"but the grid is {n}x{n} with {na}"
                )


def generate_instance(n: int, n_agents: int, k: int, seed: int) -> Instance:
    """Deterministically sample the k-th instance of a size family.

    2 * n_agents distinct cells are drawn from the board; the first half
    are starts, the rest goals. Each (seed, n, n_agents, k) seeds its own
    draw stream, so instances are independent, not disjoint: they may share cells.
    """
    grid = GridConfig(n, n_agents)
    # checked before the draw: mix_chain would fail on a float with an
    # error naming no field, and take True as 1
    _require_int("k", k)
    _require_int("seed", seed)
    rng = Random(mix_chain(seed, n, n_agents, k))
    cells = rng.sample(range(n * n), 2 * n_agents)
    starts = tuple(Position(*divmod(c, n)) for c in cells[:n_agents])
    goals = tuple(Position(*divmod(c, n)) for c in cells[n_agents:])
    return Instance(instance_name(n, n_agents, k), grid, starts, goals)
