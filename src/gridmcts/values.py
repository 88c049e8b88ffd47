"""Leaf evaluation and node statistics for the tree search.

All arithmetic here is plain Python numerics with no float-only
operations, so callers may pass ``fractions.Fraction`` throughout and get
exact rational results back. The engine passes floats.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .grid import _require_int


class UpdateRule(Enum):
    """How a backpropagated sample folds into a node's running value."""

    MEAN = "mean"
    MAX = "max"


_ALPHAS = (0, 0.5, 1)


@dataclass(frozen=True)
class ValueParams:
    """Shaping knobs shared by every evaluation in one search.

    alpha is the per-agent penalty weight applied when the planning agent
    itself is already sitting on a goal; it discourages plans where the
    planner grabs a goal early and strands the rest. t_final bounds the
    episode and normalizes the completion-time bonus.

    distance_weight scales an optional leaf term that charges each live
    agent for its goal-walled distance to the nearest free goal (see
    ``distance_adjusted``). It lies in [0, 1) so the term always stays
    below one capture step; 0 switches it off and leaves every value
    bit-identical to the plain family.
    """

    alpha: float
    update_rule: UpdateRule
    n_agents: int
    t_final: int
    distance_weight: float = 0.0

    def __post_init__(self) -> None:
        _require_int("n_agents", self.n_agents)
        _require_int("t_final", self.t_final)
        # False == 0 and True == 1, so a bool would pass the whitelist
        if isinstance(self.alpha, bool):
            raise TypeError(f"alpha must be a number, got {self.alpha!r}")
        if self.alpha not in _ALPHAS:
            raise ValueError(f"alpha must be one of {_ALPHAS}, got {self.alpha}")
        if not isinstance(self.update_rule, UpdateRule):
            raise ValueError(f"update_rule must be an UpdateRule, got {self.update_rule!r}")
        if self.n_agents < 1:
            raise ValueError(f"n_agents must be positive, got {self.n_agents}")
        if self.t_final < 1:
            raise ValueError(f"t_final must be positive, got {self.t_final}")
        if not 0 <= self.distance_weight < 1:
            raise ValueError(
                f"distance_weight must lie in [0, 1), got {self.distance_weight}"
            )


class NodeStats(NamedTuple):
    """Running value estimate and visit count of one search node."""

    value: float
    visits: int


def value_naive(captured_count: int, n_agents: int):
    """Plain progress score: fraction of agents captured."""
    if not 0 <= captured_count <= n_agents:
        raise ValueError(f"captured_count {captured_count} outside [0, {n_agents}]")
    return captured_count / n_agents


def value_mod(captured_count: int, mark: bool, params: ValueParams):
    """Progress score with the self-capture penalty.

    ``mark`` is true when the planning agent is captured in the evaluated
    state. The penalty alpha/n_agents is subtracted only then; the
    captured count itself still includes every captured agent, the
    planner too.
    """
    base = value_naive(captured_count, params.n_agents)
    if mark:
        return base - params.alpha / params.n_agents
    return base


def depth_adjusted(value, t_current: int, params: ValueParams):
    """Add the completion-time bonus (1/n_agents) * (1 - t/t_final).

    Earlier completions score strictly higher, which steers the search
    toward shallower solutions when raw progress ties. At t == t_final
    the bonus vanishes and the raw value is returned unchanged.
    """
    if not 0 <= t_current <= params.t_final:
        raise ValueError(
            f"t_current {t_current} outside [0, {params.t_final}]"
        )
    return value + (1 - t_current / params.t_final) / params.n_agents


def distance_cap(n: int) -> int:
    """Distance at which the leaf distance term saturates on an n x n board.

    It is the board's largest Manhattan distance, 2(n - 1); longer or
    impossible walks all count as this many steps.
    """
    return 2 * (n - 1)


def distance_adjusted(value, distances, n: int, params: ValueParams):
    """Subtract the goal-distance term from a leaf value.

    ``distances`` holds, for every live agent of the evaluated state,
    its goal-walled distance to the nearest free goal (anything at or
    above ``distance_cap(n)`` saturates, so an unreachable goal may be
    passed as ``math.inf``). The term is
    (distance_weight / n_agents) * mean(min(d, cap) / cap), strictly
    below one capture step 1/n_agents, and zero when no agent is live
    or the weight is 0.
    """
    if not distances or params.distance_weight == 0:
        return value
    cap = distance_cap(n)
    total = sum(min(d, cap) for d in distances)
    return value - params.distance_weight * total / (len(distances) * cap) / params.n_agents


def update_value(stats: NodeStats, sample, rule: UpdateRule) -> NodeStats:
    """Fold one backpropagated sample into node statistics.

    MEAN keeps the arithmetic mean of all samples seen; MAX keeps the
    best. A node with zero visits adopts the sample outright under either
    rule (a fresh node has no estimate to combine with, and seeding MAX
    from an implicit 0.0 would mask negative samples).
    """
    if stats.visits < 0:
        raise ValueError(f"negative visit count {stats.visits}")
    k = stats.visits + 1
    if stats.visits == 0:
        return NodeStats(sample, 1)
    if rule is UpdateRule.MEAN:
        return NodeStats(((k - 1) * stats.value + sample) / k, k)
    if rule is UpdateRule.MAX:
        new = stats.value if stats.value >= sample else sample
        return NodeStats(new, k)
    raise ValueError(f"unknown update rule {rule!r}")
