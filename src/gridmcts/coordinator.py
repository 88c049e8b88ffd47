"""Episode loop: independent per-agent planning merged into joint steps.

Agents never communicate. Each live agent runs its own tree search
against the shared current state and proposes one move; the coordinator
merges the proposals, resolving destination conflicts, and advances the
clock by one. Captured agents are skipped outright, they always stay.

Per-plan randomness is derived from (global_seed, agent, t) with a
bit-exact integer mixer, so each plan call owns an isolated RNG and the
order in which live agents are planned cannot change a trace.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from random import Random

from .grid import (
    GridConfig,
    Move,
    WorldState,
    initial_state,
    is_terminal,
    legal_moves,
    move_dest,
    success_rate,
)
from .mcts import SearchBudget, plan_move
from .scenarios import Instance
from .seeds import mix_chain
from .values import ValueParams


def derive_agent_seed(global_seed: int, agent: int, t: int) -> int:
    """Seed for one agent's plan call at time t. Stable across platforms."""
    if agent < 0 or t < 0:
        raise ValueError("agent and t must be non-negative")
    return mix_chain(global_seed, agent, t)


@dataclass(frozen=True)
class EpisodeConfig:
    """Everything an episode needs besides the instance itself."""

    grid: GridConfig
    budget: SearchBudget
    params: ValueParams
    global_seed: int

    def __post_init__(self) -> None:
        if self.params.n_agents != self.grid.n_agents:
            raise ValueError(
                f"params.n_agents {self.params.n_agents} != grid.n_agents {self.grid.n_agents}"
            )
        # horizon 0 means "never plan"; params.t_final is unused then and
        # only has to satisfy its own validity floor of 1
        if self.budget.t_final >= 1 and self.params.t_final != self.budget.t_final:
            raise ValueError(
                f"budget.t_final {self.budget.t_final} != params.t_final {self.params.t_final}"
            )


@dataclass(frozen=True)
class EpisodeTrace:
    """Full record of one episode.

    states[k] is the world at time k (states[0] is the initial state).
    plan_seconds has one row per planning round with an entry per agent;
    captured agents cost 0.0. makespan is the earliest time at which all
    agents are captured, or the horizon when the episode ran out.
    """

    states: tuple[WorldState, ...]
    plan_seconds: tuple[tuple[float, ...], ...]
    success_rate: float
    makespan: int


def merge_states(state: WorldState, proposals) -> WorldState:
    """One joint step: apply all proposals at once and advance the clock.

    Each destination cell may end up with at most one agent. Conflicts
    are resolved to a fixed point: for every multiply-claimed cell the
    winner is the agent already standing there if it proposed to stay
    (it cannot be displaced), otherwise the lowest claimant id; all other
    claimants are forced to stay. Forced stays can create new conflicts
    upstream, hence the iteration; each round strictly shrinks the set
    of moving agents, so it ends within n_agents rounds.

    Swaps and rotation cycles touch no common cell and pass through
    untouched: agents slide past each other. Every agent that ends on a
    goal is captured there (locked goals were never legal destinations,
    so any goal reached here was free).
    """
    moves = [Move(m) for m in proposals]
    n_agents = state.n_agents
    if len(moves) != n_agents:
        raise ValueError(f"expected {n_agents} proposals, got {len(moves)}")
    pos = state.agent_pos
    if len(set(pos)) != n_agents:
        i, j = next((i, j) for j in range(n_agents) for i in range(j) if pos[i] == pos[j])
        raise ValueError(f"agents {i} and {j} share cell {pos[i]} before the merge")
    for i, m in enumerate(moves):
        if m not in legal_moves(state, i):
            raise ValueError(
                f"agent {i} cannot play {m.name} from {state.agent_pos[i]}"
            )

    cur = list(state.agent_pos)
    final = [move_dest(cur[i], moves[i]) for i in range(n_agents)]
    while True:
        claims: dict = {}
        for i, cell in enumerate(final):
            claims.setdefault(cell, []).append(i)
        changed = False
        for cell, cl in claims.items():
            if len(cl) < 2:
                continue
            winner = next((i for i in cl if cur[i] == cell), cl[0])
            for i in cl:
                if i != winner and final[i] != cur[i]:
                    final[i] = cur[i]
                    changed = True
        if not changed:
            break

    # an invariant, not an input check: distinct inputs stay distinct
    if len(set(final)) != n_agents:
        raise RuntimeError(f"merge left agents overlapping: {final}")
    return WorldState(state.n, state.t + 1, tuple(final), state.goals)


def run_episode(cfg: EpisodeConfig, instance: Instance) -> EpisodeTrace:
    """Play one episode on `instance` and return the full trace.

    Live agents are planned one after another in id order; since every
    plan call is seeded from (global_seed, agent, t) alone, any other
    order would yield the same trace.
    Agents that start on goals are captured at t=0; if that captures
    everyone the trace is the single initial state with makespan 0.
    """
    if (instance.grid.n, instance.grid.n_agents) != (cfg.grid.n, cfg.grid.n_agents):
        raise ValueError(
            f"instance is {instance.grid.n}x{instance.grid.n}/{instance.grid.n_agents} agents, "
            f"config wants {cfg.grid.n}x{cfg.grid.n}/{cfg.grid.n_agents}"
        )
    state = initial_state(cfg.grid, instance.starts, instance.goals)
    states = [state]
    plan_seconds = []
    while not is_terminal(state, cfg.budget.t_final):
        moves = [Move.STAY] * state.n_agents
        secs = [0.0] * state.n_agents
        for a in range(state.n_agents):
            if state.captured[a]:
                continue
            rng = Random(derive_agent_seed(cfg.global_seed, a, state.t))
            t0 = time.perf_counter()
            moves[a] = plan_move(state, a, cfg.budget, cfg.params, rng)
            secs[a] = time.perf_counter() - t0
        state = merge_states(state, moves)
        states.append(state)
        plan_seconds.append(tuple(secs))
    makespan = next(
        (s.t for s in states if all(s.captured)), cfg.budget.t_final
    )
    return EpisodeTrace(
        states=tuple(states),
        plan_seconds=tuple(plan_seconds),
        success_rate=success_rate(state),
        makespan=makespan,
    )
