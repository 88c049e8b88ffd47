"""Decentralized multi-agent goal capture on grids via per-agent tree search."""

from .grid import (
    CARDINAL_MOVES,
    GridConfig,
    Move,
    Position,
    WorldState,
    apply_move,
    goal_walled_distances,
    initial_state,
    is_terminal,
    legal_moves,
    manhattan,
    move_dest,
    success_rate,
)
from .values import (
    NodeStats,
    UpdateRule,
    ValueParams,
    depth_adjusted,
    distance_adjusted,
    distance_cap,
    update_value,
    value_mod,
    value_naive,
)
from .mcts import (
    DEFAULT_EXPLORATION_C,
    SearchBudget,
    SearchNode,
    backpropagate,
    best_action,
    expand,
    make_root,
    plan_move,
    rollout,
    select,
)
from .coordinator import (
    EpisodeConfig,
    EpisodeTrace,
    derive_agent_seed,
    merge_states,
    run_episode,
)
from .oracle import (
    OracleResult,
    assignment_lower_bound,
    certify_unsolvable,
    exact_joint_search,
    iterative_deepening_search,
)
from .scenarios import (
    Instance,
    generate_instance,
    instance_name,
    parse_instance_name,
    read_instance,
    write_instance,
)

__version__ = "0.1.0"
