"""The benchmark's checkers must reject hand-made faulty episodes.

    python3 -m pytest perfbench/test_checks.py -q
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import check_episode, check_optimum, unmatched_goals  # noqa: E402

# 4x4 board, two agents: agent 0 walks (0,0) -> (0,1) -> (0,2) onto its
# goal, agent 1 walks (3,3) -> (2,3) onto its goal
N = 4
STARTS = [(0, 0), (3, 3)]
GOALS = [(0, 2), (2, 3)]
GOOD = [
    (0, ((0, 0), (3, 3)), (False, False)),
    (1, ((0, 1), (2, 3)), (False, True)),
    (2, ((0, 2), (2, 3)), (True, True)),
]


def check(states, success=1.0, makespan=2, t_final=12):
    return check_episode(N, STARTS, GOALS, states, success, makespan, t_final)


def test_a_legal_episode_passes():
    assert check(GOOD) == []


def test_an_agent_jumping_two_cells_is_rejected():
    states = [GOOD[0], (1, ((0, 2), (2, 3)), (True, True))]
    errs = check(states, makespan=1)
    assert any("jumped" in e for e in errs)


def test_two_agents_on_one_cell_are_rejected():
    states = [
        (0, ((0, 0), (0, 2)), (False, False)),
        (1, ((0, 1), (0, 1)), (False, False)),
    ]
    errs = check_episode(N, [(0, 0), (0, 2)], [(3, 0), (3, 3)], states, 0.0, 1, 1)
    assert any("share a cell" in e for e in errs)


def test_a_captured_agent_that_moves_is_rejected():
    states = GOOD[:2] + [(2, ((0, 2), (1, 3)), (True, True))]
    errs = check(states)
    assert any("captured agent 1 moved" in e for e in errs)


def test_a_wrong_makespan_is_rejected():
    errs = check(GOOD, makespan=3)
    assert any("makespan" in e for e in errs)


def test_a_wrong_success_rate_is_rejected():
    errs = check(GOOD, success=0.5)
    assert any("success" in e for e in errs)


def test_an_unsolved_episode_must_reach_the_horizon():
    errs = check(GOOD[:2], success=0.5, makespan=12)
    assert any("before the horizon" in e for e in errs)


def test_a_missing_capture_flag_is_rejected():
    states = GOOD[:2] + [(2, ((0, 2), (2, 3)), (False, True))]
    errs = check(states, success=0.5, makespan=12, t_final=2)
    assert any("capture flag" in e for e in errs)


def test_a_makespan_below_the_exact_optimum_is_rejected():
    assert check_optimum(3, True, 4)
    assert check_optimum(3, True, None)
    assert check_optimum(4, True, 4) == []
    assert check_optimum(30, False, 4) == []


def test_a_goal_walled_in_by_goals_is_unmatched():
    # the goal (0,0) has only goals for neighbours, so nobody can enter it
    goals = [(0, 0), (0, 1), (1, 0)]
    starts = [(3, 3), (0, 1), (1, 0)]
    assert unmatched_goals(4, starts, goals) == [(0, 0)]


def test_goals_every_agent_can_reach_are_matched():
    goals = [(1, 0), (1, 1), (1, 2), (1, 3)]
    starts = [(0, 0), (0, 1), (0, 2), (0, 3)]
    assert unmatched_goals(4, starts, goals) == []
