"""Ground-truth solvers: exact values, cross-checks, witness replay."""
from functools import lru_cache
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmcts.coordinator import merge_states
from gridmcts.grid import (
    GridConfig,
    Move,
    Position,
    goal_walled_distances,
    initial_state,
    legal_moves,
    manhattan,
)
from gridmcts.oracle import (
    OracleResult,
    _joint_successors,
    _unmatched,
    assignment_lower_bound,
    certify_unsolvable,
    exact_joint_search,
    iterative_deepening_search,
)
from gridmcts.scenarios import Instance, generate_instance
from reference import ref_assignment_lower_bound, ref_exact_joint_search


def inst(n, starts, goals, name=None):
    na = len(starts)
    return Instance(
        name=name or f"MP{n}x{na}-0",
        grid=GridConfig(n, na),
        starts=tuple(Position(*p) for p in starts),
        goals=tuple(Position(*p) for p in goals),
    )


# ------------------------------------------------------ exact_joint_search


def test_single_agent_diagonal_is_manhattan():
    r = exact_joint_search(inst(3, [(0, 0)], [(2, 2)]), 12)
    assert r.solvable_within
    assert r.optimal_makespan == 4
    assert len(r.witness_plan) == 1
    assert len(r.witness_plan[0]) == 4


def test_agent_already_on_goal():
    r = exact_joint_search(inst(3, [(1, 1)], [(1, 1)]), 9)
    assert r.solvable_within
    assert r.optimal_makespan == 0
    assert r.witness_plan == ((),)


def test_unsolvable_within_short_horizon():
    r = exact_joint_search(inst(3, [(0, 0)], [(2, 2)]), 3)
    assert not r.solvable_within
    assert r.optimal_makespan is None
    assert r.witness_plan is None


def test_size_bound_enforced():
    # only the deepening search is exponential and bounded; the flow
    # takes any size but, like it, rejects a negative horizon
    big = generate_instance(6, 2, 0, 5)
    with pytest.raises(ValueError):
        iterative_deepening_search(big, 10)
    crowded = generate_instance(5, 4, 0, 5)
    with pytest.raises(ValueError):
        iterative_deepening_search(crowded, 10)
    i = inst(3, [(0, 0)], [(2, 2)])
    for search in (exact_joint_search, iterative_deepening_search):
        with pytest.raises(ValueError):
            search(i, -1)


def test_swapped_agents_on_3x3():
    # agents sit on each other's nearest goals; optimum found by search
    # must match the independent deepening search and the sum bound
    i = inst(3, [(0, 0), (0, 2)], [(0, 2), (0, 0)])
    flow = exact_joint_search(i, 9)
    idd = iterative_deepening_search(i, 9)
    assert flow.solvable_within and idd.solvable_within
    assert flow.optimal_makespan == idd.optimal_makespan
    assert flow.optimal_makespan <= 4  # 2 + 2 sequentialized is an upper bound


def test_relabeling_agents_preserves_makespan():
    a = inst(4, [(0, 0), (3, 3)], [(0, 3), (3, 0)])
    b = inst(4, [(3, 3), (0, 0)], [(0, 3), (3, 0)])
    ra, rb = exact_joint_search(a, 12), exact_joint_search(b, 12)
    assert ra.optimal_makespan == rb.optimal_makespan


def _replay(instance, result):
    """Run a witness through the executed system's own merge rule."""
    state = initial_state(instance.grid, instance.starts, instance.goals)
    turns = max((len(m) for m in result.witness_plan), default=0)
    for t in range(turns):
        props = [
            plan[t] if t < len(plan) else Move.STAY
            for plan in result.witness_plan
        ]
        state = merge_states(state, props)
    return state


def test_witness_plan_replays_to_full_capture():
    rng = Random(808)
    checked = 0
    while checked < 60:
        n = rng.choice([3, 4, 5])
        na = rng.choice([1, 2, 3])
        i = generate_instance(n, na, checked, 2211)
        r = exact_joint_search(i, 3 * n)
        if not r.solvable_within:
            continue
        final = _replay(i, r)
        assert all(final.captured)
        assert max((len(m) for m in r.witness_plan), default=0) == r.optimal_makespan
        checked += 1


def test_flow_and_iddfs_agree():
    rng = Random(5150)
    for k in range(120):
        n = rng.choice([3, 4])
        na = rng.choice([1, 2, 3])
        if 2 * na > n * n:
            continue
        i = generate_instance(n, na, k, 31)
        tf = rng.choice([2, 5, 3 * n])
        a = exact_joint_search(i, tf)
        b = iterative_deepening_search(i, tf)
        assert a.solvable_within == b.solvable_within, (i.name, tf)
        assert a.optimal_makespan == b.optimal_makespan, (i.name, tf)


def test_flow_and_iddfs_agree_on_5x5_three_agents():
    # the deepening search's largest accepted size, the benchmark's 5x5/3
    # instances
    for k in range(6):
        i = generate_instance(5, 3, k, 0)
        a = exact_joint_search(i, 15)
        b = iterative_deepening_search(i, 15)
        assert a.solvable_within == b.solvable_within, i.name
        assert a.optimal_makespan == b.optimal_makespan, i.name


SMALL_EXACT = [(4, 3, k) for k in range(10)] + [(5, 3, k) for k in range(6)]


def _verdict(r):
    return r.solvable_within, r.optimal_makespan


def _assert_witness_replays(i, r):
    """The witness reaches full capture in exactly the optimal makespan."""
    assert all(len(m) == r.optimal_makespan for m in r.witness_plan)
    assert all(_replay(i, r).captured)
    if r.optimal_makespan:
        early = r.optimal_makespan - 1
        cut = OracleResult(True, early, tuple(m[:early] for m in r.witness_plan))
        assert not all(_replay(i, cut).captured)


@pytest.mark.parametrize("n,na,k", SMALL_EXACT)
def test_matches_reference_twin_on_benchmark_instances(n, na, k):
    # same verdict and optimum as the breadth-first search over joint
    # states; the witnesses may differ, so the flow's is replayed
    i = generate_instance(n, na, k, 0)
    r = exact_joint_search(i, 3 * n)
    assert _verdict(r) == _verdict(ref_exact_joint_search(i, 3 * n))
    if r.solvable_within:
        _assert_witness_replays(i, r)


@st.composite
def _layouts(draw, max_n=4, max_agents=3):
    n = draw(st.integers(2, max_n))
    na = draw(st.integers(1, min(max_agents, n * n // 2)))
    cells = [Position(r, c) for r in range(n) for c in range(n)]
    # starts and goals are drawn apart, so a start may sit on a goal
    goals = draw(st.lists(st.sampled_from(cells), min_size=na, max_size=na, unique=True))
    starts = draw(st.lists(st.sampled_from(cells), min_size=na, max_size=na, unique=True))
    return inst(n, starts, goals)


@settings(max_examples=300, deadline=None)
@given(_layouts())
def test_matches_reference_twin_on_small_layouts(i):
    for tf in (0, 1, 2, 3 * i.grid.n):
        r = exact_joint_search(i, tf)
        assert _verdict(r) == _verdict(ref_exact_joint_search(i, tf)), tf
        if r.solvable_within:
            _assert_witness_replays(i, r)


@pytest.mark.parametrize("k,optimum", [(0, 7), (1, 11)])
def test_optimum_past_the_joint_search_sizes(k, optimum):
    # 20x20 with 20 agents, the paper's headline size
    i = generate_instance(20, 20, k, 0)
    r = exact_joint_search(i, 60)
    assert _verdict(r) == (True, optimum)
    _assert_witness_replays(i, r)


def test_certified_gate_instance_is_unsolvable_for_the_flow():
    # MP1010-9 at seed 0, whose goal (1,0) no agent can reach
    assert _verdict(exact_joint_search(generate_instance(10, 10, 9, 0), 30)) == (False, None)


@settings(max_examples=300, deadline=None)
@given(_layouts(max_n=6, max_agents=6), st.data())
def test_flow_witness_bound_certificate_and_horizon_agree(i, data):
    # past the twin's sizes: the witness, the assignment bound, the
    # certificate and the next horizon must all agree with the optimum
    tf = data.draw(st.integers(0, 3 * i.grid.n))
    r = exact_joint_search(i, tf)
    if certify_unsolvable(i):
        assert not r.solvable_within
    else:
        # the certificate is exact: uncertified means solvable within k(n^2-1)
        k, n = i.grid.n_agents, i.grid.n
        assert exact_joint_search(i, k * n * n).solvable_within
    if r.solvable_within:
        _assert_witness_replays(i, r)
        assert r.optimal_makespan >= assignment_lower_bound(i)
        assert _verdict(exact_joint_search(i, tf + 1)) == _verdict(r)


# -------------------------------------------------- assignment_lower_bound


def test_single_pair_bound_is_distance():
    i = inst(5, [(0, 0)], [(3, 2)])
    assert assignment_lower_bound(i) == 5


def test_adjacent_assignment_example():
    i = inst(5, [(0, 0), (4, 4)], [(0, 1), (4, 3)])
    assert assignment_lower_bound(i) == 1


def test_bound_picks_best_bijection():
    # crossing assignment is far worse; bound must use the sensible one
    i = inst(5, [(0, 0), (4, 4)], [(0, 4), (4, 0)])
    direct = max(manhattan(Position(0, 0), Position(0, 4)),
                 manhattan(Position(4, 4), Position(4, 0)))
    assert assignment_lower_bound(i) == direct == 4


def test_bound_never_exceeds_exact_optimum():
    rng = Random(17)
    solvable = 0
    for k in range(500):
        n = rng.choice([3, 4, 5])
        na = rng.choice([1, 2, 3])
        i = generate_instance(n, na, k, 97)
        r = exact_joint_search(i, 3 * n)
        if r.solvable_within:
            assert assignment_lower_bound(i) <= r.optimal_makespan, i.name
            solvable += 1
    assert solvable > 400  # the comparison actually exercised


def test_bound_matches_permutation_twin():
    rng = Random(4242)
    for k in range(1000):
        n = rng.randint(3, 10)
        na = rng.randint(1, min(7, n * n // 2))
        i = generate_instance(n, na, k, 613)
        assert assignment_lower_bound(i) == ref_assignment_lower_bound(i), i.name


def test_bound_scales_past_the_permutation_limit():
    # ten agents on row 0, each with its goal five rows straight below
    i = inst(10, [(0, c) for c in range(10)], [(5, c) for c in range(10)])
    assert assignment_lower_bound(i) == 5
    # every agent needs some goal and every goal some agent, so neither
    # nearest distance can exceed the bottleneck
    for k in range(3):
        i = generate_instance(20, 20, k, 0)
        bound = assignment_lower_bound(i)
        assert bound >= max(min(manhattan(s, g) for g in i.goals) for s in i.starts)
        assert bound >= max(min(manhattan(s, g) for s in i.starts) for g in i.goals)


# ------------------------------------------------------------- _unmatched


def _max_matching(reach, goals) -> int:
    """Size of a maximum matching of `goals` (indices into reach), by
    trying every way to give each goal an unused agent or none."""
    @lru_cache(maxsize=None)
    def best(j, used):
        if j == len(goals):
            return 0
        skip = best(j + 1, used)
        return max([skip] + [1 + best(j + 1, used | 1 << i)
                             for i in reach[goals[j]] if not used >> i & 1])
    return best(0, 0)


@st.composite
def _reach_lists(draw):
    agents = draw(st.integers(1, 6))
    goal = st.lists(st.integers(0, agents - 1), unique=True)
    return draw(st.lists(goal, max_size=6))


@settings(max_examples=300, deadline=None)
@given(_reach_lists(), st.data())
def test_unmatched_leaves_exactly_what_a_maximum_matching_must(reach, data):
    # criterion 1's exemption and assignment_lower_bound both rely on
    # the matcher being maximum, whatever order the goals come in
    everyone = list(range(len(reach)))
    left = _unmatched(reach)
    assert len(left) == len(reach) - _max_matching(reach, tuple(everyone))
    order = data.draw(st.permutations(everyone))
    assert len(_unmatched([reach[j] for j in order])) == len(left)
    kept = tuple(j for j in everyone if j not in left)
    assert _max_matching(reach, kept) == len(kept)


# ------------------------------------------------------ certify_unsolvable


def test_orphan_goal_is_certified_and_truly_unsolvable():
    # (0,0) is walled in by the goals (0,1) and (1,0): whoever entered
    # either of them would be pinned there, so nobody reaches (0,0)
    i = inst(3, [(2, 0), (2, 2), (1, 1)], [(0, 0), (0, 1), (1, 0)])
    assert certify_unsolvable(i) == (Position(0, 0),)
    assert not exact_joint_search(i, 40).solvable_within


def test_hall_violation_without_orphan_goal_is_certified():
    # the agent in the corner pocket (0,0) is the only one that can reach
    # (0,1) and (1,0); the goals (0,2), (1,1), (2,0) wall both off from
    # the four agents outside, yet every goal is reachable by someone
    goals = [(0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    starts = [(0, 0), (3, 3), (3, 2), (2, 3), (3, 1)]
    i = inst(4, starts, goals)
    goal_set = [Position(*g) for g in goals]
    for g in goal_set:
        dist = goal_walled_distances(4, goal_set, g)
        assert any(Position(*p) in dist for p in starts), g
    cert = certify_unsolvable(i)
    assert len(cert) == 1
    assert cert[0] in {Position(0, 1), Position(1, 0)}


def test_solvable_instances_are_not_certified():
    assert certify_unsolvable(inst(3, [(0, 0)], [(2, 2)])) == ()
    assert certify_unsolvable(inst(3, [(1, 1)], [(1, 1)])) == ()  # starts solved
    # agent 0 starts captured on (0,1); the free goal (0,0) stays
    # reachable for agent 1 through (1,0)
    i = inst(3, [(0, 1), (2, 2)], [(0, 1), (0, 0)])
    assert certify_unsolvable(i) == ()
    assert exact_joint_search(i, 40).solvable_within


def test_every_certified_3x3_three_agent_layout_is_unsolvable():
    cells = [Position(r, c) for r in range(3) for c in range(3)]
    certified = 0
    for goals in combinations(cells, 3):
        rest = [p for p in cells if p not in goals]
        for starts in combinations(rest, 3):
            i = inst(3, starts, goals)
            if certify_unsolvable(i):
                certified += 1
                assert not exact_joint_search(i, 40).solvable_within, (starts, goals)
    assert certified > 0  # the implication was actually exercised


@st.composite
def _cornered_instances(draw):
    # three goals packed into the corner triangle r + c <= 2 wall each
    # other or the corner off in about one draw in twenty; uniform
    # layouts almost never do
    n = draw(st.sampled_from([3, 4]))
    triangle = [Position(r, c) for r in range(3) for c in range(3) if r + c <= 2]
    goals = draw(st.lists(st.sampled_from(triangle), min_size=3, max_size=3, unique=True))
    others = [Position(r, c) for r in range(n) for c in range(n) if Position(r, c) not in goals]
    starts = draw(st.lists(st.sampled_from(others), min_size=3, max_size=3, unique=True))
    return inst(n, starts, goals)


@settings(max_examples=150, deadline=None)
@given(_cornered_instances())
def test_certified_instances_are_unsolvable_for_the_oracle(i):
    if certify_unsolvable(i):
        assert not exact_joint_search(i, 4 * i.grid.n * i.grid.n).solvable_within


def test_certificate_names_the_unreachable_gate_instance():
    # MP1010-9 of the acceptance ensemble: the goal (1,0) has only goal
    # neighbors, (0,0), (1,1) and (2,0), and no agent starts on it
    assert certify_unsolvable(generate_instance(10, 10, 9, 0)) == (Position(1, 0),)


@st.composite
def _states_and_proposals(draw):
    n = draw(st.sampled_from([2, 3, 4]))
    na = draw(st.integers(1, min(4, n * n // 2)))
    cells = [Position(r, c) for r in range(n) for c in range(n)]
    goals = draw(st.lists(st.sampled_from(cells), min_size=na, max_size=na, unique=True))
    starts = draw(st.lists(st.sampled_from(cells), min_size=na, max_size=na, unique=True))
    state = initial_state(GridConfig(n, na), starts, goals)
    proposals = tuple(draw(st.sampled_from(legal_moves(state, a))) for a in range(na))
    return state, proposals


@settings(max_examples=300, deadline=None)
@given(_states_and_proposals())
def test_merge_moves_and_joint_successors_correspond(case):
    # the module docstring's claim: any joint move the oracle expands is
    # realizable by the merge rule, and the merge yields nothing else
    state, proposals = case
    successors = list(_joint_successors(state.n, state.goals, state.agent_pos, state.captured))
    merged = merge_states(state, proposals)
    assert (merged.agent_pos, merged.captured) in [(d, c) for _, d, c in successors]
    for moves, dests, cap in successors:
        out = merge_states(state, moves)
        assert (out.agent_pos, out.captured) == (dests, cap)
