"""Value pipeline identities, checked in exact rational arithmetic."""
import math
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridmcts.values import (
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


def params(alpha=0.5, rule=UpdateRule.MEAN, n_agents=4, t_final=10):
    return ValueParams(alpha, rule, n_agents, t_final)


# ------------------------------------------------------------ ValueParams


def test_alpha_whitelist():
    for a in (0, 0.5, 1, F(1, 2)):
        params(alpha=a)
    for bad in (0.25, -0.5, 2, 0.51):
        with pytest.raises(ValueError):
            params(alpha=bad)


def test_params_validation():
    with pytest.raises(ValueError):
        ValueParams(0.5, "mean", 4, 10)  # must be the enum, not its value
    with pytest.raises(ValueError):
        params(n_agents=0)
    with pytest.raises(ValueError):
        params(t_final=0)


@pytest.mark.parametrize("field, bad", [
    ("n_agents", 4.0), ("n_agents", True), ("t_final", 10.0), ("t_final", True),
])
def test_params_reject_a_count_that_is_not_an_int(field, bad):
    with pytest.raises(TypeError, match=f"^{field} must be an int, got {bad!r}$"):
        params(**{field: bad})


@pytest.mark.parametrize("bad", [True, False])
def test_params_reject_a_bool_alpha(bad):
    # True == 1 and False == 0, so the whitelist alone let both through
    with pytest.raises(TypeError, match=f"^alpha must be a number, got {bad!r}$"):
        params(alpha=bad)


# ------------------------------------------------------------ value_naive


def test_value_naive_exact():
    assert value_naive(0, 4) == 0
    assert value_naive(2, 4) == F(1, 2)
    assert value_naive(4, 4) == 1
    assert value_naive(F(2), F(4)) == F(1, 2)


def test_value_naive_range_check():
    with pytest.raises(ValueError):
        value_naive(5, 4)
    with pytest.raises(ValueError):
        value_naive(-1, 4)


# -------------------------------------------------------------- value_mod


def test_value_mod_exact_substitutions():
    assert value_mod(2, True, params(alpha=1)) == F(1, 4)
    assert value_mod(2, False, params(alpha=1)) == F(1, 2)
    assert value_mod(2, True, params(alpha=0)) == F(1, 2)


def test_alpha_zero_degenerates_to_naive():
    p = params(alpha=0)
    for g in range(5):
        for mark in (False, True):
            assert value_mod(g, mark, p) == value_naive(g, 4)


def test_value_mod_monotone_in_alpha_when_marked():
    vals = [value_mod(2, True, params(alpha=a)) for a in (0, 0.5, 1)]
    assert vals == sorted(vals, reverse=True)
    unmarked = {value_mod(2, False, params(alpha=a)) for a in (0, 0.5, 1)}
    assert len(unmarked) == 1


def test_value_mod_can_go_negative():
    assert value_mod(0, True, params(alpha=1)) == F(-1, 4)


# ---------------------------------------------------------- depth_adjusted


def test_depth_adjusted_exact_substitution():
    # exactness needs rational inputs all the way: an int t_current would
    # hit float division against t_final
    p = ValueParams(0.5, UpdateRule.MEAN, 2, 10)
    assert depth_adjusted(F(1, 2), F(1), p) == F(95, 100)


def test_depth_adjusted_vanishes_at_horizon():
    p = params()
    assert depth_adjusted(F(1, 2), F(10), p) == F(1, 2)


def test_depth_adjusted_bounds_check():
    p = params()
    with pytest.raises(ValueError):
        depth_adjusted(0.5, 11, p)
    with pytest.raises(ValueError):
        depth_adjusted(0.5, -1, p)


def test_shallower_node_wins_at_equal_value():
    p = params()
    base = F(1, 2)
    assert depth_adjusted(base, 2, p) > depth_adjusted(base, 3, p)
    # ...and the argmax over candidate nodes lands on the shallowest
    candidates = [(depth_adjusted(base, t, p), t) for t in (5, 3, 2, 4)]
    assert max(candidates)[1] == 2


@given(
    st.integers(0, 4), st.integers(0, 4),
    st.integers(0, 10), st.integers(0, 10),
)
def test_depth_adjusted_preserves_value_order_at_equal_time(g1, g2, t, _):
    p = params()
    v1, v2 = value_naive(g1, 4), value_naive(g2, 4)
    if v1 < v2:
        assert depth_adjusted(v1, t, p) < depth_adjusted(v2, t, p)


# ------------------------------------------------------------ update_value


def test_mean_update_exact_substitution():
    out = update_value(NodeStats(F(1, 2), 1), F(1), UpdateRule.MEAN)
    assert out == (F(3, 4), 2)


def test_mean_update_fixed_point():
    out = update_value(NodeStats(F(1, 3), 7), F(1, 3), UpdateRule.MEAN)
    assert out == (F(1, 3), 8)


def test_max_update_keeps_best():
    assert update_value(NodeStats(F(1, 2), 3), F(1, 4), UpdateRule.MAX) == (F(1, 2), 4)
    assert update_value(NodeStats(F(1, 2), 3), F(3, 4), UpdateRule.MAX) == (F(3, 4), 4)


def test_fresh_node_adopts_sample_under_both_rules():
    # seeding MAX from an implicit 0.0 would mask negative samples;
    # a first sample must land verbatim whatever the rule
    neg = F(-1, 4)
    for rule in UpdateRule:
        assert update_value(NodeStats(0.0, 0), neg, rule) == (neg, 1)


def test_update_rejects_negative_visits():
    with pytest.raises(ValueError):
        update_value(NodeStats(0.0, -1), 0.5, UpdateRule.MEAN)


@given(st.lists(st.fractions(min_value=-1, max_value=2), min_size=1, max_size=30))
def test_mean_update_equals_arithmetic_mean(samples):
    stats = NodeStats(F(0), 0)
    for s in samples:
        stats = update_value(stats, s, UpdateRule.MEAN)
    assert stats.visits == len(samples)
    assert stats.value == sum(samples) / len(samples)


@given(st.lists(st.fractions(min_value=-1, max_value=2), min_size=1, max_size=30))
def test_max_update_is_running_maximum(samples):
    stats = NodeStats(F(0), 0)
    peaks = []
    for s in samples:
        stats = update_value(stats, s, UpdateRule.MAX)
        peaks.append(stats.value)
    assert stats.value == max(samples)
    assert peaks == sorted(peaks)  # monotone non-decreasing


@given(st.lists(st.fractions(min_value=-1, max_value=2), min_size=1, max_size=30))
def test_mean_stays_within_sample_hull(samples):
    stats = NodeStats(F(0), 0)
    for s in samples:
        stats = update_value(stats, s, UpdateRule.MEAN)
    assert min(samples) <= stats.value <= max(samples)


# ------------------------------------------------------ distance_adjusted


def test_distance_adjusted_exact_substitution():
    p = ValueParams(0.5, UpdateRule.MEAN, 4, 10, distance_weight=F(1, 2))
    assert distance_cap(5) == 8
    # distances 3 and unreachable (saturates at the cap 8):
    # (1/2) / 4 * (3 + 8) / (2 * 8) = 11/128
    assert distance_adjusted(F(1, 2), [3, math.inf], 5, p) == F(1, 2) - F(11, 128)
    # anything past the cap counts as the cap
    assert distance_adjusted(F(1, 2), [30], 5, p) == distance_adjusted(F(1, 2), [8], 5, p)


def test_distance_adjusted_is_identity_when_off_or_nobody_live():
    p0 = params()
    pw = ValueParams(0.5, UpdateRule.MEAN, 4, 10, distance_weight=F(9, 10))
    assert distance_adjusted(F(3, 4), [1, 2, 7], 5, p0) == F(3, 4)
    assert distance_adjusted(F(3, 4), [], 5, pw) == F(3, 4)


@given(st.lists(st.integers(1, 40), min_size=1, max_size=6), st.integers(2, 12))
def test_distance_term_below_one_capture_step(dists, n):
    p = ValueParams(0, UpdateRule.MEAN, 6, 10, distance_weight=F(99, 100))
    term = F(1) - distance_adjusted(F(1), dists, n, p)
    assert 0 < term < F(1, 6)
