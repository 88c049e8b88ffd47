"""Instance naming, validation and generation."""
import pytest

from gridmcts.grid import GridConfig, Position
from gridmcts.scenarios import (
    Instance,
    generate_instance,
    instance_name,
    parse_instance_name,
)


# ------------------------------------------------------------ name grammar


def test_name_roundtrip_plain():
    assert instance_name(5, 2, 1) == "MP52-1"
    assert parse_instance_name("MP52-1") == (5, 2, 1)


def test_name_roundtrip_wide_sizes():
    for n, na, k in [(10, 10, 3), (20, 20, 7), (8, 16, 2), (99, 49, 0)]:
        assert parse_instance_name(instance_name(n, na, k)) == (n, na, k)


def test_ambiguous_concatenation_uses_x_form():
    # 816 reads as 8/16 or 81/6, both geometrically valid, so the
    # generator must refuse the concatenated spelling
    name = instance_name(8, 16, 2)
    assert name == "MP8x16-2"
    assert parse_instance_name(name) == (8, 16, 2)
    with pytest.raises(ValueError):
        parse_instance_name("MP816-2")


def test_unique_concatenations_still_parse():
    # 1010 only splits validly as 10/10
    assert parse_instance_name("MP1010-3") == (10, 10, 3)
    assert instance_name(10, 10, 3) == "MP1010-3"


def test_parse_rejects_garbage():
    for bad in ["MP-1", "MP5-", "XP52-1", "MP52", "mp52-1", "MP0052-1"]:
        with pytest.raises(ValueError):
            parse_instance_name(bad)


# ------------------------------------------------------------- Instance


def test_instance_validation():
    g = GridConfig(5, 2)
    with pytest.raises(ValueError):  # duplicate starts
        Instance("MP52-0", g, ((0, 0), (0, 0)), ((1, 1), (2, 2)))
    with pytest.raises(ValueError):  # duplicate goals
        Instance("MP52-0", g, ((0, 0), (0, 1)), ((1, 1), (1, 1)))
    with pytest.raises(ValueError):  # out of bounds
        Instance("MP52-0", g, ((0, 0), (0, 5)), ((1, 1), (2, 2)))
    with pytest.raises(ValueError):  # name disagrees with the shape
        Instance("MP43-0", g, ((0, 0), (0, 1)), ((1, 1), (2, 2)))


def test_instance_allows_start_on_goal():
    g = GridConfig(5, 2)
    i = Instance("MP52-0", g, ((1, 1), (0, 0)), ((1, 1), (2, 2)))
    assert i.starts[0] == i.goals[0]


def test_instance_normalizes_tuples_to_positions():
    i = Instance("MP52-0", GridConfig(5, 2), ((0, 0), (0, 1)), ((1, 1), (2, 2)))
    assert all(isinstance(p, Position) for p in i.starts + i.goals)


# ------------------------------------------------------- generate_instance


def test_generation_is_deterministic():
    a = generate_instance(5, 2, 1, 42)
    b = generate_instance(5, 2, 1, 42)
    assert a == b
    assert a.name == "MP52-1"


def test_generated_layout_is_pinned():
    # a change to the draw stream moves every generated instance, and
    # with it every CSV row and decision built on one
    i = generate_instance(5, 2, 1, 42)
    assert i.starts == (Position(4, 1), Position(3, 3))
    assert i.goals == (Position(2, 2), Position(1, 3))


def test_generation_varies_with_every_argument():
    base = generate_instance(5, 2, 1, 42)
    assert generate_instance(5, 2, 2, 42) != base
    assert generate_instance(5, 2, 1, 43) != base
    assert generate_instance(6, 2, 1, 42).grid.n == 6


def test_generated_cells_are_distinct():
    for k in range(50):
        i = generate_instance(4, 3, k, 9)
        cells = list(i.starts) + list(i.goals)
        assert len(set(cells)) == 6  # sampling without replacement


def test_generation_rejects_crowded_board():
    with pytest.raises(ValueError):
        generate_instance(2, 3, 0, 1)


@pytest.mark.parametrize("k, seed, field", [
    (True, 0, "k"),
    (1.0, 0, "k"),
    (1, 1.5, "seed"),
    (1, True, "seed"),
])
def test_generation_rejects_a_non_int_index_or_seed_by_name(k, seed, field):
    # True would name an instance "MP52-True" or seed it as 1, and a
    # float would fail inside the seed mixer with no field named
    with pytest.raises(TypeError, match=f"^{field} must be an int"):
        generate_instance(5, 2, k, seed)
    if field == "k":
        with pytest.raises(TypeError, match="^k must be an int"):
            instance_name(5, 2, k)


def test_generated_cells_are_uniform():
    """Chi-square uniformity over all start/goal cells, pinned seed.

    25 cells, 10^5 instances x 4 cells each; the 1% critical value for
    24 degrees of freedom is 42.98.
    """
    n = 5
    counts = {}
    for k in range(10**5):
        i = generate_instance(n, 2, k, 1312)
        for p in list(i.starts) + list(i.goals):
            counts[p] = counts.get(p, 0) + 1
    total = sum(counts.values())
    expected = total / (n * n)
    chi2 = sum(
        (counts.get(Position(r, c), 0) - expected) ** 2 / expected
        for r in range(n)
        for c in range(n)
    )
    assert chi2 < 42.98, chi2
