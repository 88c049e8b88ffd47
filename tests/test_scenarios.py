"""Instance naming, generation, and the text serialization format."""
import math
from pathlib import Path
from random import Random

import pytest

from gridmcts.grid import GridConfig, Position
from gridmcts.scenarios import (
    Instance,
    generate_instance,
    instance_name,
    parse_instance_name,
    read_instance,
    write_instance,
)

DATA = Path(__file__).parent / "data"


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
    assert a.gen_seed == 42


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


# ---------------------------------------------------------- serialization


def test_roundtrip_identity(tmp_path):
    rng = Random(6)
    for k in range(200):
        n = rng.choice([2, 3, 5, 10, 20])
        na = rng.randrange(1, min(9, n * n // 2) + 1)
        i = generate_instance(n, na, k, 55)
        p = tmp_path / f"{i.name}.txt"
        write_instance(i, p)
        assert read_instance(p) == i
    # a name the one-word header cannot carry would read back as another
    # instance, so it is refused at write time
    for bad in ("", "my run", "a\tb"):
        i = Instance(bad, GridConfig(3, 1), ((0, 0),), ((2, 2),), 7)
        with pytest.raises(ValueError, match="must be one non-empty word"):
            write_instance(i, tmp_path / "bad.txt")


def test_frozen_fixture_layout():
    # the shipped file was produced by generate_instance(5, 2, 1, 42)
    # and is byte-frozen; both directions must keep matching it
    path = DATA / "MP52-1.txt"
    assert read_instance(path) == generate_instance(5, 2, 1, 42)
    expected = "#gridmcts name=MP52-1 gen_seed=42\n5 2\n4 1\n3 3\n2 2\n1 3\n"
    assert path.read_text(encoding="ascii") == expected


def test_read_skips_comments_and_blanks(tmp_path):
    p = tmp_path / "i.txt"
    p.write_text("# a note\n\n3 1\n# starts\n0 0\n\n2 2\n", encoding="ascii")
    i = read_instance(p)
    assert i.grid.n == 3
    assert i.starts == (Position(0, 0),)
    assert i.goals == (Position(2, 2),)
    assert i.name == "MP31-0"  # defaulted, no metadata line


def _expect_error(tmp_path, text, fragment):
    p = tmp_path / "bad.txt"
    # latin-1 writes ASCII text byte for byte and lets a case hold one
    # non-ASCII byte
    p.write_text(text, encoding="latin-1")
    with pytest.raises(ValueError) as e:
        read_instance(p)
    assert fragment in str(e.value), str(e.value)


def test_read_error_line_numbers(tmp_path):
    _expect_error(tmp_path, "", "line 1")
    _expect_error(tmp_path, "3 1\n0 0\nnope\n", "line 3")
    _expect_error(tmp_path, "3 1\n0 0 0\n2 2\n", "line 2")
    _expect_error(tmp_path, "1 1\n0 0\n0 0\n", "line 1")  # bad grid shape
    _expect_error(tmp_path, "3 1\n0 0\n", "header wants 2 cell rows")
    _expect_error(tmp_path, "3 1\n0 3\n2 2\n", "line 2")  # out of bounds
    _expect_error(
        tmp_path,
        "3 2\n0 0\n0 0\n2 2\n2 1\n",
        "line 3: cell (0, 0) duplicates line 2",
    )
    # a goal may repeat a start cell, but not another goal
    _expect_error(
        tmp_path,
        "3 2\n0 0\n0 1\n2 2\n2 2\n",
        "line 5: cell (2, 2) duplicates line 4",
    )
    # the name header disagrees with the size header below it
    _expect_error(
        tmp_path,
        "#gridmcts name=MP53-1 gen_seed=0\n5 2\n0 0\n0 1\n2 2\n2 1\n",
        "line 1: name 'MP53-1' says 5x5 with 3 agents",
    )
    _expect_error(
        tmp_path,
        "5 2\n# note\n#gridmcts name=MPx-1 gen_seed=0\n0 0\n0 1\n2 2\n2 1\n",
        "line 3: malformed instance name 'MPx-1'",
    )
    # a #gridmcts line is the header or an error, never a plain comment
    body = "5 2\n0 0\n0 1\n2 2\n2 1\n"
    _expect_error(tmp_path, "#gridmcts name=MP52-1 gen_seed=x\n" + body,
                  "line 1: malformed header")
    _expect_error(tmp_path, "# note\n#gridmcts  name=MP52-1\n" + body,
                  "line 2: malformed header")
    _expect_error(tmp_path, "3 1\n0 0\n2 \xe92\n", "line 3: non-ASCII byte 0xe9")
    _expect_error(tmp_path, "3 1\n\xe9\n", "line 2: non-ASCII byte 0xe9")


def test_goal_may_duplicate_start(tmp_path):
    p = tmp_path / "ok.txt"
    p.write_text("3 1\n1 1\n1 1\n", encoding="ascii")
    i = read_instance(p)
    assert i.starts == i.goals
