"""The speed scale weights each mark by the program time around it.

    python3 -m pytest perfbench/test_speed.py -q
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from speed import REFERENCE_PROBE_S, Speed  # noqa: E402


def marks(*rows):
    """A Speed holding hand-made marks: (start, end, probe seconds)."""
    speed = Speed()
    for start, end, probe_s in rows:
        speed.start.append(start)
        speed.end.append(end)
        speed.probe_s.append(probe_s)
    return speed


def test_reference_speed_scales_by_one():
    r = REFERENCE_PROBE_S
    speed = marks((0.0, 0.1, r), (1.0, 1.1, r), (3.0, 3.1, r))
    assert speed.scale(0, 3) == pytest.approx(1.0)


def test_gaps_weight_the_marks_around_them():
    r = REFERENCE_PROBE_S
    # 0.9 s of program time between probes of r and 2r (mean 1.5r),
    # then 8.9 s between probes of 2r (mean 2r)
    speed = marks((0.0, 0.1, r), (1.0, 1.1, 2 * r), (10.0, 10.1, 2 * r))
    slow = (0.9 * 1.5 * r + 8.9 * 2 * r) / 9.8
    assert speed.scale(0, 3) == pytest.approx(r / slow)
    assert speed.scale(1, 3) == pytest.approx(0.5)
    assert speed.probe_seconds(0, 3) == pytest.approx(0.3)


def test_a_round_needs_two_marks():
    with pytest.raises(RuntimeError):
        marks((0.0, 0.1, REFERENCE_PROBE_S)).scale(0, 1)


def test_each_probe_call_records_one_mark():
    speed = Speed()
    speed.probe()
    speed.probe()
    assert speed.mark() == 2 and all(p > 0 for p in speed.probe_s)


def test_local_scale_takes_the_marks_within_the_window():
    r = REFERENCE_PROBE_S
    # marks 0.5 s apart, then one 5 s later: the gap between marks 1
    # and 2 takes in mark 0 and mark 3 with a 1-s window
    speed = marks((0.0, 0.0, r), (0.5, 0.5, r), (1.0, 1.0, 2 * r),
                  (1.5, 1.5, 2 * r), (6.5, 6.5, 4 * r))
    assert speed.local_scale(1, 0, 5, window=0.0) == pytest.approx(r / (1.5 * r))
    assert speed.local_scale(1, 0, 5) == pytest.approx(speed.scale(0, 4))
    assert speed.local_scale(3, 0, 5) == pytest.approx(speed.scale(2, 5))
