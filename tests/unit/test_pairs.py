"""Verdicts of the pair command (``benchmarks/pairs.py``) on synthetic pairs."""

from __future__ import annotations

from benchmarks.pairs import WORSE, summarise

LOWER = {"name": "p50_ms", "better": "lower", "bound": 0.25}
HIGHER = {"name": "throughput_per_s", "better": "higher", "bound": 0.25}


def _pairs(metric, parent, change):
    name = metric["name"]
    return [({name: p}, {name: c}) for p, c in zip(parent, change)]


def _verdict(metric, parent, change):
    return summarise(metric, _pairs(metric, parent, change))


def test_a_a_pairs_read_within_bound():
    line = _verdict(LOWER, [10.0, 10.2, 9.9, 10.1], [10.1, 9.9, 10.2, 10.0])
    assert "within bound 25%" in line
    assert WORSE not in line


def test_clean_worse_separation_reads_worse_despite_a_wide_spread():
    # Both sides spread over ~40% of their median, wider than the 25%
    # bound, yet every change run is slower than every parent run.
    line = _verdict(LOWER, [8.0, 10.0, 12.0], [20.0, 25.0, 30.0])
    assert f"{WORSE} 25%" in line
    assert "wins 0/3" in line


def test_clean_better_separation_reads_better():
    line = _verdict(LOWER, [20.0, 25.0, 30.0], [8.0, 10.0, 12.0])
    assert "BETTER beyond bound 25%" in line
    assert "wins 3/3" in line


def test_overlapping_wide_spread_is_unresolved():
    line = _verdict(LOWER, [8.0, 10.0, 14.0], [9.0, 13.0, 20.0])
    assert "unresolved (spread" in line
    assert WORSE not in line


def test_two_separated_pairs_are_not_enough_against_a_wide_spread():
    line = _verdict(LOWER, [6.0, 14.0], [16.0, 34.0])
    assert "unresolved (spread" in line


def test_one_pair_is_unresolved():
    line = _verdict(LOWER, [10.0], [40.0])
    assert "unresolved (one pair has no spread)" in line
    assert WORSE not in line


def test_higher_is_better_direction():
    # A throughput that halves is worse; one that doubles is better.
    assert f"{WORSE} 25%" in _verdict(
        HIGHER, [100.0, 101.0, 99.0], [50.0, 51.0, 49.0]
    )
    assert "BETTER beyond bound 25%" in _verdict(
        HIGHER, [100.0, 101.0, 99.0], [200.0, 202.0, 198.0]
    )
    assert "within bound 25%" in _verdict(
        HIGHER, [100.0, 101.0, 99.0], [95.0, 96.0, 94.0]
    )
