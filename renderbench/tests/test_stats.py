"""The tail rule: the highest percentile with at least ten samples
beyond it, by nearest rank."""

import statistics

import pytest

from renderbench import stats


def test_rank_is_nearest_rank():
    assert stats.rank(100, 0.5) == 49
    assert stats.rank(100, 0.99) == 98
    assert stats.rank(1, 0.99) == 0


def test_beyond_counts_samples_above_the_rank():
    assert stats.beyond(1000, 0.99) == 10
    assert stats.beyond(999, 0.99) == 9
    assert stats.beyond(200, 0.95) == 10


@pytest.mark.parametrize("n, level", [
    (10000, 0.999), (9999, 0.99), (1000, 0.99), (999, 0.95),
    (524, 0.95), (200, 0.95), (199, 0.9), (100, 0.9), (99, 0.5),
    (20, 0.5),
])
def test_tail_level_has_ten_beyond(n, level):
    assert stats.tail_level(n) == level
    assert stats.beyond(n, level) >= 10


def test_tail_level_none_when_too_few():
    assert stats.tail_level(19) is None
    assert stats.tail(list(range(5))) == (1.0, 4.0)


def test_tail_value_is_a_sample_with_ten_above():
    values = [float(v) for v in range(1000)]
    level, value = stats.tail(list(reversed(values)))
    assert level == 0.99
    assert value == 989.0
    assert sum(1 for v in values if v > value) == 10


def test_median_and_labels():
    assert stats.median([3, 1, 2]) == 2.0
    assert stats.median([4, 1, 2, 3]) == 2.5
    assert stats.level_label(0.99) == "p99"
    assert stats.level_label(0.999) == "p99.9"
    assert stats.level_label(0.5) == "p50"


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.6]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values)
    )


def test_tail_level_can_come_from_one_pass():
    one_pass = [float(v) for v in range(524)]
    two_passes = one_pass + one_pass
    assert stats.tail(two_passes)[0] == 0.99
    level, value = stats.tail(two_passes, level_n=len(one_pass))
    assert level == 0.95
    assert value == sorted(two_passes)[stats.rank(1048, 0.95)]
    assert stats.tail(one_pass[:30], level_n=524)[0] == 0.5
