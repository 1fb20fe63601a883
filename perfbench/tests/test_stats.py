import pytest

from stats import percentile, tail_percentile


@pytest.mark.parametrize(
    "n, pct",
    [(20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
     (10_000, 99.9), (100_000, 99.99)],
)
def test_highest_percentile_with_ten_samples_beyond(n, pct):
    samples = list(range(1, n + 1))  # value == 1-based rank
    got_pct, value = tail_percentile(samples)
    assert got_pct == pct
    assert n - value >= 10  # ten samples rank beyond the reported one


def test_percentile_uses_nearest_rank():
    # p90 of 1..100 is the 90th sample; 10 samples lie beyond it
    assert tail_percentile([float(x) for x in range(100, 0, -1)]) == (90.0, 90.0)


def test_too_few_samples_is_an_error():
    with pytest.raises(ValueError, match="19 samples"):
        tail_percentile(range(19))


def test_p50_is_nearest_rank_so_a_p50_tail_equals_it():
    samples = [float(x) for x in range(1, 51)]
    assert percentile(samples, 5000) == 25.0
    assert tail_percentile(samples) == (50.0, 25.0)
