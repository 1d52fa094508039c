"""The percentile rule: nearest rank, and a tail only with ten samples beyond."""

import pytest

from perfbench.stats import MIN_BEYOND, TooFewSamples, median, percentile


def test_nearest_rank_values():
    samples = list(range(1, 201))  # 1..200
    assert percentile(samples, 50) == 100
    assert percentile(samples, 95) == 190
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.0


def test_tail_needs_ten_samples_beyond():
    assert MIN_BEYOND == 10
    # 200 samples: rank 190, ten beyond — allowed.
    assert percentile(list(range(200)), 95) == 189
    # 199 samples: rank 190, nine beyond — refused.
    with pytest.raises(TooFewSamples):
        percentile(list(range(199)), 95)
    with pytest.raises(TooFewSamples):
        percentile(list(range(99)), 90)
    assert percentile(list(range(100)), 90) == 89


def test_median_of_few_samples_is_allowed():
    assert percentile([5.0], 50) == 5.0


def test_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)
    with pytest.raises(ValueError):
        percentile([1.0], 101)

