"""Tests for descriptive statistics helpers."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.utils.stats import (
    mean,
    median,
    percentile,
    proportions,
    stddev,
    summarize,
)


class TestBasics:
    def test_mean(self):
        assert mean([1, 2, 3, 4]) == pytest.approx(2.5)

    def test_median_odd(self):
        assert median([5, 1, 3]) == pytest.approx(3)

    def test_stddev_constant_is_zero(self):
        assert stddev([4, 4, 4]) == pytest.approx(0.0)

    def test_percentile(self):
        assert percentile(range(101), 95) == pytest.approx(95.0)

    def test_percentile_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            percentile([1, 2], 150)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            mean([])


class TestSummarize:
    def test_summary_fields(self):
        summary = summarize([1, 2, 3, 4, 5])
        assert summary.count == 5
        assert summary.minimum == 1
        assert summary.maximum == 5
        assert summary.mean == pytest.approx(3.0)
        assert summary.median == pytest.approx(3.0)
        assert summary.p05 <= summary.median <= summary.p95

    def test_as_dict_keys(self):
        data = summarize([1.0, 2.0]).as_dict()
        assert set(data) == {"count", "min", "max", "mean", "median", "stddev", "p05", "p95"}


class TestProportionsAndErrors:
    def test_proportions_sum_to_one(self):
        result = proportions({"a": 3, "b": 1})
        assert sum(result.values()) == pytest.approx(1.0)
        assert result["a"] == pytest.approx(0.75)

    def test_proportions_zero_total_rejected(self):
        with pytest.raises(ConfigurationError):
            proportions({"a": 0})

    def test_proportions_keep_zero_count_keys(self):
        assert proportions({"a": 2, "b": 0}) == {"a": 1.0, "b": 0.0}


class TestSpread:
    def test_median_even_averages_the_middle_pair(self):
        assert median([4, 1, 3, 2]) == pytest.approx(2.5)

    def test_stddev_is_the_population_form(self):
        assert stddev([1, 3]) == pytest.approx(1.0)

    def test_percentile_extremes_are_min_and_max(self):
        values = [7, 3, 9, 1]
        assert percentile(values, 0) == pytest.approx(1)
        assert percentile(values, 100) == pytest.approx(9)

    def test_summary_of_a_single_value(self):
        summary = summarize([4.0])
        assert summary.count == 1
        assert summary.minimum == summary.maximum == summary.median == 4.0
        assert summary.stddev == 0.0
        assert summary.p05 == summary.p95 == 4.0
