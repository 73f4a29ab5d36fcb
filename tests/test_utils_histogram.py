"""Tests for the Figure 2-style length-bin histogram."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.utils.histogram import Histogram, LengthBin, bin_label, bins_from_edges

from helpers import observe_many


class TestLengthBin:
    def test_closed_bin_contains_bounds(self):
        bin_ = LengthBin(10, 20)
        assert bin_.contains(10) and bin_.contains(20)
        assert not bin_.contains(9) and not bin_.contains(21)

    def test_open_low_bin(self):
        bin_ = LengthBin(None, 100)
        assert bin_.contains(-5) and bin_.contains(100)
        assert not bin_.contains(101)

    def test_open_high_bin(self):
        bin_ = LengthBin(4334, None)
        assert bin_.contains(4334) and bin_.contains(10**6)
        assert not bin_.contains(4333)

    def test_unbounded_both_sides_rejected(self):
        with pytest.raises(ConfigurationError):
            LengthBin(None, None)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            LengthBin(5, 4)

    def test_labels_match_paper_style(self):
        assert bin_label(LengthBin(None, 2188)) == "<=2188"
        assert bin_label(LengthBin(2211, 2213)) == "2211-2213"
        assert bin_label(LengthBin(4334, None)) == ">=4334"
        assert bin_label(LengthBin(7, 7)) == "7"


class TestHistogram:
    def _histogram(self) -> Histogram:
        bins = bins_from_edges([(None, 10), (11, 20), (21, None)])
        return Histogram(bins=bins, categories=["a", "b"])

    def test_requires_bins_and_categories(self):
        with pytest.raises(ConfigurationError):
            Histogram(bins=[], categories=["a"])
        with pytest.raises(ConfigurationError):
            Histogram(bins=bins_from_edges([(1, 2)]), categories=[])

    def test_duplicate_categories_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram(bins=bins_from_edges([(1, 2)]), categories=["a", "a"])

    def test_observe_and_counts(self):
        histogram = self._histogram()
        observe_many(histogram, [1, 15, 30, 12], "a")
        histogram.observe(5, "b")
        assert histogram.counts("a") == (1, 2, 1)
        assert histogram.counts("b") == (1, 0, 0)
        assert histogram.total("a") == 4

    def test_unknown_category_rejected(self):
        with pytest.raises(ConfigurationError):
            self._histogram().observe(1, "zzz")

    def test_percentages_sum_to_100(self):
        histogram = self._histogram()
        observe_many(histogram, [1, 15, 30, 12], "a")
        assert sum(histogram.percentages("a")) == pytest.approx(100.0)

    def test_percentages_of_empty_category_are_zero(self):
        histogram = self._histogram()
        assert histogram.percentages("b") == (0.0, 0.0, 0.0)

    def test_dominant_bin(self):
        histogram = self._histogram()
        observe_many(histogram, [12, 13, 14, 1], "a")
        assert histogram.dominant_bin("a").low == 11

    def test_dominant_bin_empty_category_rejected(self):
        with pytest.raises(ConfigurationError):
            self._histogram().dominant_bin("a")

    def test_as_table_shape(self):
        histogram = self._histogram()
        histogram.observe(2, "a")
        rows = histogram.as_table()
        assert len(rows) == 3
        assert set(rows[0]) == {"bin", "a", "b"}

    def test_value_outside_every_bin_is_not_counted(self):
        histogram = Histogram(bins=bins_from_edges([(1, 5)]), categories=["only"])
        histogram.observe(99, "only")
        histogram.observe(3, "only")
        assert histogram.counts("only") == (1,)
        assert histogram.total("only") == 1
        assert histogram.percentages("only") == (100.0,)

    def test_counts_of_unknown_category_rejected(self):
        with pytest.raises(ConfigurationError):
            self._histogram().counts("zzz")

    def test_bin_label_property_matches_bin_label(self):
        for bin_ in bins_from_edges([(None, 10), (11, 20), (21, None), (7, 7)]):
            assert bin_.label == bin_label(bin_)
