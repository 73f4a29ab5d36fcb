"""Tests for argument-validation helpers."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.utils.validation import ensure_in, ensure_probability


class TestValidation:
    def test_ensure_probability(self):
        assert ensure_probability(0.5, "p") == 0.5
        with pytest.raises(ConfigurationError):
            ensure_probability(1.2, "p")
        with pytest.raises(ConfigurationError):
            ensure_probability(-0.2, "p")

    def test_ensure_in(self):
        assert ensure_in("a", ("a", "b"), "v") == "a"
        with pytest.raises(ConfigurationError):
            ensure_in("c", ("a", "b"), "v")

    def test_ensure_probability_accepts_both_bounds(self):
        assert ensure_probability(0.0, "p") == 0.0
        assert ensure_probability(1.0, "p") == 1.0

    def test_errors_name_the_argument(self):
        with pytest.raises(ConfigurationError, match="loss_rate"):
            ensure_probability(2.0, "loss_rate")
        with pytest.raises(ConfigurationError, match="mode"):
            ensure_in("z", ("a",), "mode")
