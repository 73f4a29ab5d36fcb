"""Tests for unit conversion helpers."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.utils.units import (
    Bandwidth,
    bits_to_bytes,
    bytes_to_bits,
    kbps,
    mbps,
    milliseconds,
    seconds,
)


class TestConversions:
    def test_bytes_to_bits_roundtrip(self):
        assert bits_to_bytes(bytes_to_bits(123.0)) == pytest.approx(123.0)

    def test_bytes_to_bits_factor(self):
        assert bytes_to_bits(1) == 8

    def test_milliseconds(self):
        assert milliseconds(1500) == pytest.approx(1.5)

    def test_seconds_identity(self):
        assert seconds(2.5) == 2.5


class TestBandwidth:
    def test_kbps_and_mbps_builders(self):
        assert kbps(1000).bits_per_second == pytest.approx(1_000_000)
        assert mbps(1).bits_per_second == pytest.approx(1_000_000)

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            Bandwidth(bits_per_second=-1)

    def test_bytes_per_second(self):
        assert mbps(8).bytes_per_second == pytest.approx(1_000_000)

    def test_transfer_time(self):
        link = mbps(8)  # 1 MB/s
        assert link.transfer_time(2_000_000) == pytest.approx(2.0)

    def test_transfer_time_zero_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            Bandwidth(0).transfer_time(10)

    def test_scaled(self):
        assert mbps(10).scaled(0.5).megabits_per_second == pytest.approx(5.0)

    def test_scaled_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            mbps(10).scaled(-0.1)

    def test_str_mentions_mbps(self):
        assert "Mbps" in str(mbps(4.2))

    def test_transfer_time_of_nothing_is_zero(self):
        assert mbps(8).transfer_time(0) == 0.0

    def test_zero_rate_link_can_be_described(self):
        assert Bandwidth(0).bytes_per_second == 0.0
        assert str(Bandwidth(0)) == "0.000 Mbps"

    def test_scaled_leaves_the_original_unchanged(self):
        link = mbps(10)
        link.scaled(2.0)
        assert link.megabits_per_second == pytest.approx(10.0)
