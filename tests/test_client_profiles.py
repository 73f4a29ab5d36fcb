"""Tests for operational conditions and client profiles (Figure 2 calibration)."""

from __future__ import annotations

import pytest

from repro.client.profiles import (
    ClientProfile,
    OperationalCondition,
    figure2_conditions,
    profile_for,
)
from repro.exceptions import ConfigurationError

from helpers import expected_record_length
from strategies.conditions import enumerate_conditions


class TestOperationalCondition:
    def test_valid_condition(self):
        condition = OperationalCondition("linux", "desktop", "firefox", "wired", "noon")
        assert condition.key == "linux/desktop/firefox/wired/noon"
        assert condition.fingerprint_key == "linux/firefox"

    def test_invalid_value_rejected(self):
        with pytest.raises(ConfigurationError):
            OperationalCondition("beos", "desktop", "firefox", "wired", "noon")

    def test_round_trip_dict(self):
        condition = OperationalCondition("mac", "laptop", "chrome", "wireless", "night")
        assert OperationalCondition.from_dict(condition.as_dict()) == condition

    def test_enumerate_covers_full_grid(self):
        conditions = enumerate_conditions()
        assert len(conditions) == 3 * 2 * 2 * 2 * 3
        assert len({c.key for c in conditions}) == len(conditions)

    def test_figure2_conditions(self):
        ubuntu, windows = figure2_conditions()
        assert ubuntu.operating_system == "linux"
        assert windows.operating_system == "windows"
        assert ubuntu.browser == windows.browser == "firefox"


class TestClientProfile:
    def test_every_condition_has_a_profile(self):
        for condition in enumerate_conditions():
            profile = profile_for(condition)
            assert profile.type1_payload_bytes > 0
            assert profile.type2_payload_bytes > profile.type1_payload_bytes

    def test_figure2_ubuntu_calibration(self):
        ubuntu, _ = figure2_conditions()
        profile = profile_for(ubuntu)
        # Paper: type-1 records fall in 2211-2213, type-2 in 2992-3017.
        assert 2211 <= expected_record_length(profile.type1_payload_bytes) <= 2213
        assert 2992 <= expected_record_length(profile.type2_payload_bytes) <= 3017

    def test_figure2_windows_calibration(self):
        _, windows = figure2_conditions()
        profile = profile_for(windows)
        # Paper: type-1 records fall in 2341-2343, type-2 in 3118-3147.
        assert 2341 <= expected_record_length(profile.type1_payload_bytes) <= 2343
        assert 3118 <= expected_record_length(profile.type2_payload_bytes) <= 3147

    def test_night_conditions_are_noisier(self):
        base = OperationalCondition("linux", "desktop", "firefox", "wired", "morning")
        night = OperationalCondition("linux", "desktop", "firefox", "wired", "night")
        assert (
            profile_for(night).band_collision_probability
            > profile_for(base).band_collision_probability
        )
        assert profile_for(night).state_loss_probability >= profile_for(base).state_loss_probability

    def test_wireless_adds_collision_noise(self):
        wired = OperationalCondition("linux", "desktop", "firefox", "wired", "noon")
        wireless = OperationalCondition("linux", "desktop", "firefox", "wireless", "noon")
        assert (
            profile_for(wireless).band_collision_probability
            > profile_for(wired).band_collision_probability
        )

    def test_record_length_bands_differ_across_environments(self):
        seen = set()
        for condition in enumerate_conditions():
            profile = profile_for(condition)
            seen.add((profile.type1_payload_bytes, profile.type2_payload_bytes))
        # One distinct calibration per (OS, browser) pair.
        assert len(seen) == 6

    def test_invalid_profile_rejected(self):
        condition = figure2_conditions()[0]
        with pytest.raises(ConfigurationError):
            ClientProfile(
                condition=condition,
                type1_payload_bytes=0,
                type1_payload_jitter=1,
                type2_payload_bytes=100,
                type2_payload_jitter=1,
            )

    def test_bad_probability_rejected(self):
        condition = figure2_conditions()[0]
        with pytest.raises(ConfigurationError):
            ClientProfile(
                condition=condition,
                type1_payload_bytes=100,
                type1_payload_jitter=1,
                type2_payload_bytes=200,
                type2_payload_jitter=1,
                band_collision_probability=2.0,
            )
