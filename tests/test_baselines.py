"""Tests for the inter-video baselines and the comparison harness."""

from __future__ import annotations

import pytest

from repro.baselines.bitrate import BitrateFingerprinter, BitrateProfile, profile_from_trace
from repro.baselines.burst import BurstFingerprinter, BurstSequence, extract_bursts
from repro.baselines.comparison import build_branch_tasks, run_comparison
from repro.exceptions import AttackError


class TestBitrateProfile:
    def test_profile_from_trace(self, minimal_session):
        profile = profile_from_trace(minimal_session.trace, window_seconds=2.0)
        assert len(profile.bytes_per_window) >= 1

    def test_time_slice(self, minimal_session):
        trace = minimal_session.trace
        full = profile_from_trace(trace)
        half = profile_from_trace(trace, start=0.0, end=trace.duration_seconds / 4)
        assert sum(half.bytes_per_window) <= sum(full.bytes_per_window)

    def test_as_vector_pads_and_truncates(self):
        profile = BitrateProfile(window_seconds=1.0, bytes_per_window=(10.0, 20.0))
        assert list(profile.as_vector(4)) == [10.0, 20.0, 0.0, 0.0]
        assert list(profile.as_vector(1)) == [10.0]

    def test_invalid_profiles_rejected(self):
        with pytest.raises(AttackError):
            BitrateProfile(window_seconds=0.0, bytes_per_window=(1.0,))
        with pytest.raises(AttackError):
            BitrateProfile(window_seconds=1.0, bytes_per_window=())

    def test_fingerprinter_requires_fit(self):
        with pytest.raises(AttackError):
            BitrateFingerprinter().predict([BitrateProfile(1.0, (1.0,))])


class TestBursts:
    def test_extract_bursts_groups_by_gap(self, minimal_session):
        sequence = extract_bursts(minimal_session.trace, gap_seconds=0.5)
        assert len(sequence.burst_sizes) >= 1
        assert sum(sequence.burst_sizes) > 0

    def test_feature_vector_shape(self):
        sequence = BurstSequence(burst_sizes=(100.0, 400.0), gap_seconds=0.5)
        assert sequence.feature_vector().shape == (5,)

    def test_fingerprinter_requires_fit(self):
        with pytest.raises(AttackError):
            BurstFingerprinter().predict([BurstSequence((1.0,), 0.5)])


class TestComparison:
    def test_branch_tasks_built_from_choice_events(self, ubuntu_session):
        tasks = build_branch_tasks([ubuntu_session])
        assert len(tasks) == ubuntu_session.path.choice_count
        assert [task.took_default for task in tasks] == list(
            ubuntu_session.ground_truth_pattern
        )

    def test_comparison_white_mirror_beats_baselines(
        self, study_graph, training_sessions, ubuntu_session, windows_session
    ):
        result = run_comparison(
            train_sessions=training_sessions,
            test_sessions=[ubuntu_session, windows_session],
            graph=study_graph,
        )
        assert result.white_mirror_accuracy >= 0.9
        assert result.white_mirror_accuracy > result.bitrate_baseline_accuracy
        assert result.white_mirror_accuracy > result.burst_baseline_accuracy
        assert result.advantage > 0.2
        assert len(result.as_rows()) == 3

    def test_comparison_requires_sessions(self, study_graph, training_sessions):
        with pytest.raises(AttackError):
            run_comparison([], training_sessions, study_graph)
