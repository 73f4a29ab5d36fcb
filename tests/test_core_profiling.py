"""Tests for behavioural profiling from recovered choices."""

from __future__ import annotations

import pytest

from repro.core.profiling import TraitEstimate, profile_from_path
from repro.exceptions import AttackError
from repro.narrative.bandersnatch import BANDERSNATCH_CHOICE_LABELS, build_bandersnatch_script
from repro.narrative.choices import ChoiceRecord
from repro.narrative.path import ViewingPath, path_from_choices

from helpers import estimate_for


@pytest.fixture(scope="module")
def full_graph():
    return build_bandersnatch_script()


class TestProfileFromPath:
    def test_profile_covers_every_answered_trait(self, full_graph):
        path = path_from_choices(full_graph, [True] * 10)
        profile = profile_from_path(path)
        expected_traits = {spec[0] for spec in BANDERSNATCH_CHOICE_LABELS.values()}
        assert set(profile.traits) == expected_traits

    def test_selected_labels_propagate(self, full_graph):
        path = path_from_choices(full_graph, [False] + [True] * 9)
        profile = profile_from_path(path)
        food = estimate_for(profile, "food_preference")
        assert food.leaning == "non-default-leaning"
        assert food.selected_label == BANDERSNATCH_CHOICE_LABELS["Q1"][2]

    def test_sensitive_estimates_subset(self, full_graph):
        path = path_from_choices(full_graph, [True] * 10)
        profile = profile_from_path(path)
        sensitive = profile.sensitive_estimates()
        assert {e.trait for e in sensitive} <= {"violence", "aggression", "risk_taking"}
        assert len(sensitive) == 3

    def test_as_dict_maps_each_trait_to_the_selected_label(self, full_graph):
        path = path_from_choices(full_graph, [True] * 10)
        profile = profile_from_path(path)
        assert list(profile.as_dict().values()) == list(path.selected_labels())
        assert list(profile.as_dict()) == list(profile.traits)

    def test_one_flipped_choice_changes_exactly_one_estimate(self, full_graph):
        truth = profile_from_path(path_from_choices(full_graph, [True] * 10))
        flipped = profile_from_path(path_from_choices(full_graph, [False] + [True] * 9))
        differing = [
            a.trait for a, b in zip(truth.estimates, flipped.estimates) if a != b
        ]
        assert differing == ["food_preference"]

    def test_questions_outside_the_script_are_skipped(self):
        record = ChoiceRecord(
            question_id="Q99", selected_label="x", took_default=True,
            decision_time_seconds=1.0,
        )
        path = ViewingPath(segment_ids=("S0", "S1"), choices=(record,))
        assert profile_from_path(path).estimates == ()


class TestValidation:
    def test_trait_estimate_validation(self):
        with pytest.raises(AttackError):
            TraitEstimate(trait="", leaning="default-leaning", evidence_question="Q1", selected_label="x")
        with pytest.raises(AttackError):
            TraitEstimate(trait="t", leaning="sideways", evidence_question="Q1", selected_label="x")
