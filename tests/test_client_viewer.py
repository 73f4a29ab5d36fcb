"""Tests for the viewer behaviour model."""

from __future__ import annotations

import pytest

from repro.client.viewer import ViewerBehavior, ViewerChoiceModel
from repro.exceptions import ConfigurationError
from repro.narrative.bandersnatch import build_bandersnatch_script
from repro.utils.rng import RandomSource


class TestViewerBehavior:
    def test_round_trip_dict(self):
        behavior = ViewerBehavior("<20", "female", "liberal", "stressed")
        assert ViewerBehavior.from_dict(behavior.as_dict()) == behavior

    def test_invalid_value_rejected(self):
        with pytest.raises(ConfigurationError):
            ViewerBehavior("baby", "female", "liberal", "stressed")


class TestViewerChoiceModel:
    def test_probability_always_in_valid_range(self):
        graph = build_bandersnatch_script()
        for behavior in (
            ViewerBehavior("<20", "male", "communist", "stressed"),
            ViewerBehavior(">30", "female", "centrist", "happy"),
            ViewerBehavior("20-25", "undisclosed", "undisclosed", "undisclosed"),
        ):
            model = ViewerChoiceModel(behavior)
            for question_id in graph.question_ids:
                probability = model.default_probability(question_id)
                assert 0.05 <= probability <= 0.95

    def test_behaviour_shifts_probabilities(self):
        stressed = ViewerChoiceModel(ViewerBehavior("20-25", "male", "centrist", "stressed"))
        happy = ViewerChoiceModel(ViewerBehavior("20-25", "male", "centrist", "happy"))
        # Q6 probes aggression: stress lowers the default-branch probability.
        assert stressed.default_probability("Q6") < happy.default_probability("Q6")

    def test_unknown_question_uses_base_probability(self):
        model = ViewerChoiceModel(
            ViewerBehavior("20-25", "male", "centrist", "happy"), base_default_probability=0.7
        )
        assert model.default_probability("QX") == pytest.approx(0.7)

    def test_canonicalises_branch_specific_question_ids(self):
        model = ViewerChoiceModel(ViewerBehavior("20-25", "male", "centrist", "stressed"))
        assert model.default_probability("Q6@S5b") == model.default_probability("Q6")

    def test_decide_is_deterministic_given_rng(self):
        graph = build_bandersnatch_script()
        choice_point = graph.choice_point_after("S0")
        model = ViewerChoiceModel(ViewerBehavior("20-25", "male", "centrist", "happy"))
        assert model.decide(choice_point, RandomSource(5)) == model.decide(
            choice_point, RandomSource(5)
        )

    def test_decision_delay_within_timeout(self):
        graph = build_bandersnatch_script()
        choice_point = graph.choice_point_after("S0")
        model = ViewerChoiceModel(ViewerBehavior("20-25", "male", "centrist", "happy"))
        rng = RandomSource(6)
        for _ in range(50):
            delay = model.decision_delay(choice_point, rng)
            assert 0.0 < delay < choice_point.timeout_seconds

    def test_invalid_base_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            ViewerChoiceModel(
                ViewerBehavior("20-25", "male", "centrist", "happy"),
                base_default_probability=1.5,
            )
