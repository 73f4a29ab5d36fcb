"""Tests for the script builders."""

from __future__ import annotations

from repro.narrative.bandersnatch import (
    BANDERSNATCH_CHOICE_LABELS,
    build_bandersnatch_script,
    build_minimal_interactive_script,
    canonical_question_id,
)
from repro.narrative.path import path_from_choices

from helpers import ending_segments, total_content_seconds


class TestBandersnatchScript:
    def test_structure(self):
        graph = build_bandersnatch_script()
        # 1 opening + 2 branches per question.
        assert graph.segment_count == 1 + 2 * len(BANDERSNATCH_CHOICE_LABELS)
        assert graph.root_segment.segment_id == "S0"
        graph.validate()

    def test_every_full_path_answers_every_question(self):
        graph = build_bandersnatch_script()
        path = path_from_choices(graph, [True] * len(BANDERSNATCH_CHOICE_LABELS))
        assert path.choice_count == len(BANDERSNATCH_CHOICE_LABELS)
        canonical = [canonical_question_id(q) for q in path.question_ids()]
        assert canonical == list(BANDERSNATCH_CHOICE_LABELS.keys())

    def test_default_choice_targets_default_branch(self):
        graph = build_bandersnatch_script()
        q1 = graph.choice_point_after("S0")
        assert q1.default_choice.target_segment_id == "S1a"
        assert q1.non_default_choice.target_segment_id == "S1b"

    def test_both_branches_lead_to_the_same_next_question(self):
        graph = build_bandersnatch_script()
        q_from_default = graph.choice_point_after("S1a")
        q_from_alternate = graph.choice_point_after("S1b")
        assert canonical_question_id(q_from_default.question_id) == "Q2"
        assert canonical_question_id(q_from_alternate.question_id) == "Q2"

    def test_endings_have_no_choice_points(self):
        graph = build_bandersnatch_script()
        for segment in ending_segments(graph):
            assert graph.choice_point_after(segment.segment_id) is None

    def test_duration_scales_with_parameters(self):
        short = build_bandersnatch_script(1.0, 1.0, 1.0)
        long = build_bandersnatch_script(10.0, 8.0, 12.0)
        assert total_content_seconds(long) > total_content_seconds(short)

    def test_canonical_question_id(self):
        assert canonical_question_id("Q3@S2b") == "Q3"
        assert canonical_question_id("Q3") == "Q3"


class TestOtherScripts:
    def test_minimal_script_matches_figure1_shape(self):
        graph = build_minimal_interactive_script()
        assert graph.segment_count == 5
        assert graph.root_segment.segment_id == "S0"
        graph.validate()
