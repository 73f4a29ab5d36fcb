"""Tests for story segments, choice points and the story graph."""

from __future__ import annotations

import pytest

from repro.exceptions import NarrativeError
from repro.narrative.bandersnatch import build_bandersnatch_script
from repro.narrative.choices import Choice, ChoicePoint, ChoiceRecord
from repro.narrative.graph import StoryGraph
from repro.narrative.segment import Segment

from helpers import ending_segments, max_choices_on_any_path, total_content_seconds


def _simple_graph() -> StoryGraph:
    graph = StoryGraph(title="test", root_segment_id="A")
    graph.add_segments(
        [
            Segment("A", "root", 120.0),
            Segment("B", "default branch", 60.0, is_ending=True),
            Segment("C", "alternative branch", 60.0, is_ending=True),
        ]
    )
    graph.add_choice_point(
        ChoicePoint(
            question_id="Q1",
            prompt="pick",
            source_segment_id="A",
            options=(
                Choice("stay", "B", is_default=True),
                Choice("leave", "C", is_default=False),
            ),
        )
    )
    return graph


def _wired_graph(
    endings: str, choices: dict[str, tuple[str, str]], root: str = "A"
) -> StoryGraph:
    """A graph whose segment ids are the letters of ``endings`` and ``choices``.

    ``choices`` maps a source segment to its (default, other) targets; every
    letter in ``endings`` is an ending.
    """
    graph = StoryGraph(title="wired", root_segment_id=root)
    for segment_id in dict.fromkeys([*choices, *endings]):
        graph.add_segment(
            Segment(segment_id, segment_id, 10.0, is_ending=segment_id in endings)
        )
    for source, (default, other) in choices.items():
        graph.add_choice_point(
            ChoicePoint(
                question_id=f"Q{source}",
                prompt="pick",
                source_segment_id=source,
                options=(Choice("yes", default, is_default=True), Choice("no", other)),
            )
        )
    return graph


class TestSegment:
    def test_rejects_empty_id(self):
        with pytest.raises(NarrativeError):
            Segment("", "x", 10.0)

    def test_rejects_non_positive_duration(self):
        with pytest.raises(NarrativeError):
            Segment("S", "x", 0.0)

    def test_chunk_count_rounds_up(self):
        segment = Segment("S", "x", 10.0)
        assert segment.chunk_count(4.0) == 3
        assert segment.chunk_count(5.0) == 2

    def test_chunk_count_rejects_bad_duration(self):
        with pytest.raises(NarrativeError):
            Segment("S", "x", 10.0).chunk_count(0.0)


class TestChoicePoint:
    def test_requires_exactly_one_default(self):
        with pytest.raises(NarrativeError):
            ChoicePoint(
                question_id="Q",
                prompt="p",
                source_segment_id="A",
                options=(
                    Choice("x", "B", is_default=True),
                    Choice("y", "C", is_default=True),
                ),
            )

    def test_requires_distinct_targets(self):
        with pytest.raises(NarrativeError):
            ChoicePoint(
                question_id="Q",
                prompt="p",
                source_segment_id="A",
                options=(
                    Choice("x", "B", is_default=True),
                    Choice("y", "B", is_default=False),
                ),
            )

    def test_default_and_non_default_accessors(self):
        point = ChoicePoint(
            question_id="Q",
            prompt="p",
            source_segment_id="A",
            options=(
                Choice("x", "B", is_default=True),
                Choice("y", "C", is_default=False),
            ),
        )
        assert point.default_choice.label == "x"
        assert point.non_default_choice.label == "y"
        assert point.choice_for(True).target_segment_id == "B"
        assert point.choice_for(False).target_segment_id == "C"

    def test_choice_record_rejects_negative_time(self):
        with pytest.raises(NarrativeError):
            ChoiceRecord("Q1", "x", True, -1.0)


class TestStoryGraph:
    def test_duplicate_segment_rejected(self):
        graph = StoryGraph("t", "A")
        graph.add_segment(Segment("A", "x", 10.0))
        with pytest.raises(NarrativeError):
            graph.add_segment(Segment("A", "x again", 10.0))

    def test_choice_point_unknown_source_rejected(self):
        graph = StoryGraph("t", "A")
        graph.add_segment(Segment("A", "x", 10.0))
        with pytest.raises(NarrativeError):
            graph.add_choice_point(
                ChoicePoint(
                    question_id="Q",
                    prompt="p",
                    source_segment_id="missing",
                    options=(
                        Choice("x", "A", is_default=True),
                        Choice("y", "A", is_default=False),
                    ),
                )
            )

    def test_lookups(self):
        graph = _simple_graph()
        assert graph.root_segment.segment_id == "A"
        assert graph.segment("B").is_ending
        assert graph.choice_point("Q1").prompt == "pick"
        assert graph.choice_point_after("A").question_id == "Q1"
        assert graph.choice_point_after("B") is None
        assert "A" in graph and "Z" not in graph

    def test_unknown_segment_lookup_raises(self):
        with pytest.raises(NarrativeError):
            _simple_graph().segment("missing")

    def test_validate_passes_for_well_formed_graph(self):
        _simple_graph().validate()

    def test_validate_catches_dangling_segment(self):
        graph = _simple_graph()
        graph.add_segment(Segment("Z", "unreachable", 10.0, is_ending=True))
        with pytest.raises(NarrativeError, match="unreachable"):
            graph.validate()

    def test_validate_catches_missing_choice_point(self):
        graph = StoryGraph("t", "A")
        graph.add_segments(
            [Segment("A", "root", 10.0), Segment("B", "end", 10.0, is_ending=True)]
        )
        with pytest.raises(NarrativeError, match="no choice point"):
            graph.validate()

    def test_metrics(self):
        graph = _simple_graph()
        assert graph.segment_count == 3
        assert graph.choice_point_count == 1
        assert total_content_seconds(graph) == pytest.approx(240.0)
        assert max_choices_on_any_path(graph) >= 1
        assert len(ending_segments(graph)) == 2


class TestGraphWalks:
    def test_validate_rejects_an_unreachable_island_with_a_cycle(self):
        # X and Y point at each other and at an ending; nothing reaches them.
        graph = _wired_graph("BCE", {"A": ("B", "C"), "X": ("Y", "E"), "Y": ("X", "E")})
        with pytest.raises(NarrativeError, match=r"unreachable.*'E', 'X', 'Y'"):
            graph.validate()

    def test_validate_accepts_a_loop_that_can_end(self):
        graph = _wired_graph("C", {"A": ("B", "C"), "B": ("A", "C")})
        graph.validate()

    def test_validate_rejects_a_loop_with_no_ending(self):
        graph = _wired_graph("", {"A": ("B", "A"), "B": ("A", "B")})
        with pytest.raises(NarrativeError, match="no ending"):
            graph.validate()

    @pytest.mark.parametrize(
        ("endings", "choices", "expected"),
        [
            # chain: A -> B -> C -> D, every question one step further
            ("XYZD", {"A": ("B", "X"), "B": ("C", "Y"), "C": ("D", "Z")}, 3),
            # loop: A <-> B is one component, so the whole graph is one step
            ("E", {"A": ("B", "E"), "B": ("A", "E")}, 1),
            # diamond: A -> {B, C} -> {D, E}, both branches two questions long
            ("DE", {"A": ("B", "C"), "B": ("D", "E"), "C": ("D", "E")}, 2),
            # a loop B -> C -> D -> B feeding an ending E after the root
            (
                "EF",
                {"A": ("B", "F"), "B": ("C", "F"), "C": ("D", "F"), "D": ("B", "E")},
                2,
            ),
            # a lone ending
            ("A", {}, 0),
        ],
        ids=["chain", "loop", "diamond", "loop-into-ending", "ending"],
    )
    def test_max_choices_on_any_path(self, endings, choices, expected):
        assert max_choices_on_any_path(_wired_graph(endings, choices)) == expected

    def test_max_choices_on_a_long_chain_needs_no_recursion(self):
        length = 5_000
        graph = StoryGraph(title="chain", root_segment_id="S0")
        for index in range(length + 1):
            graph.add_segment(Segment(f"S{index}", "s", 1.0, is_ending=index == length))
        graph.add_segment(Segment("END", "s", 1.0, is_ending=True))
        for index in range(length):
            graph.add_choice_point(
                ChoicePoint(
                    question_id=f"Q{index}",
                    prompt="pick",
                    source_segment_id=f"S{index}",
                    options=(
                        Choice("on", f"S{index + 1}", is_default=True),
                        Choice("end", "END"),
                    ),
                )
            )
        graph.validate()
        assert max_choices_on_any_path(graph) == length

    def test_bandersnatch_script_has_ten_questions_on_its_longest_path(self):
        assert max_choices_on_any_path(build_bandersnatch_script()) == 10
