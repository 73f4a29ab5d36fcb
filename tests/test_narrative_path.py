"""Tests for viewing paths."""

from __future__ import annotations

import itertools

import pytest

from repro.exceptions import NarrativeError
from repro.narrative.path import ViewingPath, path_from_choices


class TestPathFromChoices:
    def test_all_defaults(self, minimal_graph):
        path = path_from_choices(minimal_graph, [True, True])
        assert path.segment_ids == ("S0", "S1", "S2")
        assert path.default_pattern == (True, True)
        assert path.non_default_count == 0

    def test_mixed_choices(self, minimal_graph):
        path = path_from_choices(minimal_graph, [True, False])
        assert path.segment_ids == ("S0", "S1", "S2p")

    def test_partial_pattern_stops_early(self, minimal_graph):
        path = path_from_choices(minimal_graph, [False])
        assert path.segment_ids == ("S0", "S1p")
        assert path.choice_count == 1

    def test_surplus_pattern_ignored_after_ending(self, minimal_graph):
        path = path_from_choices(minimal_graph, [True, True, False, False])
        assert path.choice_count == 2

    def test_question_ids_and_labels(self, minimal_graph):
        path = path_from_choices(minimal_graph, [False, True])
        assert path.question_ids() == ("Q1", "Q2@S1p")
        assert path.selected_labels()[0] == "option_alternate_1"


class TestViewingPath:
    def test_requires_at_least_one_segment(self):
        with pytest.raises(NarrativeError):
            ViewingPath(segment_ids=(), choices=())


class TestEveryChoicePattern:
    PATTERNS = list(itertools.product([True, False], repeat=2))

    def test_minimal_script_has_four_distinct_complete_paths(self, minimal_graph):
        paths = [path_from_choices(minimal_graph, pattern) for pattern in self.PATTERNS]
        assert len({path.segment_ids for path in paths}) == 4
        assert {path.default_pattern for path in paths} == set(self.PATTERNS)

    def test_every_pattern_ends_at_an_ending(self, minimal_graph):
        for pattern in self.PATTERNS:
            path = path_from_choices(minimal_graph, pattern)
            assert minimal_graph.segment(path.segment_ids[-1]).is_ending
            assert len(path.segment_ids) == path.choice_count + 1
