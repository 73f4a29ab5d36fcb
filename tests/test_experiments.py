"""Tests for the reproduction runners (Table I, Figures 1-2, headline, ablations)."""

from __future__ import annotations

import pytest

from repro.core.features import LABEL_TYPE1, LABEL_TYPE2
from repro.exceptions import AttackError
from repro.experiments.baseline_comparison import reproduce_baseline_comparison
from repro.experiments.conditions import figure2_condition_names, headline_conditions
from repro.experiments.defense_ablation import reproduce_defense_ablation, standard_defense_suite
from repro.experiments.figure1 import reproduce_figure1
from repro.experiments.figure2 import PAPER_BINS, paper_bins_for, reproduce_figure2
from repro.experiments.headline import reproduce_headline
from repro.experiments.report import format_table, render_experiment_report
from repro.experiments.table1 import reproduce_table1


class TestConditions:
    def test_headline_conditions_cover_figure2_environments(self):
        keys = {condition.fingerprint_key for condition in headline_conditions()}
        assert {"linux/firefox", "windows/firefox"} <= keys

    def test_headline_conditions_cover_all_traffic_levels(self):
        traffic = {condition.traffic_condition for condition in headline_conditions()}
        assert traffic == {"morning", "noon", "night"}

    def test_figure2_condition_names(self):
        names = figure2_condition_names()
        assert "Ubuntu" in names["linux/firefox"]
        assert "Windows" in names["windows/firefox"]


class TestTable1:
    def test_rows_and_grid(self):
        result = reproduce_table1(viewer_count=100, seed=0)
        assert result.attribute_count == 9
        assert result.viewer_count == 100
        assert result.full_grid_covered()
        assert "Windows" in result.values_for("Operating System")
        assert "Communist" in result.values_for("Political Alignment")

    def test_unknown_attribute_rejected(self):
        result = reproduce_table1(viewer_count=10, seed=0)
        with pytest.raises(Exception):
            result.values_for("Favourite colour")


class TestFigure1:
    def test_walkthrough_matches_paper(self):
        result = reproduce_figure1(seed=1)
        assert result.matches_paper_description()
        assert result.state_message_kinds == ["type1", "type1", "type2"]

    def test_protocol_event_order(self):
        result = reproduce_figure1(seed=1)
        kinds = [kind for kind, _ in result.protocol_events]
        # Prefetching of the default branch starts only after the question
        # (and its type-1 report) appears.
        assert kinds.index("type1") < kinds.index("prefetch_started")
        assert kinds.index("prefetch_discarded") > kinds.index("type2") - 3
        assert kinds[-1] == "session_finished"


class TestFigure2:
    @pytest.fixture(scope="class")
    def figure2(self):
        return reproduce_figure2(sessions_per_condition=2, seed=2)

    def test_paper_bins_exposed(self):
        assert len(paper_bins_for("linux/firefox")) == 5
        assert len(PAPER_BINS["windows/firefox"]) == 5
        with pytest.raises(AttackError):
            paper_bins_for("mac/safari")

    def test_separation_holds_for_both_conditions(self, figure2):
        assert figure2.separation_holds_everywhere()

    def test_type1_and_type2_concentrate_in_paper_bins(self, figure2):
        ubuntu = figure2.panel_for("linux/firefox")
        assert ubuntu.histogram.dominant_bin(LABEL_TYPE1).label == "2211-2213"
        assert ubuntu.histogram.dominant_bin(LABEL_TYPE2).label == "2992-3017"
        windows = figure2.panel_for("windows/firefox")
        assert windows.histogram.dominant_bin(LABEL_TYPE1).label == "2341-2343"
        assert windows.histogram.dominant_bin(LABEL_TYPE2).label == "3118-3147"

    def test_rows_have_five_bins(self, figure2):
        for distribution in figure2.distributions:
            assert len(distribution.rows()) == 5

    def test_unknown_panel_rejected(self, figure2):
        with pytest.raises(AttackError):
            figure2.panel_for("mac/chrome")


class TestHeadlineSmall:
    """A scaled-down headline run keeps the test suite fast; the full-scale
    run (10 sessions per condition, the paper's setting) lives in the
    benchmark harness."""

    @pytest.fixture(scope="class")
    def headline(self):
        conditions = [headline_conditions()[1], headline_conditions()[4]]
        return reproduce_headline(
            sessions_per_condition=3,
            training_sessions_per_condition=2,
            conditions=conditions,
            seed=3,
        )

    def test_json_identification_accuracy_high(self, headline):
        assert headline.aggregate_json_identification_accuracy >= 0.9
        assert 0.85 <= headline.worst_case_accuracy <= 1.0

    def test_rows_include_summary(self, headline):
        rows = headline.rows()
        assert rows[-2]["condition"] == "AGGREGATE"
        assert rows[-1]["condition"].startswith("WORST CASE")

    def test_gap_to_paper_is_small(self, headline):
        assert headline.worst_case_gap <= 0.06


class TestAblations:
    def test_baseline_comparison_shape(self):
        result = reproduce_baseline_comparison(train_count=2, test_count=2, seed=4)
        rows = result.rows()
        assert len(rows) == 3
        assert result.comparison.white_mirror_accuracy >= 0.9
        assert result.baselines_near_chance or result.comparison.advantage >= 0.25

    def test_defense_suite_contents(self):
        names = {defense.instance_name for defense in standard_defense_suite()}
        assert "pad-to-constant(target_bytes=4096)" in names
        assert "split-records(parts=3)" in names
        assert any(name.startswith("compress") for name in names)

    def test_defense_ablation_degrades_attack(self):
        result = reproduce_defense_ablation(train_count=2, test_count=2, seed=5)
        assert result.undefended_accuracy >= 0.9
        assert result.best_defense["choice_accuracy"] <= 0.5
        assert len(result.rows()) == len(standard_defense_suite()) + 1


class TestReport:
    def test_format_table_alignment(self):
        table = format_table(
            [{"a": 1, "b": "xy"}, {"a": 222, "b": "z"}], title="Demo"
        )
        lines = table.splitlines()
        assert lines[0] == "Demo"
        assert "a" in lines[2] and "b" in lines[2]
        assert len(lines) == 6

    def test_format_table_rejects_empty(self):
        with pytest.raises(Exception):
            format_table([])

    def test_render_experiment_report_sections(self):
        report = render_experiment_report(
            table1_rows=[{"conditions": "Operational", "attribute": "OS", "values": "x"}],
            figure1_events=[("type1", "Q1")],
            headline_rows=[{"condition": "c", "choice_accuracy": 1.0}],
        )
        assert "Table I" in report
        assert "Figure 1" in report
        assert "Section V" in report

    def test_render_requires_content(self):
        with pytest.raises(Exception):
            render_experiment_report()
