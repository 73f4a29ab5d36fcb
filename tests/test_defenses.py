"""Tests for the countermeasures and their evaluation."""

from __future__ import annotations

import pytest

from repro.core.features import LABEL_TYPE1, LABEL_TYPE2, extract_client_records
from repro.defenses.base import apply_defense
from repro.defenses.compression import CompressStateReports
from repro.defenses.evaluation import score_defense
from repro.defenses.padding import PadToConstant, PadToMultiple
from repro.defenses.splitting import SplitRecords
from repro.defenses.timing import TimingOnlyAttack, timing_question_recall
from repro.exceptions import DefenseError
from repro.ml.knn import KNearestNeighbors
from repro.streaming.events import EventKind


@pytest.fixture(scope="module")
def session_records(request):
    """Client records of the shared Ubuntu session (module-scoped for speed)."""
    ubuntu_session = request.getfixturevalue("ubuntu_session")
    return extract_client_records(
        ubuntu_session.trace, server_ip=ubuntu_session.trace.server_ip
    )


class TestPadding:
    def test_pad_to_multiple_rounds_up(self, session_records):
        defended = apply_defense(PadToMultiple(256), session_records)
        assert all(
            record.wire_length % 256 == 0
            for record in defended
            if record.is_application_data
        )
        assert len(defended) == len(session_records)

    def test_pad_to_constant_floors_all_records(self, session_records):
        defended = apply_defense(PadToConstant(4096), session_records)
        lengths = {r.wire_length for r in defended if r.is_application_data}
        assert min(lengths) >= 4096

    def test_constant_padding_merges_json_bands(self, session_records):
        defended = apply_defense(PadToConstant(4096), session_records)
        type1 = {r.wire_length for r in defended if r.label == LABEL_TYPE1}
        type2 = {r.wire_length for r in defended if r.label == LABEL_TYPE2}
        other = {r.wire_length for r in defended if r.label not in (LABEL_TYPE1, LABEL_TYPE2)}
        assert type1 == type2 == {4096}
        assert 4096 in other

    def test_small_padding_preserves_band_separation(self, session_records):
        defended = apply_defense(PadToMultiple(16), session_records)
        type1 = {r.wire_length for r in defended if r.label == LABEL_TYPE1}
        type2 = {r.wire_length for r in defended if r.label == LABEL_TYPE2}
        assert not type1 & type2

    def test_overhead_accounted(self, session_records):
        defense = PadToMultiple(512)
        defended = defense.transform(session_records)
        assert defense.overhead_bytes(session_records, defended) > 0

    def test_invalid_configuration(self):
        with pytest.raises(DefenseError):
            PadToMultiple(0)
        with pytest.raises(DefenseError):
            PadToConstant(-1)


class TestSplitting:
    def test_large_records_split_into_parts(self, session_records):
        defense = SplitRecords(parts=3, min_length_to_split=1800)
        defended = apply_defense(defense, session_records)
        original_large = [r for r in session_records if r.wire_length >= 1800 and r.is_application_data]
        assert len(defended) == len(session_records) + 2 * len(original_large)
        assert all(r.wire_length < 1800 for r in defended if r.label == LABEL_TYPE1)

    def test_split_preserves_total_payload_roughly(self, session_records):
        defense = SplitRecords(parts=2)
        defended = defense.transform(session_records)
        # Overhead per split is bounded by the per-part framing bytes.
        assert 0 <= defense.overhead_bytes(session_records, defended) <= 100 * len(session_records)

    def test_invalid_parts(self):
        with pytest.raises(DefenseError):
            SplitRecords(parts=1)


class TestCompression:
    def test_compression_shrinks_large_records(self, session_records):
        defense = CompressStateReports(mean_ratio=0.35)
        defended = apply_defense(defense, session_records)
        assert defense.overhead_bytes(session_records, defended) < 0
        type1_lengths = [r.wire_length for r in defended if r.label == LABEL_TYPE1]
        assert max(type1_lengths) < 2211

    def test_invalid_ratio(self):
        with pytest.raises(DefenseError):
            CompressStateReports(mean_ratio=0.0)
        with pytest.raises(DefenseError):
            CompressStateReports(mean_ratio=0.1, ratio_jitter=0.2)


class TestDefenseEvaluation:
    def test_constant_padding_defeats_the_adaptive_attack(
        self, training_sessions, ubuntu_session, windows_session
    ):
        test_sessions = [ubuntu_session, windows_session]
        undefended = score_defense(
            None, KNearestNeighbors(k=7), training_sessions, test_sessions
        )
        padded = score_defense(
            PadToConstant(4096), KNearestNeighbors(k=7), training_sessions, test_sessions
        )
        assert undefended["choice_accuracy"] == pytest.approx(1.0)
        assert padded["choice_accuracy"] < 0.6
        assert (
            padded["overhead_bytes_per_session"]
            > undefended["overhead_bytes_per_session"]
        )

    def test_weak_padding_leaves_attack_mostly_intact(
        self, training_sessions, ubuntu_session
    ):
        metrics = score_defense(
            PadToMultiple(16), KNearestNeighbors(k=7), training_sessions, [ubuntu_session]
        )
        assert metrics["choice_accuracy"] >= 0.9

    def test_requires_sessions(self, training_sessions):
        with pytest.raises(DefenseError):
            score_defense(
                PadToConstant(4096), KNearestNeighbors(k=7), [], training_sessions
            )


class TestTimingSideChannel:
    def test_unanswered_uplink_detection_finds_question_reports(
        self, ubuntu_session, session_records
    ):
        attack = TimingOnlyAttack()
        times = attack.unanswered_uplink_times(session_records, ubuntu_session.trace)
        # Every type-1 ("question on screen") report is an uplink record with
        # no media response behind it, so it must be among the unanswered
        # uplinks.  (Type-2 reports are immediately followed by the requested
        # alternative branch, so they do not share this signature.)
        question_times = [
            record.timestamp for record in session_records if record.label == LABEL_TYPE1
        ]
        for question_time in question_times:
            assert any(abs(question_time - t) < 1e-6 for t in times)

    def test_timing_question_recall_on_undefended_trace(self, ubuntu_session, session_records):
        attack = TimingOnlyAttack()
        inferred = attack.infer(session_records, ubuntu_session.trace)
        question_times = [
            event.timestamp
            for event in ubuntu_session.events
            if event.kind is EventKind.QUESTION_SHOWN
        ]
        recall = timing_question_recall(inferred, question_times)
        assert recall >= 0.8

    def test_timing_attack_survives_constant_padding(self, ubuntu_session, session_records):
        defended = apply_defense(PadToConstant(4096), session_records)
        attack = TimingOnlyAttack()
        inferred = attack.infer(defended, ubuntu_session.trace)
        question_times = [
            event.timestamp
            for event in ubuntu_session.events
            if event.kind is EventKind.QUESTION_SHOWN
        ]
        assert timing_question_recall(inferred, question_times) >= 0.8

    def test_invalid_parameters(self):
        from repro.core.inference import InferredChoices

        with pytest.raises(DefenseError):
            TimingOnlyAttack(response_window_seconds=0)
        with pytest.raises(DefenseError):
            timing_question_recall(InferredChoices(events=()), [], 1.0)
        with pytest.raises(DefenseError):
            timing_question_recall(InferredChoices(events=()), [1.0], 0.0)
