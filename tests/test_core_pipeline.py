"""Tests for the end-to-end White Mirror attack pipeline."""

from __future__ import annotations

import pytest

from repro.core.classifier import MLRecordClassifier
from repro.core.evaluation import (
    aggregate_choice_accuracy,
    aggregate_json_identification_accuracy,
    evaluate_record_classification,
    worst_case_accuracy,
)
from repro.core.features import extract_client_records
from repro.core.inference import infer_choices
from repro.core.pipeline import WhiteMirrorAttack
from repro.exceptions import AttackError, FingerprintError
from repro.ml.naive_bayes import GaussianNaiveBayes
from repro.net.capture import CapturedTrace
from repro.streaming.session import simulate_session


class TestTraining:
    def test_training_builds_per_environment_fingerprints(self, trained_attack):
        assert "linux/firefox" in trained_attack.library
        assert "windows/firefox" in trained_attack.library

    def test_fingerprints_match_figure2_bands(self, trained_attack):
        ubuntu = trained_attack.library.get("linux/firefox")
        # Learned bands must contain the paper's published ranges.
        assert ubuntu.type1_band.low <= 2211 and ubuntu.type1_band.high >= 2213
        assert ubuntu.type2_band.low <= 2992 and ubuntu.type2_band.high >= 3017
        windows = trained_attack.library.get("windows/firefox")
        assert windows.type1_band.low <= 2341 and windows.type1_band.high >= 2343

    def test_training_with_no_sessions_rejected(self, study_graph):
        with pytest.raises(AttackError):
            WhiteMirrorAttack(graph=study_graph).train([])

    def test_negative_margin_rejected(self):
        with pytest.raises(AttackError):
            WhiteMirrorAttack(band_margin=-1)


class TestAttack:
    def test_recovers_choices_in_clean_conditions(self, trained_attack, ubuntu_session):
        result = trained_attack.attack_session(ubuntu_session)
        assert result.recovered_pattern == ubuntu_session.ground_truth_pattern
        assert result.reconstructed_path is not None
        assert result.reconstructed_path.default_pattern == ubuntu_session.path.default_pattern
        assert result.profile is not None

    def test_windows_environment_also_recovered(self, trained_attack, windows_session):
        result = trained_attack.attack_session(windows_session)
        assert result.recovered_pattern == windows_session.ground_truth_pattern

    def test_unknown_environment_rejected(self, trained_attack, ubuntu_session):
        with pytest.raises(FingerprintError):
            trained_attack.attack_trace(
                ubuntu_session.trace, condition_key="mac/safari"
            )

    def test_attack_from_pcap_only(self, tmp_path, trained_attack, ubuntu_session):
        """The attack works on a pcap with no simulator metadata at all."""
        path = tmp_path / "victim.pcap"
        ubuntu_session.trace.to_pcap(path)
        restored = CapturedTrace.from_pcap(
            path,
            client_ip=ubuntu_session.trace.client_ip,
            server_ip=ubuntu_session.trace.server_ip,
        )
        result = trained_attack.attack_trace(restored, condition_key="linux/firefox")
        assert result.recovered_pattern == ubuntu_session.ground_truth_pattern

    def test_evaluation_scores(self, trained_attack, ubuntu_session):
        result = trained_attack.attack_session(ubuntu_session)
        evaluation = result.evaluate_against(ubuntu_session)
        assert evaluation.choice_accuracy == pytest.approx(1.0)
        assert evaluation.json_identification_accuracy == pytest.approx(1.0)
        assert evaluation.exact_path_recovered

    def test_evaluate_sessions_batch(self, trained_attack, ubuntu_session, windows_session):
        evaluations = trained_attack.evaluate_sessions([ubuntu_session, windows_session])
        assert len(evaluations) == 2
        assert aggregate_choice_accuracy(evaluations) == pytest.approx(1.0)
        assert aggregate_json_identification_accuracy(evaluations) == pytest.approx(1.0)

    def test_ml_classifier_training_path(self, training_sessions, ubuntu_session):
        # Like the band fingerprints, a generic estimator is trained per
        # environment (record-length bands differ between OS/browser stacks,
        # so pooling environments would smear the classes together).
        training_records = [
            record
            for session in training_sessions
            if session.condition.fingerprint_key == "linux/firefox"
            for record in extract_client_records(
                session.trace, server_ip=session.trace.server_ip
            )
        ]
        classifier = MLRecordClassifier(GaussianNaiveBayes()).fit(training_records)
        records = extract_client_records(
            ubuntu_session.trace, server_ip=ubuntu_session.trace.server_ip
        )
        labels = classifier.classify(records)
        inferred = infer_choices(records, labels)
        assert inferred.default_pattern == ubuntu_session.ground_truth_pattern


class TestEvaluationHelpers:
    def test_worst_case_accuracy(self):
        condition, accuracy = worst_case_accuracy({"a": 0.99, "b": 0.96, "c": 1.0})
        assert condition == "b"
        assert accuracy == pytest.approx(0.96)

    def test_worst_case_requires_data(self):
        with pytest.raises(AttackError):
            worst_case_accuracy({})

    def test_record_classification_confusion_matrix(self, trained_attack, ubuntu_session):
        result = trained_attack.attack_session(ubuntu_session)
        confusion = evaluate_record_classification(result.records, result.predicted_labels)
        assert confusion.accuracy == pytest.approx(1.0)
        assert confusion.count("type1", "type1") == 10
