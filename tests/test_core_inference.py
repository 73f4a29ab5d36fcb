"""Tests for record classification strategies and choice-sequence inference."""

from __future__ import annotations

import pytest

from repro.core.classifier import MLRecordClassifier, RecordTypeClassifier
from repro.core.features import ClientRecord, LABEL_OTHER, LABEL_TYPE1, LABEL_TYPE2
from repro.core.fingerprint import FingerprintLibrary
from repro.core.inference import ChoiceEvent, InferredChoices, infer_choices, reconstruct_path
from repro.exceptions import AttackError
from repro.ml.knn import KNearestNeighbors


def _record(timestamp: float, length: int, label: str | None = None) -> ClientRecord:
    return ClientRecord(timestamp=timestamp, wire_length=length, content_type=23, label=label)


def _training_records() -> list[ClientRecord]:
    records = [_record(float(i), 2212, LABEL_TYPE1) for i in range(6)]
    records += [_record(float(i) + 10, 3005, LABEL_TYPE2) for i in range(6)]
    records += [_record(float(i) + 20, 700, LABEL_OTHER) for i in range(20)]
    records += [_record(float(i) + 50, 2500, LABEL_OTHER) for i in range(10)]
    return records


class TestRecordTypeClassifier:
    def test_classify_against_library(self):
        library = FingerprintLibrary()
        library.learn("linux/firefox", _training_records())
        classifier = RecordTypeClassifier(library)
        labels = classifier.classify(
            [_record(1.0, 2212), _record(2.0, 3006), _record(3.0, 800)], "linux/firefox"
        )
        assert labels == [LABEL_TYPE1, LABEL_TYPE2, LABEL_OTHER]

    def test_empty_records_rejected(self):
        library = FingerprintLibrary()
        library.learn("linux/firefox", _training_records())
        with pytest.raises(AttackError):
            RecordTypeClassifier(library).classify([], "linux/firefox")


class TestMLRecordClassifier:
    def test_fit_and_classify(self):
        classifier = MLRecordClassifier(KNearestNeighbors(k=3))
        classifier.fit(_training_records())
        labels = classifier.classify([_record(1.0, 2212), _record(2.0, 680)])
        assert labels == [LABEL_TYPE1, LABEL_OTHER]

    def test_classify_before_fit_rejected(self):
        with pytest.raises(AttackError):
            MLRecordClassifier(KNearestNeighbors()).classify([_record(1.0, 2212)])


class TestInferChoices:
    def test_default_only_session(self):
        records = [_record(10.0, 2212), _record(60.0, 2212), _record(110.0, 2212)]
        labels = [LABEL_TYPE1, LABEL_TYPE1, LABEL_TYPE1]
        inferred = infer_choices(records, labels)
        assert inferred.default_pattern == (True, True, True)
        assert inferred.non_default_count == 0

    def test_type2_marks_non_default(self):
        records = [
            _record(10.0, 2212),
            _record(14.0, 3005),
            _record(60.0, 2212),
            _record(110.0, 2212),
            _record(113.0, 3005),
        ]
        labels = [LABEL_TYPE1, LABEL_TYPE2, LABEL_TYPE1, LABEL_TYPE1, LABEL_TYPE2]
        inferred = infer_choices(records, labels)
        assert inferred.default_pattern == (False, True, False)

    def test_other_records_are_ignored(self):
        records = [_record(10.0, 2212)] + [_record(11.0 + i, 700) for i in range(5)]
        labels = [LABEL_TYPE1] + [LABEL_OTHER] * 5
        assert infer_choices(records, labels).default_pattern == (True,)

    def test_orphan_type2_still_counts_as_non_default(self):
        # The type-1 for this question was lost; the type-2 alone still
        # reveals a non-default choice happened.
        records = [_record(10.0, 3005), _record(60.0, 2212)]
        labels = [LABEL_TYPE2, LABEL_TYPE1]
        inferred = infer_choices(records, labels)
        assert inferred.default_pattern == (False, True)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(AttackError):
            infer_choices([_record(1.0, 2212)], [])

    def test_empty_input_rejected(self):
        with pytest.raises(AttackError):
            infer_choices([], [])


class TestChoiceEventValidation:
    def test_non_default_requires_type2_time(self):
        with pytest.raises(AttackError):
            ChoiceEvent(index=0, question_shown_at=1.0, took_default=False, type2_seen_at=None)

    def test_negative_index_rejected(self):
        with pytest.raises(AttackError):
            ChoiceEvent(index=-1, question_shown_at=1.0, took_default=True)


class TestReconstructPath:
    def test_pattern_maps_to_segments(self, minimal_graph):
        inferred = InferredChoices(
            events=(
                ChoiceEvent(0, 10.0, True),
                ChoiceEvent(1, 60.0, False, type2_seen_at=62.0),
            )
        )
        path = reconstruct_path(minimal_graph, inferred)
        assert path.segment_ids == ("S0", "S1", "S2p")
        assert path.selected_labels() == ("option_default_1", "option_alternate_2")
