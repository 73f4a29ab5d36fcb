"""Tests for the ML splitting utilities and metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import MLError
from repro.ml.metrics import ConfusionMatrix, accuracy_score
from repro.ml.split import StratifiedSplit, train_test_split


class TestTrainTestSplit:
    def test_split_is_disjoint_and_complete(self):
        labels = ["a"] * 10 + ["b"] * 10
        split = train_test_split(labels, test_fraction=0.3, seed=1)
        train = set(split.train_indices.tolist())
        test = set(split.test_indices.tolist())
        assert not train & test
        assert train | test == set(range(20))

    def test_split_is_stratified(self):
        labels = ["a"] * 10 + ["b"] * 10
        split = train_test_split(labels, test_fraction=0.3, seed=1)
        test_labels = [labels[i] for i in split.test_indices]
        assert test_labels.count("a") == 3
        assert test_labels.count("b") == 3

    def test_every_class_keeps_a_training_sample(self):
        labels = ["a", "a", "b", "b", "c"]
        split = train_test_split(labels, test_fraction=0.5, seed=2)
        train_labels = {labels[i] for i in split.train_indices}
        assert train_labels == {"a", "b", "c"}

    def test_invalid_fraction_rejected(self):
        with pytest.raises(MLError):
            train_test_split(["a", "b"], test_fraction=1.5)

    def test_deterministic(self):
        labels = ["a", "b"] * 20
        first = train_test_split(labels, seed=3)
        second = train_test_split(labels, seed=3)
        assert first.train_indices.tolist() == second.train_indices.tolist()

    def test_singleton_class_stays_in_training(self):
        labels = ["a", "a", "a", "a", "lonely"]
        split = train_test_split(labels, test_fraction=0.5, seed=0)
        assert 4 in split.train_indices.tolist()
        assert 4 not in split.test_indices.tolist()

    def test_single_sample_rejected(self):
        with pytest.raises(MLError):
            train_test_split(["a"])

    def test_zero_fraction_rejected(self):
        with pytest.raises(MLError):
            train_test_split(["a", "b"], test_fraction=0.0)

    def test_overlapping_indices_rejected(self):
        with pytest.raises(MLError):
            StratifiedSplit(train_indices=np.array([0, 1]), test_indices=np.array([1, 2]))


class TestMetrics:
    def test_accuracy(self):
        assert accuracy_score(["a", "b", "a"], ["a", "b", "b"]) == pytest.approx(2 / 3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(MLError):
            accuracy_score(["a"], ["a", "b"])

    def test_confusion_matrix_counts(self):
        truth = ["a", "a", "b", "b", "b"]
        predicted = ["a", "b", "b", "b", "a"]
        matrix = ConfusionMatrix.from_predictions(truth, predicted)
        assert matrix.count("a", "a") == 1
        assert matrix.count("a", "b") == 1
        assert matrix.count("b", "a") == 1
        assert matrix.count("b", "b") == 2
        assert matrix.total == 5
        assert matrix.accuracy == pytest.approx(3 / 5)

    def test_confusion_matrix_rows(self):
        matrix = ConfusionMatrix.from_predictions(["x", "y"], ["x", "x"])
        rows = matrix.as_rows()
        assert len(rows) == 2
        assert rows[0]["true"] == "x"

    def test_empty_labels_rejected(self):
        with pytest.raises(MLError):
            accuracy_score([], [])

    def test_confusion_matrix_unknown_label_rejected(self):
        matrix = ConfusionMatrix.from_predictions(["a", "b"], ["a", "b"])
        with pytest.raises(MLError):
            matrix.count("a", "zzz")

    def test_label_only_ever_predicted_gets_an_empty_row(self):
        matrix = ConfusionMatrix.from_predictions(["a", "a"], ["a", "ghost"])
        assert matrix.labels == ("a", "ghost")
        assert matrix.count("ghost", "a") == 0
        assert matrix.count("ghost", "ghost") == 0
        assert matrix.count("a", "ghost") == 1

    def test_accuracy_agrees_with_confusion_matrix(self):
        truth = ["x", "y", "z", "x", "y", "z", "x"]
        predicted = ["x", "z", "z", "y", "y", "x", "x"]
        matrix = ConfusionMatrix.from_predictions(truth, predicted)
        assert matrix.accuracy == pytest.approx(accuracy_score(truth, predicted))
