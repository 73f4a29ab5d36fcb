"""Tests for the from-scratch classifiers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import MLError, NotFittedError
from repro.ml.interval import IntervalClassifier
from repro.ml.knn import KNearestNeighbors
from repro.ml.logistic import LogisticRegressionClassifier
from repro.ml.naive_bayes import GaussianNaiveBayes
from repro.ml.tree import DecisionTreeClassifier
from repro.utils.rng import spawn_rng


def _three_band_data(samples_per_class: int = 60, seed: int = 0):
    """Synthetic record-length-like data: three well-separated bands."""
    rng = spawn_rng(seed, "ml-test")
    lengths = np.concatenate(
        [
            rng.integers(2211, 2214, samples_per_class),
            rng.integers(2992, 3018, samples_per_class),
            rng.integers(500, 1500, samples_per_class),
        ]
    ).astype(float)
    labels = np.asarray(
        ["type1"] * samples_per_class + ["type2"] * samples_per_class + ["other"] * samples_per_class,
        dtype=object,
    )
    order = rng.permutation(lengths.size)
    return lengths[order].reshape(-1, 1), labels[order]


ALL_CLASSIFIERS = [
    lambda: IntervalClassifier(margin=1),
    lambda: KNearestNeighbors(k=5),
    lambda: GaussianNaiveBayes(),
    lambda: DecisionTreeClassifier(max_depth=6),
    lambda: LogisticRegressionClassifier(iterations=300),
]


class TestAllClassifiersOnBandData:
    @pytest.mark.parametrize("factory", ALL_CLASSIFIERS)
    def test_high_accuracy_on_separable_bands(self, factory):
        features, labels = _three_band_data()
        classifier = factory().fit(features, labels)
        assert classifier.score(features, labels) >= 0.95

    @pytest.mark.parametrize("factory", ALL_CLASSIFIERS)
    def test_generalises_to_fresh_samples(self, factory):
        train_features, train_labels = _three_band_data(seed=1)
        test_features, test_labels = _three_band_data(seed=2)
        classifier = factory().fit(train_features, train_labels)
        assert classifier.score(test_features, test_labels) >= 0.9

    @pytest.mark.parametrize("factory", ALL_CLASSIFIERS)
    def test_predict_before_fit_raises(self, factory):
        with pytest.raises(NotFittedError):
            factory().predict([[1.0]])


class TestIntervalClassifier:
    def test_learned_intervals_cover_training_range(self):
        features, labels = _three_band_data()
        classifier = IntervalClassifier(margin=2).fit(features, labels)
        low, high = classifier.intervals["type1"]
        assert low <= 2211 and high >= 2213

    def test_prefers_narrowest_containing_interval(self):
        features = np.asarray([[10.0], [11.0], [12.0], [5.0], [30.0], [10.5]])
        labels = ["narrow", "narrow", "narrow", "wide", "wide", "wide"]
        classifier = IntervalClassifier().fit(features, labels)
        assert classifier.predict([[11.0]])[0] == "narrow"

    def test_fallback_for_out_of_band_values(self):
        features, labels = _three_band_data()
        classifier = IntervalClassifier(fallback_label="other").fit(features, labels)
        assert classifier.predict([[9999.0]])[0] == "other"

    def test_rejects_multi_feature_input(self):
        with pytest.raises(MLError):
            IntervalClassifier().fit(np.ones((4, 2)), ["a", "a", "b", "b"])

    def test_negative_margin_rejected(self):
        with pytest.raises(MLError):
            IntervalClassifier(margin=-1)


class TestKNN:
    def test_k_of_one_memorises(self):
        features = np.asarray([[0.0], [10.0], [20.0]])
        labels = ["a", "b", "c"]
        classifier = KNearestNeighbors(k=1).fit(features, labels)
        assert list(classifier.predict(features)) == labels

    def test_dimensionality_mismatch_rejected(self):
        classifier = KNearestNeighbors(k=1).fit(np.ones((3, 2)), ["a", "b", "c"])
        with pytest.raises(MLError):
            classifier.predict(np.ones((2, 3)))

    def test_invalid_k_rejected(self):
        with pytest.raises(MLError):
            KNearestNeighbors(k=0)


class TestNaiveBayes:
    def test_log_proba_shape(self):
        features, labels = _three_band_data()
        model = GaussianNaiveBayes().fit(features, labels)
        log_proba = model.predict_log_proba(features[:7])
        assert log_proba.shape == (7, 3)


class TestDecisionTree:
    def test_depth_limited(self):
        features, labels = _three_band_data()
        tree = DecisionTreeClassifier(max_depth=2).fit(features, labels)
        assert tree.depth() <= 2

    def test_pure_leaf_short_circuit(self):
        tree = DecisionTreeClassifier().fit(np.asarray([[1.0], [2.0]]), ["x", "x"])
        assert tree.depth() == 0
        assert tree.predict([[5.0]])[0] == "x"

    def test_invalid_parameters_rejected(self):
        with pytest.raises(MLError):
            DecisionTreeClassifier(max_depth=0)
        with pytest.raises(MLError):
            DecisionTreeClassifier(min_samples_split=1)


class TestLogisticRegression:
    def test_probabilities_sum_to_one(self):
        features, labels = _three_band_data()
        model = LogisticRegressionClassifier(iterations=200).fit(features, labels)
        probabilities = model.predict_proba(features[:5])
        assert np.allclose(probabilities.sum(axis=1), 1.0)
        assert probabilities.shape == (5, len(set(labels)))

    def test_invalid_hyperparameters_rejected(self):
        with pytest.raises(MLError):
            LogisticRegressionClassifier(learning_rate=0)
        with pytest.raises(MLError):
            LogisticRegressionClassifier(iterations=0)
        with pytest.raises(MLError):
            LogisticRegressionClassifier(l2=-1)
