"""Multinomial logistic regression trained by full-batch gradient descent."""

from __future__ import annotations

import numpy as np

from repro.exceptions import MLError
from repro.ml.base import Classifier, as_feature_matrix, as_label_array


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exponentials = np.exp(shifted)
    return exponentials / exponentials.sum(axis=1, keepdims=True)


class LogisticRegressionClassifier(Classifier):
    """Softmax regression with L2 regularisation and feature standardisation."""

    def __init__(
        self,
        learning_rate: float = 0.1,
        iterations: int = 500,
        l2: float = 1e-3,
    ) -> None:
        if learning_rate <= 0:
            raise MLError("learning rate must be positive")
        if iterations < 1:
            raise MLError("iterations must be at least 1")
        if l2 < 0:
            raise MLError("l2 penalty must be non-negative")
        self._learning_rate = learning_rate
        self._iterations = iterations
        self._l2 = l2
        self._classes: np.ndarray | None = None
        self._weights: np.ndarray | None = None
        self._bias: np.ndarray | None = None
        self._feature_mean: np.ndarray | None = None
        self._feature_scale: np.ndarray | None = None

    def _standardise(self, matrix: np.ndarray) -> np.ndarray:
        assert self._feature_mean is not None and self._feature_scale is not None
        return (matrix - self._feature_mean) / self._feature_scale

    def fit(self, features: object, labels: object) -> "LogisticRegressionClassifier":
        matrix = as_feature_matrix(features)
        label_array = as_label_array(labels, expected_length=matrix.shape[0])
        classes = np.asarray(sorted(set(label_array.tolist()), key=str), dtype=object)
        class_index = {label: index for index, label in enumerate(classes.tolist())}
        targets = np.zeros((matrix.shape[0], classes.size))
        for row, label in enumerate(label_array):
            targets[row, class_index[label]] = 1.0

        self._feature_mean = matrix.mean(axis=0)
        scale = matrix.std(axis=0)
        scale[scale == 0] = 1.0
        self._feature_scale = scale
        standardized = self._standardise(matrix)

        weights = np.zeros((matrix.shape[1], classes.size))
        bias = np.zeros(classes.size)
        for _ in range(self._iterations):
            probabilities = _softmax(standardized @ weights + bias)
            error = probabilities - targets
            gradient_weights = standardized.T @ error / matrix.shape[0] + self._l2 * weights
            gradient_bias = error.mean(axis=0)
            weights -= self._learning_rate * gradient_weights
            bias -= self._learning_rate * gradient_bias

        self._classes = classes
        self._weights = weights
        self._bias = bias
        self._fitted = True
        return self

    def predict_proba(self, features: object) -> np.ndarray:
        """Class-probability matrix (rows sum to 1, columns in sorted label order)."""
        self._check_fitted()
        assert self._weights is not None and self._bias is not None
        matrix = self._standardise(as_feature_matrix(features))
        return _softmax(matrix @ self._weights + self._bias)

    def predict(self, features: object) -> np.ndarray:
        probabilities = self.predict_proba(features)
        assert self._classes is not None
        return self._classes[np.argmax(probabilities, axis=1)]
