"""Interval (band) classifier over a single scalar feature.

This is the classifier the paper's technique amounts to: for each class,
learn the closed interval of record lengths observed in training; at
prediction time a value is assigned to the class whose interval contains it
(preferring the *narrowest* containing interval, so the tight JSON bands win
over the broad "other" band), and to a fallback class when no interval
matches.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernel import priority_interval_codes
from repro.exceptions import MLError
from repro.ml.base import Classifier, as_feature_matrix, as_label_array


class IntervalClassifier(Classifier):
    """Per-class [min, max] bands over a scalar feature.

    Parameters
    ----------
    margin:
        The learned interval is widened by this absolute amount on both
        sides, giving robustness to small jitter never seen in training.
    fallback_label:
        Label returned when a value falls in no class interval.  Defaults to
        the majority training class.
    """

    def __init__(self, margin: float = 0.0, fallback_label: object | None = None) -> None:
        if margin < 0:
            raise MLError(f"margin must be non-negative, got {margin}")
        self._margin = margin
        self._fallback = fallback_label
        self._intervals: dict[object, tuple[float, float]] = {}

    @property
    def intervals(self) -> dict[object, tuple[float, float]]:
        """The learned per-class bands (after widening by the margin)."""
        self._check_fitted()
        return dict(self._intervals)

    def fit(self, features: object, labels: object) -> "IntervalClassifier":
        matrix = as_feature_matrix(features)
        if matrix.shape[1] != 1:
            raise MLError(
                f"IntervalClassifier works on a single scalar feature, got "
                f"{matrix.shape[1]} columns"
            )
        values = matrix[:, 0]
        label_array = as_label_array(labels, expected_length=values.size)
        self._intervals = {}
        counts: dict[object, int] = {}
        for label in sorted(set(label_array.tolist()), key=str):
            mask = label_array == label
            class_values = values[mask]
            self._intervals[label] = (
                float(class_values.min()) - self._margin,
                float(class_values.max()) + self._margin,
            )
            counts[label] = int(mask.sum())
        if self._fallback is None:
            self._fallback = max(counts, key=counts.get)
        self._fitted = True
        return self

    def predict(self, features: object) -> np.ndarray:
        self._check_fitted()
        matrix = as_feature_matrix(features)
        if matrix.shape[1] != 1:
            raise MLError("IntervalClassifier expects a single scalar feature")
        values = matrix[:, 0]
        # Vectorized narrowest-containing-interval: ordering the intervals by
        # the very (width, label) key the scalar oracle sorts its candidates
        # with makes "first containing interval" and "narrowest containing
        # interval" the same thing, so one kernel call replaces the per-value
        # candidate scan.  Code -1 (no interval) indexes the fallback parked
        # at the end of the label table.
        order = sorted(
            self._intervals.items(),
            key=lambda item: (item[1][1] - item[1][0], str(item[0])),
        )
        lows = np.asarray([low for _label, (low, _high) in order], dtype=np.float64)
        highs = np.asarray([high for _label, (_low, high) in order], dtype=np.float64)
        codes = priority_interval_codes(values, lows, highs)
        table = np.empty(len(order) + 1, dtype=object)
        for index, (label, _interval) in enumerate(order):
            table[index] = label
        table[len(order)] = self._fallback
        return table[codes]

    def _predict_scalar(self, features: object) -> np.ndarray:
        """Reference oracle: the original per-value candidate scan.

        Kept (and property-tested against :meth:`predict`) so the vectorized
        path is pinned to the paper's tie-breaking semantics exactly —
        narrowest containing interval wins, ties broken by label string.
        """
        self._check_fitted()
        matrix = as_feature_matrix(features)
        if matrix.shape[1] != 1:
            raise MLError("IntervalClassifier expects a single scalar feature")
        values = matrix[:, 0]
        predictions = np.empty(values.size, dtype=object)
        for index, value in enumerate(values):
            candidates = [
                (high - low, label)
                for label, (low, high) in self._intervals.items()
                if low <= value <= high
            ]
            if candidates:
                candidates.sort(key=lambda item: (item[0], str(item[1])))
                predictions[index] = candidates[0][1]
            else:
                predictions[index] = self._fallback
        return predictions
