"""Classification metrics: accuracy and confusion matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import MLError


def _validate(y_true: object, y_pred: object) -> tuple[np.ndarray, np.ndarray]:
    true_array = np.asarray(y_true, dtype=object).reshape(-1)
    pred_array = np.asarray(y_pred, dtype=object).reshape(-1)
    if true_array.size == 0:
        raise MLError("cannot compute metrics on empty label arrays")
    if true_array.size != pred_array.size:
        raise MLError(
            f"label arrays differ in length: {true_array.size} vs {pred_array.size}"
        )
    return true_array, pred_array


def accuracy_score(y_true: object, y_pred: object) -> float:
    """Fraction of predictions that match the ground truth."""
    true_array, pred_array = _validate(y_true, y_pred)
    return float(np.mean(true_array == pred_array))


@dataclass(frozen=True)
class ConfusionMatrix:
    """Row-per-true-class, column-per-predicted-class confusion matrix."""

    labels: tuple[object, ...]
    counts: np.ndarray

    @classmethod
    def from_predictions(cls, y_true: object, y_pred: object) -> "ConfusionMatrix":
        """Build the matrix from ground truth and predictions."""
        true_array, pred_array = _validate(y_true, y_pred)
        labels = tuple(sorted(set(true_array.tolist()) | set(pred_array.tolist()), key=str))
        index = {label: position for position, label in enumerate(labels)}
        counts = np.zeros((len(labels), len(labels)), dtype=int)
        for truth, prediction in zip(true_array, pred_array):
            counts[index[truth], index[prediction]] += 1
        return cls(labels=labels, counts=counts)

    def count(self, true_label: object, predicted_label: object) -> int:
        """Number of samples of ``true_label`` predicted as ``predicted_label``."""
        if true_label not in self.labels or predicted_label not in self.labels:
            raise MLError("label not present in the confusion matrix")
        row = self.labels.index(true_label)
        column = self.labels.index(predicted_label)
        return int(self.counts[row, column])

    @property
    def total(self) -> int:
        """Total number of samples."""
        return int(self.counts.sum())

    @property
    def accuracy(self) -> float:
        """Overall accuracy (trace over total)."""
        return float(np.trace(self.counts) / self.counts.sum())

    def as_rows(self) -> list[dict[str, object]]:
        """Printable rows: one per true class, with per-predicted-class counts."""
        rows: list[dict[str, object]] = []
        for row_index, true_label in enumerate(self.labels):
            row: dict[str, object] = {"true": true_label}
            for column_index, predicted_label in enumerate(self.labels):
                row[str(predicted_label)] = int(self.counts[row_index, column_index])
            rows.append(row)
        return rows
