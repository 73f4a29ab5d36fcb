"""Stratified train/test splitting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import MLError
from repro.utils.rng import spawn_rng


@dataclass(frozen=True)
class StratifiedSplit:
    """Indices of a stratified train/test split."""

    train_indices: np.ndarray
    test_indices: np.ndarray

    def __post_init__(self) -> None:
        overlap = set(self.train_indices.tolist()) & set(self.test_indices.tolist())
        if overlap:
            raise MLError(f"train/test indices overlap: {sorted(overlap)[:5]}...")


def train_test_split(
    labels: object, test_fraction: float = 0.3, seed: int = 0
) -> StratifiedSplit:
    """Stratified split: each label contributes ~``test_fraction`` to the test set.

    Every class with at least two samples keeps at least one sample on each
    side of the split so downstream classifiers always see every class.
    """
    if not 0.0 < test_fraction < 1.0:
        raise MLError(f"test fraction must be in (0, 1), got {test_fraction}")
    label_array = np.asarray(labels, dtype=object).reshape(-1)
    if label_array.size < 2:
        raise MLError("need at least two samples to split")
    rng = spawn_rng(seed, "train-test-split")
    train: list[int] = []
    test: list[int] = []
    for value in sorted(set(label_array.tolist()), key=str):
        indices = np.flatnonzero(label_array == value)
        rng.shuffle(indices)
        if indices.size == 1:
            train.extend(indices.tolist())
            continue
        test_count = int(round(indices.size * test_fraction))
        test_count = min(max(test_count, 1), indices.size - 1)
        test.extend(indices[:test_count].tolist())
        train.extend(indices[test_count:].tolist())
    return StratifiedSplit(
        train_indices=np.asarray(sorted(train), dtype=int),
        test_indices=np.asarray(sorted(test), dtype=int),
    )
