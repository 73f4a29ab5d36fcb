"""Record-type classification strategies.

Two interchangeable ways to label a client record as type-1 / type-2 / other:

* :class:`RecordTypeClassifier` — the paper's approach: look the record
  length up in the environment's band fingerprint;
* :class:`MLRecordClassifier` — an ablation: train any of the from-scratch
  estimators in :mod:`repro.ml` on raw record lengths, demonstrating that the
  side-channel does not depend on hand-built bins.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.features import ClientRecord, labelled_lengths
from repro.core.fingerprint import FingerprintLibrary
from repro.exceptions import AttackError
from repro.ml.base import Classifier


class RecordTypeClassifier:
    """Band-fingerprint classifier (the technique proposed by the paper)."""

    def __init__(self, library: FingerprintLibrary) -> None:
        self._library = library

    @property
    def library(self) -> FingerprintLibrary:
        """The fingerprint library backing this classifier."""
        return self._library

    def classify(
        self, records: Sequence[ClientRecord], condition_key: str
    ) -> list[str]:
        """Label every record using the environment's bands."""
        if not records:
            raise AttackError("cannot classify an empty record sequence")
        fingerprint = self._library.get(condition_key)
        return fingerprint.classify(records)


class MLRecordClassifier:
    """Generic-estimator classifier over raw record lengths."""

    def __init__(self, estimator: Classifier) -> None:
        self._estimator = estimator
        self._trained = False

    def fit(self, records: Sequence[ClientRecord]) -> "MLRecordClassifier":
        """Train on labelled records (lengths as the single feature)."""
        lengths, labels = labelled_lengths(records)
        features = np.asarray(lengths, dtype=float).reshape(-1, 1)
        self._estimator.fit(features, labels)
        self._trained = True
        return self

    def classify(self, records: Sequence[ClientRecord]) -> list[str]:
        """Label every record with the trained estimator."""
        if not self._trained:
            raise AttackError("MLRecordClassifier must be fitted before classifying")
        if not records:
            raise AttackError("cannot classify an empty record sequence")
        features = np.asarray(
            [record.wire_length for record in records], dtype=float
        ).reshape(-1, 1)
        return [str(label) for label in self._estimator.predict(features)]
