"""Bitrate-profile fingerprinting (Reed & Kranch style baseline).

The original technique identifies which Netflix title a flow carries by
matching the flow's average-bitrate profile against a database built from the
titles' manifests.  The feature is deliberately coarse: average downlink
throughput over fixed windows.  That coarseness is exactly why the technique
cannot separate two branches of the same interactive title — both are encoded
at the same ladder rungs, so their windowed-throughput profiles coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import AttackError
from repro.ml.knn import KNearestNeighbors
from repro.net.capture import CapturedTrace


@dataclass(frozen=True)
class BitrateProfile:
    """Windowed average downlink throughput of (part of) a trace."""

    window_seconds: float
    bytes_per_window: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.window_seconds <= 0:
            raise AttackError("window must be positive")
        if not self.bytes_per_window:
            raise AttackError("a bitrate profile needs at least one window")

    def as_vector(self, length: int) -> np.ndarray:
        """Fixed-length feature vector (truncated or zero-padded)."""
        if length <= 0:
            raise AttackError("feature vector length must be positive")
        vector = np.zeros(length, dtype=float)
        values = np.asarray(self.bytes_per_window, dtype=float)[:length]
        vector[: values.size] = values
        return vector


def profile_from_trace(
    trace: CapturedTrace,
    window_seconds: float = 2.0,
    start: float | None = None,
    end: float | None = None,
) -> BitrateProfile:
    """Build the downlink throughput profile of a trace (or a time slice of it)."""
    packets = trace.server_packets()
    if not packets:
        raise AttackError("trace has no downlink packets to profile")
    timestamps = np.asarray([p.timestamp for p in packets], dtype=float)
    sizes = np.asarray([p.wire_length for p in packets], dtype=float)
    window_start = float(timestamps.min() if start is None else start)
    window_end = float(timestamps.max() if end is None else end)
    if window_end <= window_start:
        window_end = window_start + window_seconds
    mask = (timestamps >= window_start) & (timestamps <= window_end)
    if not mask.any():
        return BitrateProfile(window_seconds=window_seconds, bytes_per_window=(0.0,))
    timestamps = timestamps[mask]
    sizes = sizes[mask]
    window_count = int(np.ceil((window_end - window_start) / window_seconds))
    window_count = max(window_count, 1)
    indices = np.minimum(
        ((timestamps - window_start) / window_seconds).astype(int), window_count - 1
    )
    totals = np.zeros(window_count, dtype=float)
    np.add.at(totals, indices, sizes)
    return BitrateProfile(
        window_seconds=window_seconds, bytes_per_window=tuple(totals.tolist())
    )


class BitrateFingerprinter:
    """k-NN over windowed-throughput vectors."""

    def __init__(self, window_seconds: float = 2.0, vector_length: int = 8, k: int = 3) -> None:
        if vector_length <= 0:
            raise AttackError("vector length must be positive")
        self._window_seconds = window_seconds
        self._vector_length = vector_length
        self._knn = KNearestNeighbors(k=k)
        self._trained = False

    @property
    def window_seconds(self) -> float:
        """Width of the throughput windows."""
        return self._window_seconds

    def _features(self, profiles: Sequence[BitrateProfile]) -> np.ndarray:
        return np.vstack([profile.as_vector(self._vector_length) for profile in profiles])

    def fit(self, profiles: Sequence[BitrateProfile], labels: Sequence[object]) -> "BitrateFingerprinter":
        """Train on labelled throughput profiles."""
        if len(profiles) != len(labels):
            raise AttackError("profiles and labels differ in length")
        self._knn.fit(self._features(profiles), list(labels))
        self._trained = True
        return self

    def predict(self, profiles: Sequence[BitrateProfile]) -> list[object]:
        """Predict a label per profile."""
        if not self._trained:
            raise AttackError("BitrateFingerprinter must be fitted first")
        return list(self._knn.predict(self._features(profiles)))
