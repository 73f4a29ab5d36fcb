"""Descriptive statistics used by the evaluation harness and reports."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.exceptions import ConfigurationError


def _as_array(values: Iterable[float]) -> np.ndarray:
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        raise ConfigurationError("cannot summarise an empty sequence")
    return array


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean of a non-empty sequence."""
    return float(_as_array(values).mean())


def median(values: Iterable[float]) -> float:
    """Median of a non-empty sequence."""
    return float(np.median(_as_array(values)))


def stddev(values: Iterable[float]) -> float:
    """Population standard deviation of a non-empty sequence."""
    return float(_as_array(values).std())


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of a non-empty sequence."""
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError(f"percentile must be within [0, 100], got {q}")
    return float(np.percentile(_as_array(values), q))


@dataclass(frozen=True)
class SummaryStats:
    """Five-number-style summary of a sample."""

    count: int
    minimum: float
    maximum: float
    mean: float
    median: float
    stddev: float
    p05: float
    p95: float

    def as_dict(self) -> dict[str, float]:
        """Return the summary as a plain dictionary (useful for reports)."""
        return {
            "count": float(self.count),
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            "median": self.median,
            "stddev": self.stddev,
            "p05": self.p05,
            "p95": self.p95,
        }


def summarize(values: Iterable[float]) -> SummaryStats:
    """Compute a :class:`SummaryStats` for a non-empty sample."""
    array = _as_array(values)
    return SummaryStats(
        count=int(array.size),
        minimum=float(array.min()),
        maximum=float(array.max()),
        mean=float(array.mean()),
        median=float(np.median(array)),
        stddev=float(array.std()),
        p05=float(np.percentile(array, 5)),
        p95=float(np.percentile(array, 95)),
    )


def proportions(counts: Mapping[str, int]) -> dict[str, float]:
    """Normalise a mapping of counts into proportions that sum to 1.

    Empty or all-zero mappings raise because a proportion is undefined.
    """
    total = float(sum(counts.values()))
    if total <= 0:
        raise ConfigurationError("cannot compute proportions of zero total count")
    return {key: value / total for key, value in counts.items()}
