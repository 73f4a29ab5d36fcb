"""Length-bin histograms.

Figure 2 of the paper reports the *percentage of packets* whose SSL record
length falls into a handful of byte ranges, split by the kind of payload the
record carries (type-1 JSON, type-2 JSON, everything else).  The
:class:`Histogram` here reproduces exactly that presentation: named,
potentially open-ended integer bins, counted per category.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class LengthBin:
    """A closed integer byte range; ``None`` bounds make the bin open-ended."""

    low: int | None
    high: int | None

    def __post_init__(self) -> None:
        if self.low is None and self.high is None:
            raise ConfigurationError("a bin must be bounded on at least one side")
        if self.low is not None and self.high is not None and self.low > self.high:
            raise ConfigurationError(
                f"bin lower bound {self.low} exceeds upper bound {self.high}"
            )

    def contains(self, value: int) -> bool:
        """Return ``True`` if ``value`` falls inside this bin (bounds inclusive)."""
        if self.low is not None and value < self.low:
            return False
        if self.high is not None and value > self.high:
            return False
        return True

    @property
    def label(self) -> str:
        """Human-readable label matching the paper's axis style."""
        return bin_label(self)


def bin_label(length_bin: LengthBin) -> str:
    """Format a bin the way the paper's Figure 2 x-axis does."""
    if length_bin.low is None:
        return f"<={length_bin.high}"
    if length_bin.high is None:
        return f">={length_bin.low}"
    if length_bin.low == length_bin.high:
        return str(length_bin.low)
    return f"{length_bin.low}-{length_bin.high}"


class Histogram:
    """Counts of values per (bin, category).

    Parameters
    ----------
    bins:
        Ordered, non-overlapping bins.  Values that fall in no bin are not
        counted.
    categories:
        The category labels that will be reported.  Observing an unknown
        category raises, which catches label typos early.
    """

    def __init__(self, bins: Sequence[LengthBin], categories: Sequence[str]) -> None:
        if not bins:
            raise ConfigurationError("histogram needs at least one bin")
        if not categories:
            raise ConfigurationError("histogram needs at least one category")
        if len(set(categories)) != len(categories):
            raise ConfigurationError("histogram categories must be unique")
        self._bins = tuple(bins)
        self._categories = tuple(categories)
        self._counts: dict[str, list[int]] = {
            category: [0] * len(self._bins) for category in self._categories
        }

    def observe(self, value: int, category: str) -> None:
        """Record one value under ``category``."""
        if category not in self._counts:
            raise ConfigurationError(f"unknown histogram category {category!r}")
        for index, length_bin in enumerate(self._bins):
            if length_bin.contains(value):
                self._counts[category][index] += 1
                return

    def counts(self, category: str) -> tuple[int, ...]:
        """Raw per-bin counts for one category."""
        if category not in self._counts:
            raise ConfigurationError(f"unknown histogram category {category!r}")
        return tuple(self._counts[category])

    def total(self, category: str) -> int:
        """Total observations recorded for one category (values in no bin excluded)."""
        return sum(self.counts(category))

    def percentages(self, category: str) -> tuple[float, ...]:
        """Per-bin percentages for one category (the paper's y-axis).

        A category with zero observations yields all zeros rather than NaN.
        """
        raw = self.counts(category)
        total = sum(raw)
        if total == 0:
            return tuple(0.0 for _ in raw)
        return tuple(100.0 * count / total for count in raw)

    def dominant_bin(self, category: str) -> LengthBin:
        """The bin holding the largest share of this category's observations."""
        raw = self.counts(category)
        if sum(raw) == 0:
            raise ConfigurationError(f"no observations recorded for {category!r}")
        index = max(range(len(raw)), key=raw.__getitem__)
        return self._bins[index]

    def as_table(self) -> list[dict[str, object]]:
        """Rows of ``{bin, category: percentage...}`` suitable for printing."""
        rows: list[dict[str, object]] = []
        per_category = {
            category: self.percentages(category) for category in self._categories
        }
        for index, length_bin in enumerate(self._bins):
            row: dict[str, object] = {"bin": length_bin.label}
            for category in self._categories:
                row[category] = round(per_category[category][index], 2)
            rows.append(row)
        return rows


def bins_from_edges(edges: Sequence[tuple[int | None, int | None]]) -> list[LengthBin]:
    """Build a list of bins from ``(low, high)`` tuples."""
    return [LengthBin(low=low, high=high) for low, high in edges]
