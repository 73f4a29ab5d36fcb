"""The arena report: every cell plus the deterministic Pareto frontier.

The frontier answers the paper's open Section VI question quantitatively:
which defense configurations are *efficient* — no other swept cell leaks
less for less overhead?  Dominance is computed on
``(overhead_bytes_per_session, choice_accuracy)``, both minimised; a cell
is dominated when another cell is no worse on both axes and strictly
better on at least one.  Ties survive together, and the frontier lists
cell ids in cell order, so the report is a pure function of the cell set.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Sequence

from repro.arena.cell import ARENA_SCHEMA_VERSION
from repro.exceptions import ReproError
from repro.utils.atomic import write_atomic


class ArenaReport:
    """Cells (sorted by id) + Pareto frontier, saved as sorted-keys JSON."""

    def __init__(self, cells: Sequence[Mapping[str, object]]) -> None:
        if not cells:
            raise ReproError("an arena report needs at least one cell")
        for cell in cells:
            schema = cell.get("schema")
            if schema != ARENA_SCHEMA_VERSION:
                raise ReproError(
                    f"unsupported arena cell schema version {schema!r} in "
                    f"cell {cell.get('cell')!r} (this build speaks schema "
                    f"version {ARENA_SCHEMA_VERSION})"
                )
        self._cells = sorted(
            (dict(cell) for cell in cells), key=lambda cell: str(cell["cell"])
        )
        self._frontier = tuple(_pareto_frontier(self._cells))

    @property
    def cells(self) -> tuple[dict[str, object], ...]:
        """Every cell result, sorted by cell id."""
        return tuple(self._cells)

    @property
    def frontier(self) -> tuple[str, ...]:
        """Cell ids of the non-dominated cells, in cell order."""
        return self._frontier

    def to_dict(self) -> dict[str, object]:
        return {
            "cells": [dict(cell) for cell in self._cells],
            "frontier": list(self._frontier),
            "schema": ARENA_SCHEMA_VERSION,
        }

    def save(self, path: str | Path) -> Path:
        """Write the report atomically, as sorted-keys JSON."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        return write_atomic(
            path, json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"
        )

    @classmethod
    def load(cls, path: str | Path) -> "ArenaReport":
        """Inverse of :meth:`save`; refuses unknown schema versions."""
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ReproError(
                f"{path} is not an arena report (expected a JSON object)"
            )
        schema = data.get("schema")
        if schema != ARENA_SCHEMA_VERSION:
            raise ReproError(
                f"unsupported arena report schema version {schema!r} in "
                f"{path} (this build speaks schema version "
                f"{ARENA_SCHEMA_VERSION})"
            )
        report = cls(data.get("cells") or ())
        recorded = tuple(data.get("frontier") or ())
        if recorded != report.frontier:
            raise ReproError(
                f"{path} records a frontier {list(recorded)} that does not "
                f"match its cells (recomputed: {list(report.frontier)}); "
                "the report was edited or truncated"
            )
        return report

    def rows(self) -> list[dict[str, object]]:
        """Table rows for the event bus (one per cell, frontier starred)."""
        frontier = set(self._frontier)
        return [
            {
                "cell": cell["cell"],
                "condition": cell["condition"],
                "defense": cell["defense_name"],
                "classifier": cell["classifier_name"],
                "choice_accuracy": cell["metrics"]["choice_accuracy"],
                "overhead_bytes": cell["metrics"]["overhead_bytes_per_session"],
                "timing_recall": cell["metrics"]["timing_question_recall"],
                "pareto": "*" if cell["cell"] in frontier else "",
            }
            for cell in self._cells
        ]


def _pareto_frontier(cells: Sequence[Mapping[str, object]]) -> list[str]:
    points = [
        (
            str(cell["cell"]),
            float(cell["metrics"]["overhead_bytes_per_session"]),
            float(cell["metrics"]["choice_accuracy"]),
        )
        for cell in cells
    ]
    frontier = []
    for cell_id, overhead, leakage in points:
        dominated = any(
            other_overhead <= overhead
            and other_leakage <= leakage
            and (other_overhead < overhead or other_leakage < leakage)
            for _other_id, other_overhead, other_leakage in points
        )
        if not dominated:
            frontier.append(cell_id)
    return frontier
