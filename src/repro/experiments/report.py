"""Plain-text rendering of the reproduction results.

The benchmarks and the ``examples/`` scripts print their tables through these
helpers so that the output of ``pytest benchmarks/`` and of the examples
matches what EXPERIMENTS.md records.  :func:`format_table` lives in
:mod:`repro.utils.tables` (so the console renderer need not import this
package) and is re-exported here.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.exceptions import ReproError
from repro.utils.tables import format_table

__all__ = ["format_table", "render_experiment_report"]


def render_experiment_report(
    table1_rows: Sequence[Mapping[str, object]] | None = None,
    figure1_events: Sequence[tuple[str, str]] | None = None,
    figure2_rows: Mapping[str, Sequence[Mapping[str, object]]] | None = None,
    headline_rows: Sequence[Mapping[str, object]] | None = None,
    baseline_rows: Sequence[Mapping[str, object]] | None = None,
    defense_rows: Sequence[Mapping[str, object]] | None = None,
) -> str:
    """Assemble a multi-section text report from whichever results are provided."""
    sections: list[str] = []
    if table1_rows:
        sections.append(format_table(table1_rows, "Table I — IITM-Bandersnatch attributes"))
    if figure1_events:
        lines = ["Figure 1 — streaming process walkthrough", "=" * 41]
        lines.extend(f"  {kind:<20s} {detail}" for kind, detail in figure1_events)
        sections.append("\n".join(lines))
    if figure2_rows:
        for condition_name, rows in figure2_rows.items():
            sections.append(
                format_table(rows, f"Figure 2 — SSL record lengths, {condition_name}")
            )
    if headline_rows:
        sections.append(format_table(headline_rows, "Section V — choice recovery accuracy"))
    if baseline_rows:
        sections.append(format_table(baseline_rows, "Ablation A — baselines vs White Mirror"))
    if defense_rows:
        sections.append(format_table(defense_rows, "Ablation B — countermeasures"))
    if not sections:
        raise ReproError("no results supplied to the report renderer")
    return "\n\n".join(sections)
