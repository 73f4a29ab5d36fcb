"""Countermeasures against the record-length side-channel.

Section VI of the paper sketches the obvious fixes — split the JSON state
report across records, or pad/compress it so its length stops being
distinctive — and warns that a timing side-channel may survive them.  This
package implements those defences as transformations of the observable
client-record sequence, plus :func:`score_defense` — the one scorer, shared
by the defence ablation and the arena — measuring how much each defence
degrades an adaptive attacker, and a residual-timing analysis.
"""

from repro.defenses.padding import PadToConstant, PadToMultiple
from repro.defenses.splitting import SplitRecords
from repro.defenses.compression import CompressStateReports
from repro.defenses.base import RecordDefense, apply_defense
from repro.defenses.timing import TimingOnlyAttack, timing_question_recall
from repro.defenses.evaluation import score_defense, timing_scores
from repro.defenses.registry import (
    DEFENSE_REGISTRY,
    build_defense,
    defense_from_spec,
    defense_names,
    defense_spec,
)

__all__ = [
    "CompressStateReports",
    "DEFENSE_REGISTRY",
    "PadToConstant",
    "PadToMultiple",
    "RecordDefense",
    "SplitRecords",
    "TimingOnlyAttack",
    "apply_defense",
    "build_defense",
    "defense_from_spec",
    "defense_names",
    "defense_spec",
    "score_defense",
    "timing_question_recall",
    "timing_scores",
]
