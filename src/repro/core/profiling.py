"""Behavioural profiling from recovered choices.

The paper's motivation is that choices "can potentially reveal viewer
information that ranges from benign (e.g., their food and music preferences)
to sensitive (e.g., their affinity to violence and political inclination)".
This module performs that last step: it maps a recovered viewing path onto
the traits each question probes (the trait annotations live with the script
in :mod:`repro.narrative.bandersnatch`) and aggregates them into a profile an
adversary could build per viewer.

The inferences are deliberately simple (each question contributes one signal
for its trait); the point is to demonstrate the privacy consequence, not to
do serious psychometrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import AttackError
from repro.narrative.bandersnatch import BANDERSNATCH_CHOICE_LABELS, canonical_question_id
from repro.narrative.path import ViewingPath


@dataclass(frozen=True)
class TraitEstimate:
    """The adversary's estimate of one behavioural trait."""

    trait: str
    leaning: str
    evidence_question: str
    selected_label: str

    def __post_init__(self) -> None:
        if not self.trait:
            raise AttackError("trait name must be non-empty")
        if self.leaning not in ("default-leaning", "non-default-leaning"):
            raise AttackError(f"unknown leaning {self.leaning!r}")


@dataclass(frozen=True)
class BehavioralProfile:
    """Aggregated trait estimates for one viewer."""

    estimates: tuple[TraitEstimate, ...]

    @property
    def traits(self) -> tuple[str, ...]:
        """All traits the profile covers."""
        return tuple(estimate.trait for estimate in self.estimates)

    def sensitive_estimates(
        self, sensitive_traits: Sequence[str] = ("violence", "aggression", "risk_taking")
    ) -> tuple[TraitEstimate, ...]:
        """The subset of estimates the paper calls out as sensitive."""
        return tuple(e for e in self.estimates if e.trait in set(sensitive_traits))

    def as_dict(self) -> dict[str, str]:
        """trait -> selected label (compact report form)."""
        return {estimate.trait: estimate.selected_label for estimate in self.estimates}


def profile_from_path(path: ViewingPath) -> BehavioralProfile:
    """Build a profile from a (ground-truth or reconstructed) viewing path."""
    estimates: list[TraitEstimate] = []
    for record in path.choices:
        canonical = canonical_question_id(record.question_id)
        if canonical not in BANDERSNATCH_CHOICE_LABELS:
            continue
        trait, _default_label, _alternate_label = BANDERSNATCH_CHOICE_LABELS[canonical]
        estimates.append(
            TraitEstimate(
                trait=trait,
                leaning="default-leaning" if record.took_default else "non-default-leaning",
                evidence_question=canonical,
                selected_label=record.selected_label,
            )
        )
    return BehavioralProfile(estimates=tuple(estimates))
