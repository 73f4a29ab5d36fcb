"""Scoring the attack against ground truth."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.features import ClientRecord, LABEL_TYPE1, LABEL_TYPE2
from repro.core.inference import InferredChoices
from repro.exceptions import AttackError
from repro.ml.metrics import ConfusionMatrix
from repro.narrative.path import ViewingPath


@dataclass(frozen=True)
class AttackEvaluation:
    """Per-session scores of the attack.

    Two accuracies matter:

    * :attr:`json_identification_accuracy` — over every record that either is
      or was predicted to be a state report, the fraction labelled correctly.
      This is the quantity the paper quotes ("identify the two types of JSON
      files with 96 % accuracy").
    * :attr:`choice_accuracy` — the stricter end-to-end metric: the fraction
      of the viewer's actual choices whose recovered value (default vs
      non-default) is correct under index alignment.
    """

    ground_truth_choices: int
    inferred_choices: int
    correct_choices: int
    record_accuracy: float
    true_json_records: int
    correct_json_records: int
    false_positive_json_records: int
    missed_json_records: int

    @property
    def choice_accuracy(self) -> float:
        """Fraction of the viewer's actual choices the attack recovered correctly."""
        if self.ground_truth_choices == 0:
            raise AttackError("session has no ground-truth choices to score")
        return self.correct_choices / self.ground_truth_choices

    @property
    def json_identification_accuracy(self) -> float:
        """Accuracy of state-report identification (the paper's 96 % metric).

        Denominator: records that are truly type-1/type-2 plus false
        positives (records wrongly flagged as state reports); numerator: true
        state reports labelled with the correct type.
        """
        denominator = self.true_json_records + self.false_positive_json_records
        if denominator == 0:
            raise AttackError("session contains no state-report records to score")
        return self.correct_json_records / denominator

    @property
    def exact_path_recovered(self) -> bool:
        """Whether every single choice (and hence the full path) was recovered."""
        return (
            self.inferred_choices == self.ground_truth_choices
            and self.correct_choices == self.ground_truth_choices
        )

    def as_dict(self) -> dict[str, float]:
        """Flat dictionary for report tables."""
        return {
            "ground_truth_choices": float(self.ground_truth_choices),
            "inferred_choices": float(self.inferred_choices),
            "correct_choices": float(self.correct_choices),
            "choice_accuracy": self.choice_accuracy,
            "json_identification_accuracy": self.json_identification_accuracy,
            "record_accuracy": self.record_accuracy,
            "false_positive_json_records": float(self.false_positive_json_records),
            "missed_json_records": float(self.missed_json_records),
        }


def evaluate_record_classification(
    records: Sequence[ClientRecord], predicted_labels: Sequence[str]
) -> ConfusionMatrix:
    """Confusion matrix of record-type classification against annotations."""
    if len(records) != len(predicted_labels):
        raise AttackError("records and predicted labels differ in length")
    truth = []
    for record in records:
        if record.label is None:
            raise AttackError("cannot evaluate against unlabelled records")
        truth.append(record.label)
    return ConfusionMatrix.from_predictions(truth, list(predicted_labels))


def _choice_correctness(
    inferred_pattern: Sequence[bool], truth_pattern: Sequence[bool]
) -> int:
    """Number of ground-truth choices recovered correctly (index alignment).

    The i-th inferred question is compared against the i-th actual question;
    missing or surplus questions count as errors.  This is the conservative
    scoring used for the headline number.
    """
    correct = 0
    for index, actual in enumerate(truth_pattern):
        if index < len(inferred_pattern) and inferred_pattern[index] == actual:
            correct += 1
    return correct


def evaluate_attack_result(
    records: Sequence[ClientRecord],
    predicted_labels: Sequence[str],
    inferred: InferredChoices,
    ground_truth_path: ViewingPath,
) -> AttackEvaluation:
    """Score one session end to end.

    ``records``/``predicted_labels`` score the record-classification stage
    (requires annotated records); ``inferred`` vs ``ground_truth_path``
    scores the recovered choices.
    """
    confusion = evaluate_record_classification(records, predicted_labels)
    false_positives = 0
    missed = 0
    true_json = 0
    correct_json = 0
    for record, predicted in zip(records, predicted_labels):
        truly_json = record.label in (LABEL_TYPE1, LABEL_TYPE2)
        predicted_json = predicted in (LABEL_TYPE1, LABEL_TYPE2)
        if truly_json:
            true_json += 1
            if predicted == record.label:
                correct_json += 1
            else:
                missed += 1
        elif predicted_json:
            false_positives += 1
    truth_pattern = ground_truth_path.default_pattern
    inferred_pattern = inferred.default_pattern
    correct = _choice_correctness(inferred_pattern, truth_pattern)
    return AttackEvaluation(
        ground_truth_choices=len(truth_pattern),
        inferred_choices=len(inferred_pattern),
        correct_choices=correct,
        record_accuracy=confusion.accuracy,
        true_json_records=true_json,
        correct_json_records=correct_json,
        false_positive_json_records=false_positives,
        missed_json_records=missed,
    )


def aggregate_choice_accuracy(evaluations: Sequence[AttackEvaluation]) -> float:
    """Overall fraction of choices recovered across many sessions."""
    if not evaluations:
        raise AttackError("cannot aggregate an empty evaluation list")
    total = sum(e.ground_truth_choices for e in evaluations)
    correct = sum(e.correct_choices for e in evaluations)
    if total == 0:
        raise AttackError("no ground-truth choices across the sessions")
    return correct / total


def aggregate_json_identification_accuracy(
    evaluations: Sequence[AttackEvaluation],
) -> float:
    """Overall state-report identification accuracy across many sessions."""
    if not evaluations:
        raise AttackError("cannot aggregate an empty evaluation list")
    denominator = sum(
        e.true_json_records + e.false_positive_json_records for e in evaluations
    )
    correct = sum(e.correct_json_records for e in evaluations)
    if denominator == 0:
        raise AttackError("no state-report records across the sessions")
    return correct / denominator


def worst_case_accuracy(per_condition: dict[str, float]) -> tuple[str, float]:
    """The condition with the lowest accuracy and its value (the paper's 96%)."""
    if not per_condition:
        raise AttackError("no per-condition accuracies supplied")
    condition = min(per_condition, key=per_condition.get)
    return condition, per_condition[condition]
