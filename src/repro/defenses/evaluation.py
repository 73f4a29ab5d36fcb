"""Measuring how much each countermeasure actually buys.

The evaluation assumes an *adaptive* attacker: the record classifier is
re-trained on defended traffic (a weaker, unaware attacker would do strictly
worse).  Because several defences make the type-1/type-2 bands collide —
which is precisely their goal — the adaptive attacker drops the band rule
for a learned classifier over the defended record lengths (k-NN in the
defence ablation, any registry estimator in the arena); when even that
cannot separate the classes, the recovered choices collapse to the majority
behaviour and accuracy drops toward chance.  :func:`score_defense` is the
one place a defence is scored.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.classifier import MLRecordClassifier
from repro.core.evaluation import AttackEvaluation, evaluate_attack_result
from repro.core.features import ClientRecord, extract_client_records
from repro.core.inference import infer_choices
from repro.defenses.base import RecordDefense, apply_defense
from repro.defenses.timing import TimingOnlyAttack, timing_question_recall
from repro.exceptions import DefenseError
from repro.ml.base import Classifier
from repro.streaming.events import EventKind
from repro.streaming.session import SessionResult


def _choice_accuracy(evaluations: Sequence[AttackEvaluation]) -> float:
    total = sum(e.ground_truth_choices for e in evaluations)
    correct = sum(e.correct_choices for e in evaluations)
    return correct / total if total else 0.0


def timing_scores(
    session: SessionResult, defended: Sequence[ClientRecord]
) -> tuple[float, float]:
    """(choice accuracy, question recall) of the timing-only attack.

    Part of :func:`score_defense`; the timing channel is scored per
    session with the defended records the attacker actually observes.
    """
    attack = TimingOnlyAttack()
    inferred = attack.infer(defended, session.trace)
    truth = session.path.default_pattern
    if not truth:
        return 0.0, 0.0
    correct = sum(
        1
        for index, actual in enumerate(truth)
        if index < len(inferred.default_pattern)
        and inferred.default_pattern[index] == actual
    )
    question_times = [
        event.timestamp
        for event in session.events
        if event.kind is EventKind.QUESTION_SHOWN
    ]
    recall = (
        timing_question_recall(inferred, question_times) if question_times else 0.0
    )
    return correct / len(truth), recall


def score_defense(
    defense: RecordDefense | None,
    classifier: Classifier,
    train_sessions: Sequence[SessionResult],
    test_sessions: Sequence[SessionResult],
) -> dict[str, float]:
    """Score one defence (``None``: undefended) against an adaptive attacker.

    ``classifier`` is retrained on the defended training records, then
    attacks the defended test sessions.  Returns the six unrounded metrics
    shared by the defence ablation and the arena: choice and record
    accuracy, byte and latency overhead per session, and the residual
    timing channel (``timing_question_recall`` is the fraction of actual
    choice questions a record-length-blind attacker can still locate from
    request/response behaviour alone — no record-length defence touches it).
    """
    if not train_sessions or not test_sessions:
        raise DefenseError("both training and test session sets must be non-empty")

    def _defended(session: SessionResult) -> tuple[list[ClientRecord], list[ClientRecord]]:
        original = extract_client_records(
            session.trace, server_ip=session.trace.server_ip
        )
        if defense is None:
            return original, list(original)
        return original, apply_defense(defense, original)

    attacker = MLRecordClassifier(classifier)
    attacker.fit(
        [
            record
            for session in train_sessions
            for record in _defended(session)[1]
        ]
    )
    evaluations: list[AttackEvaluation] = []
    byte_overheads: list[float] = []
    latency_overheads: list[float] = []
    timing_accuracies: list[float] = []
    timing_recalls: list[float] = []
    for session in test_sessions:
        original, defended = _defended(session)
        labels = attacker.classify(defended)
        evaluations.append(
            evaluate_attack_result(
                records=defended,
                predicted_labels=labels,
                inferred=infer_choices(defended, labels),
                ground_truth_path=session.path,
            )
        )
        if defense is None:
            byte_overheads.append(0.0)
            latency_overheads.append(0.0)
        else:
            byte_overheads.append(float(defense.overhead_bytes(original, defended)))
            # Record-length defences keep timestamps; a future timing
            # defence shows up here as extra time-to-last-record.
            latency_overheads.append(defended[-1].timestamp - original[-1].timestamp)
        timing_accuracy, recall = timing_scores(session, defended)
        timing_accuracies.append(timing_accuracy)
        timing_recalls.append(recall)

    count = len(evaluations)
    return {
        "choice_accuracy": _choice_accuracy(evaluations),
        "record_accuracy": sum(e.record_accuracy for e in evaluations) / count,
        "overhead_bytes_per_session": sum(byte_overheads) / count,
        "overhead_latency_s_per_session": sum(latency_overheads) / count,
        "timing_attack_choice_accuracy": sum(timing_accuracies) / count,
        "timing_question_recall": sum(timing_recalls) / count,
    }
