"""Ablation C: band rule vs. generic classifiers on record-type identification.

DESIGN.md design decision 1: the paper's technique amounts to an interval
(band) rule over record lengths.  Is the hand-built band structure essential,
or is the side-channel learnable by any off-the-shelf classifier fed raw
record lengths?  This ablation trains the interval rule and the four generic
from-scratch estimators on the same labelled sessions and compares their
record-type identification accuracy and the resulting choice recovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.client.profiles import OperationalCondition
from repro.client.viewer import ViewerBehavior
from repro.core.classifier import MLRecordClassifier
from repro.core.evaluation import (
    aggregate_choice_accuracy,
    aggregate_json_identification_accuracy,
    evaluate_attack_result,
)
from repro.core.features import extract_client_records
from repro.core.inference import infer_choices
from repro.core.pipeline import WhiteMirrorAttack
from repro.engine.executor import BatchExecutor
from repro.engine.plan import SessionPlan
from repro.exceptions import AttackError
from repro.ml.base import Classifier
from repro.ml.registry import build_classifier
from repro.narrative.bandersnatch import build_bandersnatch_script
from repro.narrative.graph import StoryGraph
from repro.utils.rng import derive_seed


@dataclass(frozen=True)
class ClassifierScore:
    """Scores of one classification strategy."""

    name: str
    json_identification_accuracy: float
    choice_accuracy: float

    def as_row(self) -> dict[str, object]:
        """One row of the ablation table."""
        return {
            "classifier": self.name,
            "json_identification_accuracy": round(self.json_identification_accuracy, 4),
            "choice_accuracy": round(self.choice_accuracy, 4),
        }


@dataclass(frozen=True)
class ClassifierAblationResult:
    """Outcome of the classifier comparison."""

    scores: list[ClassifierScore]
    condition_key: str
    test_sessions: int

    def rows(self) -> list[dict[str, object]]:
        """Table rows, one per classifier."""
        return [score.as_row() for score in self.scores]

    def score_for(self, name: str) -> ClassifierScore:
        """Look up one classifier's scores."""
        for score in self.scores:
            if score.name == name:
                return score
        raise AttackError(f"no score recorded for classifier {name!r}")

    @property
    def band_rule_score(self) -> ClassifierScore:
        """The paper's technique (per-environment band fingerprint)."""
        return self.score_for("band fingerprint (paper)")

    @property
    def nonlinear_strategies_work(self) -> bool:
        """Whether every non-linear strategy identifies the JSON types at >= 90 %.

        The state-report lengths sit *between* the lengths of other client
        traffic, so the decision regions are intervals: any estimator that can
        express an interval (the band rule, k-NN, naive Bayes, a tree) should
        succeed, while a linear model over the single raw length cannot.
        """
        return all(
            score.json_identification_accuracy >= 0.9
            for score in self.scores
            if score.name != "logistic regression"
        )

    @property
    def linear_model_fails(self) -> bool:
        """Whether plain logistic regression on the raw length stays below 50 %."""
        return self.score_for("logistic regression").json_identification_accuracy < 0.5


def _generic_estimators() -> dict[str, Callable[[], Classifier]]:
    """Display name → factory; every factory goes through the registry."""
    specs: dict[str, tuple[str, dict[str, object]]] = {
        "interval classifier": ("interval", {"margin": 8}),
        "k-nearest neighbours (k=7)": ("knn", {"k": 7}),
        "gaussian naive bayes": ("naive-bayes", {}),
        "decision tree (depth 8)": ("tree", {"max_depth": 8}),
        "logistic regression": ("logistic", {"iterations": 300}),
    }
    return {
        display: (lambda name=name, params=params: build_classifier(name, params))
        for display, (name, params) in specs.items()
    }


def reproduce_classifier_ablation(
    train_count: int = 4,
    test_count: int = 6,
    seed: int = 6,
    graph: StoryGraph | None = None,
    condition: OperationalCondition | None = None,
    workers: int | None = None,
) -> ClassifierAblationResult:
    """Compare the band rule with generic estimators on one environment."""
    if train_count <= 0 or test_count <= 0:
        raise AttackError("session counts must be positive")
    graph = graph or build_bandersnatch_script(
        trunk_segment_minutes=1.5, branch_segment_minutes=1.0, ending_minutes=2.0
    )
    condition = condition or OperationalCondition(
        "linux", "desktop", "firefox", "wired", "noon"
    )
    behaviors = [
        ViewerBehavior("20-25", "male", "centrist", "happy"),
        ViewerBehavior("25-30", "female", "liberal", "stressed"),
        ViewerBehavior(">30", "undisclosed", "undisclosed", "sad"),
    ]

    def _plans(count: int, tag: str) -> list[SessionPlan]:
        return [
            SessionPlan(
                graph=graph,
                condition=condition,
                behavior=behaviors[index % len(behaviors)],
                seed=derive_seed(seed, tag, index),
                session_id=f"{tag}-{index}",
            )
            for index in range(count)
        ]

    train_plans = _plans(train_count, "clf-train")
    test_plans = _plans(test_count, "clf-test")
    sessions = BatchExecutor(workers).execute(train_plans + test_plans)
    train_sessions = sessions[: len(train_plans)]
    test_sessions = sessions[len(train_plans) :]

    scores: list[ClassifierScore] = []

    # -- the paper's band rule -------------------------------------------------
    attack = WhiteMirrorAttack(graph=graph)
    attack.train(train_sessions)
    evaluations = attack.evaluate_sessions(test_sessions)
    scores.append(
        ClassifierScore(
            name="band fingerprint (paper)",
            json_identification_accuracy=aggregate_json_identification_accuracy(evaluations),
            choice_accuracy=aggregate_choice_accuracy(evaluations),
        )
    )

    # -- generic estimators over raw record lengths ------------------------------
    # One extraction per trace serves every estimator's training data and
    # test classification.
    train_records = [
        record
        for session in train_sessions
        for record in extract_client_records(
            session.trace, server_ip=session.trace.server_ip
        )
    ]
    test_data = [
        (
            session,
            extract_client_records(session.trace, server_ip=session.trace.server_ip),
        )
        for session in test_sessions
    ]
    for name, factory in _generic_estimators().items():
        classifier = MLRecordClassifier(factory())
        classifier.fit(train_records)
        evaluations = []
        for session, records in test_data:
            labels = classifier.classify(records)
            inferred = infer_choices(records, labels)
            evaluations.append(
                evaluate_attack_result(
                    records=records,
                    predicted_labels=labels,
                    inferred=inferred,
                    ground_truth_path=session.path,
                )
            )
        scores.append(
            ClassifierScore(
                name=name,
                json_identification_accuracy=aggregate_json_identification_accuracy(evaluations),
                choice_accuracy=aggregate_choice_accuracy(evaluations),
            )
        )
    return ClassifierAblationResult(
        scores=scores, condition_key=condition.key, test_sessions=test_count
    )
