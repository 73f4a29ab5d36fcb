"""Ablation D: do fingerprints transfer across client environments?

DESIGN.md design decision 2: Figure 2 shows different record-length bands for
Ubuntu and Windows, implying a fingerprint trained on one environment should
*not* work on another.  This ablation builds the full transfer matrix: train
the band fingerprint on environment A, attack sessions from environment B,
and report the JSON identification accuracy for every (A, B) pair.  The
diagonal should be near-perfect and the off-diagonal near zero — which is why
the attack calibrates per environment.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.client.profiles import OperationalCondition
from repro.client.viewer import ViewerBehavior
from repro.core.evaluation import aggregate_json_identification_accuracy, evaluate_attack_result
from repro.core.features import extract_client_records
from repro.core.inference import infer_choices
from repro.core.pipeline import WhiteMirrorAttack
from repro.engine.executor import BatchExecutor
from repro.engine.plan import SessionPlan
from repro.exceptions import AttackError
from repro.narrative.bandersnatch import build_bandersnatch_script
from repro.narrative.graph import StoryGraph
from repro.utils.rng import derive_seed

#: The environments included in the transfer matrix (one condition each).
DEFAULT_TRANSFER_CONDITIONS: tuple[OperationalCondition, ...] = (
    OperationalCondition("linux", "desktop", "firefox", "wired", "noon"),
    OperationalCondition("windows", "desktop", "firefox", "wired", "noon"),
    OperationalCondition("linux", "desktop", "chrome", "wired", "noon"),
    OperationalCondition("windows", "desktop", "chrome", "wired", "noon"),
)


@dataclass(frozen=True)
class TransferAblationResult:
    """The environment-transfer matrix."""

    environments: tuple[str, ...]
    matrix: dict[str, dict[str, float]]
    sessions_per_environment: int

    def accuracy(self, trained_on: str, attacked: str) -> float:
        """Accuracy of a fingerprint trained on one environment used on another."""
        try:
            return self.matrix[trained_on][attacked]
        except KeyError:
            raise AttackError(
                f"transfer matrix has no entry ({trained_on!r} -> {attacked!r})"
            ) from None

    def rows(self) -> list[dict[str, object]]:
        """Matrix rows: one per training environment."""
        rows = []
        for trained_on in self.environments:
            row: dict[str, object] = {"trained on \\ attacked": trained_on}
            for attacked in self.environments:
                row[attacked] = round(self.matrix[trained_on][attacked], 4)
            rows.append(row)
        return rows

    @property
    def mean_diagonal(self) -> float:
        """Average same-environment accuracy (should be ~1)."""
        return sum(self.matrix[env][env] for env in self.environments) / len(self.environments)

    @property
    def mean_off_diagonal(self) -> float:
        """Average cross-environment accuracy (should be ~0)."""
        values = [
            self.matrix[a][b]
            for a in self.environments
            for b in self.environments
            if a != b
        ]
        return sum(values) / len(values)

    @property
    def calibration_is_required(self) -> bool:
        """Whether per-environment calibration matters (diagonal >> off-diagonal)."""
        return self.mean_diagonal - self.mean_off_diagonal >= 0.5


def reproduce_transfer_ablation(
    sessions_per_environment: int = 3,
    training_sessions_per_environment: int = 2,
    seed: int = 8,
    graph: StoryGraph | None = None,
    conditions: tuple[OperationalCondition, ...] = DEFAULT_TRANSFER_CONDITIONS,
    workers: int | None = None,
) -> TransferAblationResult:
    """Build the fingerprint transfer matrix across client environments."""
    if sessions_per_environment <= 0 or training_sessions_per_environment <= 0:
        raise AttackError("session counts must be positive")
    graph = graph or build_bandersnatch_script(
        trunk_segment_minutes=1.5, branch_segment_minutes=1.0, ending_minutes=2.0
    )
    behavior = ViewerBehavior("20-25", "male", "centrist", "happy")

    def _plans(condition: OperationalCondition, count: int, tag: str) -> list[SessionPlan]:
        return [
            SessionPlan(
                graph=graph,
                condition=condition,
                behavior=behavior,
                seed=derive_seed(seed, tag, condition.key, index),
                session_id=f"{tag}-{condition.fingerprint_key}-{index}",
            )
            for index in range(count)
        ]

    # One engine batch for the whole grid: per-environment training sessions
    # followed by per-environment test sessions.
    train_plans = [
        plan
        for condition in conditions
        for plan in _plans(condition, training_sessions_per_environment, "transfer-train")
    ]
    test_plan_groups = [
        _plans(condition, sessions_per_environment, "transfer-test")
        for condition in conditions
    ]
    flat_test_plans = [plan for group in test_plan_groups for plan in group]
    sessions = BatchExecutor(workers).execute(train_plans + flat_test_plans)
    train_sessions_flat = sessions[: len(train_plans)]
    test_sessions_flat = sessions[len(train_plans) :]

    # Train one attack per environment.
    attacks: dict[str, WhiteMirrorAttack] = {}
    for position, condition in enumerate(conditions):
        attack = WhiteMirrorAttack(graph=graph)
        attack.train(
            train_sessions_flat[
                position * training_sessions_per_environment : (position + 1)
                * training_sessions_per_environment
            ]
        )
        attacks[condition.fingerprint_key] = attack

    # Evaluate every (trained-on, attacked) pair.  Each test trace is
    # extracted once, no matter how many fingerprints attack it.
    test_sessions = {
        condition.fingerprint_key: [
            (session, extract_client_records(session.trace, server_ip=session.trace.server_ip))
            for session in test_sessions_flat[
                position * sessions_per_environment : (position + 1)
                * sessions_per_environment
            ]
        ]
        for position, condition in enumerate(conditions)
    }
    environments = tuple(condition.fingerprint_key for condition in conditions)
    matrix: dict[str, dict[str, float]] = {}
    for trained_on in environments:
        attack = attacks[trained_on]
        fingerprint = attack.library.get(trained_on)
        matrix[trained_on] = {}
        for attacked in environments:
            evaluations = []
            for session, records in test_sessions[attacked]:
                labels = fingerprint.classify(records)
                inferred = infer_choices(records, labels)
                evaluations.append(
                    evaluate_attack_result(
                        records=records,
                        predicted_labels=labels,
                        inferred=inferred,
                        ground_truth_path=session.path,
                    )
                )
            matrix[trained_on][attacked] = aggregate_json_identification_accuracy(evaluations)
    return TransferAblationResult(
        environments=environments,
        matrix=matrix,
        sessions_per_environment=sessions_per_environment,
    )
