"""Ablation B: how much do the Section VI countermeasures help?"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arena.grid import DEFAULT_DEFENSES, parse_component_entry
from repro.client.profiles import OperationalCondition
from repro.client.viewer import ViewerBehavior
from repro.defenses.base import RecordDefense
from repro.defenses.evaluation import score_defense
from repro.defenses.registry import DEFENSE_REGISTRY, defense_from_spec
from repro.engine.executor import BatchExecutor
from repro.engine.plan import SessionPlan
from repro.exceptions import DefenseError
from repro.ml.knn import KNearestNeighbors
from repro.narrative.bandersnatch import build_bandersnatch_script
from repro.narrative.graph import StoryGraph
from repro.utils.rng import derive_seed

#: Row columns → rounding digits; byte overhead is reported to 0.1 B.
_ROW_DIGITS = {
    "choice_accuracy": 4,
    "record_accuracy": 4,
    "overhead_bytes_per_session": 1,
    "timing_attack_choice_accuracy": 4,
    "timing_question_recall": 4,
}


def standard_defense_suite() -> list[RecordDefense]:
    """The defence configurations the ablation sweeps: the arena's defaults.

    Ordered from weakest (coarse padding) to strongest (constant-size
    records), with splitting and compression in between — the two fixes the
    paper explicitly suggests.  Every instance is built through the defense
    registry, so its ``instance_name`` carries its parameters and its spec
    round-trips over the wire.
    """
    return [
        defense_from_spec(parse_component_entry(entry, DEFENSE_REGISTRY))
        for entry in DEFAULT_DEFENSES
    ]


@dataclass(frozen=True)
class DefenseAblationResult:
    """Outcome of the defence sweep: one row per defence configuration."""

    defense_rows: list[dict[str, object]]
    condition_key: str

    def rows(self) -> list[dict[str, object]]:
        """Table rows: the undefended reference, then one per defence."""
        return [dict(row) for row in self.defense_rows]

    def evaluation_for(self, defense_name: str) -> dict[str, object]:
        """Look up one defence's row."""
        for row in self.defense_rows:
            if row["defense"] == defense_name:
                return row
        raise DefenseError(f"no evaluation for defence {defense_name!r}")

    @property
    def undefended_accuracy(self) -> float:
        """Choice accuracy with no defence (the reference row)."""
        return self.evaluation_for("no defense")["choice_accuracy"]

    @property
    def best_defense(self) -> dict[str, object]:
        """The row of the defence that degrades choice accuracy the most."""
        candidates = [
            row for row in self.defense_rows if row["defense"] != "no defense"
        ]
        if not candidates:
            raise DefenseError("no defences were evaluated")
        return min(candidates, key=lambda row: row["choice_accuracy"])

    @property
    def timing_channel_survives(self) -> bool:
        """Whether the residual timing channel persists under the best defence.

        The paper's warning is that "there could be timing side-channels that
        may still exist even after this fix": even with record lengths fully
        hidden, a timing-only observer can still locate most of the choice
        questions (question recall well above a coin flip).
        """
        return self.best_defense["timing_question_recall"] > 0.5


def reproduce_defense_ablation(
    train_count: int = 4,
    test_count: int = 4,
    seed: int = 5,
    graph: StoryGraph | None = None,
    condition: OperationalCondition | None = None,
    defenses: list[RecordDefense] | None = None,
    workers: int | None = None,
) -> DefenseAblationResult:
    """Evaluate the standard defence suite against an adaptive attacker."""
    if train_count <= 0 or test_count <= 0:
        raise DefenseError("session counts must be positive")
    graph = graph or build_bandersnatch_script(
        trunk_segment_minutes=1.5, branch_segment_minutes=1.0, ending_minutes=2.0
    )
    condition = condition or OperationalCondition(
        "linux", "desktop", "firefox", "wired", "noon"
    )
    behaviors = [
        ViewerBehavior("20-25", "male", "centrist", "happy"),
        ViewerBehavior("25-30", "female", "liberal", "stressed"),
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

    train_plans = _plans(train_count, "defense-train")
    test_plans = _plans(test_count, "defense-test")
    sessions = BatchExecutor(workers).execute(train_plans + test_plans)
    train_sessions = sessions[: len(train_plans)]
    test_sessions = sessions[len(train_plans) :]
    suite = defenses if defenses is not None else standard_defense_suite()
    rows = []
    for defense in (None, *suite):
        # A fresh k-NN per row: every defence faces an attacker retrained
        # from scratch on its own defended traffic.
        metrics = score_defense(
            defense, KNearestNeighbors(k=7), train_sessions, test_sessions
        )
        rows.append(
            {
                "defense": "no defense" if defense is None else defense.instance_name,
                **{
                    key: round(metrics[key], digits)
                    for key, digits in _ROW_DIGITS.items()
                },
            }
        )
    return DefenseAblationResult(defense_rows=rows, condition_key=condition.key)
