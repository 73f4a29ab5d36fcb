"""One arena cell, scored end to end: simulate → defend → retrain → attack.

A cell is a pure function of ``(condition, defense spec, classifier spec,
train/test counts, seed)``: session seeds derive from the condition and
the root seed only — *not* from the defense or classifier — so every cell
of one condition attacks the same underlying traffic, and the same cell
computes byte-identical results no matter which process or machine runs
it.  The attacker is adaptive (Bahramali et al., arXiv:2005.00508): the
cell's classifier is retrained on the *defended* training traffic before
it attacks the defended test sessions.
"""

from __future__ import annotations

import json
from typing import Mapping

from repro.client.profiles import OperationalCondition
from repro.client.viewer import ViewerBehavior
from repro.components import component_instance_name
from repro.defenses.evaluation import score_defense
from repro.defenses.registry import defense_from_spec
from repro.ml.registry import classifier_from_spec
from repro.narrative.bandersnatch import build_bandersnatch_script
from repro.streaming.session import SessionResult, simulate_session
from repro.utils.rng import derive_seed

#: Version stamped into every cell result and arena report.  Bump on any
#: incompatible layout change; consumers must refuse versions they do not
#: speak, exactly like job specs and the coordinator wire format.
ARENA_SCHEMA_VERSION = 1

#: The two viewer behaviours the arena alternates — the same population as
#: the defence ablation (``experiments.defense_ablation``), so the arena's
#: undefended rows are comparable with the ablation's reference row.
_BEHAVIORS = (
    ("20-25", "male", "centrist", "happy"),
    ("25-30", "female", "liberal", "stressed"),
)


def _sessions(
    condition: OperationalCondition,
    condition_key: str,
    count: int,
    tag: str,
    seed: int,
) -> list[SessionResult]:
    graph = build_bandersnatch_script(
        trunk_segment_minutes=1.5, branch_segment_minutes=1.0, ending_minutes=2.0
    )
    return [
        simulate_session(
            graph,
            condition,
            ViewerBehavior(*_BEHAVIORS[index % len(_BEHAVIORS)]),
            seed=derive_seed(seed, "arena", condition_key, tag, index),
            session_id=f"arena-{tag}-{index}",
        )
        for index in range(count)
    ]


def run_cell(
    *,
    cell_id: str,
    condition: str,
    defense: Mapping[str, object] | None,
    classifier: Mapping[str, object],
    train_count: int,
    test_count: int,
    seed: int,
) -> dict[str, object]:
    """Score one cell; returns its deterministic, JSON-ready result dict."""
    condition_obj = OperationalCondition(*condition.split("/"))
    metrics = score_defense(
        defense_from_spec(defense) if defense is not None else None,
        classifier_from_spec(classifier),
        _sessions(condition_obj, condition, train_count, "train", seed),
        _sessions(condition_obj, condition, test_count, "test", seed),
    )
    return {
        "cell": cell_id,
        "classifier": dict(classifier),
        "classifier_name": component_instance_name(classifier),
        "condition": condition,
        "defense": dict(defense) if defense is not None else None,
        "defense_name": (
            component_instance_name(defense)
            if defense is not None
            else "no defense"
        ),
        "metrics": {key: round(value, 6) for key, value in metrics.items()},
        "schema": ARENA_SCHEMA_VERSION,
        "seed": seed,
        "sessions": {"test": test_count, "train": train_count},
    }


def cell_to_json(result: Mapping[str, object]) -> str:
    """The canonical byte form of one cell result (sorted keys, trailing
    newline), shared by every execution path so files diff clean."""
    return json.dumps(result, sort_keys=True, indent=2) + "\n"
