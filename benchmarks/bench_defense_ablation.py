"""Ablation B benchmark: the Section VI countermeasures.

Paper (Conclusions/Countermeasures): "An easy fix for the problem would be to
either split the JSON file or to compress it so that it becomes
indistinguishable.  However, there could be timing side-channels that may
still exist even after this fix."

The benchmark sweeps padding (to a multiple, to a constant), splitting and
compression against an adaptive attacker that re-trains on defended traffic,
and also runs a record-length-blind timing attack to show the residual
channel the paper warns about.
"""

from __future__ import annotations

from conftest import run_once

from repro.experiments.defense_ablation import reproduce_defense_ablation
from repro.experiments.report import format_table


def test_defense_ablation(benchmark):
    result = run_once(benchmark, reproduce_defense_ablation, train_count=4, test_count=4, seed=5)

    print()
    print(
        format_table(
            result.rows(),
            f"Ablation B — countermeasures vs adaptive attacker ({result.condition_key})",
        )
    )
    print()
    print(
        "residual timing channel under the strongest defence: "
        f"question recall = {result.best_defense['timing_question_recall']:.2f}"
    )

    # Shape: with no defence the attack is essentially perfect; the paper's
    # suggested fixes (strong padding / splitting / compression) collapse the
    # record-length channel; and the timing channel survives all of them.
    assert result.undefended_accuracy >= 0.95
    assert result.best_defense["choice_accuracy"] <= 0.4
    assert result.evaluation_for("pad-to-constant(target_bytes=4096)")["choice_accuracy"] <= 0.2
    assert result.evaluation_for("pad-to-multiple(block_bytes=64)")["choice_accuracy"] >= 0.9
    assert result.timing_channel_survives
