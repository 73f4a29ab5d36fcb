"""Single-directory ``repro train``: the split from metadata, then a stream.

``repro train DIR`` works out the stratified train/test split from the
viewers in ``metadata.json`` and re-simulates only the training viewers,
folding them into the fingerprint accumulator.  The oracle it must match
byte for byte is the in-memory path: simulate every viewer
(:class:`IITMBandersnatchDataset`), split with
:meth:`~IITMBandersnatchDataset.train_test_split`, and batch-train
:class:`WhiteMirrorAttack` on the training points.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.cli.main import main
from repro.core.pipeline import WhiteMirrorAttack
from repro.dataset.iitm import IITMBandersnatchDataset
from repro.dataset.population import split_viewers, viewers_from_metadata_entries
from repro.engine.plan import SessionPlan
from repro.jobs.specs import TrainJob
from repro.streaming.session import SessionConfig

#: Seven viewers of seed 11 cover four environments: linux/firefox holds
#: four viewers (so each fraction below splits it differently) and the
#: other three hold one viewer each (which always trains).
VIEWERS = 7
SEED = 11
FRACTIONS = (0.3, 0.5, 0.67)


@pytest.fixture(scope="module")
def oracle(tmp_path_factory) -> tuple[IITMBandersnatchDataset, Path]:
    """Every viewer simulated in memory, and the same dataset saved."""
    dataset = IITMBandersnatchDataset.generate(
        viewer_count=VIEWERS,
        seed=SEED,
        config=SessionConfig(cross_traffic_enabled=False),
    )
    sizes = Counter(point.viewer.condition.fingerprint_key for point in dataset)
    assert sorted(sizes.values()) == [1, 1, 1, 4]
    directory = tmp_path_factory.mktemp("train-split") / "dataset"
    dataset.save(directory, write_pcaps=False)
    return dataset, directory


@pytest.mark.parametrize("fraction", FRACTIONS)
def test_split_from_metadata_is_the_datasets_split(oracle, fraction):
    dataset, directory = oracle
    metadata = json.loads((directory / "metadata.json").read_text())
    viewers = viewers_from_metadata_entries(metadata["entries"], directory)
    train, test = split_viewers(viewers, 1.0 - fraction, SEED)
    train_points, test_points = dataset.train_test_split(test_fraction=1.0 - fraction)
    assert [viewers[position] for position in train] == [
        point.viewer for point in train_points
    ]
    assert [viewers[position] for position in test] == [
        point.viewer for point in test_points
    ]


@pytest.mark.parametrize("fraction", FRACTIONS)
def test_library_is_byte_equal_to_the_in_memory_oracle(oracle, tmp_path, fraction):
    dataset, directory = oracle
    train_points, _ = dataset.train_test_split(test_fraction=1.0 - fraction)
    attack = WhiteMirrorAttack(graph=dataset.graph, band_margin=TrainJob.margin)
    attack.train([point.session for point in train_points])
    expected = tmp_path / "oracle.json"
    attack.library.save(expected)

    library = tmp_path / "lib.json"
    exit_code = main(
        ["train", str(directory), str(library), "--train-fraction", str(fraction)]
    )
    assert exit_code == 0
    assert library.read_bytes() == expected.read_bytes()


def test_only_the_training_viewers_are_simulated(
    oracle, tmp_path, monkeypatch
):
    dataset, directory = oracle
    train_points, _ = dataset.train_test_split(test_fraction=1.0 - 0.5)
    simulated: list[str] = []
    execute = SessionPlan.execute

    def counting_execute(plan: SessionPlan):
        simulated.append(plan.session_id)
        return execute(plan)

    monkeypatch.setattr(SessionPlan, "execute", counting_execute)
    assert main(["train", str(directory), str(tmp_path / "lib.json")]) == 0
    assert sorted(simulated) == sorted(
        point.viewer.viewer_id for point in train_points
    )
    assert len(simulated) < VIEWERS
