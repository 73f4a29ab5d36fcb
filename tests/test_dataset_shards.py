"""Sharded + streaming dataset generation: equivalence with the in-memory path."""

from __future__ import annotations

import json

import pytest

from repro.dataset.collection import iter_collect_dataset
from repro.dataset.iitm import IITMBandersnatchDataset, SummaryAccumulator
from repro.dataset.population import generate_population
from repro.dataset.shards import (
    ShardedDataset,
    ShardSlice,
    ShardSummary,
    generate_sharded_dataset,
    merge_shard_summaries,
    plan_shards,
    shard_dirname,
)
from repro.exceptions import DatasetError
from repro.streaming.session import SessionConfig

SEED = 11
VIEWERS = 4
CONFIG = SessionConfig(cross_traffic_enabled=False)


@pytest.fixture(scope="module")
def in_memory_dataset():
    """The reference: the existing materialise-everything generation path."""
    return IITMBandersnatchDataset.generate(
        viewer_count=VIEWERS, seed=SEED, config=CONFIG
    )


@pytest.fixture(scope="module")
def sharded(tmp_path_factory):
    """The same population generated as two streamed shards."""
    directory = tmp_path_factory.mktemp("sharded")
    dataset = generate_sharded_dataset(
        directory,
        viewer_count=VIEWERS,
        shard_count=2,
        seed=SEED,
        config=CONFIG,
    )
    return dataset


class TestPlanShards:
    def test_balanced_contiguous_cover(self):
        slices = plan_shards(10, 3)
        assert [s.viewer_count for s in slices] == [4, 3, 3]
        assert slices[0].start == 0
        assert slices[-1].stop == 10
        for previous, current in zip(slices, slices[1:]):
            assert current.start == previous.stop

    def test_deterministic(self):
        assert plan_shards(100, 7) == plan_shards(100, 7)

    def test_single_shard_is_whole_population(self):
        assert plan_shards(5, 1) == [ShardSlice(index=0, start=0, stop=5)]

    def test_dirnames(self):
        assert plan_shards(4, 2)[1].dirname == "shard-001"
        assert shard_dirname(12) == "shard-012"
        with pytest.raises(DatasetError):
            shard_dirname(-1)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(DatasetError):
            plan_shards(0, 1)
        with pytest.raises(DatasetError):
            plan_shards(5, 0)
        with pytest.raises(DatasetError):
            plan_shards(3, 4)


class TestStreamingCollection:
    def test_iter_collect_matches_collect(self, in_memory_dataset):
        viewers = generate_population(VIEWERS, seed=SEED)
        streamed = list(
            iter_collect_dataset(viewers, dataset_seed=SEED, config=CONFIG)
        )
        assert [p.session.fingerprint() for p in streamed] == [
            p.session.fingerprint() for p in in_memory_dataset.points
        ]
        assert tuple(streamed) == in_memory_dataset.points

    def test_parallel_streaming_matches_serial(self, in_memory_dataset):
        viewers = generate_population(VIEWERS, seed=SEED)
        streamed = list(
            iter_collect_dataset(
                viewers, dataset_seed=SEED, config=CONFIG, workers=2, window=2
            )
        )
        assert tuple(streamed) == in_memory_dataset.points


class TestShardedGenerationEquivalence:
    def test_per_viewer_pcaps_byte_identical(
        self, tmp_path, in_memory_dataset, sharded
    ):
        reference_dir = tmp_path / "reference"
        in_memory_dataset.save(reference_dir)
        shard_of = {}
        for summary in sharded.shard_summaries:
            for pcap in (sharded.directory / summary.directory / "traces").glob("*.pcap"):
                shard_of[pcap.name] = pcap
        reference_pcaps = sorted((reference_dir / "traces").glob("*.pcap"))
        assert len(reference_pcaps) == VIEWERS == len(shard_of)
        for reference in reference_pcaps:
            assert reference.read_bytes() == shard_of[reference.name].read_bytes()

    def test_merged_summary_identical_to_in_memory(self, in_memory_dataset, sharded):
        assert sharded.summary() == in_memory_dataset.summary()
        assert merge_shard_summaries(sharded.shard_summaries) == (
            in_memory_dataset.summary()
        )

    def test_shard_membership_never_touches_session_bytes(
        self, tmp_path, in_memory_dataset
    ):
        # A different shard count re-slices the population but regenerates
        # byte-identical sessions (seeds derive from viewer ids alone).
        resharded = generate_sharded_dataset(
            tmp_path / "resharded",
            viewer_count=VIEWERS,
            shard_count=4,
            seed=SEED,
            config=CONFIG,
        )
        assert resharded.shard_count == 4
        assert resharded.summary() == in_memory_dataset.summary()
        patterns = [point.ground_truth_pattern for point in resharded.iter_points()]
        assert patterns == [
            point.ground_truth_choices for point in in_memory_dataset.points
        ]

    def test_streaming_single_directory_matches_save(
        self, tmp_path, in_memory_dataset
    ):
        reference_dir = tmp_path / "reference"
        streamed_dir = tmp_path / "streamed"
        in_memory_dataset.save(reference_dir)
        metadata_path, summary = IITMBandersnatchDataset.generate_streaming(
            streamed_dir, viewer_count=VIEWERS, seed=SEED, config=CONFIG
        )
        assert summary == in_memory_dataset.summary()
        assert metadata_path.read_bytes() == (reference_dir / "metadata.json").read_bytes()
        for reference in sorted((reference_dir / "traces").glob("*.pcap")):
            assert reference.read_bytes() == (
                streamed_dir / "traces" / reference.name
            ).read_bytes()


class TestShardedDatasetLoad:
    def test_load_round_trip(self, sharded):
        loaded = ShardedDataset.load(sharded.directory)
        assert loaded.viewer_count == VIEWERS
        assert loaded.shard_count == 2
        assert loaded.seed == SEED
        assert loaded.summary() == sharded.summary()
        assert loaded.shard_directories() == sharded.shard_directories()

    def test_iter_points_lazy_in_viewer_order(self, sharded, in_memory_dataset):
        loaded = ShardedDataset.load(sharded.directory)
        iterator = loaded.iter_points()
        first = next(iterator)  # parses only the first shard's first pcap
        assert first.viewer.viewer_id == "viewer-000"
        rest = list(iterator)
        points = [first] + rest
        assert [p.viewer.viewer_id for p in points] == [
            p.viewer.viewer_id for p in in_memory_dataset.points
        ]
        assert [p.ground_truth_pattern for p in points] == [
            p.ground_truth_choices for p in in_memory_dataset.points
        ]
        assert [p.trace.packet_count for p in points] == [
            p.session.trace.packet_count for p in in_memory_dataset.points
        ]

    def test_load_rejects_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetError, match="not a sharded dataset"):
            ShardedDataset.load(tmp_path)

    def test_load_rejects_viewer_count_mismatch(self, tmp_path, sharded):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(sharded.directory, broken)
        manifest = json.loads((broken / "shards.json").read_text())
        manifest["viewer_count"] = 99
        (broken / "shards.json").write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match="viewer count"):
            ShardedDataset.load(broken)


class TestShardSummaries:
    def test_round_trip(self):
        summary = ShardSummary(
            index=1,
            directory="shard-001",
            viewer_count=3,
            total_choices=30,
            non_default_choices=7,
            total_packets=1234,
            condition_keys=("a", "b"),
        )
        assert ShardSummary.from_dict(summary.as_dict()) == summary

    def test_merge_unions_condition_keys(self):
        shards = [
            ShardSummary(0, "shard-000", 2, 20, 5, 100, ("a", "b")),
            ShardSummary(1, "shard-001", 2, 20, 3, 150, ("b", "c")),
        ]
        merged = merge_shard_summaries(shards)
        assert merged.viewer_count == 4
        assert merged.total_choices == 40
        assert merged.non_default_choices == 8
        assert merged.total_packets == 250
        assert merged.distinct_conditions == 3

    def test_merge_empty_rejected(self):
        with pytest.raises(DatasetError):
            merge_shard_summaries([])

    def test_accumulator_requires_points(self):
        with pytest.raises(DatasetError):
            SummaryAccumulator().summary()

    def test_accumulator_matches_dataset_summary(self, in_memory_dataset):
        accumulator = SummaryAccumulator()
        for point in in_memory_dataset.points:
            accumulator.add(point)
        assert accumulator.summary() == in_memory_dataset.summary()
        assert accumulator.viewer_count == VIEWERS
