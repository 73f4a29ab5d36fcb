"""Tests for the synthetic IITM-Bandersnatch dataset."""

from __future__ import annotations

import json

import pytest

from repro.dataset.attributes import table1_rows
from repro.dataset.collection import collect_dataset, default_study_script
from repro.dataset.format import load_dataset_metadata, save_dataset_metadata
from repro.dataset.iitm import IITMBandersnatchDataset
from repro.dataset.population import Viewer, attribute_marginals, generate_population
from repro.exceptions import DatasetError
from repro.net.capture import CapturedTrace
from repro.streaming.session import SessionConfig


@pytest.fixture(scope="module")
def small_dataset():
    """A 6-viewer dataset shared by the expensive tests in this module."""
    return IITMBandersnatchDataset.generate(
        viewer_count=6,
        seed=42,
        config=SessionConfig(cross_traffic_enabled=False),
    )


class TestTable1Attributes:
    def test_table_has_paper_rows(self):
        rows = table1_rows()
        assert len(rows) == 9
        attributes = {row["attribute"] for row in rows}
        assert "Operating System" in attributes
        assert "Political Alignment" in attributes
        blocks = {row["conditions"] for row in rows}
        assert blocks == {"Operational", "Behavioral"}

    def test_paper_value_spellings(self):
        rows = {row["attribute"]: row["values"] for row in table1_rows()}
        assert "Google-chrome" in rows["Browser"]
        assert "Undisclosed" in rows["Gender"]


class TestPopulation:
    def test_deterministic_generation(self):
        first = generate_population(20, seed=5)
        second = generate_population(20, seed=5)
        assert [v.as_dict() for v in first] == [v.as_dict() for v in second]

    def test_viewer_ids_unique(self):
        viewers = generate_population(30, seed=1)
        assert len({v.viewer_id for v in viewers}) == 30

    def test_pinned_figure2_conditions_present(self):
        viewers = generate_population(4, seed=9)
        keys = {v.condition.fingerprint_key for v in viewers}
        assert {"linux/firefox", "windows/firefox"} <= keys

    def test_full_grid_covered_at_paper_scale(self):
        viewers = generate_population(100, seed=0)
        marginals = attribute_marginals(viewers)
        for attribute, counts in marginals.items():
            assert all(count > 0 for count in counts.values()), attribute

    def test_viewer_round_trip(self):
        viewer = generate_population(1, seed=3)[0]
        assert Viewer.from_dict(viewer.as_dict()) == viewer

    def test_invalid_count_rejected(self):
        with pytest.raises(DatasetError):
            generate_population(0)


class TestCollection:
    def test_each_viewer_gets_a_data_point(self, small_dataset):
        assert len(small_dataset) == 6
        for point in small_dataset:
            assert point.session.session_id == point.viewer.viewer_id
            assert point.session.path.choice_count == 10
            assert point.session.trace.packet_count > 100

    def test_ground_truth_exposed(self, small_dataset):
        point = small_dataset.points[0]
        assert len(point.ground_truth_choices) == 10
        assert len(point.selected_labels) == 10
        metadata = point.metadata()
        assert metadata["viewer"]["viewer_id"] == point.viewer.viewer_id
        assert len(metadata["choices"]) == 10

    def test_collection_requires_viewers(self):
        with pytest.raises(DatasetError):
            collect_dataset([])

    def test_progress_callback_called(self):
        calls = []
        IITMBandersnatchDataset.generate(
            viewer_count=2,
            seed=1,
            config=SessionConfig(cross_traffic_enabled=False),
            progress=lambda done, total: calls.append((done, total)),
        )
        assert calls == [(1, 2), (2, 2)]


class TestDatasetObject:
    def test_summary(self, small_dataset):
        summary = small_dataset.summary()
        assert summary.viewer_count == 6
        assert summary.total_choices == 60
        assert 0.0 < summary.non_default_fraction < 1.0
        assert summary.total_packets > 0

    def test_slicing_by_fingerprint_key(self, small_dataset):
        ubuntu_points = small_dataset.by_fingerprint_key("linux/firefox")
        assert ubuntu_points
        for point in ubuntu_points:
            assert point.viewer.condition.fingerprint_key == "linux/firefox"

    def test_train_test_split_covers_every_environment(self, small_dataset):
        train, test = small_dataset.train_test_split(test_fraction=0.5)
        assert len(train) + len(test) == len(small_dataset)
        test_keys = {p.viewer.condition.fingerprint_key for p in test}
        train_keys = {p.viewer.condition.fingerprint_key for p in train}
        assert test_keys <= train_keys

    def test_invalid_split_fraction(self, small_dataset):
        with pytest.raises(DatasetError):
            small_dataset.train_test_split(test_fraction=1.5)

    def test_table1_accessor(self, small_dataset):
        assert small_dataset.table1() == table1_rows()


class TestPersistence:
    def test_save_and_load_metadata_with_pcaps(self, tmp_path, small_dataset):
        directory = tmp_path / "dataset"
        metadata_path = small_dataset.save(directory)
        assert metadata_path.exists()
        metadata = load_dataset_metadata(directory)
        assert metadata["viewer_count"] == 6
        assert len(metadata["entries"]) == 6
        first = metadata["entries"][0]
        pcap_path = directory / first["trace_file"]
        assert pcap_path.exists()
        # The stored pcap round-trips into a parseable trace.
        restored = CapturedTrace.from_pcap(
            pcap_path, client_ip=first["client_ip"], server_ip=first["server_ip"]
        )
        assert restored.packet_count > 100

    def test_round_trip_preserves_packet_counts_and_ground_truth(
        self, tmp_path, small_dataset
    ):
        # save → load → per-entry pcap re-read: every entry's re-parsed trace
        # matches the packet count recorded at save time, and the ground
        # truth survives untouched.
        directory = tmp_path / "dataset"
        small_dataset.save(directory)
        metadata = load_dataset_metadata(directory)
        assert len(metadata["entries"]) == len(small_dataset.points)
        for entry, point in zip(metadata["entries"], small_dataset.points):
            restored = CapturedTrace.from_pcap(
                directory / entry["trace_file"],
                client_ip=entry["client_ip"],
                server_ip=entry["server_ip"],
            )
            assert restored.packet_count == entry["packet_count"]
            assert restored.packet_count == point.session.trace.packet_count
            truth = tuple(bool(c["took_default"]) for c in entry["choices"])
            assert truth == point.ground_truth_choices
            labels = tuple(str(c["selected_label"]) for c in entry["choices"])
            assert labels == point.selected_labels

    def test_incremental_writer_matches_one_shot_save(self, tmp_path, small_dataset):
        from repro.dataset.format import DatasetWriter

        one_shot = tmp_path / "one-shot"
        streamed = tmp_path / "streamed"
        small_dataset.save(one_shot)
        with DatasetWriter(
            streamed,
            seed=small_dataset.seed,
            config=SessionConfig(cross_traffic_enabled=False),
            graph=small_dataset.graph,
        ) as writer:
            for point in small_dataset.points:
                writer.add(point)
        assert (streamed / "metadata.json").read_bytes() == (
            one_shot / "metadata.json"
        ).read_bytes()
        for pcap in sorted((one_shot / "traces").glob("*.pcap")):
            assert pcap.read_bytes() == (streamed / "traces" / pcap.name).read_bytes()

    def test_writer_rejects_empty_and_reuse_after_close(self, tmp_path, small_dataset):
        from repro.dataset.format import DatasetWriter

        with pytest.raises(DatasetError):
            DatasetWriter(tmp_path / "empty").close()
        writer = DatasetWriter(tmp_path / "sealed", seed=0)
        writer.add(small_dataset.points[0])
        path = writer.close()
        assert path == writer.close()  # idempotent
        with pytest.raises(DatasetError):
            writer.add(small_dataset.points[1])

    def test_metadata_contains_no_feature_leakage(self, tmp_path, small_dataset):
        directory = tmp_path / "dataset"
        small_dataset.save(directory, write_pcaps=False)
        raw = json.loads((directory / "metadata.json").read_text())
        assert "record_lengths" not in json.dumps(raw)

    def test_load_rejects_malformed_metadata(self, tmp_path):
        directory = tmp_path / "broken"
        directory.mkdir()
        (directory / "metadata.json").write_text(json.dumps({"name": "x"}))
        with pytest.raises(DatasetError):
            load_dataset_metadata(directory)

    def test_save_empty_rejected(self, tmp_path):
        with pytest.raises(DatasetError):
            save_dataset_metadata([], tmp_path)


class TestStudyScript:
    def test_default_study_script_is_full_structure(self):
        graph = default_study_script()
        assert graph.choice_point_count >= 10
        graph.validate()
