"""Resumable shard generation and incremental shard-by-shard training.

The contract under test is the roadmap's checkpointing story: a crashed
sharded generation run leaves each shard either complete or detectably
partial, ``resume=True`` finishes exactly the missing work, and the resumed
directory is byte-identical to an uninterrupted run; training folds the same
shards in one at a time and finalises into exactly the batch fingerprints.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.fingerprint import (
    FingerprintAccumulator,
    FingerprintLibrary,
    RecordLengthFingerprint,
)
from repro.core.features import ClientRecord, LABEL_OTHER, LABEL_TYPE1, LABEL_TYPE2
from repro.core.pipeline import WhiteMirrorAttack
from repro.dataset.format import (
    DatasetWriter,
    INPROGRESS_FILENAME,
    dataset_is_complete,
    dataset_is_partial,
    snapshot_dataset_files,
)
from repro.dataset.iitm import IITMBandersnatchDataset
from repro.dataset.shards import (
    SHARD_GENERATED,
    SHARD_QUARANTINED,
    SHARD_SKIPPED,
    ShardedDataset,
    generate_sharded_dataset,
    quarantine_partial_shard,
    shard_summary_from_metadata,
)
from repro.exceptions import AttackError, DatasetError, FingerprintError
from repro.experiments.headline import reproduce_headline_from_dataset
from repro.streaming.session import SessionConfig

SEED = 23
VIEWERS = 6
SHARDS = 3
CONFIG = SessionConfig(cross_traffic_enabled=False)


def _generate(directory: Path, resume: bool = False, status=None) -> ShardedDataset:
    return generate_sharded_dataset(
        directory,
        viewer_count=VIEWERS,
        shard_count=SHARDS,
        seed=SEED,
        config=CONFIG,
        resume=resume,
        status=status,
    )


#: Quarantine debris excluded, exactly the comparison the contract needs.
_dataset_files = snapshot_dataset_files


@pytest.fixture(scope="module")
def fresh(tmp_path_factory) -> ShardedDataset:
    """The reference: one uninterrupted sharded generation run."""
    return _generate(tmp_path_factory.mktemp("fresh") / "dataset")


class TestWriterMarker:
    def test_marker_lives_exactly_as_long_as_the_write(
        self, tmp_path, minimal_session
    ):
        from repro.dataset.collection import DataPoint
        from repro.dataset.population import Viewer
        from repro.client.profiles import OperationalCondition
        from repro.client.viewer import ViewerBehavior

        viewer = Viewer(
            viewer_id="viewer-000",
            condition=minimal_session.condition,
            behavior=ViewerBehavior("20-25", "undisclosed", "undisclosed", "happy"),
        )
        point = DataPoint(viewer=viewer, session=minimal_session)
        writer = DatasetWriter(tmp_path, seed=1)
        assert (tmp_path / INPROGRESS_FILENAME).exists()
        assert dataset_is_partial(tmp_path)
        writer.add(point)
        writer.close()
        assert not (tmp_path / INPROGRESS_FILENAME).exists()
        assert dataset_is_complete(tmp_path)
        # Atomic publish: no staging file left behind.
        assert not list(tmp_path.glob("*.tmp"))

    def test_error_exit_leaves_the_marker(self, tmp_path):
        with pytest.raises(RuntimeError):
            with DatasetWriter(tmp_path / "broken"):
                raise RuntimeError("simulated crash")
        assert dataset_is_partial(tmp_path / "broken")
        assert not (tmp_path / "broken" / "metadata.json").exists()

    def test_completeness_helpers_on_missing_directory(self, tmp_path):
        assert not dataset_is_complete(tmp_path / "nowhere")
        assert not dataset_is_partial(tmp_path / "nowhere")

    def test_invalid_recorded_session_config_raises_dataset_error(self):
        from repro.dataset.format import session_config_from_metadata

        assert session_config_from_metadata({}) is None
        # Unknown keys and out-of-range values must both surface as a
        # DatasetError naming the metadata, never a bare constructor error.
        with pytest.raises(DatasetError, match="session_config"):
            session_config_from_metadata({"session_config": {"bogus_key": 1}})
        with pytest.raises(DatasetError, match="session_config"):
            session_config_from_metadata({"session_config": {"media_scale": 0.0}})


class TestResumeGeneration:
    def test_resume_of_complete_run_skips_every_shard(self, tmp_path, fresh):
        copy = tmp_path / "dataset"
        _copy_dataset(fresh.directory, copy)
        events: list[tuple[str, str]] = []
        resumed = _generate(
            copy, resume=True, status=lambda s, state: events.append((s.dirname, state))
        )
        assert [state for _name, state in events] == [SHARD_SKIPPED] * SHARDS
        assert resumed.summary() == fresh.summary()
        assert _dataset_files(copy) == _dataset_files(fresh.directory)

    def test_kill_and_resume_is_byte_identical_to_uninterrupted(self, tmp_path, fresh):
        # Crash the run mid-way through the second shard: the progress
        # callback is invoked per completed session, so raising from it is an
        # arbitrary-point interruption with the writer mid-shard.
        interrupted = tmp_path / "dataset"

        class SimulatedCrash(Exception):
            pass

        def crash_after(done: int, _total: int) -> None:
            if done >= VIEWERS // 2 + 1:
                raise SimulatedCrash

        with pytest.raises(SimulatedCrash):
            generate_sharded_dataset(
                interrupted,
                viewer_count=VIEWERS,
                shard_count=SHARDS,
                seed=SEED,
                config=CONFIG,
                progress=crash_after,
            )
        # The first shard finalised; the in-flight one is detectably partial.
        assert dataset_is_complete(interrupted / "shard-000")
        assert dataset_is_partial(interrupted / "shard-001")
        assert not (interrupted / "shards.json").exists()

        events: list[tuple[str, str]] = []
        resumed = _generate(
            interrupted,
            resume=True,
            status=lambda s, state: events.append((s.dirname, state)),
        )
        assert ("shard-000", SHARD_SKIPPED) in events
        assert ("shard-001", SHARD_QUARANTINED) in events
        assert ("shard-001", SHARD_GENERATED) in events
        assert ("shard-002", SHARD_GENERATED) in events
        # The quarantined debris was moved aside, not destroyed.
        assert (interrupted / "shard-001.quarantined-000").exists()
        # Every dataset file — pcaps, per-shard metadata, the shards manifest
        # — is byte-identical to the uninterrupted run.
        assert _dataset_files(interrupted) == _dataset_files(fresh.directory)
        assert resumed.summary() == fresh.summary()

    def test_resume_skips_completed_shards_without_rewriting(self, tmp_path, fresh):
        copy = tmp_path / "dataset"
        _copy_dataset(fresh.directory, copy)
        (copy / "shard-002" / "metadata.json").unlink()
        untouched = copy / "shard-000" / "metadata.json"
        stamp_before = untouched.stat().st_mtime_ns
        _generate(copy, resume=True)
        assert untouched.stat().st_mtime_ns == stamp_before
        assert _dataset_files(copy) == _dataset_files(fresh.directory)

    def test_resume_quarantines_a_foreign_seed_shard(self, tmp_path, fresh):
        # A complete shard from a *different* run must not be absorbed.
        copy = tmp_path / "dataset"
        _copy_dataset(fresh.directory, copy)
        metadata_path = copy / "shard-001" / "metadata.json"
        metadata = json.loads(metadata_path.read_text())
        metadata["seed"] = SEED + 1
        metadata_path.write_text(json.dumps(metadata, indent=2))
        events: list[tuple[str, str]] = []
        _generate(
            copy, resume=True, status=lambda s, state: events.append((s.dirname, state))
        )
        assert ("shard-001", SHARD_QUARANTINED) in events
        assert _dataset_files(copy) == _dataset_files(fresh.directory)

    def test_resume_regenerates_on_write_pcaps_mismatch(self, tmp_path, fresh):
        # A shard completed with pcaps must not be absorbed by a --no-pcaps
        # resume (and vice versa): the flag mismatch is detected from the
        # metadata entries and the shard regenerated under the new flags.
        copy = tmp_path / "dataset"
        _copy_dataset(fresh.directory, copy)
        events: list[tuple[str, str]] = []
        resumed = generate_sharded_dataset(
            copy,
            viewer_count=VIEWERS,
            shard_count=SHARDS,
            seed=SEED,
            config=CONFIG,
            write_pcaps=False,
            resume=True,
            status=lambda s, state: events.append((s.dirname, state)),
        )
        assert [state for _name, state in events].count(SHARD_SKIPPED) == 0
        assert [state for _name, state in events].count(SHARD_QUARANTINED) == SHARDS
        assert resumed.summary() == fresh.summary()
        metadata = json.loads((copy / "shard-000" / "metadata.json").read_text())
        assert all("trace_file" not in entry for entry in metadata["entries"])

    def test_resume_regenerates_a_shard_with_a_deleted_pcap(self, tmp_path, fresh):
        # A metadata index can survive while a trace file is lost; the shard
        # must not be skipped as "complete" with a hole in its traces.
        copy = tmp_path / "dataset"
        _copy_dataset(fresh.directory, copy)
        victim = next((copy / "shard-001" / "traces").glob("*.pcap"))
        victim.unlink()
        events: list[tuple[str, str]] = []
        _generate(
            copy, resume=True, status=lambda s, state: events.append((s.dirname, state))
        )
        assert ("shard-001", SHARD_QUARANTINED) in events
        assert ("shard-000", SHARD_SKIPPED) in events
        assert _dataset_files(copy) == _dataset_files(fresh.directory)

    def test_resume_regenerates_on_dataset_name_mismatch(self, tmp_path, fresh):
        copy = tmp_path / "dataset"
        _copy_dataset(fresh.directory, copy)
        events: list[tuple[str, str]] = []
        renamed = generate_sharded_dataset(
            copy,
            viewer_count=VIEWERS,
            shard_count=SHARDS,
            seed=SEED,
            config=CONFIG,
            dataset_name="another-study",
            resume=True,
            status=lambda s, state: events.append((s.dirname, state)),
        )
        assert [state for _name, state in events].count(SHARD_SKIPPED) == 0
        metadata = json.loads((copy / "shard-000" / "metadata.json").read_text())
        assert metadata["name"] == "another-study"
        assert renamed.summary() == fresh.summary()

    def test_resume_regenerates_on_session_config_mismatch(self, tmp_path, fresh):
        # The generating SessionConfig is recorded in each shard's metadata,
        # so resuming with different session parameters (here: cross traffic
        # enabled) must regenerate rather than absorb the old shards.
        copy = tmp_path / "dataset"
        _copy_dataset(fresh.directory, copy)
        events: list[tuple[str, str]] = []
        generate_sharded_dataset(
            copy,
            viewer_count=VIEWERS,
            shard_count=SHARDS,
            seed=SEED,
            config=SessionConfig(cross_traffic_enabled=True),
            resume=True,
            status=lambda s, state: events.append((s.dirname, state)),
        )
        assert [state for _name, state in events].count(SHARD_SKIPPED) == 0
        assert [state for _name, state in events].count(SHARD_QUARANTINED) == SHARDS

    def test_resume_regenerates_on_graph_mismatch(self, tmp_path, fresh):
        # The generating script's fingerprint is recorded per shard, so a
        # resume with a different story graph regenerates everything.
        from repro.narrative.bandersnatch import build_bandersnatch_script

        copy = tmp_path / "dataset"
        _copy_dataset(fresh.directory, copy)
        other_graph = build_bandersnatch_script(
            trunk_segment_minutes=2.0, branch_segment_minutes=1.0, ending_minutes=2.0
        )
        events: list[tuple[str, str]] = []
        generate_sharded_dataset(
            copy,
            viewer_count=VIEWERS,
            shard_count=SHARDS,
            seed=SEED,
            graph=other_graph,
            config=CONFIG,
            resume=True,
            status=lambda s, state: events.append((s.dirname, state)),
        )
        assert [state for _name, state in events].count(SHARD_SKIPPED) == 0

    def test_resimulation_rejects_a_different_graph(self, fresh):
        from repro.dataset.shards import iter_shard_training_sessions
        from repro.narrative.bandersnatch import build_bandersnatch_script

        other_graph = build_bandersnatch_script(
            trunk_segment_minutes=2.0, branch_segment_minutes=1.0, ending_minutes=2.0
        )
        with pytest.raises(DatasetError, match="different story graph"):
            next(
                iter_shard_training_sessions(
                    fresh.directory / "shard-000", graph=other_graph
                )
            )

    def test_graph_fingerprint_is_stable_and_structure_sensitive(self):
        from repro.narrative.bandersnatch import build_bandersnatch_script

        build = lambda minutes: build_bandersnatch_script(  # noqa: E731
            trunk_segment_minutes=minutes,
            branch_segment_minutes=1.0,
            ending_minutes=2.0,
        )
        assert build(1.5).fingerprint() == build(1.5).fingerprint()
        assert build(1.5).fingerprint() != build(2.0).fingerprint()

    def test_resimulated_sessions_match_stored_pcaps(self, tmp_path, fresh):
        # Re-simulation reads the recorded session config from the metadata,
        # so the replayed sessions reproduce the stored pcaps byte for byte
        # even though the dataset was generated under a non-default config.
        from repro.dataset.shards import iter_shard_training_sessions

        shard_directory = fresh.directory / "shard-000"
        stored = sorted((shard_directory / "traces").glob("*.pcap"))
        sessions = list(iter_shard_training_sessions(shard_directory))
        assert len(sessions) == len(stored)
        for session, pcap in zip(sessions, stored):
            replayed = tmp_path / pcap.name
            session.trace.to_pcap(replayed)
            assert replayed.read_bytes() == pcap.read_bytes()

    def test_orphan_shards_beyond_the_plan_are_quarantined(self, tmp_path, fresh):
        # Resuming a 3-shard directory as a 2-shard run must not leave the
        # old third shard sitting around looking like valid data.
        copy = tmp_path / "dataset"
        _copy_dataset(fresh.directory, copy)
        resumed = generate_sharded_dataset(
            copy,
            viewer_count=VIEWERS,
            shard_count=SHARDS - 1,
            seed=SEED,
            config=CONFIG,
            resume=True,
        )
        assert resumed.shard_count == SHARDS - 1
        assert not (copy / f"shard-{SHARDS - 1:03d}").exists()
        assert (copy / f"shard-{SHARDS - 1:03d}.quarantined-000").exists()
        # The re-partitioned shards hold the whole population again.
        assert resumed.summary() == fresh.summary()

    def test_quarantine_names_do_not_collide(self, tmp_path):
        for _attempt in range(3):
            victim = tmp_path / "shard-000"
            victim.mkdir()
            (victim / "debris").write_text("x")
            quarantine_partial_shard(victim)
        names = sorted(path.name for path in tmp_path.iterdir())
        assert names == [
            "shard-000.quarantined-000",
            "shard-000.quarantined-001",
            "shard-000.quarantined-002",
        ]
        with pytest.raises(DatasetError):
            quarantine_partial_shard(tmp_path / "shard-000")

    def test_shard_summary_recomputed_from_metadata_matches_manifest(self, fresh):
        for summary in fresh.shard_summaries:
            recomputed = shard_summary_from_metadata(
                fresh.directory / summary.directory, summary.index
            )
            assert recomputed == summary


class TestLoadHardening:
    def test_single_dataset_directory_is_named_as_such(self, tmp_path):
        IITMBandersnatchDataset.generate(
            viewer_count=1, seed=SEED, config=CONFIG
        ).save(tmp_path / "single")
        with pytest.raises(DatasetError, match="non-sharded"):
            ShardedDataset.load(tmp_path / "single")

    def test_arbitrary_directory_is_rejected_with_guidance(self, tmp_path):
        with pytest.raises(DatasetError, match="generate-dataset --shards"):
            ShardedDataset.load(tmp_path)

    def test_incomplete_shard_is_reported_with_the_repair_command(
        self, tmp_path, fresh
    ):
        copy = tmp_path / "dataset"
        _copy_dataset(fresh.directory, copy)
        (copy / "shard-001" / INPROGRESS_FILENAME).touch()
        with pytest.raises(DatasetError, match="--resume"):
            ShardedDataset.load(copy)

    def test_missing_shard_directory_is_reported(self, tmp_path, fresh):
        import shutil

        copy = tmp_path / "dataset"
        _copy_dataset(fresh.directory, copy)
        shutil.rmtree(copy / "shard-002")
        with pytest.raises(DatasetError, match="missing"):
            ShardedDataset.load(copy)

    def test_mixed_generation_runs_are_rejected(self, tmp_path, fresh):
        # A shard whose metadata records a different seed than the manifest
        # (debris of a crashed re-run with new parameters) must not load.
        copy = tmp_path / "dataset"
        _copy_dataset(fresh.directory, copy)
        metadata_path = copy / "shard-001" / "metadata.json"
        metadata = json.loads(metadata_path.read_text())
        metadata["seed"] = SEED + 1
        metadata_path.write_text(json.dumps(metadata))
        with pytest.raises(DatasetError, match="mixed generation runs"):
            ShardedDataset.load(copy)

    def test_crashed_rerun_leaves_no_stale_manifest(self, tmp_path, fresh):
        # Re-running an existing dataset directory with new parameters and
        # crashing immediately must invalidate the old manifest rather than
        # leave it pointing at a mixture of old and new shards.
        copy = tmp_path / "dataset"
        _copy_dataset(fresh.directory, copy)

        class SimulatedCrash(Exception):
            pass

        def crash_immediately(_done: int, _total: int) -> None:
            raise SimulatedCrash

        with pytest.raises(SimulatedCrash):
            generate_sharded_dataset(
                copy,
                viewer_count=VIEWERS,
                shard_count=SHARDS,
                seed=SEED + 1,
                config=CONFIG,
                progress=crash_immediately,
            )
        assert not (copy / "shards.json").exists()
        with pytest.raises(DatasetError, match="not a sharded dataset"):
            ShardedDataset.load(copy)

    @pytest.mark.parametrize("field", ["seed", "viewer_count"])
    def test_non_integer_manifest_field_raises_dataset_error(
        self, tmp_path, fresh, field
    ):
        copy = tmp_path / "dataset"
        _copy_dataset(fresh.directory, copy)
        manifest = json.loads((copy / "shards.json").read_text())
        manifest[field] = "abc"
        (copy / "shards.json").write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match="malformed seed or viewer count"):
            ShardedDataset.load(copy)

    def test_malformed_manifest_entry_raises_dataset_error(self, tmp_path, fresh):
        copy = tmp_path / "dataset"
        _copy_dataset(fresh.directory, copy)
        manifest = json.loads((copy / "shards.json").read_text())
        del manifest["shards"][0]["viewer_count"]
        (copy / "shards.json").write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match="malformed"):
            ShardedDataset.load(copy)


def _record(length: int, label: str | None) -> ClientRecord:
    return ClientRecord(timestamp=0.0, wire_length=length, content_type=23, label=label)


class TestFingerprintAccumulator:
    def test_folding_matches_batch_learning(self):
        records = [
            _record(2200, LABEL_TYPE1),
            _record(2210, LABEL_TYPE1),
            _record(3000, LABEL_TYPE2),
            _record(3050, LABEL_TYPE2),
            _record(400, LABEL_OTHER),
            _record(500, None),
        ]
        batch = RecordLengthFingerprint.learn("linux/firefox", records, margin=8)
        accumulator = FingerprintAccumulator()
        accumulator.observe("linux/firefox", records[:2])
        accumulator.observe("linux/firefox", records[2:4])
        accumulator.observe("linux/firefox", records[4:])
        assert accumulator.fingerprint("linux/firefox", margin=8) == batch
        assert accumulator.record_count == len(records)

    def test_types_may_arrive_in_different_batches(self):
        # A shard holding only one record type must not finalise prematurely
        # — the other type can arrive shards later.
        accumulator = FingerprintAccumulator()
        accumulator.observe("k", [_record(2200, LABEL_TYPE1)])
        with pytest.raises(FingerprintError, match="type-2"):
            accumulator.fingerprint("k")
        accumulator.observe("k", [_record(3000, LABEL_TYPE2)])
        fingerprint = accumulator.fingerprint("k", margin=0)
        assert fingerprint.type1_band.low == 2200
        assert fingerprint.type2_band.high == 3000
        assert fingerprint.training_records == 2

    def test_unknown_environment_rejected(self):
        with pytest.raises(FingerprintError, match="no records accumulated"):
            FingerprintAccumulator().fingerprint("nowhere/nothing")

    def test_empty_finalize_rejected(self):
        with pytest.raises(FingerprintError, match="no training records"):
            FingerprintAccumulator().finalize_into(FingerprintLibrary())

    def test_missing_type1_rejected(self):
        accumulator = FingerprintAccumulator()
        accumulator.observe("k", [_record(3000, LABEL_TYPE2)])
        with pytest.raises(FingerprintError, match="type-1"):
            accumulator.fingerprint("k")


class TestTrainIncremental:
    def test_equals_batch_train(self, study_graph, training_sessions):
        batch = WhiteMirrorAttack(graph=study_graph)
        batch.train(training_sessions)
        incremental = WhiteMirrorAttack(graph=study_graph)
        # Same sessions, folded in as three uneven "shards".
        incremental.train_incremental(
            [training_sessions[:1], training_sessions[1:3], training_sessions[3:]]
        )
        assert incremental.library.as_dict() == batch.library.as_dict()

    def test_equals_batch_train_over_a_sharded_dataset(self, fresh):
        loaded = ShardedDataset.load(fresh.directory)
        sessions = [
            session
            for shard in loaded.iter_shard_training_sessions()
            for session in shard
        ]
        batch = WhiteMirrorAttack()
        batch.train(sessions)
        incremental = WhiteMirrorAttack()
        incremental.train_incremental(loaded.iter_shard_training_sessions())
        assert incremental.library.as_dict() == batch.library.as_dict()

    def test_reports_progress_and_rejects_empty_input(self, study_graph, training_sessions):
        attack = WhiteMirrorAttack(graph=study_graph)
        folded: list[int] = []
        attack.train_incremental(
            [training_sessions[:2], [], training_sessions[2:]], progress=folded.append
        )
        assert folded == list(range(1, len(training_sessions) + 1))
        with pytest.raises(AttackError, match="no training sessions"):
            WhiteMirrorAttack().train_incremental([[], []])


class TestHeadlineFromDataset:
    def test_runs_over_a_sharded_dataset(self, fresh):
        result = reproduce_headline_from_dataset(
            fresh.directory, training_sessions_per_environment=1
        )
        assert result.training_sessions + result.evaluated_sessions == VIEWERS
        assert 0.0 <= result.worst_case_accuracy <= 1.0
        assert result.worst_case_accuracy <= min(
            entry.json_identification_accuracy for entry in result.per_environment
        ) + 1e-12
        rows = result.rows()
        assert rows[-2]["environment"] == "AGGREGATE"
        assert rows[-1]["environment"].startswith("WORST CASE")
        assert sum(entry.sessions for entry in result.per_environment) == (
            result.evaluated_sessions
        )

    def test_everything_used_for_calibration_is_an_error(self, fresh):
        with pytest.raises(AttackError, match="no sessions left to evaluate"):
            reproduce_headline_from_dataset(
                fresh.directory, training_sessions_per_environment=VIEWERS
            )

    def test_rejects_non_positive_training_count(self, fresh):
        with pytest.raises(AttackError, match="positive"):
            reproduce_headline_from_dataset(
                fresh.directory, training_sessions_per_environment=0
            )


def _copy_dataset(source: Path, target: Path) -> None:
    import shutil

    shutil.copytree(source, target)
