"""Parallel & distributed shard generation, stitching and fingerprint merge.

The contract under test is the roadmap's distribution story: whole shards fan
out over a process pool with byte-identical output, machines generate
disjoint shard subsets of one plan, the rsync'd-together shards stitch into a
manifest byte-identical to a single-machine run, and per-machine fingerprint
accumulator states merge into exactly the library one machine would train.
"""

from __future__ import annotations

import json
import re
import shutil
from pathlib import Path

import pytest

from repro.cli.main import main
from repro.core.features import ClientRecord, LABEL_OTHER, LABEL_TYPE1, LABEL_TYPE2
from repro.core.fingerprint import (
    FingerprintAccumulator,
    FingerprintLibrary,
)
from repro.core.pipeline import WhiteMirrorAttack
from repro.dataset.format import snapshot_dataset_files
from repro.dataset.shards import (
    SHARD_VERIFIED,
    ShardedDataset,
    discover_shard_directories,
    generate_shard_subset,
    generate_sharded_dataset,
    iter_consistent_shard_metadata,
    parse_shard_selection,
    plan_shards,
    stitch_sharded_dataset,
)
from repro.exceptions import DatasetError, FingerprintError
from repro.streaming.session import SessionConfig

SEED = 29
VIEWERS = 4
SHARDS = 2
CONFIG = SessionConfig(cross_traffic_enabled=False)


def _generate_full(directory: Path, **kwargs) -> ShardedDataset:
    return generate_sharded_dataset(
        directory,
        viewer_count=VIEWERS,
        shard_count=SHARDS,
        seed=SEED,
        config=CONFIG,
        **kwargs,
    )


def _generate_subset(directory: Path, only_shards, **kwargs):
    return generate_shard_subset(
        directory,
        viewer_count=VIEWERS,
        shard_count=SHARDS,
        only_shards=only_shards,
        seed=SEED,
        config=CONFIG,
        **kwargs,
    )


_dataset_files = snapshot_dataset_files


def _tamper(shard_directory: Path, mutator) -> None:
    metadata_path = shard_directory / "metadata.json"
    metadata = json.loads(metadata_path.read_text())
    mutator(metadata)
    metadata_path.write_text(json.dumps(metadata, indent=2))


#: One tampering per run-identity field, with the text a refusal names it by.
IDENTITY_TAMPERS = {
    "name": (
        lambda metadata: metadata.update(name="someone-elses-run"),
        "dataset name",
    ),
    "seed": (lambda metadata: metadata.update(seed=SEED + 1), "seed="),
    "session_config": (
        lambda metadata: metadata["session_config"].update(
            cross_traffic_enabled=True
        ),
        "session_config",
    ),
    "graph_fingerprint": (
        lambda metadata: metadata.update(graph_fingerprint="deadbeef"),
        "story-graph fingerprint",
    ),
    "plan_totals": (
        lambda metadata: metadata["shard"].update(count=SHARDS + 3),
        "shard plan",
    ),
}


@pytest.fixture(scope="module")
def reference(tmp_path_factory) -> ShardedDataset:
    """One uninterrupted single-machine run: the byte-level reference."""
    return _generate_full(tmp_path_factory.mktemp("reference") / "dataset")


@pytest.fixture(scope="module")
def split_roots(tmp_path_factory) -> tuple[Path, Path]:
    """Two 'machines' each generating a disjoint subset of the same plan."""
    machine_a = tmp_path_factory.mktemp("machine-a") / "root"
    machine_b = tmp_path_factory.mktemp("machine-b") / "root"
    _generate_subset(machine_a, only_shards=[0])
    _generate_subset(machine_b, only_shards=[1])
    return machine_a, machine_b


@pytest.fixture()
def stitched_root(tmp_path, split_roots) -> Path:
    """The rsync'd-together union of both machines' output (pre-stitch)."""
    machine_a, machine_b = split_roots
    root = tmp_path / "stitched"
    root.mkdir()
    for machine in (machine_a, machine_b):
        for shard in machine.glob("shard-*"):
            shutil.copytree(shard, root / shard.name)
    return root


class TestParseShardSelection:
    def test_single_indices_and_ranges(self):
        assert parse_shard_selection("0", 4) == (0,)
        assert parse_shard_selection("0,3-5", 8) == (0, 3, 4, 5)
        assert parse_shard_selection("2-2", 4) == (2,)

    def test_whitespace_and_duplicates_collapse(self):
        assert parse_shard_selection(" 1 , 3-4 ,1", 6) == (1, 3, 4)

    def test_overlapping_ranges_collapse(self):
        assert parse_shard_selection("1-3,2-4", 6) == (1, 2, 3, 4)

    def test_empty_selection_rejected(self):
        with pytest.raises(DatasetError, match="selects no shards"):
            parse_shard_selection("", 4)
        with pytest.raises(DatasetError, match="selects no shards"):
            parse_shard_selection(" , ", 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(DatasetError, match="out of range"):
            parse_shard_selection("4", 4)
        with pytest.raises(DatasetError, match="out of range"):
            parse_shard_selection("2-9", 4)

    def test_malformed_items_rejected(self):
        for bad in ("x", "1-", "-2", "1--3", "1:3"):
            with pytest.raises(DatasetError, match="malformed|out of range"):
                parse_shard_selection(bad, 4)

    def test_reversed_range_rejected(self):
        with pytest.raises(DatasetError, match="reversed"):
            parse_shard_selection("5-3", 8)

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(DatasetError, match="positive"):
            parse_shard_selection("0", 0)


class TestShardParallelGeneration:
    def test_shard_workers_output_byte_identical_to_serial(
        self, tmp_path, reference
    ):
        parallel = _generate_full(tmp_path / "parallel", shard_workers=2)
        assert parallel.summary() == reference.summary()
        assert _dataset_files(tmp_path / "parallel") == _dataset_files(
            reference.directory
        )

    def test_shard_workers_resume_skips_complete_shards(self, tmp_path, reference):
        copy = tmp_path / "dataset"
        shutil.copytree(reference.directory, copy)
        (copy / "shard-001" / "metadata.json").unlink()
        events: list[tuple[str, str]] = []
        resumed = _generate_full(
            copy,
            shard_workers=2,
            resume=True,
            status=lambda s, state: events.append((s.dirname, state)),
        )
        assert ("shard-000", "skipped") in events
        assert ("shard-001", "generated") in events
        assert resumed.summary() == reference.summary()
        assert _dataset_files(copy) == _dataset_files(reference.directory)

    def test_progress_reaches_the_population_total(self, tmp_path):
        seen: list[tuple[int, int]] = []
        _generate_full(
            tmp_path / "dataset",
            shard_workers=2,
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen[-1] == (VIEWERS, VIEWERS)


class TestShardSubsetGeneration:
    def test_only_selected_shard_dirs_and_no_manifest(self, split_roots):
        machine_a, machine_b = split_roots
        assert (machine_a / "shard-000").is_dir()
        assert not (machine_a / "shard-001").exists()
        assert not (machine_a / "shards.json").exists()
        assert (machine_b / "shard-001").is_dir()
        assert not (machine_b / "shard-000").exists()

    def test_subset_shards_byte_identical_to_full_run(self, split_roots, reference):
        machine_a, machine_b = split_roots
        for machine, shard in ((machine_a, "shard-000"), (machine_b, "shard-001")):
            assert _dataset_files(machine / shard) == _dataset_files(
                reference.directory / shard
            )

    def test_empty_selection_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="no shards selected"):
            _generate_subset(tmp_path / "dataset", only_shards=[])

    def test_out_of_range_selection_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="out of range"):
            _generate_subset(tmp_path / "dataset", only_shards=[0, SHARDS])

    def test_overlapping_selection_generates_once(self, tmp_path):
        summaries = _generate_subset(
            tmp_path / "dataset", only_shards=[0, 0, 0]
        )
        assert [summary.index for summary in summaries] == [0]

    def test_subset_removes_a_stale_manifest(self, tmp_path, reference):
        copy = tmp_path / "dataset"
        shutil.copytree(reference.directory, copy)
        assert (copy / "shards.json").exists()
        _generate_subset(copy, only_shards=[0])
        assert not (copy / "shards.json").exists()
        # The unselected shard was left untouched.
        assert _dataset_files(copy / "shard-001") == _dataset_files(
            reference.directory / "shard-001"
        )


class TestStitch:
    def test_stitch_publishes_a_manifest_identical_to_single_machine(
        self, stitched_root, reference
    ):
        events: list[tuple[str, str]] = []
        dataset = stitch_sharded_dataset(
            stitched_root,
            status=lambda s, state: events.append((s.dirname, state)),
        )
        assert [state for _name, state in events] == [SHARD_VERIFIED] * SHARDS
        assert (stitched_root / "shards.json").read_bytes() == (
            reference.directory / "shards.json"
        ).read_bytes()
        assert _dataset_files(stitched_root) == _dataset_files(reference.directory)
        assert dataset.summary() == reference.summary()

    def test_stitched_root_loads_and_trains(self, stitched_root, reference):
        stitch_sharded_dataset(stitched_root)
        loaded = ShardedDataset.load(stitched_root)
        assert loaded.viewer_count == VIEWERS
        incremental = WhiteMirrorAttack()
        incremental.train_incremental(loaded.iter_shard_training_sessions())
        batch = WhiteMirrorAttack()
        batch.train(
            [
                session
                for shard in ShardedDataset.load(
                    reference.directory
                ).iter_shard_training_sessions()
                for session in shard
            ]
        )
        assert incremental.library.as_dict() == batch.library.as_dict()

    def test_missing_shard_index_is_named(self, stitched_root):
        shutil.rmtree(stitched_root / "shard-000")
        with pytest.raises(DatasetError, match=r"\[0\] are missing"):
            stitch_sharded_dataset(stitched_root)

    def test_missing_trailing_shard_is_detected(self, stitched_root):
        # The plan totals are recorded in every shard's metadata, so a root
        # that lost its *last* shards (machine B's rsync never happened)
        # cannot masquerade as a smaller but complete dataset.
        shutil.rmtree(stitched_root / f"shard-{SHARDS - 1:03d}")
        with pytest.raises(DatasetError, match="are missing"):
            stitch_sharded_dataset(stitched_root)

    def test_duplicated_shard_under_a_new_name_is_rejected(self, stitched_root):
        # A mis-rsynced copy of shard-000 parked as shard-002 must fail both
        # stitching and subset training (it would fold viewers in twice).
        shutil.copytree(
            stitched_root / "shard-000", stitched_root / f"shard-{SHARDS:03d}"
        )
        with pytest.raises(DatasetError, match="records shard plan index"):
            stitch_sharded_dataset(stitched_root)
        with pytest.raises(DatasetError, match="records shard plan index"):
            list(
                iter_consistent_shard_metadata(
                    discover_shard_directories(stitched_root)
                )
            )

    def test_a_shard_index_held_twice_is_refused_by_stitch_and_training(
        self, stitched_root, tmp_path, capsys
    ):
        # shard-0001 parses to the same index as shard-001: a copy under a
        # wider name would otherwise be verified and folded twice.
        shutil.copytree(stitched_root / "shard-001", stitched_root / "shard-0001")
        names_both = "shard-0001 and shard-001"
        with pytest.raises(DatasetError, match=names_both):
            stitch_sharded_dataset(stitched_root)
        assert not (stitched_root / "shards.json").exists()
        library = tmp_path / "lib.json"
        assert main(["train", str(stitched_root), str(library), "--sharded"]) != 0
        assert names_both in capsys.readouterr().err
        assert not library.exists()

    def test_a_shard_index_held_twice_is_refused_on_a_manifest_root(
        self, reference, tmp_path, capsys
    ):
        root = tmp_path / "dataset"
        shutil.copytree(reference.directory, root)
        shutil.copytree(root / "shard-001", root / "shard-0001")
        manifest = (root / "shards.json").read_bytes()
        names_both = "shard-0001 and shard-001"
        with pytest.raises(DatasetError, match=names_both):
            ShardedDataset.load(root)
        with pytest.raises(DatasetError, match=names_both):
            stitch_sharded_dataset(root)
        assert (root / "shards.json").read_bytes() == manifest
        library = tmp_path / "lib.json"
        assert main(["train", str(root), str(library), "--sharded"]) != 0
        assert names_both in capsys.readouterr().err
        assert not library.exists()

    def test_incomplete_shard_is_rejected(self, stitched_root):
        (stitched_root / "shard-001" / ".inprogress").touch()
        with pytest.raises(DatasetError, match="incomplete"):
            stitch_sharded_dataset(stitched_root)

    def test_mixed_generation_runs_are_rejected(self, stitched_root):
        metadata_path = stitched_root / "shard-001" / "metadata.json"
        metadata = json.loads(metadata_path.read_text())
        metadata["seed"] = SEED + 1
        metadata_path.write_text(json.dumps(metadata, indent=2))
        with pytest.raises(DatasetError, match="mixed generation runs"):
            stitch_sharded_dataset(stitched_root)

    def test_tampered_viewer_slice_is_rejected(self, stitched_root):
        # A shard from the right run but holding the wrong slice of the
        # population (e.g. machine B ran the wrong --only-shards and its
        # output was renamed into place) must not stitch: the plan stamp
        # catches the renamed copy before the per-slice viewer check would.
        shutil.rmtree(stitched_root / "shard-001")
        shutil.copytree(
            stitched_root / "shard-000", stitched_root / "shard-001"
        )
        with pytest.raises(DatasetError, match="records shard plan index"):
            stitch_sharded_dataset(stitched_root)

    def test_empty_directory_is_rejected_with_guidance(self, tmp_path):
        with pytest.raises(DatasetError, match="no shard-NNN directories"):
            stitch_sharded_dataset(tmp_path)

    def test_discover_excludes_quarantined_debris(self, stitched_root):
        (stitched_root / "shard-000.quarantined-000").mkdir()
        found = discover_shard_directories(stitched_root)
        assert [index for index, _path in found] == [0, 1]

    def test_consistent_metadata_requires_completeness(self, stitched_root):
        (stitched_root / "shard-000" / "metadata.json").unlink()
        with pytest.raises(DatasetError, match="--only-shards 0"):
            list(
                iter_consistent_shard_metadata(
                    discover_shard_directories(stitched_root)
                )
            )


def _record(length: int, label: str | None) -> ClientRecord:
    return ClientRecord(timestamp=0.0, wire_length=length, content_type=23, label=label)


def _observe(accumulator: FingerprintAccumulator, key: str, pairs) -> None:
    accumulator.observe(key, [_record(length, label) for length, label in pairs])


def _finalized(accumulator: FingerprintAccumulator, margin: int = 8) -> dict:
    library = FingerprintLibrary()
    accumulator.finalize_into(library, margin=margin)
    return library.as_dict()


class TestAccumulatorSerialisation:
    def test_save_load_round_trip(self, tmp_path):
        accumulator = FingerprintAccumulator()
        _observe(
            accumulator,
            "linux/firefox",
            [(2200, LABEL_TYPE1), (3000, LABEL_TYPE2), (400, LABEL_OTHER), (500, None)],
        )
        path = tmp_path / "state.json"
        accumulator.save(path)
        loaded = FingerprintAccumulator.load(path)
        assert loaded.as_dict() == accumulator.as_dict()
        assert loaded.record_count == 4
        assert _finalized(loaded) == _finalized(accumulator)

    def test_partial_state_round_trips(self, tmp_path):
        # One record type not yet observed serialises as null and survives.
        accumulator = FingerprintAccumulator()
        _observe(accumulator, "k", [(2200, LABEL_TYPE1)])
        path = tmp_path / "state.json"
        accumulator.save(path)
        loaded = FingerprintAccumulator.load(path)
        assert loaded.as_dict() == accumulator.as_dict()
        _observe(loaded, "k", [(3000, LABEL_TYPE2)])
        fingerprint = loaded.fingerprint("k", margin=0)
        assert fingerprint.type1_band.low == 2200
        assert fingerprint.training_records == 2

    def test_library_file_is_not_accumulator_state(self, tmp_path):
        path = tmp_path / "library.json"
        FingerprintLibrary().save(path)
        with pytest.raises(FingerprintError, match="save-state"):
            FingerprintAccumulator.load(path)

    def test_malformed_state_is_rejected(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(
            json.dumps(
                {
                    "format_version": 1,
                    "environments": {"k": {"record_count": "many"}},
                }
            )
        )
        with pytest.raises(FingerprintError, match="malformed"):
            FingerprintAccumulator.load(path)

    def test_unsupported_version_is_rejected(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"format_version": 99, "environments": {}}))
        with pytest.raises(FingerprintError, match="version"):
            FingerprintAccumulator.load(path)


class TestAccumulatorMerge:
    def _three_states(self):
        a = FingerprintAccumulator()
        _observe(a, "linux/firefox", [(2200, LABEL_TYPE1), (3000, LABEL_TYPE2)])
        b = FingerprintAccumulator()
        _observe(b, "linux/firefox", [(2190, LABEL_TYPE1), (3050, LABEL_TYPE2)])
        _observe(b, "win/chrome", [(2400, LABEL_TYPE1), (3300, LABEL_TYPE2)])
        c = FingerprintAccumulator()
        _observe(c, "linux/firefox", [(2230, LABEL_TYPE1), (2980, LABEL_TYPE2)])
        _observe(c, "mac/safari", [(2500, LABEL_TYPE1), (3400, LABEL_TYPE2)])
        return a, b, c

    def _reload(self, accumulator: FingerprintAccumulator) -> FingerprintAccumulator:
        return FingerprintAccumulator.from_dict(accumulator.as_dict())

    def test_merge_equals_observing_everything_on_one_accumulator(self):
        a, b, c = self._three_states()
        single = FingerprintAccumulator()
        _observe(
            single,
            "linux/firefox",
            [
                (2200, LABEL_TYPE1),
                (3000, LABEL_TYPE2),
                (2190, LABEL_TYPE1),
                (3050, LABEL_TYPE2),
                (2230, LABEL_TYPE1),
                (2980, LABEL_TYPE2),
            ],
        )
        _observe(single, "win/chrome", [(2400, LABEL_TYPE1), (3300, LABEL_TYPE2)])
        _observe(single, "mac/safari", [(2500, LABEL_TYPE1), (3400, LABEL_TYPE2)])
        merged = self._reload(a).merge(self._reload(b)).merge(self._reload(c))
        assert _finalized(merged) == _finalized(single)

    def test_merge_is_associative_and_order_independent(self, tmp_path):
        a, b, c = self._three_states()
        left = self._reload(a).merge(self._reload(b)).merge(self._reload(c))
        right = self._reload(a).merge(self._reload(b).merge(self._reload(c)))
        reversed_order = self._reload(c).merge(self._reload(b)).merge(self._reload(a))
        assert _finalized(left) == _finalized(right) == _finalized(reversed_order)
        # The saved *libraries* are byte-identical regardless of merge order
        # (sorted keys), so distributed calibration diffs cleanly.
        for name, accumulator in (
            ("left", left),
            ("right", right),
            ("reversed", reversed_order),
        ):
            library = FingerprintLibrary()
            accumulator.finalize_into(library, margin=8)
            library.save(tmp_path / f"{name}.json")
        reference_bytes = (tmp_path / "left.json").read_bytes()
        assert (tmp_path / "right.json").read_bytes() == reference_bytes
        assert (tmp_path / "reversed.json").read_bytes() == reference_bytes

    def test_merge_with_empty_accumulator_is_identity(self):
        a, _b, _c = self._three_states()
        merged = self._reload(a).merge(FingerprintAccumulator())
        assert merged.as_dict() == a.as_dict()
        adopted = FingerprintAccumulator().merge(self._reload(a))
        assert adopted.as_dict() == a.as_dict()

    def test_partial_states_complete_each_other(self):
        # Machine A saw only type-1 records for an environment, machine B
        # only type-2: neither can finalise alone, the merge can.
        a = FingerprintAccumulator()
        _observe(a, "k", [(2200, LABEL_TYPE1)])
        b = FingerprintAccumulator()
        _observe(b, "k", [(3000, LABEL_TYPE2)])
        with pytest.raises(FingerprintError):
            a.fingerprint("k")
        merged = self._reload(a).merge(self._reload(b))
        fingerprint = merged.fingerprint("k", margin=0)
        assert (fingerprint.type1_band.low, fingerprint.type2_band.high) == (
            2200,
            3000,
        )

    def test_per_shard_states_merge_into_the_sharded_training_library(
        self, reference, tmp_path
    ):
        # The end-to-end distributed calibration contract over real sessions:
        # each machine folds one shard, states merge, and the finalised
        # library is byte-identical to train_incremental over the whole root.
        dataset = ShardedDataset.load(reference.directory)
        states: list[Path] = []
        for index, shard_sessions in enumerate(
            dataset.iter_shard_training_sessions()
        ):
            machine = WhiteMirrorAttack()
            accumulator = FingerprintAccumulator()
            machine.train_incremental([shard_sessions], accumulator=accumulator)
            path = tmp_path / f"state-{index}.json"
            accumulator.save(path)
            states.append(path)
        merged = FingerprintAccumulator()
        for path in states:
            merged.merge(FingerprintAccumulator.load(path))
        merged_library = FingerprintLibrary()
        merged.finalize_into(merged_library, margin=8)
        single = WhiteMirrorAttack()
        single.train_incremental(dataset.iter_shard_training_sessions())
        assert merged_library.as_dict() == single.library.as_dict()
        merged_library.save(tmp_path / "merged.json")
        single.library.save(tmp_path / "single.json")
        assert (tmp_path / "merged.json").read_bytes() == (
            tmp_path / "single.json"
        ).read_bytes()


class TestShardMismatchMessagesAreSpecific:
    """A foreign shard's rejection must name the exact mismatched field.

    ``stitch``/``resume`` treat any recorded-field mismatch as "foreign", but
    an operator debugging a distributed run needs to know *which* field —
    seed vs config vs story fingerprint vs viewer slice vs missing traces —
    not just that "the recorded configuration does not match".
    """

    def _mismatch_for(self, shard_directory: Path, metadata_mutator=None) -> str:
        from repro.dataset.collection import default_study_script
        from repro.dataset.population import generate_population
        from repro.dataset.shards import _shard_reuse_mismatch

        if metadata_mutator is not None:
            metadata_path = shard_directory / "metadata.json"
            metadata = json.loads(metadata_path.read_text())
            metadata_mutator(metadata)
            metadata_path.write_text(json.dumps(metadata, indent=2))
        reason = _shard_reuse_mismatch(
            shard_directory,
            plan_shards(VIEWERS, SHARDS)[0],
            SHARDS,
            generate_population(VIEWERS, seed=SEED),
            SEED,
            True,
            "iitm-bandersnatch-synthetic",
            CONFIG,
            default_study_script().fingerprint(),
        )
        assert reason is not None, "tampered shard unexpectedly verified"
        return reason

    @pytest.fixture()
    def shard_copy(self, reference, tmp_path) -> Path:
        copy = tmp_path / "shard-000"
        shutil.copytree(reference.directory / "shard-000", copy)
        return copy

    def test_clean_shard_has_no_mismatch(self, shard_copy):
        from repro.dataset.collection import default_study_script
        from repro.dataset.population import generate_population
        from repro.dataset.shards import _shard_reuse_mismatch

        assert (
            _shard_reuse_mismatch(
                shard_copy,
                plan_shards(VIEWERS, SHARDS)[0],
                SHARDS,
                generate_population(VIEWERS, seed=SEED),
                SEED,
                True,
                "iitm-bandersnatch-synthetic",
                CONFIG,
                default_study_script().fingerprint(),
            )
            is None
        )

    def test_seed_mismatch_names_both_seeds(self, shard_copy):
        reason = self._mismatch_for(
            shard_copy, lambda metadata: metadata.update(seed=SEED + 1)
        )
        assert f"records seed={SEED + 1}" in reason
        assert f"seed={SEED}" in reason

    def test_dataset_name_mismatch_names_both_names(self, shard_copy):
        reason = self._mismatch_for(
            shard_copy, lambda metadata: metadata.update(name="someone-elses-run")
        )
        assert "dataset name 'someone-elses-run'" in reason
        assert "iitm-bandersnatch-synthetic" in reason

    def test_session_config_mismatch_names_the_field(self, shard_copy):
        def flip_cross_traffic(metadata):
            metadata["session_config"]["cross_traffic_enabled"] = True

        reason = self._mismatch_for(shard_copy, flip_cross_traffic)
        assert "session_config" in reason
        assert "cross_traffic_enabled" in reason

    def test_graph_fingerprint_mismatch_names_both_digests(self, shard_copy):
        reason = self._mismatch_for(
            shard_copy,
            lambda metadata: metadata.update(graph_fingerprint="deadbeef"),
        )
        assert "story-graph fingerprint" in reason
        assert "deadbeef" in reason

    def test_shard_plan_mismatch_names_both_plans(self, shard_copy):
        def grow_plan(metadata):
            metadata["shard"]["count"] = SHARDS + 3

        reason = self._mismatch_for(shard_copy, grow_plan)
        assert "shard plan" in reason
        assert f"'count': {SHARDS + 3}" in reason

    def test_viewer_slice_mismatch_names_the_ids(self, shard_copy):
        def rename_first_viewer(metadata):
            metadata["entries"][0]["viewer"]["viewer_id"] = "viewer-999"

        reason = self._mismatch_for(shard_copy, rename_first_viewer)
        assert "holds viewer ids" in reason
        assert "viewer-999" in reason

    def test_missing_trace_names_the_file(self, shard_copy):
        victim = sorted((shard_copy / "traces").glob("*.pcap"))[0]
        victim.unlink()
        reason = self._mismatch_for(shard_copy)
        assert "missing on disk" in reason
        assert victim.name in reason

    def test_unfinalised_shard_is_called_out(self, shard_copy):
        (shard_copy / ".inprogress").touch()
        reason = self._mismatch_for(shard_copy)
        assert "not finalised cleanly" in reason

    @pytest.mark.parametrize("field", sorted(IDENTITY_TAMPERS))
    def test_every_identity_field_is_named(self, shard_copy, field):
        mutator, label = IDENTITY_TAMPERS[field]
        assert label in self._mismatch_for(shard_copy, mutator)

    def test_stitch_error_carries_the_specific_reason(self, stitched_root):
        # End to end: the stitch failure for a missing pcap must surface the
        # per-field reason, not the old generic "does not match" catch-all.
        victim = sorted((stitched_root / "shard-001" / "traces").glob("*.pcap"))[0]
        victim.unlink()
        with pytest.raises(DatasetError) as excinfo:
            stitch_sharded_dataset(stitched_root)
        message = str(excinfo.value)
        assert "missing on disk" in message
        assert victim.name in message
        assert "--only-shards 1" in message

    def test_stitch_names_a_tampered_viewer_slice(self, stitched_root):
        metadata_path = stitched_root / "shard-001" / "metadata.json"
        metadata = json.loads(metadata_path.read_text())
        metadata["entries"][0]["viewer"]["viewer_id"] = "viewer-404"
        metadata_path.write_text(json.dumps(metadata, indent=2))
        with pytest.raises(DatasetError, match="holds viewer ids"):
            stitch_sharded_dataset(stitched_root)


class TestOneRunIdentity:
    """Every entry point decides run membership by the same recorded fields.

    One shard of a two-shard root gets one identity field tampered with:
    resume regenerates it, while stitch, subset training and
    ``ShardedDataset.load`` refuse the root and name the field.
    """

    @pytest.fixture(params=sorted(IDENTITY_TAMPERS))
    def tamper(self, request):
        return IDENTITY_TAMPERS[request.param]

    def test_resume_regenerates_the_tampered_shard(self, reference, tmp_path, tamper):
        mutator, _label = tamper
        copy = tmp_path / "dataset"
        shutil.copytree(reference.directory, copy)
        _tamper(copy / "shard-001", mutator)
        events: list[tuple[str, str]] = []
        _generate_full(
            copy,
            resume=True,
            status=lambda s, state: events.append((s.dirname, state)),
        )
        assert events == [
            ("shard-000", "skipped"),
            ("shard-001", "quarantined"),
            ("shard-001", "generated"),
        ]
        assert _dataset_files(copy) == _dataset_files(reference.directory)

    def test_stitch_refuses_and_names_the_field(self, stitched_root, tamper):
        mutator, label = tamper
        _tamper(stitched_root / "shard-001", mutator)
        with pytest.raises(DatasetError, match="mixed generation runs") as excinfo:
            stitch_sharded_dataset(stitched_root)
        assert label in str(excinfo.value)
        assert not (stitched_root / "shards.json").exists()

    def test_subset_training_refuses_and_names_the_field(
        self, stitched_root, tmp_path, tamper, capsys
    ):
        mutator, label = tamper
        _tamper(stitched_root / "shard-001", mutator)
        library = tmp_path / "lib.json"
        assert main(["train", str(stitched_root), str(library), "--sharded"]) != 0
        assert label in capsys.readouterr().err
        assert not library.exists()

    def test_sharded_dataset_load_refuses_and_names_the_field(
        self, reference, tmp_path, tamper
    ):
        mutator, label = tamper
        copy = tmp_path / "dataset"
        shutil.copytree(reference.directory, copy)
        _tamper(copy / "shard-001", mutator)
        with pytest.raises(DatasetError, match="mixed generation runs") as excinfo:
            ShardedDataset.load(copy)
        assert label in str(excinfo.value)

    def test_load_names_a_first_shard_that_disagrees_with_the_manifest(
        self, reference, tmp_path
    ):
        copy = tmp_path / "dataset"
        shutil.copytree(reference.directory, copy)
        _tamper(copy / "shard-000", lambda metadata: metadata.update(seed=SEED + 1))
        with pytest.raises(DatasetError, match="shard shard-000 records seed="):
            ShardedDataset.load(copy)

    @pytest.fixture()
    def mixed_config_root(self, reference, tmp_path) -> Path:
        """The reference root with shard-001 swapped for the same plan's
        shard-001 generated with cross traffic on."""
        root = tmp_path / "mixed"
        shutil.copytree(reference.directory, root)
        other = tmp_path / "other"
        generate_shard_subset(
            other,
            viewer_count=VIEWERS,
            shard_count=SHARDS,
            only_shards=[1],
            seed=SEED,
            config=SessionConfig(),
        )
        shutil.rmtree(root / "shard-001")
        shutil.copytree(other / "shard-001", root / "shard-001")
        return root

    def test_mixed_config_root_is_refused_by_sharded_training(
        self, mixed_config_root, tmp_path, capsys
    ):
        with pytest.raises(DatasetError, match="session_config"):
            ShardedDataset.load(mixed_config_root)
        library = tmp_path / "lib.json"
        exit_code = main(
            ["train", str(mixed_config_root), str(library), "--sharded"]
        )
        assert exit_code != 0
        assert "session_config" in capsys.readouterr().err
        assert not library.exists()

    def test_session_config_mismatch_names_only_the_differing_keys(
        self, mixed_config_root
    ):
        (mixed_config_root / "shards.json").unlink()
        with pytest.raises(DatasetError) as excinfo:
            stitch_sharded_dataset(mixed_config_root)
        message = str(excinfo.value)
        assert "session_config" in message
        assert "cross_traffic_enabled: True vs False" in message
        assert "media_scale" not in message


class TestMalformedShardMetadata:
    """A malformed shard index is a DatasetError naming the file, whichever
    entry point reads it."""

    def _refused_everywhere(self, reference, tmp_path, write) -> None:
        root = tmp_path / "dataset"
        shutil.copytree(reference.directory, root)
        metadata_path = root / "shard-001" / "metadata.json"
        write(metadata_path)
        names_the_file = re.escape(str(metadata_path))
        with pytest.raises(DatasetError, match=names_the_file):
            ShardedDataset.load(root)
        (root / "shards.json").unlink()
        with pytest.raises(DatasetError, match=names_the_file):
            stitch_sharded_dataset(root)

    def test_metadata_that_is_a_json_number(self, reference, tmp_path):
        self._refused_everywhere(
            reference, tmp_path, lambda path: path.write_text("7")
        )

    def test_entries_that_are_not_a_list(self, reference, tmp_path):
        def entries_as_a_number(path: Path) -> None:
            metadata = json.loads(path.read_text())
            metadata["entries"] = 2
            path.write_text(json.dumps(metadata))

        self._refused_everywhere(reference, tmp_path, entries_as_a_number)

    def test_null_session_config_is_named_by_stitch(self, stitched_root):
        for shard in ("shard-000", "shard-001"):
            _tamper(
                stitched_root / shard,
                lambda metadata: metadata.update(session_config=None),
            )
        with pytest.raises(DatasetError, match="does not record its 'session_config'"):
            stitch_sharded_dataset(stitched_root)
