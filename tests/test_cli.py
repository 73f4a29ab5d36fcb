"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
from pathlib import Path

import pytest

from repro.cli.main import build_parser, main
from repro.jobs import (
    ArenaJob,
    AttackJob,
    GenerateJob,
    InspectJob,
    JobRunner,
    MergeFingerprintsJob,
    ReproduceJob,
    ServeJob,
    StitchJob,
    TrainJob,
    WatchJob,
    WorkJob,
)


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_attack_without_environment_or_metadata_fails(self, tmp_path, capsys):
        # --environment is optional at parse time (dataset metadata can
        # supply it per capture), but attacking a bare pcap without either
        # source must fail cleanly, naming the flag.
        exit_code = main(["attack", str(tmp_path / "x.pcap"), str(tmp_path / "lib.json")])
        assert exit_code == 1
        assert "--environment" in capsys.readouterr().err


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (action,) = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return action.choices


#: Each sub-command's required arguments, and the spec those alone build:
#: every other field must come from the spec's own default.
REQUIRED_ONLY = {
    "generate-dataset": (["out"], GenerateJob(output="out")),
    "stitch": (["root"], StitchJob(root="root")),
    "train": (["ds", "lib.json"], TrainJob(dataset="ds", output="lib.json")),
    "merge-fingerprints": (
        ["a.json", "-o", "lib.json"],
        MergeFingerprintsJob(states=("a.json",), output="lib.json"),
    ),
    "attack": (["x.pcap", "lib.json"], AttackJob(target="x.pcap", library="lib.json")),
    "watch": (["--library", "lib.json"], WatchJob(library="lib.json")),
    "arena": (["out"], ArenaJob(output="out")),
    "serve": (["out", "lib.json"], ServeJob(output="out", library="lib.json")),
    "work": (["http://host:1"], WorkJob(url="http://host:1")),
    "reproduce": ([], ReproduceJob()),
    "inspect": (["x.pcap"], InspectJob(pcap="x.pcap")),
}


class TestArgvBuildsSpecs:
    """argv and the wire share one constructor, ``JobSpec.from_dict``."""

    def test_every_subcommand_is_covered(self):
        assert set(_subcommands(build_parser())) == set(REQUIRED_ONLY)

    @pytest.mark.parametrize("command", sorted(REQUIRED_ONLY))
    def test_parser_dests_are_the_spec_fields(self, command):
        subparser = _subcommands(build_parser())[command]
        spec_class = subparser.get_default("spec")
        dests = {action.dest for action in subparser._actions}
        assert dests - {"help", "log_format"} == {
            spec_field.name for spec_field in dataclasses.fields(spec_class)
        }

    @pytest.mark.parametrize("command", sorted(REQUIRED_ONLY))
    def test_unset_flags_take_the_spec_defaults(self, command, monkeypatch):
        ran = []
        monkeypatch.setattr(JobRunner, "run", lambda _runner, spec: ran.append(spec))
        argv, expected = REQUIRED_ONLY[command]
        assert main([command, *argv]) == 0
        assert ran == [expected]

    def test_a_flag_without_a_spec_field_fails_loudly(self, monkeypatch, capsys):
        def parser_with_stray_flag() -> argparse.ArgumentParser:
            parser = build_parser()
            _subcommands(parser)["inspect"].add_argument("--stray")
            return parser

        # ``repro.cli.main`` the attribute is the entry point; fetch the module.
        cli_module = importlib.import_module("repro.cli.main")
        monkeypatch.setattr(cli_module, "build_parser", parser_with_stray_flag)
        assert main(["inspect", "x.pcap", "--stray", "1"]) == 1
        assert "unknown field(s) ['stray']" in capsys.readouterr().err


class TestGenerateInspectTrainAttack:
    """End-to-end CLI workflow on a tiny dataset (kept small for speed)."""

    @pytest.fixture(scope="class")
    def dataset_dir(self, tmp_path_factory) -> Path:
        directory = tmp_path_factory.mktemp("cli-dataset")
        exit_code = main(
            [
                "generate-dataset",
                str(directory),
                "--viewers",
                "3",
                "--seed",
                "5",
                "--no-cross-traffic",
            ]
        )
        assert exit_code == 0
        return directory

    def test_generate_dataset_writes_artifacts(self, dataset_dir):
        metadata = json.loads((dataset_dir / "metadata.json").read_text())
        assert metadata["viewer_count"] == 3
        assert metadata["seed"] == 5
        pcaps = list((dataset_dir / "traces").glob("*.pcap"))
        assert len(pcaps) == 3

    def test_inspect_summarises_a_pcap(self, dataset_dir, capsys):
        pcap = sorted((dataset_dir / "traces").glob("*.pcap"))[0]
        exit_code = main(["inspect", str(pcap)])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Flows in" in output
        assert "client TLS records" in output

    def test_train_then_attack(self, dataset_dir, tmp_path, capsys):
        library_path = tmp_path / "fingerprints.json"
        exit_code = main(
            [
                "train",
                str(dataset_dir),
                str(library_path),
                "--train-fraction",
                "0.67",
            ]
        )
        assert exit_code == 0
        assert library_path.exists()
        library = json.loads(library_path.read_text())
        assert library  # at least one environment learned

        # Attack one of the dataset's own pcaps with the learned fingerprints.
        metadata = json.loads((dataset_dir / "metadata.json").read_text())
        entry = metadata["entries"][0]
        environment = "/".join(
            (
                entry["viewer"]["condition"]["operating_system"],
                entry["viewer"]["condition"]["browser"],
            )
        )
        if environment not in library:
            pytest.skip("first viewer's environment not in the calibration half")
        capsys.readouterr()
        exit_code = main(
            [
                "attack",
                str(dataset_dir / entry["trace_file"]),
                str(library_path),
                "--environment",
                environment,
                "--client-ip",
                entry["client_ip"],
                "--server-ip",
                entry["server_ip"],
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Recovered choices" in output
        assert "Behavioural profile" in output

    def test_train_rejects_out_of_range_fraction(self, dataset_dir, tmp_path, capsys):
        exit_code = main(
            [
                "train",
                str(dataset_dir),
                str(tmp_path / "unused.json"),
                "--train-fraction",
                "1.5",
            ]
        )
        assert exit_code == 1
        assert "--train-fraction" in capsys.readouterr().err

    def test_attack_single_pcap_resolves_environment_from_metadata(
        self, dataset_dir, tmp_path, capsys
    ):
        library_path = tmp_path / "fingerprints-meta.json"
        main(["train", str(dataset_dir), str(library_path), "--train-fraction", "0.67"])
        metadata = json.loads((dataset_dir / "metadata.json").read_text())
        library = json.loads(library_path.read_text())
        entry = next(
            (
                e
                for e in metadata["entries"]
                if "/".join(
                    (
                        e["viewer"]["condition"]["operating_system"],
                        e["viewer"]["condition"]["browser"],
                    )
                )
                in library
            ),
            None,
        )
        if entry is None:
            pytest.skip("no viewer environment in the calibration half")
        capsys.readouterr()
        # No --environment / --client-ip / --server-ip: all from metadata.
        exit_code = main(
            ["attack", str(dataset_dir / entry["trace_file"]), str(library_path)]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Recovered choices" in output

    def test_attack_directory_prints_aggregate_accuracy(
        self, dataset_dir, tmp_path, capsys
    ):
        library_path = tmp_path / "fingerprints-dir.json"
        main(["train", str(dataset_dir), str(library_path), "--train-fraction", "0.67"])
        capsys.readouterr()
        exit_code = main(
            ["attack", str(dataset_dir / "traces"), str(library_path)]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Recovered choices" in output
        assert "aggregate: attacked" in output
        assert "choice accuracy" in output

    def test_attack_with_unknown_environment_fails_cleanly(self, dataset_dir, tmp_path, capsys):
        library_path = tmp_path / "fingerprints2.json"
        main(["train", str(dataset_dir), str(library_path)])
        metadata = json.loads((dataset_dir / "metadata.json").read_text())
        entry = metadata["entries"][0]
        exit_code = main(
            [
                "attack",
                str(dataset_dir / entry["trace_file"]),
                str(library_path),
                "--environment",
                "amiga/netscape",
                "--client-ip",
                entry["client_ip"],
            ]
        )
        assert exit_code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_pcap_fails_cleanly(self, tmp_path, capsys):
        exit_code = main(["inspect", str(tmp_path / "missing.pcap")])
        assert exit_code == 1
        assert "error:" in capsys.readouterr().err


class TestShardedGeneration:
    """`generate-dataset --shards N` writes independent shard directories."""

    @pytest.fixture(scope="class")
    def sharded_dir(self, tmp_path_factory) -> Path:
        directory = tmp_path_factory.mktemp("cli-sharded")
        exit_code = main(
            [
                "generate-dataset",
                str(directory),
                "--viewers",
                "4",
                "--seed",
                "5",
                "--shards",
                "2",
                "--no-cross-traffic",
            ]
        )
        assert exit_code == 0
        return directory

    def test_shard_layout_on_disk(self, sharded_dir):
        manifest = json.loads((sharded_dir / "shards.json").read_text())
        assert manifest["shard_count"] == 2
        assert manifest["viewer_count"] == 4
        assert manifest["seed"] == 5
        for shard in ("shard-000", "shard-001"):
            metadata = json.loads((sharded_dir / shard / "metadata.json").read_text())
            assert metadata["viewer_count"] == 2
            assert len(list((sharded_dir / shard / "traces").glob("*.pcap"))) == 2

    def test_shard_is_a_standalone_dataset(self, sharded_dir, tmp_path, capsys):
        # A single shard trains and gets attacked like any saved dataset.
        library_path = tmp_path / "shard-fingerprints.json"
        exit_code = main(["train", str(sharded_dir / "shard-000"), str(library_path)])
        assert exit_code == 0
        capsys.readouterr()
        exit_code = main(
            ["attack", str(sharded_dir / "shard-000" / "traces"), str(library_path)]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "aggregate: attacked" in output


class TestResumableGenerationAndShardedTraining:
    """`--resume` repairs interrupted runs; `train --sharded` folds shards in."""

    @pytest.fixture(scope="class")
    def sharded_dir(self, tmp_path_factory) -> Path:
        directory = tmp_path_factory.mktemp("cli-resume")
        exit_code = main(
            [
                "generate-dataset",
                str(directory),
                "--viewers",
                "4",
                "--seed",
                "5",
                "--shards",
                "2",
                "--no-cross-traffic",
            ]
        )
        assert exit_code == 0
        return directory

    def test_resume_requires_shards(self, tmp_path, capsys):
        exit_code = main(
            ["generate-dataset", str(tmp_path), "--viewers", "2", "--resume"]
        )
        assert exit_code == 1
        assert "--shards" in capsys.readouterr().err

    def test_resume_repairs_a_damaged_shard(self, sharded_dir, capsys):
        reference = (sharded_dir / "shard-001" / "metadata.json").read_bytes()
        (sharded_dir / "shard-001" / "metadata.json").unlink()
        exit_code = main(
            [
                "generate-dataset",
                str(sharded_dir),
                "--viewers",
                "4",
                "--seed",
                "5",
                "--shards",
                "2",
                "--no-cross-traffic",
                "--resume",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "shard-000: viewers=2 [skipped]" in output
        assert "shard-001: viewers=2 [quarantined+generated]" in output
        assert (sharded_dir / "shard-001" / "metadata.json").read_bytes() == reference

    def test_train_sharded_then_attack(self, sharded_dir, tmp_path, capsys):
        library_path = tmp_path / "sharded-fingerprints.json"
        exit_code = main(
            ["train", str(sharded_dir), str(library_path), "--sharded"]
        )
        assert exit_code == 0
        assert json.loads(library_path.read_text())
        capsys.readouterr()
        exit_code = main(
            ["attack", str(sharded_dir / "shard-001" / "traces"), str(library_path)]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "aggregate: attacked" in output

    def test_train_on_sharded_root_suggests_the_flag(
        self, sharded_dir, tmp_path, capsys
    ):
        exit_code = main(["train", str(sharded_dir), str(tmp_path / "lib.json")])
        assert exit_code == 1
        assert "--sharded" in capsys.readouterr().err

    def test_train_sharded_rejects_train_fraction(
        self, sharded_dir, tmp_path, capsys
    ):
        exit_code = main(
            [
                "train",
                str(sharded_dir),
                str(tmp_path / "lib.json"),
                "--sharded",
                "--train-fraction",
                "0.5",
            ]
        )
        assert exit_code == 1
        assert "--train-fraction" in capsys.readouterr().err

    def test_reproduce_dataset_drives_the_headline_experiment(
        self, sharded_dir, capsys
    ):
        exit_code = main(
            ["reproduce", "--dataset", str(sharded_dir), "--quick"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "choice recovery over" in output
        assert "WORST CASE" in output

    def test_reproduce_dataset_rejects_other_experiments(self, sharded_dir, capsys):
        exit_code = main(
            ["reproduce", "--experiment", "table1", "--dataset", str(sharded_dir)]
        )
        assert exit_code == 1
        assert "headline" in capsys.readouterr().err


class TestDistributedGeneration:
    """--only-shards / --shard-workers / stitch / merge-fingerprints."""

    @pytest.fixture(scope="class")
    def split_roots(self, tmp_path_factory) -> tuple[Path, Path]:
        machine_a = tmp_path_factory.mktemp("cli-machine-a")
        machine_b = tmp_path_factory.mktemp("cli-machine-b")
        for root, selection in ((machine_a, "0"), (machine_b, "1")):
            exit_code = main(
                [
                    "generate-dataset",
                    str(root),
                    "--viewers",
                    "4",
                    "--seed",
                    "5",
                    "--shards",
                    "2",
                    "--only-shards",
                    selection,
                    "--no-cross-traffic",
                ]
            )
            assert exit_code == 0
        return machine_a, machine_b

    @pytest.fixture(scope="class")
    def stitched_dir(self, split_roots, tmp_path_factory) -> Path:
        import shutil

        machine_a, machine_b = split_roots
        root = tmp_path_factory.mktemp("cli-stitched")
        shutil.copytree(machine_a / "shard-000", root / "shard-000")
        shutil.copytree(machine_b / "shard-001", root / "shard-001")
        exit_code = main(["stitch", str(root)])
        assert exit_code == 0
        return root

    def test_only_shards_writes_just_the_selection(self, split_roots, capsys):
        machine_a, _machine_b = split_roots
        assert (machine_a / "shard-000" / "metadata.json").exists()
        assert not (machine_a / "shard-001").exists()
        assert not (machine_a / "shards.json").exists()

    def test_only_shards_requires_shards(self, tmp_path, capsys):
        exit_code = main(
            ["generate-dataset", str(tmp_path), "--viewers", "2", "--only-shards", "0"]
        )
        assert exit_code == 1
        assert "--shards" in capsys.readouterr().err

    def test_bad_selection_fails_cleanly(self, tmp_path, capsys):
        exit_code = main(
            [
                "generate-dataset",
                str(tmp_path),
                "--viewers",
                "4",
                "--shards",
                "2",
                "--only-shards",
                "7",
            ]
        )
        assert exit_code == 1
        assert "out of range" in capsys.readouterr().err

    def test_shard_workers_requires_shards(self, tmp_path, capsys):
        exit_code = main(
            ["generate-dataset", str(tmp_path), "--viewers", "2", "--shard-workers", "2"]
        )
        assert exit_code == 1
        assert "--shards" in capsys.readouterr().err

    def test_stitch_publishes_manifest(self, stitched_dir):
        manifest = json.loads((stitched_dir / "shards.json").read_text())
        assert manifest["shard_count"] == 2
        assert manifest["viewer_count"] == 4
        assert manifest["seed"] == 5

    def test_stitch_of_non_dataset_fails_cleanly(self, tmp_path, capsys):
        exit_code = main(["stitch", str(tmp_path)])
        assert exit_code == 1
        assert "no shard-NNN directories" in capsys.readouterr().err

    def test_subset_train_plus_merge_equals_single_machine(
        self, split_roots, stitched_dir, tmp_path, capsys
    ):
        machine_a, machine_b = split_roots
        states = []
        for index, machine in enumerate((machine_a, machine_b)):
            library = tmp_path / f"lib-{index}.json"
            state = tmp_path / f"state-{index}.json"
            exit_code = main(
                [
                    "train",
                    str(machine),
                    str(library),
                    "--sharded",
                    "--save-state",
                    str(state),
                ]
            )
            assert exit_code == 0
            assert state.exists()
            states.append(state)
        single_library = tmp_path / "lib-single.json"
        assert main(["train", str(stitched_dir), str(single_library), "--sharded"]) == 0
        merged_library = tmp_path / "lib-merged.json"
        exit_code = main(
            [
                "merge-fingerprints",
                *[str(state) for state in states],
                "-o",
                str(merged_library),
            ]
        )
        assert exit_code == 0
        assert merged_library.read_bytes() == single_library.read_bytes()

    def test_train_on_unstitched_subset_root_suggests_the_flag(
        self, split_roots, tmp_path, capsys
    ):
        # shard-NNN directories but no shards.json: single-directory
        # training must point at --sharded instead of a missing metadata.json.
        machine_a, _machine_b = split_roots
        library = tmp_path / "lib.json"
        exit_code = main(["train", str(machine_a), str(library)])
        error = capsys.readouterr().err
        assert exit_code == 1
        assert "--sharded" in error
        assert "shard-NNN" in error
        assert "Errno" not in error
        assert not library.exists()

    def test_save_state_requires_sharded(self, stitched_dir, tmp_path, capsys):
        exit_code = main(
            [
                "train",
                str(stitched_dir / "shard-000"),
                str(tmp_path / "lib.json"),
                "--save-state",
                str(tmp_path / "state.json"),
            ]
        )
        assert exit_code == 1
        assert "--sharded" in capsys.readouterr().err

    def test_merge_rejects_a_library_file(self, tmp_path, capsys):
        library_path = tmp_path / "library.json"
        library_path.write_text("{}")
        exit_code = main(
            ["merge-fingerprints", str(library_path), "-o", str(tmp_path / "out.json")]
        )
        assert exit_code == 1
        assert "save-state" in capsys.readouterr().err


class TestReproduceCommand:
    def test_quick_figure1_reproduction(self, capsys):
        exit_code = main(["reproduce", "--experiment", "figure1", "--quick"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Figure 1" in output
        assert "matches the paper's description: True" in output

    def test_quick_table1_reproduction(self, capsys):
        exit_code = main(["reproduce", "--experiment", "table1", "--quick"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Operating System" in output
