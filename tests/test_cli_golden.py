"""Golden tests pinning the CLI's default console rendering byte-for-byte.

The jobs-layer refactor (typed specs -> runner -> event bus -> renderer)
must keep the default terminal output and every written artifact identical
to the pre-refactor CLI.  These tests drive one deterministic end-to-end
workflow — generate (plain and sharded), train (plain and sharded), attack
(single capture and directory), watch --once, stitch, merge-fingerprints,
inspect, reproduce figure1 and defenses, arena — and compare each
command's stdout against a checked-in golden file, plus the SHA-256 of
every durable artifact.  ``repro --help`` and every sub-command's
``--help`` are pinned too (``help/``, at a fixed ``COLUMNS``).

Regenerating the goldens (only after an *intentional* output change)::

    REPRO_WRITE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_cli_golden.py -q

The comparison is on raw bytes (including the ``\\r`` transient progress
lines), so the files are written and read in binary mode.  Absolute tmp
paths are normalised to ``<ROOT>`` before comparison, and a table title
that names one has its ``=`` underline resized to match.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.cli.main import main

GOLDEN_DIR = Path(__file__).parent / "data" / "cli_golden"
WRITE_GOLDENS = os.environ.get("REPRO_WRITE_GOLDENS") == "1"

#: Scenario names in execution order; each has a golden stdout file.
SCENARIOS = [
    "generate-plain",
    "generate-sharded",
    "train-plain",
    "train-sharded",
    "attack-single",
    "attack-dir",
    "watch-once",
    "stitch",
    "merge-fingerprints",
    "inspect",
    "reproduce-figure1",
    "reproduce-defenses",
    "arena",
]

#: Durable artifacts whose content hashes are pinned (relative to the run
#: root).  The columnar ``records.npz`` sidecars are deliberately absent:
#: they are a pure cache whose compressed bytes may vary across zlib
#: builds, and their *semantic* equivalence is pinned by the sidecar tests.
HASHED_ARTIFACT_GLOBS = [
    "plain/metadata.json",
    "plain/traces/*.pcap",
    "sharded/shards.json",
    "sharded/shard-*/metadata.json",
    "sharded/shard-*/traces/*.pcap",
    "lib-plain.json",
    "lib-sharded.json",
    "state.json",
    "attack.jsonl",
    "watch.jsonl",
    "stitchroot/shards.json",
    "lib-merged.json",
    "arena/report.json",
]


def _first_pcap(directory: Path) -> Path:
    pcaps = sorted(directory.glob("*.pcap"))
    assert pcaps, f"no pcaps under {directory}"
    return pcaps[0]


def _normalise_root(output: str, root: str) -> str:
    """Replace the tmp root with ``<ROOT>``, resizing title underlines.

    A table title naming an absolute path is underlined to the title's
    length, so the raw underline depends on how long the tmp root is.  The
    underline must match the raw title exactly; it is then resized to the
    normalised title so the golden holds under any ``--basetemp``.
    """
    lines = output.split("\n")
    for index, line in enumerate(lines[:-1]):
        underline = lines[index + 1]
        if root in line and set(underline) == {"="}:
            assert len(underline) == len(line), (
                f"underline of {line!r} is {len(underline)} characters, "
                f"not the title's {len(line)}"
            )
            lines[index + 1] = "=" * len(line.replace(root, "<ROOT>"))
    return "\n".join(lines).replace(root, "<ROOT>")


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory) -> tuple[Path, dict[str, str]]:
    """Run the whole scenario chain once; returns (root, stdout-by-name)."""
    root = tmp_path_factory.mktemp("cli-golden")
    outputs: dict[str, str] = {}

    def run(name: str, argv: list[str]) -> None:
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            exit_code = main(argv)
        output = buffer.getvalue()
        assert exit_code == 0, f"{name} exited {exit_code}:\n{output}"
        outputs[name] = _normalise_root(output, str(root))

    run(
        "generate-plain",
        [
            "generate-dataset", str(root / "plain"),
            "--viewers", "3", "--seed", "5", "--no-cross-traffic",
        ],
    )
    run(
        "generate-sharded",
        [
            "generate-dataset", str(root / "sharded"),
            "--viewers", "4", "--seed", "5", "--shards", "2",
            "--no-cross-traffic",
        ],
    )
    run(
        "train-plain",
        [
            "train", str(root / "plain"), str(root / "lib-plain.json"),
            "--train-fraction", "0.67",
        ],
    )
    run(
        "train-sharded",
        [
            "train", str(root / "sharded"), str(root / "lib-sharded.json"),
            "--sharded", "--save-state", str(root / "state.json"),
        ],
    )
    run(
        "attack-single",
        [
            "attack",
            str(_first_pcap(root / "sharded" / "shard-000" / "traces")),
            str(root / "lib-sharded.json"),
        ],
    )
    run(
        "attack-dir",
        [
            "attack", str(root / "sharded" / "shard-000" / "traces"),
            str(root / "lib-sharded.json"),
            "--results-log", str(root / "attack.jsonl"),
        ],
    )
    drop = root / "drop"
    drop.mkdir()
    shutil.copy(root / "sharded" / "shard-001" / "metadata.json", drop)
    for pcap in sorted((root / "sharded" / "shard-001" / "traces").glob("*.pcap")):
        shutil.copy(pcap, drop)
    run(
        "watch-once",
        [
            "watch", str(drop), "--library", str(root / "lib-sharded.json"),
            "--once", "--results-log", str(root / "watch.jsonl"),
        ],
    )
    stitchroot = root / "stitchroot"
    stitchroot.mkdir()
    for shard in ("shard-000", "shard-001"):
        shutil.copytree(root / "sharded" / shard, stitchroot / shard)
    run("stitch", [str(arg) for arg in ("stitch", stitchroot)])
    run(
        "merge-fingerprints",
        [
            "merge-fingerprints", str(root / "state.json"),
            "-o", str(root / "lib-merged.json"),
        ],
    )
    run(
        "inspect",
        ["inspect", str(_first_pcap(root / "sharded" / "shard-000" / "traces"))],
    )
    run("reproduce-figure1", ["reproduce", "--experiment", "figure1", "--quick"])
    run("reproduce-defenses", ["reproduce", "--experiment", "defenses", "--quick"])
    run(
        "arena",
        [
            "arena", str(root / "arena"),
            "--defenses", "pad-to-multiple:block_bytes=64",
            "pad-to-constant:target_bytes=4096",
            "--classifiers", "interval:margin=8", "knn:k=7",
            "--train-count", "1", "--test-count", "1", "--seed", "29",
        ],
    )
    return root, outputs


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_console_output_matches_golden(golden_run, scenario):
    _root, outputs = golden_run
    golden_path = GOLDEN_DIR / f"{scenario}.txt"
    output = outputs[scenario].encode("utf-8")
    if WRITE_GOLDENS:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        golden_path.write_bytes(output)
        return
    assert golden_path.exists(), (
        f"missing golden {golden_path}; regenerate with "
        "REPRO_WRITE_GOLDENS=1 (only after an intentional output change)"
    )
    assert output == golden_path.read_bytes(), (
        f"console output drifted for {scenario!r}; if the change is "
        "intentional, regenerate with REPRO_WRITE_GOLDENS=1"
    )


def test_artifact_hashes_match_golden(golden_run):
    """Every durable artifact of the chain is byte-identical to the seed's."""
    root, _outputs = golden_run
    hashes = {}
    for pattern in HASHED_ARTIFACT_GLOBS:
        matches = sorted(root.glob(pattern))
        assert matches, f"artifact glob {pattern!r} matched nothing"
        for path in matches:
            relative = path.relative_to(root).as_posix()
            hashes[relative] = hashlib.sha256(path.read_bytes()).hexdigest()
    golden_path = GOLDEN_DIR / "artifact-hashes.json"
    if WRITE_GOLDENS:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        golden_path.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")
        return
    expected = json.loads(golden_path.read_text())
    assert hashes == expected, (
        "artifact bytes drifted; if intentional, regenerate the goldens "
        "with REPRO_WRITE_GOLDENS=1"
    )


#: ``repro --help`` plus every sub-command's ``--help``, in parser order.
HELP_COMMANDS = [
    None,
    "generate-dataset",
    "stitch",
    "train",
    "merge-fingerprints",
    "attack",
    "watch",
    "arena",
    "serve",
    "work",
    "reproduce",
    "inspect",
]


@pytest.mark.skipif(
    sys.version_info >= (3, 13),
    reason="argparse lays out option help differently from Python 3.13 on",
)
@pytest.mark.parametrize("command", HELP_COMMANDS, ids=lambda c: c or "repro")
def test_help_matches_golden(command, monkeypatch, capsys):
    """Every ``--help`` text is pinned byte-for-byte at a fixed width."""
    monkeypatch.setenv("COLUMNS", "100")
    argv = ["--help"] if command is None else [command, "--help"]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 0
    output = capsys.readouterr().out.encode("utf-8")
    golden_path = GOLDEN_DIR / "help" / f"{command or 'repro'}.txt"
    if WRITE_GOLDENS:
        golden_path.parent.mkdir(parents=True, exist_ok=True)
        golden_path.write_bytes(output)
        return
    assert output == golden_path.read_bytes(), (
        f"--help text drifted for {command or 'repro'!r}"
    )
