"""What repro needs installed, and what importing it loads.

The CI composite action installs the project's only third-party packages;
every import in ``src/`` and ``tests/`` must resolve to one of them, to the
standard library, to repro itself or to a helper module under ``tests/``.
A fresh ``import repro`` (and the entry points the CLI and the watch fleet
use) loads only numpy and the standard library: no HTTP server, no
experiments package.  Packages export their names lazily, so the attack
path (``repro attack``, ``repro watch``, a drain of captures) loads no
simulator, sweep or fleet-coordination module, before or after it attacks.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SOURCE_ROOTS = (REPO / "src", REPO / "tests")
SETUP_ACTION = REPO / ".github" / "actions" / "setup-repro" / "action.yml"


def _installed_by_ci() -> set[str]:
    """Import names of the packages on the action's ``pip install`` line."""
    match = re.search(r"pip install ([^\n]+)", SETUP_ACTION.read_text())
    assert match, f"no pip install line in {SETUP_ACTION}"
    return {name.replace("-", "_") for name in match.group(1).split()}


def _local_test_modules() -> set[str]:
    tests = REPO / "tests"
    return {path.stem for path in tests.glob("*.py")} | {
        path.parent.name for path in tests.glob("*/__init__.py")
    }


def _top_level_imports(path: Path) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.split(".")[0])
    return names


class TestDependencyManifest:
    def test_every_import_is_installed_by_ci(self):
        allowed = (
            set(sys.stdlib_module_names)
            | {"repro"}
            | _local_test_modules()
            | _installed_by_ci()
        )
        unknown = {
            f"{path.relative_to(REPO)}: {name}"
            for root in SOURCE_ROOTS
            for path in sorted(root.rglob("*.py"))
            for name in _top_level_imports(path)
            if name not in allowed
        }
        assert not unknown, f"imports CI never installs: {sorted(unknown)}"

    def test_the_install_line_is_read(self):
        assert {"numpy", "pytest", "hypothesis"} <= _installed_by_ci()


#: Modules no start-up of the library, the CLI or the watch fleet may load.
NOT_AT_IMPORT = (
    "networkx",
    "http.server",
    "repro.experiments",
    "concurrent.futures.process",
    "multiprocessing",
)

_FOOTPRINT_SCRIPT = """
import json, sys, tempfile
from pathlib import Path

FORBIDDEN = sys.argv[1:]

def loaded():
    return sorted(name for name in FORBIDDEN if name in sys.modules)

before = set(sys.modules)
import repro, repro.jobs, repro.ingest.fleet, repro.cli.main
after_import = loaded()
third_party = sorted(
    {name.split(".")[0] for name in set(sys.modules) - before}
    - set(sys.stdlib_module_names) - {"repro", "numpy"}
)

from repro.client.profiles import figure2_conditions
from repro.client.viewer import ViewerBehavior
from repro.ingest.service import StreamingAttackService

graph = repro.build_bandersnatch_script(
    trunk_segment_minutes=0.5, branch_segment_minutes=0.5, ending_minutes=0.5
)
condition, _ = figure2_conditions()
behavior = ViewerBehavior("20-25", "undisclosed", "undisclosed", "happy")
session = repro.simulate_session(graph, condition, behavior, seed=3)
attack = repro.WhiteMirrorAttack(graph=graph)
attack.train([session])
with tempfile.TemporaryDirectory() as directory:
    capture = Path(directory) / "capture.pcap"
    session.trace.to_pcap(capture)
    service = StreamingAttackService(
        attack.library,
        Path(directory) / "results.jsonl",
        graph=graph,
        environment=condition.fingerprint_key,
    )
    verdicts = service.process([capture])
print(json.dumps({
    "after_import": after_import,
    "third_party": third_party,
    "verdicts": len(verdicts),
    "after_process": loaded(),
}))
"""


class TestImportFootprint:
    def test_start_up_loads_only_numpy_and_the_stdlib(self):
        # A fresh interpreter: nothing this test session imported counts.
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        completed = subprocess.run(
            [sys.executable, "-c", _FOOTPRINT_SCRIPT, *NOT_AT_IMPORT],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
            check=False,
        )
        assert completed.returncode == 0, completed.stderr
        report = json.loads(completed.stdout.strip().splitlines()[-1])
        assert report["after_import"] == []
        assert report["third_party"] == []
        # One capture attacked end to end still needs none of them: the
        # saving comes from not importing, not from importing later.
        assert report["verdicts"] == 1
        assert report["after_process"] == []


#: Modules the attack path never needs: the simulator, the sweeps and the
#: fleet coordinator (whole packages), and single modules of packages the
#: attack does use.
NOT_ON_THE_ATTACK_PATH = (
    "repro.streaming",
    "repro.media",
    "repro.arena",
    "repro.coordinator",
    "repro.experiments",
    "repro.engine.plan",
    "repro.tls.session",
    "repro.dataset.shards",
    "repro.ml.knn",
)

_ATTACK_PATH_SCRIPT = """
import json, sys
from pathlib import Path

FORBIDDEN = sys.argv[4:]

def loaded():
    return sorted(
        name for name in sys.modules
        if any(name == prefix or name.startswith(prefix + ".") for prefix in FORBIDDEN)
    )

import repro.cli.main, repro.ingest.service, repro.ingest.fleet
from repro.cli import main
from repro.jobs import EventBus, JobRunner
after_import = loaded()

drop, library, environment = Path(sys.argv[1]), sys.argv[2], sys.argv[3]
codes = [
    main([
        "attack", str(drop), library, "--environment", environment,
        "--results-log", str(drop.parent / "attack.jsonl"),
    ]),
    main([
        "watch", str(drop), "--library", library, "--environment", environment,
        "--once", "--results-log", str(drop.parent / "watch.jsonl"),
    ]),
]
print(json.dumps({"after_import": after_import, "codes": codes, "after_attack": loaded()}))
"""


class TestAttackPathFootprint:
    def test_attack_and_watch_load_no_simulator_module(
        self, tmp_path, study_graph, ubuntu_session
    ):
        from repro.core.pipeline import WhiteMirrorAttack

        attack = WhiteMirrorAttack(graph=study_graph)
        attack.train([ubuntu_session])
        library = tmp_path / "library.json"
        attack.library.save(library)
        drop = tmp_path / "drop"
        drop.mkdir()
        ubuntu_session.trace.to_pcap(drop / "victim.pcap")
        environment = ubuntu_session.condition.fingerprint_key

        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        completed = subprocess.run(
            [
                sys.executable, "-c", _ATTACK_PATH_SCRIPT,
                str(drop), str(library), environment, *NOT_ON_THE_ATTACK_PATH,
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
            check=False,
        )
        assert completed.returncode == 0, completed.stderr
        report = json.loads(completed.stdout.strip().splitlines()[-1])
        assert report["codes"] == [0, 0], completed.stderr
        assert report["after_import"] == []
        assert report["after_attack"] == []
        # Both entry points attacked the capture and logged the same verdict.
        assert (tmp_path / "attack.jsonl").read_bytes() == (
            tmp_path / "watch.jsonl"
        ).read_bytes()
        assert (tmp_path / "attack.jsonl").read_bytes().count(b"\n") == 1
