"""The public import contract: ``__all__`` audits and top-level re-exports.

``repro``'s package docstring promises two public layers — the domain
attack API and the jobs layer the CLI and fleet coordinator drive.  These
tests pin that promise: everything in an ``__all__`` actually exists,
everything public-looking is listed, and the names the docstring calls out
import from the top-level package directly.  Packages export lazily, so
each name is also checked to be the very object its defining module holds,
to be listed by ``dir()`` and to come with ``from package import *``.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro
import repro.coordinator
import repro.defenses
import repro.jobs
import repro.ml

PACKAGE_NAMES = [
    "repro",
    "repro.arena",
    "repro.baselines",
    "repro.cli",
    "repro.client",
    "repro.coordinator",
    "repro.core",
    "repro.dataset",
    "repro.defenses",
    "repro.engine",
    "repro.experiments",
    "repro.ingest",
    "repro.jobs",
    "repro.media",
    "repro.ml",
    "repro.narrative",
    "repro.net",
    "repro.streaming",
    "repro.tls",
    "repro.utils",
]
SRC = Path(repro.__file__).resolve().parent.parent


def test_every_package_is_audited():
    packages = {
        ".".join(path.parent.relative_to(SRC).parts)
        for path in (SRC / "repro").rglob("__init__.py")
    }
    assert packages == set(PACKAGE_NAMES)


@pytest.fixture(params=PACKAGE_NAMES)
def package(request):
    return importlib.import_module(request.param)


def test_all_names_resolve_and_stay_sorted(package):
    for name in package.__all__:
        assert hasattr(package, name), f"{package.__name__}.__all__ lists {name}"
    assert list(package.__all__) == sorted(package.__all__)
    assert len(set(package.__all__)) == len(package.__all__)


def test_each_name_is_its_defining_modules_object(package):
    # The eager CLI package re-exports from its one module.
    origins = getattr(package, "_origins", None) or {
        name: "repro.cli.main" for name in package.__all__
    }
    for name in package.__all__:
        if name in origins:
            defining = importlib.import_module(origins[name])
            assert getattr(package, name) is getattr(defining, name), name
        assert name in dir(package), f"dir({package.__name__}) misses {name}"


def test_star_import_binds_every_name(package):
    namespace: dict[str, object] = {}
    exec(f"from {package.__name__} import *", namespace)
    for name in package.__all__:
        assert namespace[name] is getattr(package, name)


def test_an_unknown_name_is_an_attribute_error(package):
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name  # noqa: B018


def test_no_public_binding_is_missing_from_all(package):
    # Anything bound at package level without a leading underscore is either
    # exported or a submodule; a "public" helper that is neither is an
    # accidental API we would have to support forever.
    for name, value in vars(package).items():
        if name.startswith("_") or isinstance(value, types.ModuleType):
            continue
        if name == "annotations":
            continue
        assert name in package.__all__, (
            f"{package.__name__}.{name} looks public but is not in __all__"
        )


def test_cli_main_is_the_function_after_its_module_is_imported():
    # ``repro.cli.main`` is both a submodule and the exported entry point;
    # importing the submodule must not shadow the function.
    import repro.cli.main  # noqa: F401
    from repro.cli import main

    assert callable(main) and not isinstance(main, types.ModuleType)
    assert main is sys.modules["repro.cli.main"].main


def test_quick_attack_demo_meets_its_docstring():
    # The quickstart in the package docstring, in a fresh interpreter so
    # nothing this session imported can hide a missing global.
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            "import repro; print(repro.quick_attack_demo(seed=7)['choice_accuracy'])",
        ],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    assert float(completed.stdout.strip().splitlines()[-1]) >= 0.9


def test_jobs_layer_is_importable_from_the_top_level_package():
    # The exact surface the package docstring's "Import contract" promises.

    from repro import JobResult, JobRunner, Workspace, job_from_dict

    assert JobRunner is repro.jobs.JobRunner
    assert Workspace is repro.jobs.Workspace
    assert job_from_dict is repro.jobs.job_from_dict
    assert JobResult is repro.jobs.JobResult
    for name in ("JobResult", "JobRunner", "Workspace", "job_from_dict"):
        assert name in repro.__all__


def test_component_registries_are_importable_from_their_packages():
    # The component-spec layer the docstring's "Import contract" promises.
    from repro.defenses import DEFENSE_REGISTRY, build_defense, defense_spec
    from repro.ml import CLASSIFIER_REGISTRY, build_classifier, classifier_spec

    defense = build_defense("pad-to-multiple", {"block_bytes": 64})
    spec = defense_spec(defense)
    assert spec["component"] == "defense"
    assert DEFENSE_REGISTRY.names() == (
        "compress-state-reports",
        "pad-to-constant",
        "pad-to-multiple",
        "split-records",
    )
    classifier = build_classifier("knn", {"k": 7})
    assert classifier_spec(classifier)["component"] == "classifier"
    assert "knn" in CLASSIFIER_REGISTRY.names()
    assert "DEFENSE_REGISTRY" in repro.defenses.__all__
    assert "CLASSIFIER_REGISTRY" in repro.ml.__all__


def test_version_stamps_are_integers_and_documented():
    # The three version handshakes the import contract names.

    assert isinstance(repro.jobs.SCHEMA_VERSION, int)
    assert isinstance(repro.jobs.EVENT_SCHEMA_VERSION, int)
    assert isinstance(repro.coordinator.WIRE_VERSION, int)
    docstring = repro.__doc__
    assert "Import contract" in docstring
    assert "job_from_dict" in docstring
    assert "EVENT_SCHEMA_VERSION" in docstring
    assert "WIRE_VERSION" in docstring
