"""The attack-vs-defense arena: grid, report and byte-identity pins.

The arena's acceptance bar is a single invariant, pinned here four ways:
the published report is byte-identical whether the sweep runs serially,
fanned out across ``--shard-workers``, resumed after a mid-sweep kill
left torn and missing cell files, or leased cell-by-cell through a real
``repro serve --arena`` / ``repro work`` coordinator pair.
"""

from __future__ import annotations

import json
import multiprocessing
import threading

import pytest

from repro.arena import (
    ARENA_SCHEMA_VERSION,
    ArenaGrid,
    ArenaReport,
    cell_to_json,
    parse_component_entry,
    parse_condition_entry,
)
from repro.defenses.registry import DEFENSE_REGISTRY
from repro.exceptions import (
    ComponentError,
    ConfigurationError,
    EngineError,
    ReproError,
)
from repro.jobs import (
    ArenaCellJob,
    ArenaJob,
    EventBus,
    JobRunner,
    ServeJob,
    WorkJob,
    Workspace,
)

#: One small grid, shared by every byte-identity scenario.
GRID_KWARGS = dict(
    defenses=("pad-to-multiple:block_bytes=64",),
    classifiers=("interval:margin=8",),
    conditions=("linux/desktop/firefox/wired/noon",),
    train_count=1,
    test_count=1,
    seed=11,
)


def _arena_job(output: str, **overrides) -> ArenaJob:
    return ArenaJob(output=output, **{**GRID_KWARGS, **overrides})


def _run(spec) -> None:
    JobRunner(EventBus()).run(spec)


def _synthetic_cell(cell_id: str, overhead: float, accuracy: float) -> dict:
    return {
        "cell": cell_id,
        "classifier": {
            "component": "classifier",
            "name": "knn",
            "params": {"k": 7},
            "schema": 1,
        },
        "classifier_name": "knn(k=7)",
        "condition": "linux/desktop/firefox/wired/noon",
        "defense": None,
        "defense_name": "no defense",
        "metrics": {
            "choice_accuracy": accuracy,
            "record_accuracy": 1.0,
            "overhead_bytes_per_session": overhead,
            "overhead_latency_s_per_session": 0.0,
            "timing_attack_choice_accuracy": 0.5,
            "timing_question_recall": 0.5,
        },
        "schema": ARENA_SCHEMA_VERSION,
        "seed": 0,
        "sessions": {"test": 1, "train": 1},
    }


# -- grid ------------------------------------------------------------------


def test_grid_defaults_sweep_the_standard_suite():
    grid = ArenaGrid.from_axes()
    assert len(grid.defenses) == 5
    assert len(grid.classifiers) == 2
    assert grid.cell_count == (5 + 1) * 2
    assert [cell.cell_id for cell in grid.cells()[:2]] == [
        "cell-0000",
        "cell-0001",
    ]


def test_grid_leads_each_condition_with_the_undefended_baseline():
    grid = ArenaGrid.from_axes(**GRID_KWARGS)
    cells = grid.cells()
    assert cells[0].defense is None
    assert cells[1].defense["name"] == "pad-to-multiple"
    assert all(cell.classifier["name"] == "interval" for cell in cells)


def test_grid_entries_validate_through_the_registries():
    with pytest.raises(ComponentError, match="unknown defense 'nope'"):
        ArenaGrid.from_axes(defenses=("nope",))
    with pytest.raises(ComponentError, match=r"unknown param\(s\) \['kk'\]"):
        ArenaGrid.from_axes(classifiers=("knn:kk=3",))
    with pytest.raises(ComponentError, match="expected name"):
        parse_component_entry("knn:k", DEFENSE_REGISTRY)
    with pytest.raises(ConfigurationError, match="5 '/'-separated"):
        parse_condition_entry("linux/desktop")
    with pytest.raises(ConfigurationError, match="counts must be positive"):
        ArenaGrid.from_axes(train_count=0)


def test_component_entry_values_auto_type():
    spec = parse_component_entry(
        "pad-to-multiple:block_bytes=512", DEFENSE_REGISTRY
    )
    assert spec["params"] == {"block_bytes": 512}


# -- report ----------------------------------------------------------------


def test_report_frontier_keeps_only_non_dominated_cells():
    report = ArenaReport(
        [
            _synthetic_cell("cell-0000", 0.0, 0.9),
            _synthetic_cell("cell-0001", 100.0, 0.5),
            _synthetic_cell("cell-0002", 200.0, 0.5),
        ]
    )
    assert report.frontier == ("cell-0000", "cell-0001")
    rows = report.rows()
    assert [row["pareto"] for row in rows] == ["*", "*", ""]


def test_report_round_trips_through_save_and_load(tmp_path):
    report = ArenaReport(
        [
            _synthetic_cell("cell-0000", 0.0, 0.9),
            _synthetic_cell("cell-0001", 100.0, 0.5),
        ]
    )
    path = report.save(tmp_path / "report.json")
    loaded = ArenaReport.load(path)
    assert loaded.to_dict() == report.to_dict()


def test_report_refuses_an_edited_frontier(tmp_path):
    report = ArenaReport(
        [
            _synthetic_cell("cell-0000", 0.0, 0.9),
            _synthetic_cell("cell-0001", 100.0, 0.5),
        ]
    )
    path = report.save(tmp_path / "report.json")
    data = json.loads(path.read_text())
    data["frontier"] = ["cell-0001"]
    path.write_text(json.dumps(data))
    with pytest.raises(ReproError, match="edited or truncated"):
        ArenaReport.load(path)


def test_report_refuses_unknown_schema_and_empty_cells(tmp_path):
    cell = _synthetic_cell("cell-0000", 0.0, 0.9)
    cell["schema"] = 99
    with pytest.raises(ReproError, match="schema version 99"):
        ArenaReport([cell])
    with pytest.raises(ReproError, match="at least one cell"):
        ArenaReport([])


# -- byte-identity across execution modes ----------------------------------


@pytest.fixture(scope="module")
def serial_run(tmp_path_factory):
    output = tmp_path_factory.mktemp("arena") / "serial"
    _run(_arena_job(str(output)))
    return output


def test_serial_run_publishes_cells_and_report(serial_run):
    report = ArenaReport.load(serial_run / "report.json")
    assert len(report.cells) == 2
    for cell in report.cells:
        recorded = (serial_run / "cells" / f"{cell['cell']}.json").read_text()
        assert recorded == cell_to_json(cell)


def test_shard_workers_run_is_byte_identical(serial_run, tmp_path):
    output = tmp_path / "sharded"
    _run(_arena_job(str(output), shard_workers=2))
    assert (output / "report.json").read_bytes() == (
        serial_run / "report.json"
    ).read_bytes()
    for name in ("cell-0000.json", "cell-0001.json"):
        assert (output / "cells" / name).read_bytes() == (
            serial_run / "cells" / name
        ).read_bytes()


@pytest.mark.parametrize("shard_workers", [None, 2])
def test_a_failing_cell_raises_an_engine_error_naming_it(
    tmp_path, monkeypatch, shard_workers
):
    if shard_workers is not None and multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched scorer reaches workers only through fork")
    import repro.arena.cell

    run_cell = repro.arena.cell.run_cell

    def failing_run_cell(**kwargs):
        if kwargs["cell_id"] == "cell-0001":
            raise RuntimeError("scorer exploded")
        return run_cell(**kwargs)

    monkeypatch.setattr(repro.arena.cell, "run_cell", failing_run_cell)
    output = tmp_path / "failing"
    with pytest.raises(EngineError, match="arena cell cell-0001.*scorer exploded"):
        _run(_arena_job(str(output), shard_workers=shard_workers))
    assert (output / "cells" / "cell-0000.json").exists()
    assert not (output / "cells" / "cell-0001.json").exists()
    assert not (output / "report.json").exists()


def test_resume_after_torn_and_missing_cells_is_byte_identical(
    serial_run, tmp_path
):
    import shutil

    output = tmp_path / "resumed"
    shutil.copytree(serial_run, output)
    # Simulate a mid-sweep SIGKILL: one cell file torn mid-write, one gone,
    # and the report never written.
    torn = output / "cells" / "cell-0000.json"
    torn.write_text(torn.read_text()[: len(torn.read_text()) // 2])
    (output / "cells" / "cell-0001.json").unlink()
    (output / "report.json").unlink()
    _run(_arena_job(str(output), resume=True))
    assert (output / "report.json").read_bytes() == (
        serial_run / "report.json"
    ).read_bytes()
    for name in ("cell-0000.json", "cell-0001.json"):
        assert (output / "cells" / name).read_bytes() == (
            serial_run / "cells" / name
        ).read_bytes()


def test_resume_rescores_cells_from_a_different_grid(serial_run, tmp_path):
    import shutil

    output = tmp_path / "stale"
    shutil.copytree(serial_run, output)
    # A different seed is a different sweep: resume must not reuse these.
    _run(_arena_job(str(output), resume=True, seed=12))
    fresh = json.loads((output / "cells" / "cell-0000.json").read_text())
    assert fresh["seed"] == 12


def test_leased_through_coordinator_is_byte_identical(serial_run, tmp_path):
    from repro.coordinator.plan import ArenaPlan
    from repro.coordinator.service import Coordinator

    plan = ArenaPlan(
        defenses=GRID_KWARGS["defenses"],
        classifiers=GRID_KWARGS["classifiers"],
        conditions=GRID_KWARGS["conditions"],
        train_count=GRID_KWARGS["train_count"],
        test_count=GRID_KWARGS["test_count"],
        seed=GRID_KWARGS["seed"],
    )
    root = tmp_path / "fleet"
    report_path = tmp_path / "fleet-report.json"
    coordinator = Coordinator(
        plan, EventBus(), root=root, library=report_path, linger=0.0
    )
    host, port = coordinator.start()
    worker = threading.Thread(
        target=lambda: JobRunner(EventBus()).run(
            WorkJob(url=f"http://{host}:{port}", worker_id="w1", poll_interval=0.05)
        )
    )
    worker.start()
    summary = coordinator.serve_until_complete()
    worker.join()
    assert summary["cells"] == 2
    assert report_path.read_bytes() == (serial_run / "report.json").read_bytes()
    for name in ("cell-0000.json", "cell-0001.json"):
        assert (root / "cells" / name).read_bytes() == (
            serial_run / "cells" / name
        ).read_bytes()


def test_arena_cell_job_writes_the_canonical_bytes(serial_run, tmp_path):
    grid = ArenaGrid.from_axes(**GRID_KWARGS)
    cell = grid.cells()[1]
    runner = JobRunner(EventBus(), workspace=Workspace(tmp_path))
    runner.run(
        ArenaCellJob(
            output="cell.json",
            cell=cell.cell_id,
            condition=cell.condition,
            defense=cell.defense,
            classifier=cell.classifier,
            train_count=grid.train_count,
            test_count=grid.test_count,
            seed=grid.seed,
        )
    )
    assert (tmp_path / "cell.json").read_bytes() == (
        serial_run / "cells" / "cell-0001.json"
    ).read_bytes()


# -- spec validation -------------------------------------------------------


def test_arena_job_validates_its_flags():
    with pytest.raises(ReproError, match="needs --output"):
        ArenaJob().validate()
    with pytest.raises(ReproError, match="at least 1"):
        ArenaJob(output="out", train_count=0).validate()
    with pytest.raises(ReproError, match="--shard-workers"):
        ArenaJob(output="out", shard_workers=0).validate()


def test_arena_cell_job_validates_its_fields():
    with pytest.raises(ReproError, match="cell id"):
        ArenaCellJob(output="cell.json").validate()
    with pytest.raises(ReproError, match="condition"):
        ArenaCellJob(output="cell.json", cell="cell-0000").validate()
    with pytest.raises(ReproError, match="classifier"):
        ArenaCellJob(
            output="cell.json", cell="cell-0000", condition="a/b/c/d/e"
        ).validate()


def test_serve_job_requires_arena_for_sweep_flags():
    with pytest.raises(ReproError, match="combine them with --arena"):
        ServeJob(
            output="root", library="report.json", defenses=("knn:k=3",)
        ).validate()
    ServeJob(output="root", library="report.json", arena=True).validate()
