"""The fleet plan: one sharded generate+train run, cut into leasable units.

A :class:`FleetPlan` is the *logical* plan the coordinator owns — viewers,
shard count, seed, band margin, session toggles — with none of the
coordinator's local paths in it, so the same plan dict can be shown on the
wire (``GET /v1/plan``) without leaking filesystem layout.  Each shard of
the plan becomes one work unit: a pair of ordinary :mod:`repro.jobs` specs
(``generate-dataset --only-shards i`` then ``train --sharded
--save-state``) whose paths are *workspace-relative*, so a worker runs
them against its own scratch :class:`~repro.jobs.artifacts.Workspace`
untouched — the specs are byte-for-byte what a human would have built for
the manual ``--only-shards`` + rsync flow PR 4 shipped.

Because session bytes derive from ``(dataset seed, viewer id)`` alone and
accumulator states merge associatively, the shard directories and state
blobs a fleet uploads stitch and fold into exactly the artifacts one
machine running the whole plan would produce.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Mapping

from repro.dataset.shards import shard_dirname
from repro.exceptions import CoordinatorError
from repro.jobs.specs import ArenaCellJob, GenerateJob, TrainJob

#: Workspace-relative paths every leased unit writes into.
UNIT_DATASET_DIR = "dataset"
UNIT_STATE_FILE = "state.json"
UNIT_LIBRARY_FILE = "library.json"
UNIT_CELL_FILE = "cell.json"

#: Upload kinds (mirroring the artifact kinds of :mod:`repro.jobs.artifacts`).
UPLOAD_DIRECTORY = "directory"
UPLOAD_FILE = "file"


@dataclass(frozen=True)
class FleetPlan:
    """What the fleet is building, independent of where it is built."""

    viewers: int = 20
    shards: int = 2
    seed: int = 0
    margin: int = 8
    cross_traffic: bool = True
    write_pcaps: bool = True

    def validate(self) -> None:
        if self.shards < 1:
            raise CoordinatorError(
                "a fleet plan needs at least one shard", field="shards"
            )
        if self.viewers < 1:
            raise CoordinatorError(
                "a fleet plan needs at least one viewer", field="viewers"
            )

    def to_dict(self) -> dict[str, Any]:
        return dict(
            sorted(
                (field.name, getattr(self, field.name)) for field in fields(self)
            )
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FleetPlan":
        field_names = {field.name for field in fields(cls)}
        unknown = sorted(set(data) - field_names)
        if unknown:
            raise CoordinatorError(
                f"fleet plan has unknown field(s) {unknown} "
                f"(known fields: {sorted(field_names)})",
                field=unknown[0],
            )
        missing = sorted(field_names - set(data))
        if missing:
            raise CoordinatorError(
                f"fleet plan is missing field(s) {missing}", field=missing[0]
            )
        return cls(**{name: data[name] for name in field_names})

    # -- work units --------------------------------------------------------

    def unit_ids(self) -> tuple[str, ...]:
        """One unit per shard, named after the shard directory it produces."""
        return tuple(shard_dirname(index) for index in range(self.shards))

    def unit_jobs(self, shard: int) -> tuple[GenerateJob, TrainJob]:
        """The spec pair a worker runs for one shard, in order.

        Generation writes only this shard of the full plan (so the bytes
        match the corresponding shard of a whole-plan run exactly), and
        training folds the freshly written subset root into an accumulator
        state — the blob the coordinator folds at publication.
        """
        self._require_shard(shard)
        return (
            GenerateJob(
                output=UNIT_DATASET_DIR,
                viewers=self.viewers,
                seed=self.seed,
                write_pcaps=self.write_pcaps,
                cross_traffic=self.cross_traffic,
                shards=self.shards,
                only_shards=str(shard),
            ),
            TrainJob(
                dataset=UNIT_DATASET_DIR,
                output=UNIT_LIBRARY_FILE,
                sharded=True,
                margin=self.margin,
                save_state=UNIT_STATE_FILE,
            ),
        )

    def unit_uploads(self, shard: int) -> tuple[dict[str, str], ...]:
        """What the worker must upload for one shard, by name/path/kind.

        The shard directory (pcaps, metadata, sidecar) and the accumulator
        state blob; the per-unit ``library.json`` is a worker-local
        by-product the coordinator never collects (the published library
        comes from the merged states).
        """
        self._require_shard(shard)
        return (
            {
                "name": "shard",
                "path": f"{UNIT_DATASET_DIR}/{shard_dirname(shard)}",
                "kind": UPLOAD_DIRECTORY,
            },
            {
                "name": "state",
                "path": UNIT_STATE_FILE,
                "kind": UPLOAD_FILE,
            },
        )

    def _require_shard(self, shard: int) -> None:
        if not 0 <= shard < self.shards:
            raise CoordinatorError(
                f"shard {shard} is outside the plan's 0..{self.shards - 1}",
                field="shard",
            )


@dataclass(frozen=True)
class ArenaPlan:
    """An arena sweep cut into leasable one-cell units.

    The axes travel as the sweep grammar strings (``name[:key=value,...]``)
    the user wrote, so the plan dict on the wire stays declarative; each
    unit's :class:`~repro.jobs.specs.ArenaCellJob` carries the *canonical*
    component specs the grid validated, and the worker rebuilds both
    components through the registries.  Because a cell is a pure function
    of its spec, the cell files a fleet uploads are byte-identical to the
    ones a local ``repro arena`` writes, and so is the published report.
    """

    defenses: tuple[str, ...] = ()
    classifiers: tuple[str, ...] = ()
    conditions: tuple[str, ...] = ()
    train_count: int = 2
    test_count: int = 2
    seed: int = 0

    def validate(self) -> None:
        # Grid construction is the validation: every axis entry round-trips
        # through the component registries, and bad entries/counts raise
        # naming themselves.
        self._grid()

    def _grid(self):
        from repro.arena.grid import ArenaGrid

        return ArenaGrid.from_axes(
            defenses=self.defenses,
            classifiers=self.classifiers,
            conditions=self.conditions,
            train_count=self.train_count,
            test_count=self.test_count,
            seed=self.seed,
        )

    def to_dict(self) -> dict[str, Any]:
        data = {}
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, tuple):
                value = list(value)
            data[field.name] = value
        return dict(sorted(data.items()))

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ArenaPlan":
        field_names = {field.name for field in fields(cls)}
        unknown = sorted(set(data) - field_names)
        if unknown:
            raise CoordinatorError(
                f"arena plan has unknown field(s) {unknown} "
                f"(known fields: {sorted(field_names)})",
                field=unknown[0],
            )
        missing = sorted(field_names - set(data))
        if missing:
            raise CoordinatorError(
                f"arena plan is missing field(s) {missing}", field=missing[0]
            )
        return cls(
            **{
                name: tuple(data[name])
                if isinstance(data[name], list)
                else data[name]
                for name in field_names
            }
        )

    # -- work units --------------------------------------------------------

    def unit_ids(self) -> tuple[str, ...]:
        """One unit per grid cell, named after the cell id."""
        return tuple(cell.cell_id for cell in self._grid().cells())

    def unit_jobs(self, index: int) -> tuple[ArenaCellJob]:
        """The single-cell spec a worker runs for one unit."""
        cell = self._require_cell(index)
        grid = self._grid()
        return (
            ArenaCellJob(
                output=UNIT_CELL_FILE,
                cell=cell.cell_id,
                condition=cell.condition,
                defense=cell.defense,
                classifier=cell.classifier,
                train_count=grid.train_count,
                test_count=grid.test_count,
                seed=grid.seed,
            ),
        )

    def unit_uploads(self, index: int) -> tuple[dict[str, str], ...]:
        """One file upload per unit: the cell's canonical JSON bytes."""
        self._require_cell(index)
        return (
            {"name": "cell", "path": UNIT_CELL_FILE, "kind": UPLOAD_FILE},
        )

    def _require_cell(self, index: int):
        cells = self._grid().cells()
        if not 0 <= index < len(cells):
            raise CoordinatorError(
                f"cell index {index} is outside the plan's "
                f"0..{len(cells) - 1}",
                field="shard",
            )
        return cells[index]
