"""Typed, serializable job specifications.

Every workload the reproduction supports — generate, train, stitch,
merge-fingerprints, attack, watch, reproduce, inspect, arena, arena-cell,
serve, work — is described by a frozen dataclass here.  A spec is *what a
run is*, independent of how it is invoked or narrated: argv and the wire
both build specs through ``from_dict`` (each sub-command's argparse dests
are its spec's field names, and a flag left unset falls back to the field's
default here), tests build them directly, and the fleet coordinator leases
them to workers, because every spec round-trips through
``to_dict()``/``from_dict()`` (sorted keys, schema-versioned) without loss.

Serialization rules:

* ``to_dict`` emits ``{"job": <kind>, "schema": <version>, ...fields}``
  with keys sorted and tuples lowered to lists — identical specs always
  serialise to identical JSON bytes;
* ``from_dict`` (and the :func:`job_from_dict` dispatcher) validates the
  schema version and the field set loudly: an unknown version or an
  unknown/missing field names itself in the error instead of silently
  producing a half-built spec.

Validation of *flag combinations* (e.g. ``--resume`` without ``--shards``)
lives in each spec's ``validate()``, which the runner calls before doing
any work; the error messages are exactly the historical CLI ones, so the
refactor changed no user-visible behaviour.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, ClassVar, Mapping

from repro.exceptions import JobError, ReproError
from repro.ingest.fleet import DEFAULT_QUEUE_HIGH, validate_watermarks
from repro.net.endpoints import DEFAULT_CLIENT_IP

#: Default version stamped into serialised specs.  A spec class whose field
#: set has evolved past the fleet-wide default carries its own ``SCHEMA``
#: (and the older versions it still accepts in ``ACCEPTS_SCHEMAS``, with
#: ``from_dict`` migrating old payloads by filling the new fields' defaults);
#: ``job_from_dict`` refuses anything else by name.
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class JobSpec:
    """Base class for all job specifications."""

    KIND: ClassVar[str] = ""
    #: The schema version this class serialises as.
    SCHEMA: ClassVar[int] = SCHEMA_VERSION
    #: Every schema version ``from_dict`` can migrate from.  Older versions
    #: simply lack the newer fields — the dataclass defaults are the
    #: migration — so accepting one is a statement that those defaults
    #: reproduce the old behaviour exactly.
    ACCEPTS_SCHEMAS: ClassVar[tuple[int, ...]] = (SCHEMA_VERSION,)

    def validate(self) -> None:
        """Raise :class:`ReproError` on an inconsistent spec; default: ok."""

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly form: kind + schema version + fields, sorted keys."""
        data: dict[str, Any] = {"job": self.KIND, "schema": type(self).SCHEMA}
        for spec_field in dataclasses.fields(self):
            value = getattr(self, spec_field.name)
            if isinstance(value, tuple):
                value = list(value)
            data[spec_field.name] = value
        return dict(sorted(data.items()))

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        """Inverse of :meth:`to_dict`; validates version and field set."""
        if not isinstance(data, Mapping):
            raise JobError(
                f"a job spec must be a JSON object, got {type(data).__name__}"
            )
        kind = data.get("job")
        if kind != cls.KIND:
            raise JobError(
                f"cannot build a {cls.KIND!r} job from a spec of kind {kind!r}"
            )
        version = data.get("schema")
        if version not in cls.ACCEPTS_SCHEMAS:
            accepted = (
                ""
                if len(cls.ACCEPTS_SCHEMAS) == 1
                else f" and accepts {sorted(cls.ACCEPTS_SCHEMAS)}"
            )
            raise JobError(
                f"unsupported job spec schema version {version!r} "
                f"(this build speaks schema version {cls.SCHEMA}{accepted})"
            )
        field_names = {spec_field.name for spec_field in dataclasses.fields(cls)}
        unknown = sorted(set(data) - field_names - {"job", "schema"})
        if unknown:
            raise JobError(
                f"{cls.KIND} job spec has unknown field(s) {unknown} "
                f"(schema version {cls.SCHEMA} fields: "
                f"{sorted(field_names)})"
            )
        kwargs = {
            name: tuple(data[name]) if isinstance(data[name], list) else data[name]
            for name in field_names
            if name in data
        }
        try:
            return cls(**kwargs)
        except TypeError as error:
            raise JobError(f"incomplete {cls.KIND} job spec: {error}") from error


@dataclass(frozen=True)
class GenerateJob(JobSpec):
    """``repro generate-dataset``: build and persist a synthetic dataset."""

    KIND: ClassVar[str] = "generate"

    output: str = ""
    viewers: int = 20
    seed: int = 0
    write_pcaps: bool = True
    cross_traffic: bool = True
    shards: int | None = None
    resume: bool = False
    shard_workers: int | None = None
    only_shards: str | None = None
    workers: int | None = None

    def validate(self) -> None:
        if self.resume and self.shards is None:
            raise ReproError("--resume requires --shards (only sharded runs checkpoint)")
        if self.shard_workers is not None and self.shards is None:
            raise ReproError(
                "--shard-workers requires --shards (only sharded runs fan whole "
                "shards out)"
            )
        if self.only_shards is not None and self.shards is None:
            raise ReproError(
                "--only-shards requires --shards (the selection names shards of "
                "the full plan)"
            )


@dataclass(frozen=True)
class TrainJob(JobSpec):
    """``repro train``: learn fingerprints from a saved dataset."""

    KIND: ClassVar[str] = "train"

    dataset: str = ""
    output: str = ""
    train_fraction: float | None = None
    sharded: bool = False
    margin: int = 8
    save_state: str | None = None
    workers: int | None = None

    def validate(self) -> None:
        if self.sharded and self.train_fraction is not None:
            raise ReproError(
                "--train-fraction applies to single-directory training only; "
                "--sharded uses the whole sharded dataset as calibration data"
            )
        if self.save_state and not self.sharded:
            raise ReproError(
                "--save-state requires --sharded (accumulator state is the "
                "incremental training path's running calibration)"
            )
        if not self.sharded and not 0.0 < self.training_fraction < 1.0:
            raise ReproError(
                f"--train-fraction must be in (0, 1), got {self.training_fraction}"
            )

    @property
    def training_fraction(self) -> float:
        """``train_fraction``, or half the viewers when it is unset."""
        return 0.5 if self.train_fraction is None else self.train_fraction


@dataclass(frozen=True)
class StitchJob(JobSpec):
    """``repro stitch``: verify rsync'd shards and publish the manifest."""

    KIND: ClassVar[str] = "stitch"

    root: str = ""


@dataclass(frozen=True)
class MergeFingerprintsJob(JobSpec):
    """``repro merge-fingerprints``: fold per-machine calibration states."""

    KIND: ClassVar[str] = "merge-fingerprints"

    states: tuple[str, ...] = ()
    output: str = ""
    margin: int = 8
    save_state: str | None = None

    def validate(self) -> None:
        if not self.states:
            raise ReproError(
                "merge-fingerprints needs at least one accumulator state file"
            )


@dataclass(frozen=True)
class AttackJob(JobSpec):
    """``repro attack``: recover choices from a pcap or directory of pcaps."""

    KIND: ClassVar[str] = "attack"

    target: str = ""
    library: str = ""
    environment: str | None = None
    client_ip: str | None = None
    server_ip: str | None = None
    results_log: str | None = None
    workers: int | None = None


@dataclass(frozen=True)
class WatchJob(JobSpec):
    """``repro watch``: attack captures as they land in drop directories.

    Both shapes run the same watch loop.  The positional ``directory`` is a
    fleet of one unlabelled source: its verdicts carry no source and its
    log defaults into the directory (schema-1 payloads, which lack every
    fleet field, migrate by default-fill).  ``sources`` names labelled
    directories and unlocks the multi-source flags: recursive watching,
    hot library reload and the ``/metrics`` endpoint.  The queue
    watermarks apply to both.
    """

    KIND: ClassVar[str] = "watch"
    SCHEMA: ClassVar[int] = 2
    ACCEPTS_SCHEMAS: ClassVar[tuple[int, ...]] = (1, 2)

    directory: str = ""
    library: str = ""
    follow: bool = True
    results_log: str | None = None
    poll_interval: float = 0.5
    environment: str | None = None
    client_ip: str | None = None
    server_ip: str | None = None
    workers: int | None = None
    sources: tuple[str, ...] = ()
    recursive: bool = False
    queue_high: int = DEFAULT_QUEUE_HIGH
    queue_low: int | None = None
    reload_library: str | None = None
    metrics_port: int | None = None

    def validate(self) -> None:
        if self.directory and self.sources:
            raise ReproError(
                "give either a positional drop directory or --source "
                "directories, not both"
            )
        if not self.directory and not self.sources:
            raise ReproError(
                "watch needs a drop directory: positional for the "
                "single-source mode, or --source (repeatable) for a fleet"
            )
        if not self.sources:
            for flag, engaged in (
                ("--recursive", self.recursive),
                ("--reload-library", self.reload_library is not None),
                ("--metrics-port", self.metrics_port is not None),
            ):
                if engaged:
                    raise ReproError(
                        f"{flag} is a fleet-mode flag; it requires --source"
                    )
        elif self.results_log is None:
            raise ReproError(
                "fleet mode needs --results-log: the sources share one "
                "results log, and with several drop directories there is "
                "no single place to default it into"
            )
        validate_watermarks(self.queue_high, self.low_watermark)
        if self.metrics_port is not None and not 0 <= self.metrics_port <= 65535:
            raise ReproError(
                f"--metrics-port must be a TCP port (0-65535), got "
                f"{self.metrics_port}"
            )

    @property
    def low_watermark(self) -> int:
        """``queue_low``, or half of ``queue_high`` when it is unset."""
        return self.queue_low if self.queue_low is not None else self.queue_high // 2


@dataclass(frozen=True)
class ReproduceJob(JobSpec):
    """``repro reproduce``: run the paper-reproduction experiments."""

    KIND: ClassVar[str] = "reproduce"

    experiment: str = "all"
    quick: bool = False
    dataset: str | None = None
    workers: int | None = None

    def validate(self) -> None:
        if self.dataset is not None and self.experiment not in ("all", "headline"):
            raise ReproError(
                "--dataset drives the headline experiment; combine it with "
                "--experiment headline (or all)"
            )


@dataclass(frozen=True)
class ArenaJob(JobSpec):
    """``repro arena``: sweep defense × classifier × condition cells.

    The sweep axes are declarative component-spec entries
    (``name[:key=value,...]``, see :mod:`repro.arena.grid`): every defense
    and classifier in the grid is constructed exclusively through the
    component registries, so a typo fails at validation naming the bad
    entry.  Cells are scored independently (optionally fanned out across
    ``--shard-workers`` processes), each written atomically to
    ``<output>/cells/<cell>.json``; ``--resume`` reuses cells whose files
    match the current grid.  The published report is byte-identical no
    matter how the cells were executed.
    """

    KIND: ClassVar[str] = "arena"

    output: str = ""
    report: str = ""
    defenses: tuple[str, ...] = ()
    classifiers: tuple[str, ...] = ()
    conditions: tuple[str, ...] = ()
    train_count: int = 2
    test_count: int = 2
    seed: int = 0
    shard_workers: int | None = None
    resume: bool = False

    def validate(self) -> None:
        if not self.output:
            raise ReproError(
                "arena needs --output (the directory cell results land in)"
            )
        if self.train_count < 1 or self.test_count < 1:
            raise ReproError(
                "--train-count and --test-count must be at least 1 "
                f"(got train={self.train_count}, test={self.test_count})"
            )
        if self.shard_workers is not None and self.shard_workers < 1:
            raise ReproError("--shard-workers must be at least 1")


@dataclass(frozen=True)
class ArenaCellJob(JobSpec):
    """One arena cell as a leasable unit of work.

    This is what the coordinator hands ``repro work`` pull loops: the
    defense and classifier travel as canonical component specs (already
    validated by the grid), the worker rebuilds them through the
    registries, scores the cell, and uploads the canonical JSON bytes.
    """

    KIND: ClassVar[str] = "arena-cell"

    output: str = ""
    cell: str = ""
    condition: str = ""
    defense: dict | None = None
    classifier: dict | None = None
    train_count: int = 2
    test_count: int = 2
    seed: int = 0

    def validate(self) -> None:
        if not self.cell:
            raise ReproError("an arena cell spec needs its cell id")
        if not self.condition:
            raise ReproError("an arena cell spec needs its condition key")
        if self.classifier is None:
            raise ReproError(
                "an arena cell spec needs a classifier component spec"
            )


@dataclass(frozen=True)
class ServeJob(JobSpec):
    """``repro serve``: coordinate a sharded plan across pull workers.

    The coordinator owns the plan (viewers, shards, seed, margin), leases
    one shard-sized work unit at a time to ``repro work`` pull loops over
    the versioned jobs wire API, collects their fingerprint-verified
    uploads, and — once every unit is complete — folds the accumulator
    states as ``merge-fingerprints`` does and atomically publishes the
    stitched manifest plus the merged library, byte-identical to a
    single-machine ``generate-dataset --shards`` + ``train --sharded`` run.
    """

    KIND: ClassVar[str] = "serve"

    output: str = ""
    library: str = ""
    viewers: int = 20
    shards: int = 2
    seed: int = 0
    margin: int = 8
    cross_traffic: bool = True
    write_pcaps: bool = True
    host: str = "127.0.0.1"
    port: int = 0
    lease_ttl: float = 60.0
    arena: bool = False
    defenses: tuple[str, ...] = ()
    classifiers: tuple[str, ...] = ()
    conditions: tuple[str, ...] = ()
    train_count: int = 2
    test_count: int = 2

    def validate(self) -> None:
        if self.arena:
            if self.train_count < 1 or self.test_count < 1:
                raise ReproError(
                    "--train-count and --test-count must be at least 1 "
                    f"(got train={self.train_count}, test={self.test_count})"
                )
            if self.lease_ttl <= 0:
                raise ReproError(
                    "--lease-ttl must be positive (seconds before a silent "
                    "worker's unit is reassigned)"
                )
            return
        if self.defenses or self.classifiers or self.conditions:
            raise ReproError(
                "--defenses/--classifiers/--conditions describe an arena "
                "sweep; combine them with --arena"
            )
        if self.shards < 1:
            raise ReproError(
                "--shards must be at least 1 (the plan leases whole shards)"
            )
        if self.viewers < 1:
            raise ReproError("--viewers must be at least 1")
        if self.lease_ttl <= 0:
            raise ReproError(
                "--lease-ttl must be positive (seconds before a silent "
                "worker's unit is reassigned)"
            )


@dataclass(frozen=True)
class WorkJob(JobSpec):
    """``repro work``: pull, execute and upload leased units until done."""

    KIND: ClassVar[str] = "work"

    url: str = ""
    worker_id: str | None = None
    scratch: str | None = None
    poll_interval: float = 0.5
    max_units: int | None = None

    def validate(self) -> None:
        if self.poll_interval <= 0:
            raise ReproError("--poll-interval must be positive")
        if self.max_units is not None and self.max_units < 1:
            raise ReproError("--max-units must be at least 1")


@dataclass(frozen=True)
class InspectJob(JobSpec):
    """``repro inspect``: summarise a capture file."""

    KIND: ClassVar[str] = "inspect"

    pcap: str = ""
    client_ip: str = DEFAULT_CLIENT_IP


#: Every leasable spec class, keyed by its wire kind.
SPEC_CLASSES: tuple[type[JobSpec], ...] = (
    GenerateJob,
    TrainJob,
    StitchJob,
    MergeFingerprintsJob,
    AttackJob,
    WatchJob,
    ReproduceJob,
    InspectJob,
    ArenaJob,
    ArenaCellJob,
    ServeJob,
    WorkJob,
)
_SPECS_BY_KIND: dict[str, type[JobSpec]] = {
    spec_class.KIND: spec_class for spec_class in SPEC_CLASSES
}


def job_from_dict(data: Mapping[str, Any]) -> JobSpec:
    """Rebuild any job spec from its ``to_dict`` form (the wire format).

    Dispatches on kind first and lets the spec class judge the schema
    version — each class knows which versions it can migrate from (e.g.
    ``WatchJob`` accepts its pre-fleet schema-1 payloads).
    """
    if not isinstance(data, Mapping):
        raise JobError(
            f"a job spec must be a JSON object, got {type(data).__name__}"
        )
    kind = data.get("job")
    spec_class = _SPECS_BY_KIND.get(str(kind))
    if spec_class is None:
        raise JobError(
            f"unknown job kind {kind!r}; known kinds: {sorted(_SPECS_BY_KIND)}"
        )
    return spec_class.from_dict(data)
