"""Sharded dataset generation: million-viewer populations in bounded memory.

The paper evaluates over a 100-viewer dataset that fits comfortably in
memory; the roadmap's target populations do not.  This module splits a
population into deterministic contiguous **shards**, streams each shard to
disk as an independent dataset directory (``shard-000/metadata.json`` plus
its ``traces/``, exactly the standalone layout :mod:`repro.dataset.format`
describes), and merges the per-shard summaries into one population summary.

Shard membership is a pure function of ``(viewer_count, shard_count)`` and
never touches a session's bytes: every session seed derives from the dataset
seed and the viewer id alone (:func:`repro.utils.rng.derive_seed` in
:func:`repro.dataset.collection.collection_plan`), so regenerating the same
population with a different shard count — or no sharding at all — produces
byte-identical per-viewer pcaps.  That equivalence is asserted by the shard
tests and the ``bench_shard_scaling`` benchmark.

Peak memory during generation is O(shard), not O(population): each shard is
generated through :func:`repro.dataset.collection.iter_collect_dataset` and
persisted point by point, and only the merged summary statistics survive the
shard's lifetime.

Generation is **resumable**: because every shard is finalised atomically
(:class:`repro.dataset.format.DatasetWriter` keeps an ``.inprogress`` marker
until the metadata index is renamed into place), a crashed run leaves each
shard either complete or detectably partial.  ``resume=True`` skips complete
shards (their summaries are recomputed from the metadata index alone — no
pcap is re-read), quarantines partial ones aside, and regenerates only what
is missing; the resumed output is byte-identical to an uninterrupted run
because every session's bytes derive from ``(dataset seed, viewer id)``
alone.

Generation is also **parallel and distributable**.  ``shard_workers`` fans
whole shards out over a process pool (multiplying the per-session ``workers``
fan-out inside each shard), with output byte-identical to the serial path
because shards are independent directories and every session's bytes derive
from the dataset seed and the viewer id alone.  ``only_shards``
(:func:`generate_shard_subset`) emits just a selection of shard directories
so several machines can split one run between them; the rsync'd-together
shards are then verified and re-published as one dataset by
:func:`stitch_sharded_dataset` — the same validation machinery resume uses,
without regenerating anything.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

from repro.client.profiles import OperationalCondition
from repro.dataset.collection import default_study_script, iter_collect_dataset
from repro.dataset.format import (
    DatasetWriter,
    METADATA_FILENAME,
    dataset_is_complete,
    dataset_is_partial,
    load_dataset_metadata,
    session_config_from_metadata,
)
from repro.engine.executor import BatchExecutor, ProgressCallback, resolve_workers
from repro.dataset.iitm import DatasetSummary, SummaryAccumulator
from repro.dataset.loader import LoadedDataPoint, iter_released_points
from repro.dataset.population import (
    Viewer,
    generate_population,
    viewers_from_metadata_entries,
)
from repro.exceptions import DatasetError
from repro.narrative.graph import StoryGraph
from repro.streaming.session import SessionConfig, SessionResult
from repro.utils.atomic import write_atomic

SHARDS_MANIFEST_FILENAME = "shards.json"
SHARDS_FORMAT_VERSION = 1

#: Shard states reported to ``generate_sharded_dataset``'s status callback.
SHARD_GENERATED = "generated"
SHARD_SKIPPED = "skipped"
SHARD_QUARANTINED = "quarantined"
#: Shard state reported by :func:`stitch_sharded_dataset` per verified shard.
SHARD_VERIFIED = "verified"


def shard_dirname(index: int) -> str:
    """Canonical directory name of shard ``index`` (``shard-000`` style)."""
    if index < 0:
        raise DatasetError(f"shard index must be non-negative, got {index}")
    return f"shard-{index:03d}"


@dataclass(frozen=True)
class ShardSlice:
    """One shard's slice of the population: viewers ``[start, stop)``."""

    index: int
    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise DatasetError(f"shard index must be non-negative, got {self.index}")
        if not 0 <= self.start < self.stop:
            raise DatasetError(f"invalid shard slice [{self.start}, {self.stop})")

    @property
    def viewer_count(self) -> int:
        """Number of viewers in the shard."""
        return self.stop - self.start

    @property
    def dirname(self) -> str:
        """The shard's on-disk directory name."""
        return shard_dirname(self.index)


def plan_shards(viewer_count: int, shard_count: int) -> list[ShardSlice]:
    """Split a population into balanced, contiguous, deterministic shards.

    Shard sizes differ by at most one viewer.  Membership depends only on
    ``(viewer_count, shard_count)``; session seeds derive from viewer ids,
    so the split has no effect on any session's bytes.
    """
    if viewer_count <= 0:
        raise DatasetError(f"population size must be positive, got {viewer_count}")
    if shard_count <= 0:
        raise DatasetError(f"shard count must be positive, got {shard_count}")
    if shard_count > viewer_count:
        raise DatasetError(
            f"cannot split {viewer_count} viewers into {shard_count} shards"
        )
    size, remainder = divmod(viewer_count, shard_count)
    slices: list[ShardSlice] = []
    start = 0
    for index in range(shard_count):
        stop = start + size + (1 if index < remainder else 0)
        slices.append(ShardSlice(index=index, start=start, stop=stop))
        start = stop
    return slices


def parse_shard_selection(selection: str, shard_count: int) -> tuple[int, ...]:
    """Parse a shard-subset spec like ``"0,3-5"`` into sorted unique indices.

    The grammar is comma-separated items, each either a single index or an
    inclusive ``low-high`` range; whitespace around items is ignored and
    overlapping items collapse (``"1-3,2-4"`` selects 1..4 once each).  An
    empty selection, a malformed item, a reversed range or an index outside
    ``[0, shard_count)`` raises a :class:`DatasetError` naming the offending
    item — a machine silently generating no shards (or the wrong ones) would
    poison the later stitch.
    """
    if shard_count <= 0:
        raise DatasetError(f"shard count must be positive, got {shard_count}")
    indices: set[int] = set()
    for item in selection.split(","):
        item = item.strip()
        if not item:
            continue
        match = re.fullmatch(r"(\d+)(?:-(\d+))?", item)
        if match is None:
            raise DatasetError(
                f"malformed shard selection item {item!r} (expected an index "
                "like '2' or an inclusive range like '3-5')"
            )
        low = int(match.group(1))
        high = int(match.group(2)) if match.group(2) is not None else low
        if high < low:
            raise DatasetError(
                f"shard selection range {item!r} is reversed ({low} > {high})"
            )
        if high >= shard_count:
            raise DatasetError(
                f"shard selection {item!r} is out of range for "
                f"{shard_count} shards (valid indices: 0-{shard_count - 1})"
            )
        indices.update(range(low, high + 1))
    if not indices:
        raise DatasetError(
            f"shard selection {selection!r} selects no shards; name at least "
            "one index (e.g. '0' or '0,3-5')"
        )
    return tuple(sorted(indices))


@dataclass(frozen=True)
class ShardSummary:
    """One shard's aggregate statistics, as stored in the shards manifest."""

    index: int
    directory: str
    viewer_count: int
    total_choices: int
    non_default_choices: int
    total_packets: int
    condition_keys: tuple[str, ...]

    def to_dataset_summary(self) -> DatasetSummary:
        """This shard viewed as a standalone dataset summary."""
        return DatasetSummary(
            viewer_count=self.viewer_count,
            total_choices=self.total_choices,
            non_default_choices=self.non_default_choices,
            distinct_conditions=len(self.condition_keys),
            total_packets=self.total_packets,
        )

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly form for the shards manifest."""
        return {
            "index": self.index,
            "directory": self.directory,
            "viewer_count": self.viewer_count,
            "total_choices": self.total_choices,
            "non_default_choices": self.non_default_choices,
            "total_packets": self.total_packets,
            "condition_keys": list(self.condition_keys),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ShardSummary":
        """Inverse of :meth:`as_dict`."""
        return cls(
            index=int(data["index"]),  # type: ignore[arg-type]
            directory=str(data["directory"]),
            viewer_count=int(data["viewer_count"]),  # type: ignore[arg-type]
            total_choices=int(data["total_choices"]),  # type: ignore[arg-type]
            non_default_choices=int(data["non_default_choices"]),  # type: ignore[arg-type]
            total_packets=int(data["total_packets"]),  # type: ignore[arg-type]
            condition_keys=tuple(str(key) for key in data["condition_keys"]),  # type: ignore[union-attr]
        )


def merge_shard_summaries(summaries: Sequence[ShardSummary]) -> DatasetSummary:
    """Merge per-shard summaries into one population summary.

    Counts add; distinct conditions are the union of the shards' condition
    keys (a condition present in two shards counts once).  Merging the
    shards of a population yields exactly the summary the unsharded
    in-memory dataset reports.
    """
    if not summaries:
        raise DatasetError("no shard summaries to merge")
    condition_keys: set[str] = set()
    for summary in summaries:
        condition_keys.update(summary.condition_keys)
    return DatasetSummary(
        viewer_count=sum(summary.viewer_count for summary in summaries),
        total_choices=sum(summary.total_choices for summary in summaries),
        non_default_choices=sum(summary.non_default_choices for summary in summaries),
        distinct_conditions=len(condition_keys),
        total_packets=sum(summary.total_packets for summary in summaries),
    )


def shard_summary_from_metadata(
    directory: str | Path,
    index: int,
    metadata: Mapping[str, object] | None = None,
) -> ShardSummary:
    """Rebuild a completed shard's summary from its metadata index alone.

    Everything a :class:`ShardSummary` records (choice counts, packet counts,
    condition keys) is present in the per-viewer metadata entries, so a
    resumed run can account for an already-complete shard without re-parsing
    a single pcap.  The result is identical to the summary the original
    generation accumulated while streaming the shard.  ``metadata`` lets a
    caller that already parsed the index pass it in instead of paying the
    load twice.
    """
    directory = Path(directory)
    if metadata is None:
        metadata = load_dataset_metadata(directory)
    total_choices = 0
    non_default_choices = 0
    total_packets = 0
    condition_keys: set[str] = set()
    try:
        for entry in metadata["entries"]:
            choices = entry["choices"]
            total_choices += len(choices)
            non_default_choices += sum(
                1 for choice in choices if not choice["took_default"]
            )
            total_packets += int(entry["packet_count"])
            condition = OperationalCondition.from_dict(entry["viewer"]["condition"])
            condition_keys.add(condition.key)
    except (KeyError, TypeError) as error:
        raise DatasetError(
            f"shard metadata at {directory} is malformed: {error!r}"
        ) from error
    return ShardSummary(
        index=index,
        directory=directory.name,
        viewer_count=int(metadata["viewer_count"]),
        total_choices=total_choices,
        non_default_choices=non_default_choices,
        total_packets=total_packets,
        condition_keys=tuple(sorted(condition_keys)),
    )


def quarantine_partial_shard(shard_directory: str | Path) -> Path:
    """Move a partially-written shard aside; returns its new location.

    The debris is renamed to ``<shard>.quarantined-<n>`` (first free ``n``)
    rather than deleted, so an operator can inspect what an interrupted run
    left behind while the resumed run regenerates the shard from scratch.
    """
    shard_directory = Path(shard_directory)
    if not shard_directory.exists():
        raise DatasetError(f"no shard directory to quarantine at {shard_directory}")
    for attempt in range(1000):
        target = shard_directory.with_name(
            f"{shard_directory.name}.quarantined-{attempt:03d}"
        )
        if not target.exists():
            shard_directory.rename(target)
            return target
    raise DatasetError(
        f"too many quarantined copies of {shard_directory.name}; clean them up"
    )


def require_generating_graph(
    recorded_fingerprint: object,
    graph: StoryGraph,
    location: str | Path,
) -> None:
    """Refuse to replay or stitch against the wrong story graph.

    Every consumer that re-derives sessions from stored metadata (training
    replay, stitching) must run against the graph that generated the data —
    otherwise replayed sessions silently diverge from the stored traces.
    Pre-fingerprint datasets (``recorded_fingerprint`` is ``None``) are let
    through for backwards compatibility.
    """
    if recorded_fingerprint is not None and recorded_fingerprint != graph.fingerprint():
        raise DatasetError(
            f"dataset at {location} was generated with a different story "
            "graph than the one supplied; derived sessions would not match "
            "the stored traces (pass the generating graph)"
        )


def iter_shard_training_sessions(
    shard_directory: str | Path,
    graph: StoryGraph | None = None,
    config: SessionConfig | None = None,
    workers: int | None = None,
    viewer_filter: Callable[[Viewer], bool] | None = None,
) -> Iterator[SessionResult]:
    """Lazily re-simulate one shard's labelled calibration sessions.

    The shard's viewers are rebuilt from its metadata entries and their
    sessions replayed from the recorded generation seed through the streaming
    collection path, so the yielded :class:`SessionResult`\\ s carry the
    ground-truth record annotations that training needs while only an engine
    window of sessions is ever alive.

    ``viewer_filter`` selects a subset of the shard's viewers to simulate.
    Every session's seed derives from the dataset seed and the viewer id
    alone, so a filtered run yields sessions byte-identical to the
    corresponding ones of an unfiltered run — callers that only need part of
    a shard (e.g. a calibration split) never pay for the rest.
    """
    shard_directory = Path(shard_directory)
    metadata = load_dataset_metadata(shard_directory)
    if "seed" not in metadata:
        raise DatasetError(
            f"dataset metadata at {shard_directory} does not record its "
            "generation seed, so its labelled sessions cannot be re-simulated"
        )
    graph = graph or default_study_script()
    require_generating_graph(
        metadata.get("graph_fingerprint"), graph, shard_directory
    )
    viewers = viewers_from_metadata_entries(metadata["entries"], shard_directory)
    if viewer_filter is not None:
        viewers = [viewer for viewer in viewers if viewer_filter(viewer)]
        if not viewers:
            return
    for point in iter_collect_dataset(
        viewers,
        dataset_seed=int(metadata["seed"]),
        graph=graph,
        # The metadata records the generating configuration, so replayed
        # sessions match the stored pcaps byte for byte; an explicit config
        # (or a pre-recording dataset) falls back to the caller's choice.
        config=config or session_config_from_metadata(metadata),
        workers=workers,
    ):
        yield point.session


#: :class:`RunIdentity`'s fields in comparison order, each with the template
#: its recorded value is rendered through in a mismatch message.
_IDENTITY_FIELDS = (
    ("name", "dataset name {!r}"),
    ("seed", "seed={!r}"),
    ("session_config", "session_config={!r}"),
    ("graph_fingerprint", "story-graph fingerprint {!r}"),
    ("plan_totals", "shard plan {!r}"),
)


@dataclass(frozen=True)
class RunIdentity:
    """What a shard records about the generation run it belongs to.

    Dataset name, seed, session configuration, story-graph fingerprint and
    plan totals (shard count, population size), read from an already-loaded
    metadata index; a field the shard predates reads ``None``.  Resume,
    stitch, subset training and :meth:`ShardedDataset.load` all decide run
    membership through :meth:`mismatch`; what one shard's slice must hold
    (plan index, viewer ids, trace files) stays with the slice's callers.
    """

    name: object
    seed: object
    session_config: object
    graph_fingerprint: object
    plan_totals: object

    @classmethod
    def from_metadata(cls, metadata: Mapping[str, object]) -> "RunIdentity":
        """The identity a loaded metadata index records."""
        plan = metadata.get("shard")
        return cls(
            name=metadata.get("name"),
            seed=metadata.get("seed"),
            session_config=metadata.get("session_config"),
            graph_fingerprint=metadata.get("graph_fingerprint"),
            plan_totals=(
                {key: plan.get(key) for key in ("count", "population_viewer_count")}
                if isinstance(plan, Mapping)
                else None
            ),
        )

    def mismatch(self, expected: "RunIdentity", reference: str) -> str | None:
        """The first field differing from ``expected``; ``None`` if none does.

        The text follows a subject ("it", "shard shard-001") and names
        ``reference``, where ``expected`` came from: ``records seed=4 but
        this plan has seed=3``.  Two session configurations are told apart
        by their differing keys alone, this identity's value first.
        """
        for field, template in _IDENTITY_FIELDS:
            value, wanted = getattr(self, field), getattr(expected, field)
            if value == wanted:
                continue
            if field == "session_config" and isinstance(value, dict) and isinstance(
                wanted, dict
            ):
                differing = ", ".join(
                    f"{key}: {value.get(key, 'unset')!r} vs "
                    f"{wanted.get(key, 'unset')!r}"
                    for key in sorted(value.keys() | wanted.keys())
                    if value.get(key, ...) != wanted.get(key, ...)
                )
                return (
                    f"records a session_config differing from {reference} "
                    f"in {differing}"
                )
            return (
                f"records {template.format(value)} but {reference} has "
                f"{template.format(wanted)}"
            )
        return None


class ShardedDataset:
    """A sharded on-disk dataset: a manifest plus per-shard directories."""

    def __init__(
        self,
        directory: str | Path,
        name: str,
        seed: int,
        viewer_count: int,
        shard_summaries: Sequence[ShardSummary],
    ) -> None:
        if not shard_summaries:
            raise DatasetError("a sharded dataset needs at least one shard")
        self._directory = Path(directory)
        self._name = name
        self._seed = seed
        self._viewer_count = viewer_count
        self._shard_summaries = tuple(shard_summaries)

    @property
    def directory(self) -> Path:
        """The dataset's root directory."""
        return self._directory

    @property
    def name(self) -> str:
        """The dataset's name."""
        return self._name

    @property
    def seed(self) -> int:
        """The root seed the population was generated from."""
        return self._seed

    @property
    def viewer_count(self) -> int:
        """Total viewers across all shards."""
        return self._viewer_count

    @property
    def shard_count(self) -> int:
        """Number of shards."""
        return len(self._shard_summaries)

    @property
    def shard_summaries(self) -> tuple[ShardSummary, ...]:
        """Per-shard aggregate statistics, in shard order."""
        return self._shard_summaries

    def shard_directories(self) -> list[Path]:
        """Absolute paths of the shard directories, in shard order."""
        return [
            self._directory / summary.directory for summary in self._shard_summaries
        ]

    def summary(self) -> DatasetSummary:
        """The merged population summary."""
        return merge_shard_summaries(self._shard_summaries)

    def iter_points(self) -> Iterator[LoadedDataPoint]:
        """Iterate every viewer's loaded data point, lazily, in viewer order.

        Shards are opened one at a time and each point is parsed from its
        pcap on demand, so iterating a population never holds more than one
        point (plus one shard's metadata index) in memory.
        """
        for shard_directory in self.shard_directories():
            yield from iter_released_points(shard_directory)

    def iter_shard_training_sessions(
        self,
        graph: StoryGraph | None = None,
        config: SessionConfig | None = None,
        workers: int | None = None,
        viewer_filter: Callable[[Viewer], bool] | None = None,
    ) -> Iterator[Iterator[SessionResult]]:
        """Re-simulate the population's labelled sessions, one shard at a time.

        The pcaps on disk carry no ground-truth labels (by design), so
        calibration re-simulates each shard's sessions from its metadata
        entries and the recorded seed — exactly what the researcher who
        generated the dataset can do.  Yields one lazy session iterator per
        shard (``viewer_filter`` restricts which viewers are simulated);
        consumed shard by shard
        (:meth:`repro.core.pipeline.WhiteMirrorAttack.train_incremental`),
        peak memory holds one engine window of sessions, never the
        population.
        """
        for shard_directory in self.shard_directories():
            yield iter_shard_training_sessions(
                shard_directory,
                graph=graph,
                config=config,
                workers=workers,
                viewer_filter=viewer_filter,
            )

    def __iter__(self) -> Iterator[LoadedDataPoint]:
        return self.iter_points()

    def __len__(self) -> int:
        return self._viewer_count

    @property
    def manifest_path(self) -> Path:
        """Where the shards manifest lives."""
        return self._directory / SHARDS_MANIFEST_FILENAME

    def save_manifest(self) -> Path:
        """Write the shards manifest atomically; returns its path.

        Published like the per-shard metadata index: a reader can observe
        the manifest's presence or absence, never a truncated write.
        """
        manifest = {
            "name": self._name,
            "format_version": SHARDS_FORMAT_VERSION,
            "seed": self._seed,
            "viewer_count": self._viewer_count,
            "shard_count": self.shard_count,
            "shards": [summary.as_dict() for summary in self._shard_summaries],
        }
        return write_atomic(self.manifest_path, json.dumps(manifest, indent=2))

    @classmethod
    def load(cls, directory: str | Path) -> "ShardedDataset":
        """Load a sharded dataset from its manifest.

        Only the manifest and each shard's metadata index are validated up
        front, one shard at a time; pcaps are parsed lazily by
        :meth:`iter_points`.  Every shard must record the manifest's
        :class:`RunIdentity` (see :func:`iter_consistent_shard_metadata`).
        Every failure mode — a directory that is not a sharded dataset, a
        malformed manifest, a shard left incomplete by an interrupted
        generation run or taken from another run, a shard index two
        directories claim — raises a
        :class:`DatasetError` that says what was found and what to do about
        it, never a bare ``KeyError``/``ValueError``/``FileNotFoundError``.
        """
        directory = Path(directory)
        manifest_path = directory / SHARDS_MANIFEST_FILENAME
        if not manifest_path.exists():
            if (directory / METADATA_FILENAME).exists():
                raise DatasetError(
                    f"{directory} is a single (non-sharded) dataset directory: "
                    f"it has a {METADATA_FILENAME} but no {SHARDS_MANIFEST_FILENAME}"
                )
            raise DatasetError(
                f"{directory} is not a sharded dataset: no "
                f"{SHARDS_MANIFEST_FILENAME} manifest found (generate one with "
                "`repro generate-dataset --shards N`)"
            )
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            raise DatasetError(f"cannot load shards manifest: {error}") from error
        if not isinstance(manifest, dict):
            raise DatasetError(
                f"shards manifest at {manifest_path} must be a JSON object, "
                f"got {type(manifest).__name__}"
            )
        for key in ("name", "format_version", "seed", "viewer_count", "shards"):
            if key not in manifest:
                raise DatasetError(f"shards manifest is missing the {key!r} field")
        if manifest["format_version"] != SHARDS_FORMAT_VERSION:
            raise DatasetError(
                f"unsupported shards manifest version {manifest['format_version']}"
            )
        try:
            seed = int(manifest["seed"])
            viewer_count = int(manifest["viewer_count"])
        except (TypeError, ValueError) as error:
            raise DatasetError(
                f"shards manifest at {manifest_path} records a malformed seed "
                f"or viewer count: {error}"
            ) from error
        try:
            summaries = [ShardSummary.from_dict(entry) for entry in manifest["shards"]]
        except (KeyError, TypeError, ValueError) as error:
            raise DatasetError(
                f"shards manifest at {manifest_path} has a malformed shard "
                f"entry: {error!r}"
            ) from error
        if sum(summary.viewer_count for summary in summaries) != viewer_count:
            raise DatasetError(
                "shards manifest viewer count does not match its shards"
            )
        for summary in summaries:
            shard_directory = directory / summary.directory
            if dataset_is_partial(shard_directory) or not shard_directory.exists():
                raise DatasetError(
                    f"shard {summary.directory} of {directory} is "
                    f"{'incomplete' if shard_directory.exists() else 'missing'} "
                    "(interrupted generation?); re-run "
                    "`repro generate-dataset --shards N --resume` to repair it"
                )
        discover_shard_directories(directory)  # refuses a doubly-held index
        # A shard from a different generation run must not be silently mixed
        # in (e.g. a re-run with new parameters that crashed before rewriting
        # every shard): every shard records the first one's RunIdentity, and
        # that identity's name, seed and plan totals are the manifest's.
        shard_directories = [
            (summary.index, directory / summary.directory) for summary in summaries
        ]
        run: RunIdentity | None = None
        for summary, metadata in zip(
            summaries, iter_consistent_shard_metadata(shard_directories)
        ):
            if metadata["viewer_count"] != summary.viewer_count:
                raise DatasetError(
                    f"shard {summary.directory} holds {metadata['viewer_count']} "
                    f"viewers but the manifest records {summary.viewer_count}"
                )
            if run is None:
                run = RunIdentity.from_metadata(metadata)
                totals = {
                    "count": len(summaries),
                    "population_viewer_count": viewer_count,
                }
                mismatch = run.mismatch(
                    replace(
                        run,
                        name=manifest["name"],
                        seed=seed,
                        # Shards written before the plan stamp record no totals.
                        plan_totals=None if run.plan_totals is None else totals,
                    ),
                    "the manifest",
                )
                if mismatch is not None:
                    raise DatasetError(
                        f"shard {summary.directory} {mismatch} (mixed generation "
                        "runs?); re-run `repro generate-dataset --shards N "
                        "--resume` to regenerate the foreign shards"
                    )
        return cls(
            directory=directory,
            name=str(manifest["name"]),
            seed=seed,
            viewer_count=viewer_count,
            shard_summaries=summaries,
        )


def _shard_plan(
    shard_slice: ShardSlice, shard_count: int, population_viewer_count: int
) -> dict[str, int]:
    """The plan stamp one shard records in its metadata (see ``stitch``)."""
    return {
        "index": shard_slice.index,
        "count": shard_count,
        "population_viewer_count": population_viewer_count,
    }


def _shard_reuse_mismatch(
    shard_directory: Path,
    shard_slice: ShardSlice,
    shard_count: int,
    viewers: Sequence[Viewer],
    seed: int,
    write_pcaps: bool,
    dataset_name: str,
    config: SessionConfig,
    graph_fingerprint: str,
    metadata: Mapping[str, object] | None = None,
) -> str | None:
    """Why the on-disk shard cannot be reused for this plan; ``None`` if it can.

    Resume's skip decision: the shard must have finalised cleanly, record
    this plan's :class:`RunIdentity` and hold exactly this slice
    (:func:`_shard_slice_mismatch`); anything else is handed to the
    quarantine path.  The reason names the exact recorded field that
    mismatched.  ``metadata`` spares a caller that already parsed the index
    a second load.
    """
    if not dataset_is_complete(shard_directory):
        return (
            "it has not finalised cleanly (missing metadata index or "
            "leftover .inprogress marker — interrupted generation?)"
        )
    if metadata is None:
        try:
            metadata = load_dataset_metadata(shard_directory)
        except DatasetError as error:
            return f"its metadata index does not load: {error}"
    totals = {"count": shard_count, "population_viewer_count": len(viewers)}
    expected = RunIdentity(
        dataset_name, seed, asdict(config), graph_fingerprint, totals
    )
    mismatch = RunIdentity.from_metadata(metadata).mismatch(expected, "this plan")
    if mismatch is not None:
        return f"it {mismatch}"
    return _shard_slice_mismatch(
        shard_directory, shard_slice, shard_count, viewers, write_pcaps, metadata
    )


def _shard_slice_mismatch(
    shard_directory: Path,
    shard_slice: ShardSlice,
    shard_count: int,
    viewers: Sequence[Viewer],
    write_pcaps: bool,
    metadata: Mapping[str, object],
) -> str | None:
    """Why a member of the run does not hold exactly its slice; ``None`` if so.

    The per-slice half of verification, shared by resume and stitch: the
    recorded plan stamp, the viewer ids of the slice, and every trace file
    both recorded and still on disk iff the run writes pcaps.
    """
    plan = _shard_plan(shard_slice, shard_count, len(viewers))
    if metadata.get("shard") != plan:
        return (
            f"it records shard plan {metadata.get('shard')!r} but this slice "
            f"is {plan!r}"
        )
    expected_ids = [
        viewer.viewer_id for viewer in viewers[shard_slice.start : shard_slice.stop]
    ]
    try:
        found_ids = [str(entry["viewer"]["viewer_id"]) for entry in metadata["entries"]]
        trace_files = [entry.get("trace_file") for entry in metadata["entries"]]
    except (KeyError, TypeError, AttributeError) as error:
        return f"its metadata entries are malformed: {error!r}"
    if found_ids != expected_ids:
        return (
            f"it holds viewer ids {found_ids!r} but the plan's slice "
            f"expects {expected_ids!r}"
        )
    if write_pcaps:
        missing = [
            str(trace_file)
            for trace_file in trace_files
            if trace_file is None
            or not (shard_directory / str(trace_file)).exists()
        ]
        if missing:
            return (
                f"recorded trace file(s) {missing!r} are missing on disk "
                "(incomplete rsync?)"
            )
    elif any(trace_file is not None for trace_file in trace_files):
        return "it records trace files but this plan was generated with --no-pcaps"
    return None


@dataclass(frozen=True)
class _ShardGenerationTask:
    """Everything one shard's generation needs, picklable for the pool."""

    directory: str
    shard_slice: ShardSlice
    shard_count: int
    population_viewer_count: int
    viewers: tuple[Viewer, ...]
    seed: int
    graph: StoryGraph
    config: SessionConfig
    workers: int | None
    write_pcaps: bool
    dataset_name: str

    def describe(self) -> str:
        """Short identity used in engine error messages."""
        return (
            f"{self.shard_slice.dirname} "
            f"(viewers {self.shard_slice.start}-{self.shard_slice.stop - 1})"
        )


def _generate_shard(
    task: _ShardGenerationTask,
    progress: Callable[[int], None] | None = None,
) -> ShardSummary:
    """Generate one shard directory and return its summary.

    The single generation path shared by the serial loop and the shard-level
    process pool: a shard's bytes depend only on ``(dataset seed, viewer
    id)``, so where this function runs has no effect on what it writes.
    ``progress``, when given, is invoked with the shard-local count of
    completed sessions (the pool path cannot stream progress across the
    process boundary and passes ``None``).
    """
    accumulator = SummaryAccumulator()
    with DatasetWriter(
        Path(task.directory),
        dataset_name=task.dataset_name,
        write_pcaps=task.write_pcaps,
        seed=task.seed,
        config=task.config,
        graph=task.graph,
        shard=_shard_plan(
            task.shard_slice, task.shard_count, task.population_viewer_count
        ),
    ) as writer:
        for point in iter_collect_dataset(
            list(task.viewers),
            dataset_seed=task.seed,
            graph=task.graph,
            config=task.config,
            workers=task.workers,
        ):
            writer.add(point)
            accumulator.add(point)
            if progress is not None:
                progress(writer.entry_count)
    summary = accumulator.summary()
    return ShardSummary(
        index=task.shard_slice.index,
        directory=task.shard_slice.dirname,
        viewer_count=summary.viewer_count,
        total_choices=summary.total_choices,
        non_default_choices=summary.non_default_choices,
        total_packets=summary.total_packets,
        condition_keys=accumulator.condition_keys,
    )


def _generate_shard_task(task: _ShardGenerationTask) -> ShardSummary:
    """Module-level pool entry point (must be picklable)."""
    return _generate_shard(task)


def _describe_shard_task(task: _ShardGenerationTask) -> str:
    return task.describe()


def _generate_shards(
    directory: str | Path,
    viewer_count: int,
    shard_count: int,
    only_shards: Sequence[int] | None,
    seed: int,
    graph: StoryGraph | None,
    config: SessionConfig | None,
    workers: int | None,
    shard_workers: int | None,
    write_pcaps: bool,
    dataset_name: str,
    progress: ProgressCallback | None,
    resume: bool,
    status: Callable[[ShardSlice, str], None] | None,
) -> list[ShardSummary]:
    """Prepare the root, then resume-check, quarantine and (re)generate shards.

    The shared core of :func:`generate_sharded_dataset` (``only_shards`` is
    ``None``: the whole plan) and :func:`generate_shard_subset`: a planning
    pass settles each selected shard's fate serially (skipping reusable
    ones, quarantining debris — cheap metadata work), then the shards that
    need generating run either in this process or fanned out over a
    shard-level :class:`~repro.engine.executor.BatchExecutor` pool
    (``shard_workers``).  Both paths write byte-identical directories; the
    pool path reports ``progress`` at shard granularity because per-session
    callbacks cannot cross the process boundary.
    """
    directory = Path(directory)
    graph = graph or default_study_script()
    config = config or SessionConfig()
    slices = plan_shards(viewer_count, shard_count)
    if only_shards is not None:
        indices = sorted(set(int(index) for index in only_shards))
        if not indices:
            raise DatasetError("no shards selected; name at least one shard index")
        out_of_range = [index for index in indices if not 0 <= index < shard_count]
        if out_of_range:
            raise DatasetError(
                f"shard indices {out_of_range} are out of range for "
                f"{shard_count} shards (valid indices: 0-{shard_count - 1})"
            )
        slices = [slices[index] for index in indices]
    viewers = generate_population(viewer_count, seed=seed)
    directory.mkdir(parents=True, exist_ok=True)
    # A manifest can only describe a complete run: drop any previous one up
    # front, so a crash can never leave it pointing at a mixture of old and
    # new shards (a full run rewrites it once every shard is in place).
    (directory / SHARDS_MANIFEST_FILENAME).unlink(missing_ok=True)
    if only_shards is None:
        # Shard directories beyond this run's plan (debris of an earlier run
        # with a larger shard count) would otherwise look like valid data.  A
        # subset leaves them: they may be another machine's output.
        for index, shard_directory in discover_shard_directories(directory):
            if index >= shard_count:
                quarantine_partial_shard(shard_directory)

    def report(shard_slice: ShardSlice, state: str) -> None:
        if status is not None:
            status(shard_slice, state)

    graph_fingerprint = graph.fingerprint()
    total_viewers = sum(shard_slice.viewer_count for shard_slice in slices)
    summaries: dict[int, ShardSummary] = {}
    pending: list[_ShardGenerationTask] = []
    done = 0
    for shard_slice in slices:
        shard_directory = directory / shard_slice.dirname
        if resume:
            summary = None
            try:
                metadata = load_dataset_metadata(shard_directory)
                reason = _shard_reuse_mismatch(
                    shard_directory, shard_slice, shard_count, viewers, seed,
                    write_pcaps, dataset_name, config, graph_fingerprint, metadata,
                )
                if reason is None:
                    summary = shard_summary_from_metadata(
                        shard_directory, shard_slice.index, metadata=metadata
                    )
            except DatasetError:
                pass  # an index that does not load or summarise is debris
            if summary is not None:
                summaries[shard_slice.index] = summary
                done += summary.viewer_count
                report(shard_slice, SHARD_SKIPPED)
                if progress is not None:
                    progress(done, total_viewers)
                continue
        if shard_directory.exists():
            # In-plan debris (a partial shard, or any previous run's shard
            # when not resuming) is moved aside, never overwritten in place:
            # stale pcaps surviving inside a rewritten shard would look like
            # valid viewers to anything that globs the traces directory.
            quarantine_partial_shard(shard_directory)
            report(shard_slice, SHARD_QUARANTINED)
        pending.append(
            _ShardGenerationTask(
                directory=str(shard_directory),
                shard_slice=shard_slice,
                shard_count=shard_count,
                population_viewer_count=len(viewers),
                viewers=tuple(viewers[shard_slice.start : shard_slice.stop]),
                seed=seed,
                graph=graph,
                config=config,
                workers=workers,
                write_pcaps=write_pcaps,
                dataset_name=dataset_name,
            )
        )
    if resolve_workers(shard_workers) > 1 and len(pending) > 1:
        executor = BatchExecutor(shard_workers)
        results = executor.imap(
            _generate_shard_task, pending, label=_describe_shard_task
        )
        for task, summary in zip(pending, results):
            summaries[summary.index] = summary
            done += summary.viewer_count
            report(task.shard_slice, SHARD_GENERATED)
            if progress is not None:
                progress(done, total_viewers)
    else:
        for task in pending:
            summary = _generate_shard(
                task,
                progress=(
                    None
                    if progress is None
                    else lambda in_shard, base=done: progress(
                        base + in_shard, total_viewers
                    )
                ),
            )
            summaries[summary.index] = summary
            done += summary.viewer_count
            report(task.shard_slice, SHARD_GENERATED)
    return [summaries[shard_slice.index] for shard_slice in slices]


def generate_sharded_dataset(
    directory: str | Path,
    viewer_count: int,
    shard_count: int,
    seed: int = 0,
    graph: StoryGraph | None = None,
    config: SessionConfig | None = None,
    workers: int | None = None,
    shard_workers: int | None = None,
    write_pcaps: bool = True,
    dataset_name: str = "iitm-bandersnatch-synthetic",
    progress: ProgressCallback | None = None,
    resume: bool = False,
    status: Callable[[ShardSlice, str], None] | None = None,
) -> ShardedDataset:
    """Generate a population as shards, streaming each shard to disk.

    Only the viewer attributes of the whole population (cheap: a few strings
    per viewer) plus one in-flight window of sessions exist in memory at any
    time; sessions are persisted through :class:`DatasetWriter` as the engine
    completes them.  ``progress`` is invoked as ``(done_viewers,
    viewer_count)`` across the whole population.

    ``shard_workers`` fans whole shards out over a process pool
    (:class:`~repro.engine.executor.BatchExecutor` semantics: ``None``/``1``
    serial, ``0`` one worker per core, ``N > 1`` a pool of ``N``), each
    shard worker in turn running its sessions with the per-session
    ``workers`` fan-out.  Because shards are independent directories and
    every session's bytes derive from ``(dataset seed, viewer id)`` alone,
    the parallel run's output — pcaps, per-shard metadata and the manifest —
    is byte-identical to the serial run's, and the per-shard ``.inprogress``
    crash-safety semantics are unchanged (a killed run leaves each in-flight
    shard detectably partial, exactly as the serial path does).  On the pool
    path ``progress`` advances at shard granularity.

    With ``resume=True`` an interrupted run is picked up where it stopped:
    shards that finalised cleanly, record this call's :class:`RunIdentity`
    and hold exactly their slice's viewers and trace files are skipped
    without re-reading a pcap, partially-written shards are moved aside via
    :func:`quarantine_partial_shard`, and only the missing work is
    regenerated.  Session seeds derive from the dataset seed and the viewer
    id alone, so the resumed directory is byte-identical to one produced by
    a single uninterrupted run; a shard from another run is detected and
    regenerated rather than absorbed.  ``status``, when given, is
    invoked once per shard with the slice and one of ``SHARD_GENERATED``,
    ``SHARD_SKIPPED`` or ``SHARD_QUARANTINED`` (a quarantined shard also
    reports ``SHARD_GENERATED`` once regenerated).

    Returns the :class:`ShardedDataset`, with its manifest already written.
    """
    dataset = ShardedDataset(
        directory=Path(directory),
        name=dataset_name,
        seed=seed,
        viewer_count=viewer_count,
        shard_summaries=_generate_shards(
            directory, viewer_count, shard_count, None, seed, graph, config,
            workers, shard_workers, write_pcaps, dataset_name, progress, resume,
            status,
        ),
    )
    dataset.save_manifest()
    return dataset


def generate_shard_subset(
    directory: str | Path,
    viewer_count: int,
    shard_count: int,
    only_shards: Sequence[int],
    seed: int = 0,
    graph: StoryGraph | None = None,
    config: SessionConfig | None = None,
    workers: int | None = None,
    shard_workers: int | None = None,
    write_pcaps: bool = True,
    dataset_name: str = "iitm-bandersnatch-synthetic",
    progress: ProgressCallback | None = None,
    resume: bool = False,
    status: Callable[[ShardSlice, str], None] | None = None,
) -> list[ShardSummary]:
    """Generate only the named shards of a population's shard plan.

    The distribution primitive: several machines each run the same plan
    (``viewer_count``, ``shard_count``, ``seed``) with disjoint
    ``only_shards`` selections, rsync the resulting shard directories under
    one root, and :func:`stitch_sharded_dataset` verifies and publishes the
    merged manifest.  Shard membership is a pure function of the plan and
    session bytes derive from the dataset seed and viewer id alone, so the
    union of the machines' outputs is byte-identical to one machine
    generating everything.

    No ``shards.json`` manifest is written — a subset is not a complete
    dataset — and any stale manifest in ``directory`` is removed; shards
    outside the selection are left untouched (they may be another machine's
    rsync'd output).  ``progress`` counts viewers of the selected shards
    only.  ``resume``/``shard_workers``/``status`` behave exactly as in
    :func:`generate_sharded_dataset`.

    Returns the selected shards' summaries, in index order.
    """
    return _generate_shards(
        directory, viewer_count, shard_count, only_shards, seed, graph, config,
        workers, shard_workers, write_pcaps, dataset_name, progress, resume,
        status,
    )


def discover_shard_directories(directory: str | Path) -> list[tuple[int, Path]]:
    """The ``shard-NNN`` directories under ``directory``, sorted by index.

    Quarantined debris (``shard-NNN.quarantined-*``) is excluded by
    construction; a missing root, or one holding none, yields an empty list.
    Two directories naming one index (``shard-001`` and ``shard-0001``, say
    a copied shard) raise a :class:`DatasetError` naming both: either would
    fold the same viewers in twice.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found: list[tuple[int, Path]] = []
    for entry in sorted(directory.iterdir()):
        match = re.fullmatch(r"shard-(\d{3,})", entry.name)
        if match and entry.is_dir():
            found.append((int(match.group(1)), entry))
    found.sort()
    for (index, first), (next_index, second) in zip(found, found[1:]):
        if index == next_index:
            raise DatasetError(
                f"{first.name} and {second.name} under {directory} both hold "
                f"shard {index} (a copied or renamed shard directory?); "
                "remove one of them"
            )
    return found


def iter_consistent_shard_metadata(
    shard_directories: Sequence[tuple[int, Path]],
) -> Iterator[Mapping[str, object]]:
    """Load each shard's metadata index, requiring one generation run.

    Every shard must have finalised cleanly, hold the plan's shard of its
    ``shard-NNN`` index, and record the same :class:`RunIdentity` as the
    first — shards rsync'd together from *different* runs must fail loudly
    here, not train or stitch into a silently mixed corpus.  Each index is
    yielded, in the given order, as soon as it verifies, so a caller that
    keeps only what it needs holds one shard's metadata, not the
    population's.
    """
    reference: RunIdentity | None = None
    for index, shard_directory in shard_directories:
        if not dataset_is_complete(shard_directory):
            raise DatasetError(
                f"shard {shard_directory.name} is incomplete (interrupted "
                "generation?); regenerate it with `repro generate-dataset "
                f"--shards N --only-shards {index}` or repair the root with "
                "`--resume`"
            )
        metadata = load_dataset_metadata(shard_directory)
        plan = metadata.get("shard")
        if isinstance(plan, Mapping) and plan.get("index") != index:
            # A shard-NNN directory must hold the plan's shard NNN: a
            # mis-rsynced or renamed copy would otherwise fold the same
            # viewers in twice (training) or under the wrong slice (stitch).
            raise DatasetError(
                f"shard {shard_directory.name} records shard plan index "
                f"{plan.get('index')!r} (mis-rsynced or renamed shard "
                "directory?); every shard-NNN directory must hold the "
                "plan's shard NNN"
            )
        identity = RunIdentity.from_metadata(metadata)
        if reference is None:
            reference = identity
        mismatch = identity.mismatch(reference, shard_directories[0][1].name)
        if mismatch is not None:
            raise DatasetError(
                f"shard {shard_directory.name} {mismatch} (mixed generation "
                "runs?); every shard must come from the same plan (viewer "
                "count, shard count, seed, config and script)"
            )
        yield metadata


def stitch_sharded_dataset(
    directory: str | Path,
    graph: StoryGraph | None = None,
    status: Callable[[ShardSlice, str], None] | None = None,
) -> ShardedDataset:
    """Verify rsync'd-together shards and publish the merged manifest.

    The distributed counterpart of ``resume``: machines that split one
    generation plan via :func:`generate_shard_subset` copy their shard
    directories under one root, and this function checks — without
    regenerating or re-reading a single pcap — that the union is exactly the
    plan's population: every one of the plan's shards present (the plan
    totals are recorded in each shard's metadata, so even missing *trailing*
    shards are detected), every shard finalised cleanly, all shards
    recording one :class:`RunIdentity` (each compared once, by
    :func:`iter_consistent_shard_metadata`), that identity matching ``graph``
    and the current session configuration, and each shard holding precisely
    its slice's viewer ids with every recorded trace file on disk.  The plan
    itself (viewer count, shard count, seed, configuration) is read from the
    shard metadata, so stitching needs no flags to repeat.

    On success the ``shards.json`` manifest is written atomically and the
    loaded :class:`ShardedDataset` returned; any failure raises a
    :class:`DatasetError` naming the shard and the fix (regenerate the
    missing/foreign shard with ``--only-shards``, or re-run the generating
    machine).  ``status``, when given, is invoked as ``(slice,
    SHARD_VERIFIED)`` per verified shard.
    """
    directory = Path(directory)
    graph = graph or default_study_script()
    if not directory.is_dir():
        raise DatasetError(f"{directory} is not a directory")
    found = discover_shard_directories(directory)
    if not found:
        raise DatasetError(
            f"no shard-NNN directories found under {directory} (generate "
            "them with `repro generate-dataset --shards N [--only-shards "
            "...]`)"
        )
    stream = iter_consistent_shard_metadata(found)
    reference = next(stream)
    for field in ("seed", "session_config", "shard"):
        if reference.get(field) is None:
            raise DatasetError(
                f"shard {found[0][1].name} does not record its {field!r}, so "
                "the stitched dataset cannot be verified against its "
                "generation plan (re-generate with the current tooling)"
            )
    run = RunIdentity.from_metadata(reference)
    totals = run.plan_totals
    try:
        shard_count = int(totals["count"])  # type: ignore[index]
        viewer_count = int(totals["population_viewer_count"])  # type: ignore[index]
    except (KeyError, TypeError, ValueError) as error:
        raise DatasetError(
            f"shard {found[0][1].name} records a malformed shard plan: "
            f"{error!r}"
        ) from error
    # The plan totals come from the shards themselves, so a root that lost
    # its *trailing* shards cannot masquerade as a smaller complete dataset.
    missing = sorted(set(range(shard_count)) - {index for index, _path in found})
    if missing:
        raise DatasetError(
            f"cannot stitch {directory}: shard indices {missing} are missing "
            f"(found {len(found)} of the plan's {shard_count} shards); "
            f"generate them with `repro generate-dataset --shards "
            f"{shard_count} --only-shards "
            f"{','.join(str(index) for index in missing)}` or rsync the "
            "missing machine's output into place"
        )
    require_generating_graph(run.graph_fingerprint, graph, directory)
    seed = int(reference["seed"])
    dataset_name = str(reference["name"])
    config = session_config_from_metadata(dict(reference))
    write_pcaps = any(
        "trace_file" in entry for entry in reference["entries"]  # type: ignore[union-attr]
    )
    slices = plan_shards(viewer_count, shard_count)
    viewers = generate_population(viewer_count, seed=seed)
    # Every shard's identity equals the first one's; the run's must also be
    # what this graph and the current session configuration derive.
    run_mismatch = run.mismatch(
        replace(
            run,
            name=dataset_name,
            seed=seed,
            session_config=asdict(config),  # type: ignore[arg-type]
            graph_fingerprint=graph.fingerprint(),
        ),
        "this plan",
    )
    summaries: list[ShardSummary] = []
    for (index, shard_directory), metadata in zip(
        found, itertools.chain([reference], stream)
    ):
        if index >= shard_count:
            raise DatasetError(
                f"cannot stitch {directory}: shard index {index} lies beyond "
                f"the recorded plan of {shard_count} shards (mixed generation "
                "runs?)"
            )
        mismatch = (
            f"it {run_mismatch}"
            if run_mismatch is not None
            else _shard_slice_mismatch(
                shard_directory, slices[index], shard_count, viewers, write_pcaps,
                metadata,
            )
        )
        if mismatch is not None:
            raise DatasetError(
                f"shard {shard_directory.name} does not verify against the "
                f"run's plan ({viewer_count} viewers across {shard_count} "
                f"shards, seed {seed}): {mismatch}; regenerate it "
                f"with `repro generate-dataset --shards {shard_count} "
                f"--only-shards {index}`"
            )
        summaries.append(
            shard_summary_from_metadata(shard_directory, index, metadata=metadata)
        )
        if status is not None:
            status(slices[index], SHARD_VERIFIED)
    dataset = ShardedDataset(
        directory=directory,
        name=dataset_name,
        seed=seed,
        viewer_count=viewer_count,
        shard_summaries=summaries,
    )
    dataset.save_manifest()
    return dataset
