"""On-disk format of the dataset.

A saved dataset is a directory::

    dataset/
      metadata.json        # index: per-viewer attributes + ground truth
      traces/
        viewer-000.pcap    # one standard pcap per viewer
        viewer-001.pcap
        ...

The metadata deliberately never contains the record-length features — they
must be re-derived from the pcaps, keeping the saved artefact equivalent to
what a real study would release.

Large populations are persisted **sharded**: the population is split into
deterministic contiguous slices (see :mod:`repro.dataset.shards`) and each
slice is saved as an independent dataset directory in exactly the layout
above, side by side under one root with a manifest describing the split::

    dataset/
      shards.json          # manifest: seed, shard count, per-shard summaries
      shard-000/
        metadata.json      # a complete, self-contained dataset index
        traces/
          viewer-000.pcap
          ...
      shard-001/
        metadata.json
        traces/
          viewer-004.pcap
          ...

Every shard is a valid standalone dataset (``repro train`` and ``repro
attack`` work on a single shard directory), and because session seeds derive
from the dataset seed and the viewer id alone, the pcaps inside a shard are
byte-identical to the ones an unsharded save of the same population writes.

Writing happens incrementally through :class:`DatasetWriter`, which persists
one data point at a time (the streaming generation path hands points over as
the engine completes them), accumulating only the small JSON entries in
memory; :func:`save_dataset_metadata` is the one-shot wrapper over it.

A directory being written carries an ``.inprogress`` marker from the moment
the writer opens until it finalises cleanly, and the metadata index itself is
published atomically (written to a temporary file, then renamed into place).
A crash therefore always leaves one of two unambiguous states behind: a
complete dataset (``metadata.json`` present, no marker) or a partial one
(marker present and/or no index) that resumable generation can detect and
quarantine — never a directory that merely *looks* complete.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.exceptions import DatasetError, StreamingError
from repro.utils.atomic import write_atomic

if TYPE_CHECKING:
    from repro.dataset.collection import DataPoint
    from repro.narrative.graph import StoryGraph
    from repro.streaming.session import SessionConfig


METADATA_FILENAME = "metadata.json"
TRACES_DIRNAME = "traces"
INPROGRESS_FILENAME = ".inprogress"
FORMAT_VERSION = 1


def dataset_is_complete(directory: str | Path) -> bool:
    """Whether ``directory`` holds a cleanly finalised dataset.

    Complete means the metadata index exists *and* no ``.inprogress`` marker
    is left over from an interrupted writer.  The index's contents are not
    validated here; use :func:`load_dataset_metadata` for that.
    """
    directory = Path(directory)
    return (directory / METADATA_FILENAME).exists() and not (
        directory / INPROGRESS_FILENAME
    ).exists()


def dataset_is_partial(directory: str | Path) -> bool:
    """Whether ``directory`` holds the debris of an interrupted write.

    Partial means the directory exists but is not complete: either the
    ``.inprogress`` marker survived a crash, or packet traces were written
    without the metadata index ever being published.
    """
    directory = Path(directory)
    return directory.exists() and not dataset_is_complete(directory)


class DatasetWriter:
    """Incremental dataset writer: persist data points as they arrive.

    Streams a dataset to disk one :class:`DataPoint` at a time — each call
    to :meth:`add` writes the point's pcap immediately (when ``write_pcaps``
    is on) and keeps only its JSON metadata entry in memory, so writing an
    ``n``-viewer dataset needs O(1) session objects alive rather than O(n).
    :meth:`close` (or exiting the context manager without an error) writes
    ``metadata.json``; the resulting directory is byte-identical to what
    :func:`save_dataset_metadata` produces for the same points.

    The writer drops an ``.inprogress`` marker into the directory on open and
    removes it only after the metadata index has been atomically renamed into
    place, so an interrupted run is always detectable (see
    :func:`dataset_is_partial`).
    """

    def __init__(
        self,
        directory: str | Path,
        dataset_name: str = "iitm-bandersnatch-synthetic",
        write_pcaps: bool = True,
        seed: int | None = None,
        config: SessionConfig | None = None,
        graph: StoryGraph | None = None,
        shard: Mapping[str, int] | None = None,
    ) -> None:
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._traces_dir = self._directory / TRACES_DIRNAME
        self._dataset_name = dataset_name
        self._write_pcaps = write_pcaps
        self._seed = seed
        self._config = config
        self._graph = graph
        self._shard = dict(shard) if shard is not None else None
        self._entries: list[dict[str, object]] = []
        self._closed = False
        self._sidecar = None
        if write_pcaps:
            # Imported lazily: the sidecar module reads this one's layout
            # constants, so a module-level import would be circular.
            from repro.dataset.sidecar import SidecarWriter

            self._sidecar = SidecarWriter()
        self.inprogress_path.touch()

    @property
    def directory(self) -> Path:
        """The dataset directory being written."""
        return self._directory

    @property
    def metadata_path(self) -> Path:
        """Where ``metadata.json`` lives (written on :meth:`close`)."""
        return self._directory / METADATA_FILENAME

    @property
    def inprogress_path(self) -> Path:
        """The marker that flags the directory as mid-write."""
        return self._directory / INPROGRESS_FILENAME

    @property
    def entry_count(self) -> int:
        """Data points persisted so far."""
        return len(self._entries)

    def add(self, point: DataPoint) -> dict[str, object]:
        """Persist one data point; returns its metadata entry."""
        if self._closed:
            raise DatasetError("dataset writer is already closed")
        entry = point.metadata()
        if self._write_pcaps:
            self._traces_dir.mkdir(parents=True, exist_ok=True)
            pcap_path = self._traces_dir / f"{point.viewer.viewer_id}.pcap"
            point.session.trace.to_pcap(pcap_path)
            entry["trace_file"] = str(pcap_path.relative_to(self._directory))
            entry["client_ip"] = point.session.trace.client_ip
            entry["server_ip"] = point.session.trace.server_ip
            if self._sidecar is not None:
                from repro.dataset.sidecar import sidecar_entry_for

                self._sidecar.add(
                    sidecar_entry_for(
                        pcap_path,
                        point.session.trace,
                        viewer_id=point.viewer.viewer_id,
                        environment=point.session.condition.fingerprint_key,
                    )
                )
        self._entries.append(entry)
        return entry

    def close(self) -> Path:
        """Write ``metadata.json`` and seal the writer; returns its path.

        Idempotent: closing twice returns the same path without rewriting.
        """
        if self._closed:
            return self.metadata_path
        if not self._entries:
            raise DatasetError("cannot save an empty dataset")
        if self._sidecar is not None:
            # The columnar acceleration cache rides along with the pcaps it
            # mirrors (see repro.dataset.sidecar); written before the index
            # publishes, so a crash leaves the usual partial-dataset debris.
            self._sidecar.write(self._traces_dir)
        metadata: dict[str, object] = {
            "name": self._dataset_name,
            "format_version": FORMAT_VERSION,
            "viewer_count": len(self._entries),
            "entries": self._entries,
        }
        if self._seed is not None:
            # Stored so tooling (e.g. the CLI's `train` command) can regenerate
            # the labelled sessions; a real released dataset would omit it.
            metadata["seed"] = int(self._seed)
        if self._config is not None:
            # Stored so re-simulation (training, resume validation) replays
            # the sessions under exactly the configuration that produced the
            # pcaps, instead of trusting the caller to repeat unrecorded
            # flags; like the seed, a real released dataset would omit it.
            metadata["session_config"] = asdict(self._config)
        if self._graph is not None:
            # The story graph itself is code, not data; its digest is enough
            # for re-simulation and resume to refuse a *different* script
            # rather than silently replaying the wrong one.
            metadata["graph_fingerprint"] = self._graph.fingerprint()
        if self._shard is not None:
            # A shard records its place in the whole generation plan (index,
            # shard count, population total), so stitching machines' outputs
            # back together can prove completeness — a root missing its
            # *trailing* shards would otherwise look like a smaller but
            # complete dataset.
            metadata["shard"] = self._shard
        # Publish atomically: a reader (or a resumed run) can never observe a
        # truncated index, only its presence or absence.
        write_atomic(self.metadata_path, json.dumps(metadata, indent=2))
        self.inprogress_path.unlink(missing_ok=True)
        self._closed = True
        return self.metadata_path

    def __enter__(self) -> "DatasetWriter":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        # A failed generation run must not masquerade as a complete dataset,
        # so the index is only written on a clean exit.
        if exc_type is None:
            self.close()


def save_dataset_metadata(
    points: Sequence[DataPoint],
    directory: str | Path,
    dataset_name: str = "iitm-bandersnatch-synthetic",
    write_pcaps: bool = True,
    seed: int | None = None,
    config: SessionConfig | None = None,
    graph: StoryGraph | None = None,
) -> Path:
    """Write the metadata index (and optionally per-viewer pcaps).

    Returns the path of the metadata file.
    """
    if not points:
        raise DatasetError("cannot save an empty dataset")
    with DatasetWriter(
        directory,
        dataset_name=dataset_name,
        write_pcaps=write_pcaps,
        seed=seed,
        config=config,
        graph=graph,
    ) as writer:
        for point in points:
            writer.add(point)
    return writer.metadata_path


def snapshot_dataset_files(
    directory: str | Path, include_quarantined: bool = False
) -> dict[str, bytes]:
    """Every file under a dataset tree, keyed by path relative to its root.

    The byte-level equivalence primitive: two dataset roots — a serial and a
    shard-parallel run, an uninterrupted and a resumed one, a single-machine
    root and a stitched union of subsets — are byte-identical iff their
    snapshots compare equal.  Quarantined debris
    (``shard-NNN.quarantined-*``) is excluded unless asked for, since it is
    deliberately preserved history rather than dataset content.
    """
    directory = Path(directory)
    snapshot: dict[str, bytes] = {}
    for path in sorted(directory.rglob("*")):
        if not path.is_file():
            continue
        # Filter on the *relative* path: the marker must identify debris
        # inside the tree, not a root that itself lives under a quarantined
        # name (snapshotting quarantined debris directly is legitimate).
        relative = str(path.relative_to(directory))
        if include_quarantined or ".quarantined-" not in relative:
            snapshot[relative] = path.read_bytes()
    return snapshot


def session_config_from_metadata(metadata: dict[str, object]) -> SessionConfig | None:
    """The session configuration a dataset records, if any.

    Datasets written before configs were recorded return ``None``; callers
    fall back to their own default.
    """
    from repro.streaming.session import SessionConfig

    data = metadata.get("session_config")
    if data is None:
        return None
    try:
        return SessionConfig(**data)  # type: ignore[arg-type]
    except (TypeError, ValueError, StreamingError) as error:
        raise DatasetError(
            f"dataset metadata records an invalid session_config: {error}"
        ) from error


def load_dataset_metadata(directory: str | Path) -> dict[str, object]:
    """Load and validate the metadata index of a saved dataset."""
    metadata_path = Path(directory) / METADATA_FILENAME
    try:
        metadata = json.loads(metadata_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise DatasetError(f"cannot load dataset metadata: {error}") from error
    if not isinstance(metadata, dict) or not isinstance(
        metadata.get("entries", []), list
    ):
        raise DatasetError(
            f"dataset metadata at {metadata_path} is malformed: expected a "
            "JSON object whose 'entries' field is a list"
        )
    for key in ("name", "format_version", "viewer_count", "entries"):
        if key not in metadata:
            raise DatasetError(f"dataset metadata is missing the {key!r} field")
    if metadata["format_version"] != FORMAT_VERSION:
        raise DatasetError(
            f"unsupported dataset format version {metadata['format_version']}"
        )
    if metadata["viewer_count"] != len(metadata["entries"]):
        raise DatasetError("dataset metadata viewer count does not match its entries")
    return metadata
