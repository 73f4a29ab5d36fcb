"""Columnar per-shard record sidecars (``traces/records.npz``).

A generated shard stores one pcap per viewer, and both heavy consumers of
those pcaps re-derived the same client-record columns from every capture on
every pass: ``repro attack`` parses each pcap's frames, selects the
streaming flow and reassembles the TLS records; ``repro train --sharded``
re-simulates whole sessions just to recover the labelled records the pcaps
deliberately do not carry.  The sidecar packs those columns once, at
generation time, into one ``records.npz`` next to the pcaps — a pass over a
shard becomes a single sequential read instead of thousands of parses (or a
full re-simulation).

The pcaps remain the source of truth.  The sidecar is an acceleration cache
with per-capture staleness detection — the recorded pcap byte size must
match and the pcap must not be newer than the sidecar — and every consumer
falls back to parsing (or re-simulating) transparently when the sidecar is
missing, stale, malformed or of a different format version.  Training folds
are all-or-nothing per shard: a shard folds from its sidecar only when
*every* recorded capture validates, so a half-stale shard can never
half-fold.

Layout: one npz holding per-capture arrays (capture filename, viewer id,
addresses, environment key, pcap byte size, record count), sorted by
capture filename, plus record-aligned arrays (timestamps, wire lengths,
content types, label codes) concatenated in capture order and sliced via
the counts.  Timestamps are the pcap-quantized values attack-time
extraction yields — they are derived from the writer's columns, pinned to
the re-parse by tests, not copied from the in-memory trace — and label
codes use the :data:`repro.core.features.LABEL_BY_CODE` encoding, the
labels the annotated in-memory extraction gives the same records.  Writing is deterministic byte
for byte (sorted captures, sorted archive entries, fixed dtypes), so
sidecars survive the repo's serial-vs-parallel / resumed / stitched
``diff -r`` equivalences like every other dataset artefact.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.features import (
    CODE_BY_LABEL,
    ClientRecord,
    columnar_client_records,
    extract_client_records,
)
from repro.core.fingerprint import FingerprintAccumulator
from repro.core.pipeline import capture_client_records
from repro.dataset.format import TRACES_DIRNAME, load_dataset_metadata
from repro.exceptions import DatasetError, ReproError
from repro.net.capture import CapturedTrace
from repro.net.columnar import written_tcp_columns

SIDECAR_FILENAME = "records.npz"
SIDECAR_FORMAT_VERSION = 1

_ARRAY_KEYS = (
    "format_version",
    "captures",
    "viewer_ids",
    "client_ips",
    "server_ips",
    "environments",
    "pcap_sizes",
    "record_counts",
    "timestamps",
    "wire_lengths",
    "content_types",
    "label_codes",
)


@dataclass(frozen=True)
class SidecarEntry:
    """One capture's columns, staged for :class:`SidecarWriter`."""

    capture: str
    viewer_id: str
    client_ip: str
    server_ip: str
    environment: str
    pcap_size: int
    timestamps: np.ndarray
    wire_lengths: np.ndarray
    content_types: np.ndarray
    label_codes: np.ndarray


def sidecar_entry_for(
    pcap_path: str | Path,
    trace: CapturedTrace,
    viewer_id: str,
    environment: str,
) -> SidecarEntry | None:
    """Build one capture's sidecar columns right after its pcap is written.

    The record columns are those the attack later extracts from the pcap,
    quantized timestamps and all, and the label codes those
    :func:`~repro.core.features.extract_client_records` gives the same
    records of the annotated in-memory ``trace``.  One pass over the
    writer's columns gives both:
    :func:`~repro.net.columnar.written_tcp_columns` is what decoding the
    just-written file yields, still carrying the simulator's annotations,
    and :func:`~repro.core.features.columnar_client_records` frames it as
    :func:`~repro.core.pipeline.capture_client_records` would, labels
    included.  When the columns cannot prove that answer, the oracle route
    runs instead: the pcap is re-read through ``capture_client_records``
    and the labels come from ``extract_client_records``, aligned by
    position (both walk the same reassembled TLS stream).  Returns
    ``None`` — which disables the sidecar for the whole shard — rather
    than ever persisting columns the pcap does not back: on any extraction
    failure or the slightest misalignment the pcaps alone remain
    authoritative.
    """
    pcap_path = Path(pcap_path)
    try:
        columns = written_tcp_columns(trace.segments, trace.client_ip)
        observed = labelled = (
            columnar_client_records(columns, trace.server_ip)
            if columns is not None
            else None
        )
        if observed is None:
            observed = capture_client_records(
                pcap_path, client_ip=trace.client_ip, server_ip=trace.server_ip
            )
            labelled = extract_client_records(trace, server_ip=trace.server_ip)
    except ReproError:
        return None
    if len(observed) != len(labelled):
        return None
    if any(
        recorded.wire_length != annotated.wire_length
        for recorded, annotated in zip(observed, labelled)
    ):
        return None
    return SidecarEntry(
        capture=pcap_path.name,
        viewer_id=viewer_id,
        client_ip=trace.client_ip,
        server_ip=trace.server_ip,
        environment=environment,
        pcap_size=pcap_path.stat().st_size,
        timestamps=np.asarray([r.timestamp for r in observed], dtype=np.float64),
        wire_lengths=np.asarray([r.wire_length for r in observed], dtype=np.int64),
        content_types=np.asarray([r.content_type for r in observed], dtype=np.int64),
        label_codes=np.asarray(
            [CODE_BY_LABEL[r.label] for r in labelled], dtype=np.int64
        ),
    )


class SidecarWriter:
    """Accumulates per-capture entries during a shard write; emits the npz.

    One failed entry disables the whole shard's sidecar (see
    :func:`sidecar_entry_for`): a partial sidecar would be
    indistinguishable from a stale one at read time.
    """

    def __init__(self) -> None:
        self._entries: list[SidecarEntry] = []
        self._disabled = False

    def disable(self) -> None:
        """Give up on the sidecar for this shard (pcaps stay authoritative)."""
        self._disabled = True
        self._entries.clear()

    def add(self, entry: SidecarEntry | None) -> None:
        """Stage one capture's columns; ``None`` disables the sidecar."""
        if self._disabled:
            return
        if entry is None:
            self.disable()
            return
        self._entries.append(entry)

    def write(self, traces_directory: str | Path) -> Path | None:
        """Write ``records.npz``; returns its path, or ``None`` if disabled.

        Captures sort by filename and archive entries by key, so the bytes
        depend only on the captures' contents — never on generation order.
        """
        if self._disabled or not self._entries:
            return None
        entries = sorted(self._entries, key=lambda entry: entry.capture)
        arrays: dict[str, np.ndarray] = {
            "format_version": np.asarray([SIDECAR_FORMAT_VERSION], dtype=np.int64),
            "captures": np.asarray([entry.capture for entry in entries]),
            "viewer_ids": np.asarray([entry.viewer_id for entry in entries]),
            "client_ips": np.asarray([entry.client_ip for entry in entries]),
            "server_ips": np.asarray([entry.server_ip for entry in entries]),
            "environments": np.asarray([entry.environment for entry in entries]),
            "pcap_sizes": np.asarray(
                [entry.pcap_size for entry in entries], dtype=np.int64
            ),
            "record_counts": np.asarray(
                [entry.wire_lengths.size for entry in entries], dtype=np.int64
            ),
            "timestamps": np.concatenate([entry.timestamps for entry in entries]),
            "wire_lengths": np.concatenate([entry.wire_lengths for entry in entries]),
            "content_types": np.concatenate(
                [entry.content_types for entry in entries]
            ),
            "label_codes": np.concatenate([entry.label_codes for entry in entries]),
        }
        path = Path(traces_directory) / SIDECAR_FILENAME
        with open(path, "wb") as handle:
            np.savez(handle, **{key: arrays[key] for key in sorted(arrays)})
        return path


@dataclass(frozen=True)
class CaptureRecords:
    """One capture's columns, sliced out of a shard sidecar."""

    viewer_id: str
    client_ip: str
    server_ip: str
    environment: str
    timestamps: np.ndarray
    wire_lengths: np.ndarray
    content_types: np.ndarray
    label_codes: np.ndarray

    @property
    def record_count(self) -> int:
        """Records this capture contributed."""
        return int(self.wire_lengths.size)

    def client_records(self) -> tuple[ClientRecord, ...]:
        """Rebuild the unlabelled records attack-time extraction yields."""
        return tuple(
            ClientRecord(
                timestamp=timestamp,
                wire_length=wire_length,
                content_type=content_type,
            )
            for timestamp, wire_length, content_type in zip(
                self.timestamps.tolist(),
                self.wire_lengths.tolist(),
                self.content_types.tolist(),
            )
        )


class ShardSidecar:
    """Reader over one ``traces/records.npz`` with per-capture staleness checks."""

    def __init__(self, path: Path, mtime_ns: int, arrays: dict[str, np.ndarray]) -> None:
        self._path = path
        self._mtime_ns = mtime_ns
        self._arrays = arrays
        self._index = {
            str(name): position
            for position, name in enumerate(arrays["captures"].tolist())
        }
        counts = arrays["record_counts"]
        self._offsets = np.concatenate(([0], np.cumsum(counts)))

    @property
    def path(self) -> Path:
        """Where the sidecar file lives."""
        return self._path

    @property
    def capture_count(self) -> int:
        """Captures the sidecar indexes."""
        return len(self._index)

    @classmethod
    def load(cls, traces_directory: str | Path) -> "ShardSidecar | None":
        """Load a shard's sidecar; ``None`` when absent or unusable.

        Unusable covers unreadable files, foreign formats and version or
        consistency mismatches, negative or non-integer record counts
        included — every such case means "parse the pcaps",
        never an error: the sidecar is a cache, not dataset content.
        """
        path = Path(traces_directory) / SIDECAR_FILENAME
        try:
            stat = path.stat()
            with np.load(path, allow_pickle=False) as archive:
                arrays = {key: archive[key] for key in archive.files}
        except (OSError, ValueError, KeyError, zipfile.BadZipFile):
            return None
        if any(key not in arrays for key in _ARRAY_KEYS):
            return None
        if arrays["format_version"].tolist() != [SIDECAR_FORMAT_VERSION]:
            return None
        counts = arrays["record_counts"]
        if counts.dtype.kind not in "iu" or bool((counts < 0).any()):
            return None
        capture_count = int(arrays["captures"].size)
        per_capture = ("viewer_ids", "client_ips", "server_ips", "environments",
                       "pcap_sizes", "record_counts")
        if any(int(arrays[key].size) != capture_count for key in per_capture):
            return None
        total = int(counts.sum()) if counts.size else 0
        per_record = ("timestamps", "wire_lengths", "content_types", "label_codes")
        if any(int(arrays[key].size) != total for key in per_record):
            return None
        return cls(path=path, mtime_ns=stat.st_mtime_ns, arrays=arrays)

    def records_for(self, pcap_path: str | Path) -> CaptureRecords | None:
        """The capture's columns, iff the sidecar is provably fresh for it.

        Fresh means: the capture is indexed, its pcap still has the byte
        size recorded at generation time, and the pcap has not been modified
        since the sidecar was written.  Anything else returns ``None`` and
        the caller re-parses the pcap.
        """
        pcap_path = Path(pcap_path)
        position = self._index.get(pcap_path.name)
        if position is None:
            return None
        try:
            stat = pcap_path.stat()
        except OSError:
            return None
        if stat.st_size != int(self._arrays["pcap_sizes"][position]):
            return None
        if stat.st_mtime_ns > self._mtime_ns:
            return None
        start = int(self._offsets[position])
        stop = int(self._offsets[position + 1])
        return CaptureRecords(
            viewer_id=str(self._arrays["viewer_ids"][position]),
            client_ip=str(self._arrays["client_ips"][position]),
            server_ip=str(self._arrays["server_ips"][position]),
            environment=str(self._arrays["environments"][position]),
            timestamps=self._arrays["timestamps"][start:stop],
            wire_lengths=self._arrays["wire_lengths"][start:stop],
            content_types=self._arrays["content_types"][start:stop],
            label_codes=self._arrays["label_codes"][start:stop],
        )


#: Per-process sidecar cache keyed by traces directory; entries revalidate
#: against the file's (mtime_ns, size) identity, so a rewritten sidecar is
#: reloaded and a deleted one evicted.
_SIDECAR_CACHE: dict[Path, tuple[int, int, "ShardSidecar | None"]] = {}


def load_sidecar_cached(traces_directory: str | Path) -> ShardSidecar | None:
    """Cached :meth:`ShardSidecar.load` (one parse per sidecar per process)."""
    directory = Path(traces_directory)
    path = directory / SIDECAR_FILENAME
    try:
        stat = path.stat()
    except OSError:
        _SIDECAR_CACHE.pop(directory, None)
        return None
    stamp = (stat.st_mtime_ns, stat.st_size)
    cached = _SIDECAR_CACHE.get(directory)
    if cached is not None and (cached[0], cached[1]) == stamp:
        return cached[2]
    sidecar = ShardSidecar.load(directory)
    _SIDECAR_CACHE[directory] = (stamp[0], stamp[1], sidecar)
    return sidecar


def capture_records_for(pcap_path: str | Path) -> CaptureRecords | None:
    """Sidecar columns for one capture, if its directory has a fresh sidecar."""
    pcap_path = Path(pcap_path)
    sidecar = load_sidecar_cached(pcap_path.parent)
    if sidecar is None:
        return None
    return sidecar.records_for(pcap_path)


def fold_shard_sidecar(
    shard_directory: str | Path, accumulator: FingerprintAccumulator
) -> int | None:
    """Fold one shard's training records straight from its sidecar.

    Returns the folded record count, or ``None`` — having folded *nothing* —
    when the shard has no usable sidecar, the sidecar is stale for any
    capture, or it does not cover exactly the shard's recorded captures; the
    caller then re-simulates the shard.  Validation runs over every capture
    before the first fold, so a half-stale shard never half-folds and the
    accumulator state (hence the finalised library) is identical to the
    re-simulation path's.
    """
    shard_directory = Path(shard_directory)
    sidecar = load_sidecar_cached(shard_directory / TRACES_DIRNAME)
    if sidecar is None:
        return None
    try:
        metadata = load_dataset_metadata(shard_directory)
    except DatasetError:
        return None
    captures: list[CaptureRecords] = []
    for entry in metadata["entries"]:
        trace_file = entry.get("trace_file")
        if trace_file is None:
            return None
        records = sidecar.records_for(shard_directory / str(trace_file))
        if records is None:
            return None
        captures.append(records)
    if len(captures) != sidecar.capture_count:
        # The sidecar indexes captures the metadata does not record — it
        # belongs to some other state of this shard.
        return None
    folded = 0
    for records in captures:
        accumulator.observe_lengths(
            records.environment, records.wire_lengths, records.label_codes
        )
        folded += records.record_count
    return folded
