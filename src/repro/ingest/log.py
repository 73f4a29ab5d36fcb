"""The append-only, resumable results log of the capture-ingest service.

One JSON line per attacked capture, written append-only so the online and
offline attack paths produce the same artefact: a directory drained by
``repro watch --once`` and the same directory attacked in batch by ``repro
attack --results-log`` yield byte-identical logs.  Determinism rules:

* a line records only what the attack derived from the capture and its
  metadata — never a wall-clock timestamp;
* lines are serialised with sorted keys and compact separators;
* captures are processed in name order within a batch, so identical inputs
  append identical lines in an identical order.

Crash safety mirrors the dataset writer's story at line granularity: each
verdict is appended as **one** ``write`` of the full line (flushed and
fsynced before the service considers the capture attacked), so a crash can
leave at most one truncated *trailing* line behind.  :meth:`ResultsLog.load`
repairs exactly that — the partial tail is cut back to the last complete
line — and the capture whose verdict was lost is simply re-attacked on
restart, keyed by content fingerprint, so a kill-and-restart cycle converges
on exactly one verdict per capture: no duplicates, no gaps.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.exceptions import IngestError
from repro.net.pcap import file_fingerprint
from repro.utils.atomic import write_atomic

#: Format version stamped into every log line.
RESULTS_LOG_VERSION = 1


def capture_fingerprint(path: str | Path) -> str:
    """Content fingerprint (SHA-256 hex digest) of a capture file.

    The identity the results log dedupes on: a restart must skip captures it
    already attacked even if they were re-dropped under a new name, and must
    *not* skip a new capture that reuses an old name.

    This reads the file in bounded blocks (:func:`repro.net.pcap.file_fingerprint`).
    A capture the service decodes is not read a second time for its
    fingerprint: the attack hashes the same mapping it decodes
    (``WhiteMirrorAttack.attack_pcap(..., fingerprint=True)``), with the
    same digest.
    """
    try:
        return file_fingerprint(path)
    except OSError as error:
        raise IngestError(f"cannot fingerprint capture {path}: {error}") from error


@dataclass(frozen=True)
class CaptureVerdict:
    """What the attack concluded about one capture — one results-log line."""

    capture: str
    fingerprint: str
    condition_key: str
    client_ip: str
    server_ip: str | None
    pattern: tuple[bool, ...]
    truth: tuple[bool, ...] | None
    #: Which capture source produced this verdict (multi-source fleet mode);
    #: ``None`` for single-directory runs, whose log lines must stay
    #: byte-identical to the pre-fleet format.
    source: str | None = None

    @property
    def choice_count(self) -> int:
        """How many choices the attack recovered from the capture."""
        return len(self.pattern)

    @property
    def question_count(self) -> int:
        """Ground-truth questions available for scoring (0 without truth)."""
        return len(self.truth) if self.truth is not None else 0

    @property
    def correct_questions(self) -> int:
        """Ground-truth questions whose recovered choice is correct."""
        if self.truth is None:
            return 0
        return sum(
            1
            for index, expected in enumerate(self.truth)
            if index < len(self.pattern) and self.pattern[index] == expected
        )

    def as_record(self) -> dict[str, object]:
        """JSON-friendly form (the log line's payload).

        The ``source`` key appears only when attribution is set: a
        single-directory run's lines carry exactly the historical fields, so
        the pre-fleet byte-identity contracts survive unchanged.
        """
        record: dict[str, object] = {
            "version": RESULTS_LOG_VERSION,
            "capture": self.capture,
            "fingerprint": self.fingerprint,
            "environment": self.condition_key,
            "client_ip": self.client_ip,
            "server_ip": self.server_ip,
            "pattern": list(self.pattern),
            "truth": None if self.truth is None else list(self.truth),
        }
        if self.source is not None:
            record["source"] = self.source
        return record

    @classmethod
    def from_record(cls, record: Mapping[str, object]) -> "CaptureVerdict":
        """Inverse of :meth:`as_record`; validates shape and version."""
        if not isinstance(record, Mapping):
            raise IngestError(
                f"results-log line must be a JSON object, got "
                f"{type(record).__name__}"
            )
        for key in ("version", "capture", "fingerprint", "environment", "pattern"):
            if key not in record:
                raise IngestError(
                    f"results-log line is missing the {key!r} field"
                )
        if record["version"] != RESULTS_LOG_VERSION:
            raise IngestError(
                f"unsupported results-log line version {record['version']}"
            )
        truth = record.get("truth")
        return cls(
            capture=str(record["capture"]),
            fingerprint=str(record["fingerprint"]),
            condition_key=str(record["environment"]),
            client_ip=str(record.get("client_ip", "")),
            server_ip=(
                None if record.get("server_ip") is None else str(record["server_ip"])
            ),
            pattern=tuple(bool(choice) for choice in record["pattern"]),  # type: ignore[union-attr]
            truth=(
                None if truth is None else tuple(bool(choice) for choice in truth)  # type: ignore[union-attr]
            ),
            source=(
                None if record.get("source") is None else str(record["source"])
            ),
        )


class ResultsLog:
    """Append-only JSONL verdict log with crash repair on load."""

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)
        # Fail before any capture is attacked, not after the first verdict
        # tries to append into a directory that was never there.
        if not self._path.parent.is_dir():
            raise IngestError(
                f"results log directory {self._path.parent} does not exist"
            )

    @property
    def path(self) -> Path:
        """Where the log lives."""
        return self._path

    def load(self, repair: bool = True) -> list[CaptureVerdict]:
        """Read every verdict; a missing log is an empty one.

        A truncated trailing line — the debris of a crash mid-append — is
        cut off the file when ``repair`` is on (the default), so the capture
        it described is re-attacked rather than half-remembered.  Any
        *terminated* line that fails to parse — the tail included — cannot
        come from the append-only writer (each append persists as a prefix
        of one write whose final byte is the terminator) and raises instead
        of being silently dropped.
        """
        try:
            raw = self._path.read_bytes()
        except FileNotFoundError:
            return []
        except OSError as error:
            raise IngestError(f"cannot read results log: {error}") from error
        verdicts, consumed = parse_results_log_bytes(raw, self._path)
        if consumed < len(raw):
            if not repair:
                raise IngestError(
                    f"results log {self._path} ends in a partial line "
                    f"(crash during append?); load with repair=True to "
                    "truncate it"
                )
            with open(self._path, "rb+") as handle:
                handle.truncate(consumed)
                handle.flush()
                os.fsync(handle.fileno())
        return verdicts

    def append(self, verdict: CaptureVerdict) -> None:
        """Durably append one verdict as a single line write.

        The line — terminator included — goes to the OS in one ``write`` and
        is fsynced before returning, so the log on disk is always a sequence
        of complete lines plus at most one truncated tail.
        """
        line = verdict_line(verdict)
        try:
            with open(self._path, "a", encoding="utf-8") as handle:
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())
        except OSError as error:
            raise IngestError(
                f"cannot append to results log {self._path}: {error}"
            ) from error


def verdict_line(verdict: CaptureVerdict) -> str:
    """The exact bytes (as text) one verdict occupies in a results log."""
    return (
        json.dumps(verdict.as_record(), sort_keys=True, separators=(",", ":"))
        + "\n"
    )


def parse_results_log_bytes(
    raw: bytes, path: str | Path = "<bytes>"
) -> tuple[list[CaptureVerdict], int]:
    """Parse results-log bytes with the crash-repair semantics of ``load``.

    Returns ``(verdicts, consumed)`` where ``consumed`` is the byte offset
    of the last complete line's terminator — anything beyond it is an
    unterminated trailing partial line (crash debris).  A *terminated* line
    that fails to parse raises, exactly as :meth:`ResultsLog.load` does,
    because the append-only writer cannot produce one.
    """
    verdicts: list[CaptureVerdict] = []
    consumed = 0
    offset = 0
    while offset < len(raw):
        newline = raw.find(b"\n", offset)
        if newline == -1:
            break  # trailing partial line: no terminator made it to disk
        line = raw[offset:newline]
        try:
            verdicts.append(CaptureVerdict.from_record(json.loads(line)))
        except (json.JSONDecodeError, IngestError) as error:
            raise IngestError(
                f"results log {path} is corrupt at byte {offset} "
                f"(not crash debris — a crash can only leave an "
                f"*unterminated* final line): {error}"
            ) from error
        offset = newline + 1
        consumed = offset
    return verdicts, consumed


def canonical_verdict_key(verdict: CaptureVerdict) -> tuple[str, str, str]:
    """The canonical results-log ordering: source, then capture, then content.

    Sourceless (single-directory) verdicts sort as the empty source.  Within
    one source a ``--once`` drain attacks captures in name order and logs at
    most one verdict per content fingerprint, so sorting a source's verdicts
    by this key reproduces the order a serial single-source run wrote them
    in — which is what makes merge canonicalization agree with the
    concatenated serial reference.
    """
    return (verdict.source or "", verdict.capture, verdict.fingerprint)


def canonical_log_bytes(verdicts: Iterable[CaptureVerdict]) -> bytes:
    """Canonical serialisation of a verdict set, independent of arrival order.

    Deduplicates on ``(source, fingerprint)`` — the same identity the
    streaming service resumes on — then sorts by
    :func:`canonical_verdict_key` and serialises each verdict exactly as
    :meth:`ResultsLog.append` would.
    """
    unique: dict[tuple[str | None, str], CaptureVerdict] = {}
    for verdict in verdicts:
        unique.setdefault((verdict.source, verdict.fingerprint), verdict)
    ordered = sorted(unique.values(), key=canonical_verdict_key)
    return "".join(verdict_line(verdict) for verdict in ordered).encode("utf-8")


def merge_results_logs(
    segments: Sequence[str | Path], output: str | Path | None = None
) -> bytes:
    """Merge per-source results-log segments into one canonical log.

    Each segment is parsed with :func:`parse_results_log_bytes`, so a torn
    trailing line in any segment — the debris of a killed writer — is
    dropped exactly as :meth:`ResultsLog.load` would repair it, while
    terminated garbage anywhere raises.  The merged verdict set is
    canonicalised with :func:`canonical_log_bytes`; the segments themselves
    are never modified.  When ``output`` is given the canonical bytes are
    also written there, atomically.
    """
    verdicts: list[CaptureVerdict] = []
    for segment in segments:
        segment_path = Path(segment)
        try:
            raw = segment_path.read_bytes()
        except FileNotFoundError:
            continue  # a source that never produced a verdict has no segment
        except OSError as error:
            raise IngestError(
                f"cannot read results-log segment {segment_path}: {error}"
            ) from error
        parsed, _ = parse_results_log_bytes(raw, segment_path)
        verdicts.extend(parsed)
    merged = canonical_log_bytes(verdicts)
    if output is not None:
        try:
            write_atomic(output, merged)
        except OSError as error:
            raise IngestError(
                f"cannot write merged results log {Path(output)}: {error}"
            ) from error
    return merged
