"""Detecting finished captures in a live pcap drop directory.

The online attack's front door: an eavesdropper's capture box writes one pcap
per observed viewing session into a drop directory, and the attacker's
machine tails that directory, attacking each capture as soon as it is
*finished* — not while it is still being written.

Two finish signals are understood:

* **The marker/atomic-rename convention** (the one
  :class:`repro.dataset.format.DatasetWriter` and
  :meth:`repro.net.capture.CapturedTrace.to_pcap_atomic` use): a cooperative
  writer stages the capture under ``<name>.pcap.inprogress`` and renames it
  to ``<name>.pcap`` only once complete.  A ``*.pcap`` whose marker name was
  observed to disappear is trusted immediately — the rename *is* the
  completion signal.
* **The stable-stat fallback** for foreign writers (``tcpdump -w``, an rsync
  without ``--delay-updates``) that grow the final name in place: a capture
  only counts as finished once its size and mtime are unchanged between two
  consecutive scans **and** its mtime is at least ``quiet_seconds`` old.
  The age requirement closes the burst-writer race: ``tcpdump -w`` flushes
  in buffered bursts, so a capture can look stable across two fast polls and
  then grow again — two matching stats alone are not a completion signal.

Behind the watcher, the watch loop's
:class:`~repro.ingest.fleet.BoundedIngestQueue` hands each capture to the
attack service exactly once per process however many scans re-report it,
in first-seen order with name ties broken alphabetically inside a scan.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Iterable

from repro.dataset.format import INPROGRESS_FILENAME
from repro.exceptions import IngestError

#: Suffix a cooperative writer stages an unfinished capture under
#: (``foo.pcap`` is written as ``foo.pcap.inprogress`` and renamed when
#: done) — the per-file form of the dataset writer's directory marker.
INPROGRESS_SUFFIX = INPROGRESS_FILENAME

#: Default filename pattern the watcher considers a capture.
CAPTURE_PATTERN = "*.pcap"

#: How old (seconds since mtime) an unmarked capture must be before the
#: stable-stat fallback trusts it.  One second comfortably outlasts the
#: buffered flush cadence of ``tcpdump -w`` while keeping follow-mode
#: latency interactive.
DEFAULT_QUIET_SECONDS = 1.0


class CaptureWatcher:
    """Reports captures in a drop directory once they have finished landing.

    The watcher is a polling scanner with memory: each :meth:`scan` looks at
    the directory once, compares what it sees with the previous scan, and
    returns the captures that have *become* finished since — each exactly
    once, sorted by name.  It holds no file handles and never reads capture
    bytes, so scanning a directory of thousands of pcaps costs one
    ``stat()`` per unfinished candidate.
    """

    def __init__(
        self,
        directory: str | Path,
        pattern: str = CAPTURE_PATTERN,
        recursive: bool = False,
        quiet_seconds: float = DEFAULT_QUIET_SECONDS,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self._directory = Path(directory)
        if not self._directory.is_dir():
            raise IngestError(
                f"capture drop directory {self._directory} does not exist "
                "(create it before watching, or point at a dataset's traces/)"
            )
        self._pattern = pattern
        self._recursive = recursive
        self._quiet_seconds = quiet_seconds
        self._clock = clock
        #: Captures already reported as finished (by directory-relative key).
        self._reported: set[str] = set()
        #: Last-seen (size, mtime_ns) of not-yet-finished candidates.
        self._stats: dict[str, tuple[int, int]] = {}
        #: Capture keys whose ``.inprogress`` marker has been observed —
        #: when the marker disappears the rename convention vouches for the
        #: capture and the stability wait is skipped.
        self._marked: set[str] = set()

    @property
    def directory(self) -> Path:
        """The drop directory being watched."""
        return self._directory

    def _key(self, path: Path) -> str:
        # Relative-to-the-root keys so recursive watching distinguishes
        # ``a/x.pcap`` from ``b/x.pcap``; in flat mode the key is the name.
        return path.relative_to(self._directory).as_posix()

    def _glob(self, pattern: str) -> Iterable[Path]:
        if self._recursive:
            return self._directory.glob(f"**/{pattern}")
        return self._directory.glob(pattern)

    def scan(self, assume_quiescent: bool = False) -> list[Path]:
        """One poll of the drop directory; returns newly finished captures.

        ``assume_quiescent`` trusts every unmarked capture immediately — the
        one-shot drain mode (``repro watch --once``) where the caller asserts
        nothing is still being written.  Without it, an unmarked capture must
        either complete the marker/rename protocol or hold a stable size and
        mtime across two scans *and* carry an mtime at least
        ``quiet_seconds`` old before it is reported — a foreign writer that
        flushes in bursts can look stable between two fast polls and then
        grow again, so recent modification alone vetoes the report.
        """
        finished: list[Path] = []
        present_markers: set[str] = set()
        for marker in sorted(self._glob(self._pattern + INPROGRESS_SUFFIX)):
            name = self._key(marker)[: -len(INPROGRESS_SUFFIX)]
            present_markers.add(name)
            self._marked.add(name)
        for path in sorted(self._glob(self._pattern)):
            name = self._key(path)
            if name in self._reported or not path.is_file():
                continue
            if name in present_markers:
                # The writer is mid-copy under the marker protocol; the
                # capture at the final name (if any) is not this session's
                # finished artefact yet.
                continue
            if assume_quiescent or name in self._marked:
                self._report(name, finished, path)
                continue
            try:
                stat = path.stat()
            except OSError:
                continue  # raced a writer's rename/delete; next scan decides
            signature = (stat.st_size, stat.st_mtime_ns)
            quiet = (
                self._clock() - stat.st_mtime_ns / 1e9 >= self._quiet_seconds
            )
            if self._stats.get(name) == signature and quiet:
                self._report(name, finished, path)
            else:
                self._stats[name] = signature
        return finished

    def _report(self, name: str, finished: list[Path], path: Path) -> None:
        self._reported.add(name)
        self._stats.pop(name, None)
        self._marked.discard(name)
        finished.append(path)
