"""The watch loop: one or many capture boxes, one attack service.

Every ``repro watch`` runs here.  Each source is a drop directory
(optionally watched recursively) with its own :class:`CaptureWatcher`;
arrivals from every source funnel through one :class:`BoundedIngestQueue`
into one :class:`~repro.ingest.service.StreamingAttackService`.  With
``--source A --source B …`` every verdict is stamped with the source that
produced it; the positional ``repro watch DIR`` is a fleet of one
unlabelled source whose verdicts carry no ``source`` at all.

Three properties drive the design:

* **Determinism (watch ≡ attack, multiplied).**  Sources are processed in
  *canonical order* — sorted by their attribution label — and within a
  source captures keep the watcher's name order.  Offers enter the queue in
  that order, the queue is FIFO, and parked overflow is promoted in the
  same order, so the global processing order is canonical under any queue
  bound or worker count.  A multi-source ``--once`` run therefore writes a
  results log byte-identical to N serial single-source runs concatenated in
  canonical source order, and a kill/restart converges on the same bytes
  (the killed run wrote a canonical prefix; the restart appends the
  canonical suffix).

* **Bounded memory.**  The queue holds at most ``queue_high`` pending
  captures; arrivals beyond the bound park in per-source pending sets (a
  name each, not a buffer) and are promoted once the depth drains to
  ``queue_low``.  Entering saturation fires ``on_saturated`` exactly once
  per episode so backpressure is observable, never silent.

* **Hot reload, never mid-attack.**  When ``reload_library`` names a
  staging path, its content fingerprint is checked between batches; a
  change swaps the service's library atomically between captures and fires
  ``on_reloaded``.  Corrupt staged bytes are reported and ignored — the old
  library keeps serving.
"""

from __future__ import annotations

import hashlib
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Protocol, Sequence

from repro.core.fingerprint import FingerprintLibrary
from repro.exceptions import IngestError, ReproError
from repro.ingest.log import CaptureVerdict
from repro.ingest.watcher import DEFAULT_QUIET_SECONDS, CaptureWatcher

#: Default bounded-queue watermarks: the queue never holds more than
#: ``DEFAULT_QUEUE_HIGH`` pending captures, and parked arrivals are promoted
#: once it drains to ``DEFAULT_QUEUE_LOW``.
DEFAULT_QUEUE_HIGH = 256
DEFAULT_QUEUE_LOW = 128


@dataclass(frozen=True)
class FleetSource:
    """One capture source: the label verdicts carry and the directory.

    A ``None`` label is the positional ``repro watch DIR`` source: its
    verdicts carry no ``source`` and its log bytes equal ``repro attack
    --results-log`` over the same pcaps.
    """

    label: str | None
    directory: Path


def validate_sources(
    sources: Sequence[str | Path],
    resolve: Callable[[str | Path], Path] = Path,
) -> tuple[FleetSource, ...]:
    """Resolve, validate and canonically order the fleet's capture sources.

    Fails loudly — naming ``--source`` — on an empty list, a missing
    directory, the same directory given twice, or one source nested inside
    another (a recursive fleet would attribute the nested captures to both).
    Returns the sources sorted by label: the canonical order every fleet
    run, serial reference, and merged log agrees on.  ``resolve`` anchors
    relative paths (the runner passes its workspace's resolver); the
    attribution label is always the ``--source`` string as given.
    """
    if not sources:
        raise IngestError("at least one --source directory is required")
    seen_labels: set[str] = set()
    resolved: list[tuple[FleetSource, Path]] = []
    for raw in sources:
        label = str(raw)
        directory = resolve(raw)
        if not directory.is_dir():
            raise IngestError(
                f"capture source {label} does not exist "
                "(--source must name an existing directory)"
            )
        if label in seen_labels:
            raise IngestError(f"duplicate --source directory {label}")
        seen_labels.add(label)
        real = directory.resolve()
        for other, other_real in resolved:
            if real == other_real:
                raise IngestError(
                    f"duplicate --source directory {label} "
                    f"(resolves to the same directory as {other.label})"
                )
            if real.is_relative_to(other_real) or other_real.is_relative_to(real):
                inner, outer = (
                    (label, other.label)
                    if real.is_relative_to(other_real)
                    else (other.label, label)
                )
                raise IngestError(
                    f"--source directories overlap: {inner} is inside {outer} "
                    "(captures there would be attributed to both sources)"
                )
        resolved.append((FleetSource(label=label, directory=directory), real))
    return tuple(sorted((source for source, _ in resolved), key=lambda s: s.label))


def validate_watermarks(high: int, low: int) -> None:
    """Queue watermark sanity, shared by the CLI spec and the queue itself."""
    if high < 1:
        raise IngestError(
            f"--queue-high must be a positive capture count, got {high}"
        )
    if low < 0:
        raise IngestError(f"--queue-low must be >= 0, got {low}")
    if high <= low:
        raise IngestError(
            f"--queue-high ({high}) must be greater than --queue-low ({low}) "
            "— the queue must drain below the low watermark before parked "
            "captures are promoted"
        )


class BoundedIngestQueue:
    """A FIFO capture queue with high/low watermarks and per-source parking.

    At most ``high_watermark`` captures are pending at once.  Offers beyond
    the bound *park*: the capture's path joins its source's parked set (an
    entry per capture, not a buffer — memory stays O(names)) and is promoted
    back into the pending queue, in canonical ``(source, path)`` order, once
    a drain brings the depth down to ``low_watermark``.  The first park of a
    saturation episode fires ``on_saturated(source, depth)``.

    Determinism: offers arrive in canonical order, the pending queue is
    FIFO, and promotion re-inserts parked captures in canonical order — so
    the order captures *leave* the queue is independent of where the bound
    happened to cut.
    """

    def __init__(
        self,
        high_watermark: int = DEFAULT_QUEUE_HIGH,
        low_watermark: int = DEFAULT_QUEUE_LOW,
        on_saturated: Callable[[str | None, int], None] | None = None,
    ) -> None:
        validate_watermarks(high_watermark, low_watermark)
        self._high = high_watermark
        self._low = low_watermark
        self._on_saturated = on_saturated
        self._pending: deque[tuple[str | None, Path]] = deque()
        self._parked: dict[str | None, deque[Path]] = {}
        self._seen: set[tuple[str | None, str]] = set()
        self._saturated = False
        self._peak_depth = 0
        self._saturation_events = 0

    @property
    def high_watermark(self) -> int:
        return self._high

    @property
    def low_watermark(self) -> int:
        return self._low

    @property
    def peak_depth(self) -> int:
        """The deepest the pending queue has ever been (≤ high watermark)."""
        return self._peak_depth

    @property
    def parked_count(self) -> int:
        """Captures currently parked beyond the bound, across all sources."""
        return sum(len(parked) for parked in self._parked.values())

    @property
    def saturation_events(self) -> int:
        """How many saturation episodes the queue has entered."""
        return self._saturation_events

    @property
    def saturated(self) -> bool:
        """Whether the queue is currently holding parked overflow."""
        return self._saturated

    def __len__(self) -> int:
        return len(self._pending)

    def offer(self, source: str | None, paths: Iterable[Path]) -> list[Path]:
        """Enqueue one source's new arrivals; returns the accepted ones.

        Dedup key is ``(source, path)`` — each capture enters the fleet
        exactly once per process however many scans re-report it.
        """
        accepted: list[Path] = []
        for path in sorted(Path(path) for path in paths):
            key = (source, str(path))
            if key in self._seen:
                continue
            self._seen.add(key)
            accepted.append(path)
            # Once anything is parked, every new arrival parks too — letting
            # it jump into the pending queue would overtake older parked
            # captures and break FIFO (and with it, canonical order).
            if not self._parked and len(self._pending) < self._high:
                self._pending.append((source, path))
                self._peak_depth = max(self._peak_depth, len(self._pending))
            else:
                self._parked.setdefault(source, deque()).append(path)
                if not self._saturated:
                    self._saturated = True
                    self._saturation_events += 1
                    if self._on_saturated is not None:
                        self._on_saturated(source, len(self._pending))
        return accepted

    def drain_next_batch(self) -> tuple[str | None, list[Path]] | None:
        """Pop the longest same-source prefix of the queue, then refill.

        Returns ``(source, paths)`` or ``None`` when nothing is pending.
        Batches are same-source because the attack service attributes one
        batch to one source; the FIFO prefix rule keeps canonical order.
        """
        if not self._pending:
            self._refill()
            if not self._pending:
                return None
        source, first = self._pending.popleft()
        batch = [first]
        while self._pending and self._pending[0][0] == source:
            batch.append(self._pending.popleft()[1])
        self._refill()
        return source, batch

    def _refill(self) -> None:
        """Promote parked captures once the depth has drained far enough."""
        if not self._parked or len(self._pending) > self._low:
            return
        while len(self._pending) < self._high and self._parked:
            source = min(self._parked)  # canonical order across sources
            parked = self._parked[source]
            self._pending.append((source, parked.popleft()))
            if not parked:
                del self._parked[source]
        self._peak_depth = max(self._peak_depth, len(self._pending))
        if not self._parked:
            self._saturated = False


class LibraryReloadWatcher:
    """Watches a staged fingerprint-library file for content changes.

    :meth:`poll` fingerprints the staged bytes; when the content has changed
    since the last successful load it parses a fresh
    :class:`FingerprintLibrary` and returns it (or reports the failure and
    keeps serving the old one — a half-written or corrupt stage must never
    take the fleet down).  The content check means a ``touch`` with
    identical bytes is a no-op: reloads are keyed by fingerprint, not mtime.
    """

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)
        library, fingerprint = self._load()  # startup: fail loudly
        self._library = library
        self._fingerprint = fingerprint
        self._bad_fingerprint: str | None = None

    @property
    def path(self) -> Path:
        return self._path

    @property
    def library(self) -> FingerprintLibrary:
        """The most recently loaded (valid) library."""
        return self._library

    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the library currently in service."""
        return self._fingerprint

    def _read(self) -> bytes:
        try:
            return self._path.read_bytes()
        except OSError as error:
            raise IngestError(
                f"cannot read --reload-library {self._path}: {error}"
            ) from error

    def _load(self) -> tuple[FingerprintLibrary, str]:
        # Parse the very bytes that were hashed: a second read could see a
        # different (say, mid-rewrite) file than the fingerprint names.
        raw = self._read()
        fingerprint = hashlib.sha256(raw).hexdigest()
        try:
            library = FingerprintLibrary.from_bytes(raw)
        except ReproError as error:
            raise IngestError(
                f"--reload-library {self._path} is not a loadable fingerprint "
                f"library: {error}"
            ) from error
        return library, fingerprint

    def poll(
        self, on_error: Callable[[ReproError], None] | None = None
    ) -> FingerprintLibrary | None:
        """Return a freshly staged library, or ``None`` if nothing changed.

        A staged file whose bytes fail to parse is reported through
        ``on_error`` once per distinct content (no warning storms while a
        writer is mid-copy) and otherwise ignored.
        """
        try:
            raw = self._read()
        except IngestError as error:
            # The stage was deleted or is mid-replace: keep the old library.
            if on_error is not None and self._bad_fingerprint != "<unreadable>":
                self._bad_fingerprint = "<unreadable>"
                on_error(error)
            return None
        fingerprint = hashlib.sha256(raw).hexdigest()
        if fingerprint in (self._fingerprint, self._bad_fingerprint):
            return None
        try:
            library = FingerprintLibrary.from_bytes(raw)
        except ReproError as error:
            self._bad_fingerprint = fingerprint
            if on_error is not None:
                on_error(
                    IngestError(
                        f"staged library {self._path} is corrupt; keeping the "
                        f"current library: {error}"
                    )
                )
            return None
        self._library = library
        self._fingerprint = fingerprint
        self._bad_fingerprint = None
        return library


class AttackServiceLike(Protocol):
    """What the fleet needs from its attack service (duck-typed for tests)."""

    def process(
        self,
        paths: Iterable[str | Path],
        on_verdict: Callable[[CaptureVerdict, object], None] | None = None,
        on_skip: Callable[[Path, str], None] | None = None,
        source: str | None = None,
        on_error: Callable[[ReproError], None] | None = None,
    ) -> list[CaptureVerdict]: ...

    def replace_library(self, library: FingerprintLibrary) -> None: ...


class FleetWatchService:
    """Drives N capture sources through one attack service, in order.

    The fleet owns the watchers, the bounded queue and the reload watcher;
    the attack itself is delegated to ``service`` (anything satisfying
    :class:`AttackServiceLike` — the stress harness substitutes a recording
    stub to flood the queue without attacking real pcaps).
    """

    def __init__(
        self,
        service: AttackServiceLike,
        sources: Sequence[FleetSource],
        recursive: bool = False,
        queue_high: int = DEFAULT_QUEUE_HIGH,
        queue_low: int = DEFAULT_QUEUE_LOW,
        reload_watcher: LibraryReloadWatcher | None = None,
        quiet_seconds: float = DEFAULT_QUIET_SECONDS,
        clock: Callable[[], float] = time.time,
        on_saturated: Callable[[str | None, int], None] | None = None,
        on_reloaded: Callable[[str, str], None] | None = None,
        on_arrival: Callable[[str | None, Path], None] | None = None,
    ) -> None:
        self._service = service
        self._sources = tuple(sources)
        self._watchers = [
            (
                source,
                CaptureWatcher(
                    source.directory,
                    recursive=recursive,
                    quiet_seconds=quiet_seconds,
                    clock=clock,
                ),
            )
            for source in self._sources
        ]
        self._queue = BoundedIngestQueue(
            high_watermark=queue_high,
            low_watermark=queue_low,
            on_saturated=on_saturated,
        )
        self._reload = reload_watcher
        self._on_reloaded = on_reloaded
        self._on_arrival = on_arrival

    @property
    def queue(self) -> BoundedIngestQueue:
        """The fleet's bounded queue (metrics reads its gauges)."""
        return self._queue

    @property
    def sources(self) -> tuple[FleetSource, ...]:
        """The fleet's sources, in canonical order."""
        return self._sources

    def _maybe_reload(
        self, on_error: Callable[[ReproError], None] | None
    ) -> None:
        """Swap in a freshly staged library — between batches, never mid-attack."""
        if self._reload is None:
            return
        library = self._reload.poll(on_error=on_error)
        if library is not None:
            self._service.replace_library(library)
            if self._on_reloaded is not None:
                self._on_reloaded(
                    str(self._reload.path), self._reload.fingerprint
                )

    def run(
        self,
        follow: bool = False,
        poll_interval: float = 0.5,
        on_verdict: Callable[[CaptureVerdict, object], None] | None = None,
        on_skip: Callable[[Path, str], None] | None = None,
        on_error: Callable[[ReproError], None] | None = None,
        should_stop: Callable[[], bool] | None = None,
    ) -> list[CaptureVerdict]:
        """Drain every source, optionally following them for new arrivals.

        Scan every source (canonical order), offer arrivals into the
        bounded queue, drain same-source batches through
        ``service.process`` (with the hot-reload check between batches),
        then poll again.  One-shot mode (``follow=False``) performs a
        single quiescent pass over every source — every unmarked capture
        is trusted as finished — and drains the queue to empty, parked
        overflow included, before returning.  Follow mode polls every
        ``poll_interval`` seconds, applying the watcher's finish
        detection, until ``should_stop`` returns true (or forever —
        ``repro watch`` runs until interrupted).

        A failed capture (e.g. a corrupt pcap) kills a one-shot run — the
        caller asked for exactly this drain — but only warns, via
        ``on_error``, in follow mode, where the rest of its batch is still
        attacked.  The failed capture is not retried by this process (a
        corrupt capture would loop forever); it is re-examined on restart,
        since only logged verdicts are skipped.
        """
        # Only follow mode passes ``on_error``: a one-shot failure propagates,
        # and services that predate the keyword still drain one-shot runs.
        keep_going = {"on_error": on_error or (lambda error: None)} if follow else {}
        fresh: list[CaptureVerdict] = []
        while True:
            for source, watcher in self._watchers:
                found = watcher.scan(assume_quiescent=not follow)
                accepted = self._queue.offer(source.label, found)
                if self._on_arrival is not None:
                    for path in accepted:
                        self._on_arrival(source.label, path)
            while True:
                batch = self._queue.drain_next_batch()
                if batch is None:
                    break
                self._maybe_reload(on_error)
                label, paths = batch
                try:
                    fresh.extend(
                        self._service.process(
                            paths,
                            on_verdict=on_verdict,
                            on_skip=on_skip,
                            source=label,
                            **keep_going,
                        )
                    )
                except ReproError as error:
                    if not follow:
                        raise
                    if on_error is not None:
                        on_error(error)
            if not follow:
                return fresh
            if should_stop is not None and should_stop():
                return fresh
            time.sleep(poll_interval)
