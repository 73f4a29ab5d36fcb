"""The streaming attack service: captures in, verdicts out.

:class:`StreamingAttackService` is the one attack step behind the online
(``repro watch``, driven by the watch loop in :mod:`repro.ingest.fleet`)
and offline (``repro attack`` over a directory) paths.  Both hand
:meth:`~StreamingAttackService.process` capture files; it resolves each one
into a :class:`~repro.core.pipeline.PcapAttackTask`, streams the tasks
through :meth:`WhiteMirrorAttack.iter_attack_pcaps` (the engine's
bounded-window ``imap``, so ``--workers N`` parses and attacks captures in
parallel while results come back in order), and appends one durable verdict
line per capture to the :class:`~repro.ingest.log.ResultsLog`.

Each capture is read once.  The attack maps the file and hashes that
mapping on a helper thread while it decodes the same bytes, so the content
fingerprint a verdict is logged under costs no wall time on a second core
and comes from the bytes the verdict was derived from.  What the results
log already knows is therefore skipped when the verdict is *recorded*, in
capture order, not before the attack: a duplicate capture is decoded
before it is skipped.

Because the two paths share this one code path and the log is deterministic,
``repro watch --once`` over a drop directory and ``repro attack
--results-log`` over the same pcaps produce **byte-identical** logs — the
equivalence CI's ``watch-smoke`` job pins.

Restarting the service over an existing log resumes it: previously attacked
captures are recognised by content fingerprint and skipped, a truncated
trailing line (crash mid-append) is repaired on load, and an in-flight
capture that never finished landing is simply re-offered by the watcher once
it completes — so a kill-and-restart cycle converges on exactly one verdict
per capture.

The service never prints: everything it observes surfaces through the
``on_verdict``/``on_skip`` callbacks (plus the watch loop's ``on_error``),
which the job runner (:class:`repro.jobs.runner.JobRunner`) adapts onto
the structured event bus — each callback becomes a
``verdict``/``capture-skipped``/``warning``
:class:`~repro.jobs.events.JobEvent`, so the same run narrates to a
terminal, a JSONL pipeline, or a coordinator's feed depending only on the
attached sinks.
"""

from __future__ import annotations

import itertools
from collections import deque
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from repro.core.fingerprint import FingerprintLibrary
from repro.core.pipeline import AttackResult, PcapAttackTask, WhiteMirrorAttack
from repro.dataset.collection import default_study_script
from repro.dataset.format import METADATA_FILENAME
from repro.exceptions import EngineError, IngestError, ReproError
from repro.ingest.log import CaptureVerdict, ResultsLog, capture_fingerprint
from repro.ingest.tasks import build_pcap_task, entry_truth, metadata_entries_near
from repro.narrative.graph import StoryGraph

#: Why the service passed over a capture without attacking it.  Resolution
#: failures (unknown environment, malformed metadata entry) are reported
#: with the raised error's own message instead of a constant.
SKIP_ALREADY_ATTACKED = "already attacked (content fingerprint in the results log)"
SKIP_UNREADABLE = "capture unreadable (deleted or rotated away mid-scan?)"

#: Callback signatures: a verdict with its full attack result, a skip with
#: its reason, and a capture whose attack failed.
VerdictCallback = Callable[[CaptureVerdict, AttackResult], None]
SkipCallback = Callable[[Path, str], None]
ErrorCallback = Callable[[ReproError], None]


class _Slot(NamedTuple):
    """One capture of a batch, in input order: the task to attack it with,
    or why it cannot be attacked."""

    path: Path
    task: PcapAttackTask | None = None
    truth: tuple[bool, ...] | None = None
    skip: str | None = None


class StreamingAttackService:
    """Attack captures as they arrive, logging one durable verdict each.

    Parameters
    ----------
    library:
        The trained fingerprint library to classify with.
    log_path:
        Where the append-only JSONL results log lives.  ``None`` disables
        persistence (verdicts are still computed and reported) — the offline
        path uses this when no ``--results-log`` is requested.
    graph:
        Story graph for path reconstruction; defaults to the study script.
    workers:
        Engine worker processes for the capture fan-out
        (:class:`~repro.engine.executor.BatchExecutor` semantics).
    environment / client_ip / server_ip:
        Overrides applied to every capture, winning over dataset metadata.
    """

    def __init__(
        self,
        library: FingerprintLibrary,
        log_path: str | Path | None,
        graph: StoryGraph | None = None,
        workers: int | None = None,
        environment: str | None = None,
        client_ip: str | None = None,
        server_ip: str | None = None,
    ) -> None:
        self._graph = graph or default_study_script()
        self._attack = WhiteMirrorAttack(graph=self._graph, library=library)
        self._workers = workers
        self._environment = environment
        self._client_ip = client_ip
        self._server_ip = server_ip
        self._log = ResultsLog(log_path) if log_path is not None else None
        #: Verdicts known so far — the log's contents plus this run's work.
        self._verdicts: list[CaptureVerdict] = (
            self._log.load() if self._log is not None else []
        )
        #: Resume identity: dedup is per (source, content fingerprint), so a
        #: fleet watching two sources that happen to hold identical bytes
        #: attacks the content once *per source* — exactly what N serial
        #: single-source runs would do, preserving the concatenation
        #: contract.  Single-directory runs use ``source=None``.
        self._attacked: set[tuple[str | None, str]] = {
            (verdict.source, verdict.fingerprint) for verdict in self._verdicts
        }
        #: Metadata entries per capture directory, keyed by the mtimes of the
        #: candidate metadata.json files so a follow-mode service does not
        #: re-parse a large index on every arrival (and still notices edits).
        self._entries_cache: dict[
            Path, tuple[tuple[int, ...], dict[str, dict]]
        ] = {}

    @property
    def library(self) -> FingerprintLibrary:
        """The fingerprint library the service classifies with."""
        return self._attack.library

    def replace_library(self, library: FingerprintLibrary) -> None:
        """Swap in a new fingerprint library between batches (hot reload).

        The caller (the fleet's reload watcher) guarantees the swap happens
        only between :meth:`process` calls, never mid-attack; nothing else
        about the service — verdicts, resume state, metadata caches — is
        touched, so captures in flight before and after the swap keep their
        exactly-once guarantee.
        """
        self._attack = WhiteMirrorAttack(graph=self._graph, library=library)

    @property
    def log_path(self) -> Path | None:
        """Where verdicts are persisted, if anywhere."""
        return self._log.path if self._log is not None else None

    @property
    def verdicts(self) -> tuple[CaptureVerdict, ...]:
        """Every verdict known to the service (resumed and fresh), in order."""
        return tuple(self._verdicts)

    def _entries_for(self, directory: Path) -> dict[str, dict]:
        """Cached :func:`metadata_entries_near`, invalidated by file mtime."""
        stamps = []
        for candidate in (directory, directory.parent):
            try:
                stamps.append((candidate / METADATA_FILENAME).stat().st_mtime_ns)
            except OSError:
                stamps.append(-1)
        stamp = tuple(stamps)
        cached = self._entries_cache.get(directory)
        if cached is not None and cached[0] == stamp:
            return cached[1]
        entries = metadata_entries_near(directory)
        self._entries_cache[directory] = (stamp, entries)
        return entries

    # -- one batch ---------------------------------------------------------

    def process(
        self,
        paths: Iterable[str | Path],
        on_verdict: VerdictCallback | None = None,
        on_skip: SkipCallback | None = None,
        source: str | None = None,
        on_error: ErrorCallback | None = None,
    ) -> list[CaptureVerdict]:
        """Attack a batch of captures; returns the fresh verdicts in order.

        Metadata resolution and task building stream lazily against the
        attacking of earlier captures (the engine's bounded-window
        streaming).  The attack reads each capture once and returns the
        SHA-256 of the bytes it read along with the result, so the resume
        check runs when the verdict is recorded: results arrive in capture
        order on the serial and the pool path alike, so a duplicate in the
        batch is skipped behind its original either way and serial and
        ``workers=N`` logs stay byte-identical.  Each verdict is appended to
        the results log *before* the next one is reported — a crash
        mid-batch loses at most the capture whose line was being written.
        Skips and verdicts are reported in capture order.

        Skips (already-attacked content, unknown environment, an
        environment the library has no fingerprint for, a capture deleted
        between scan and read) are reported through ``on_skip`` and never
        logged, so they are re-examined on the next batch or restart.  An
        unreadable capture is reported as such first; then "already
        attacked" wins over every other reason, an attack error included.
        Content dedup applies only when a results log is configured: without
        one there is no resume state to protect, and a batch caller expects
        every named capture attacked.

        ``source`` stamps per-source attribution into every verdict (fleet
        mode) and scopes the content dedup to that source; ``None`` keeps
        the historical single-directory behaviour and log bytes.

        A capture whose attack fails (e.g. a corrupt pcap) raises the
        engine's error by default.  With ``on_error`` the error is reported
        there instead and the rest of the batch is still attacked; the
        failed capture is not logged, so a restart re-examines it.
        """
        paths = [Path(raw_path) for raw_path in paths]
        # How many captures are fresh is only known as verdicts are recorded,
        # so the batch size picks the path: one capture never spawns a pool.
        workers = self._workers if len(paths) > 1 else None
        slots: deque[_Slot] = deque()

        def skip(path: Path, reason: str) -> None:
            if on_skip is not None:
                on_skip(path, reason)

        def tasks() -> Iterator[PcapAttackTask]:
            for path in paths:
                slot = self._slot(path)
                slots.append(slot)
                if slot.task is not None:
                    yield slot.task

        def settle_skips() -> None:
            # The captures ahead of the next result that were never attacked.
            while slots and slots[0].task is None:
                path, _, _, reason = slots.popleft()
                skip(path, self._passed_over(path, source) or reason)

        fresh: list[CaptureVerdict] = []
        queued: Iterator[PcapAttackTask] = tasks()
        while True:
            try:
                for result in self._attack.iter_attack_pcaps(queued, workers=workers):
                    settle_skips()
                    slot = slots.popleft()
                    if self._already_attacked(source, result.fingerprint):
                        skip(slot.path, SKIP_ALREADY_ATTACKED)
                    else:
                        self._record(slot, result, source, fresh, on_verdict)
                settle_skips()
                return fresh
            except EngineError as error:
                # imap preserves input order and fails at the first failed
                # slot, so the front task slot is the capture that failed.
                settle_skips()
                path = slots.popleft().path
                reason = self._passed_over(path, source)
                if reason is not None:
                    skip(path, reason)
                elif on_error is None:
                    raise
                else:
                    on_error(error)
            # The rest of ``slots`` was in flight and is resubmitted ahead of
            # the captures not yet produced.
            queued = itertools.chain(
                [slot.task for slot in slots if slot.task is not None], queued
            )

    def _slot(self, path: Path) -> _Slot:
        """Resolve one capture's task from its metadata and the overrides."""
        entry = self._entries_for(path.parent).get(path.name)
        try:
            task = build_pcap_task(
                path,
                entry,
                environment=self._environment,
                client_ip=self._client_ip,
                server_ip=self._server_ip,
            )
            truth = entry_truth(entry)
        except IngestError as error:
            # Undeterminable environment or a malformed metadata entry: skip
            # loudly; a long-running watch must outlive foreign metadata
            # just like foreign captures.
            return _Slot(path, skip=str(error))
        if task.condition_key not in self.library:
            return _Slot(
                path,
                skip=f"environment {task.condition_key} not in the fingerprint library",
            )
        return _Slot(path, task, truth)

    def _already_attacked(self, source: str | None, fingerprint: str) -> bool:
        return self._log is not None and (source, fingerprint) in self._attacked

    def _passed_over(self, path: Path, source: str | None) -> str | None:
        """Why a capture the attack did not turn into a verdict is skipped
        rather than reported by its own reason: it is unreadable, or the
        results log already holds its content.  ``None`` otherwise.

        Only captures without a result are hashed here, with bounded block
        reads; a result carries the fingerprint of the bytes it was read from.
        """
        try:
            fingerprint = capture_fingerprint(path)
        except IngestError:
            # The follow-mode service must outlive a capture that a foreign
            # writer rotated away between scan and read.
            return SKIP_UNREADABLE
        if self._already_attacked(source, fingerprint):
            return SKIP_ALREADY_ATTACKED
        return None

    def _record(
        self,
        slot: _Slot,
        result: AttackResult,
        source: str | None,
        fresh: list[CaptureVerdict],
        on_verdict: VerdictCallback | None,
    ) -> None:
        """Log, remember and report one capture's verdict."""
        path, task, truth, _ = slot
        fingerprint = result.fingerprint
        verdict = CaptureVerdict(
            capture=path.name,
            fingerprint=fingerprint,
            condition_key=task.condition_key,
            client_ip=task.client_ip,
            server_ip=task.server_ip,
            pattern=result.recovered_pattern,
            truth=truth,
            source=source,
        )
        if self._log is not None:
            self._log.append(verdict)
        self._attacked.add((source, fingerprint))
        self._verdicts.append(verdict)
        fresh.append(verdict)
        if on_verdict is not None:
            on_verdict(verdict, result)

    # -- aggregates --------------------------------------------------------

    def aggregate_rows(self) -> list[dict[str, object]]:
        """The running aggregate-accuracy table, one row per environment.

        Aggregates cover *every* verdict the service knows — including ones
        resumed from the log — so a restarted watcher's table continues
        where the killed one left off.  A ``total`` row closes the table.
        """
        per_environment: dict[str, list[CaptureVerdict]] = {}
        for verdict in self._verdicts:
            per_environment.setdefault(verdict.condition_key, []).append(verdict)
        rows: list[dict[str, object]] = []
        for key in sorted(per_environment):
            rows.append(self._aggregate_row(key, per_environment[key]))
        if len(rows) != 1:
            rows.append(self._aggregate_row("total", self._verdicts))
        return rows

    def aggregate_rows_by_source(self) -> list[dict[str, object]]:
        """Per-source aggregate accuracy, for the fleet's ``/metrics`` view.

        One row per attributed source (sorted), with sourceless verdicts —
        a resumed single-directory log, say — grouped under ``"(unsourced)"``
        so no verdict silently drops out of the table.
        """
        per_source: dict[str, list[CaptureVerdict]] = {}
        for verdict in self._verdicts:
            label = verdict.source if verdict.source is not None else "(unsourced)"
            per_source.setdefault(label, []).append(verdict)
        rows = []
        for label in sorted(per_source):
            row = self._aggregate_row(label, per_source[label])
            row["source"] = row.pop("environment")
            rows.append(row)
        return rows

    @staticmethod
    def _aggregate_row(
        label: str, verdicts: Sequence[CaptureVerdict]
    ) -> dict[str, object]:
        questions = sum(verdict.question_count for verdict in verdicts)
        correct = sum(verdict.correct_questions for verdict in verdicts)
        return {
            "environment": label,
            "captures": len(verdicts),
            "choices": sum(verdict.choice_count for verdict in verdicts),
            "accuracy": (
                f"{correct}/{questions} ({correct / questions:.1%})"
                if questions
                else "n/a (no ground truth)"
            ),
        }
