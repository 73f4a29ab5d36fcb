"""The streaming attack service: captures in, verdicts out.

:class:`StreamingAttackService` is the one attack step behind the online
(``repro watch``, driven by the watch loop in :mod:`repro.ingest.fleet`)
and offline (``repro attack`` over a directory) paths.  Both hand
:meth:`~StreamingAttackService.process` capture files; it fingerprints each
one, skips what the results log already knows, resolves the rest into
:class:`~repro.core.pipeline.PcapAttackTask`\\ s, streams them through
:meth:`WhiteMirrorAttack.iter_attack_pcaps` (the engine's bounded-window
``imap``, so ``--workers N`` parses and attacks captures in parallel while
results come back in order), and appends one durable verdict line per
capture to the :class:`~repro.ingest.log.ResultsLog`.

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
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

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

        Captures are fingerprinted (and resume skips settled) up front —
        hashing is cheap and the fresh count decides serial vs pool — while
        metadata resolution and task building stream lazily against the
        attacking of earlier captures (the engine's bounded-window
        streaming).  Each verdict is appended to the results log *before*
        the next one is reported — a crash mid-batch loses at most the
        capture whose line was being written.

        Skips (already-attacked content, unknown environment, an
        environment the library has no fingerprint for, a capture deleted
        between scan and read) are reported through ``on_skip`` and never
        logged, so they are re-examined — cheaply — on the next batch or
        restart.  Content dedup applies only when a results log is
        configured: without one there is no resume state to protect, and a
        batch caller expects every named capture attacked.

        ``source`` stamps per-source attribution into every verdict (fleet
        mode) and scopes the content dedup to that source; ``None`` keeps
        the historical single-directory behaviour and log bytes.

        A capture whose attack fails (e.g. a corrupt pcap) raises the
        engine's error by default.  With ``on_error`` the error is reported
        there instead and the rest of the batch is still attacked; the
        failed capture is not logged, so a restart re-examines it.
        """
        # Hashing is cheap against attacking, so the resume skips are settled
        # up front: a follow-mode poll that re-reports N attacked captures
        # plus one new arrival must route the single fresh capture through
        # the serial path, not spawn a pool for it.
        candidates: list[tuple[Path, str]] = []
        for raw_path in paths:
            path = Path(raw_path)
            try:
                fingerprint = capture_fingerprint(path)
            except IngestError:
                # The follow-mode service must outlive a capture that a
                # foreign writer rotated away between scan and read.
                if on_skip is not None:
                    on_skip(path, SKIP_UNREADABLE)
                continue
            if self._log is not None and (source, fingerprint) in self._attacked:
                if on_skip is not None:
                    on_skip(path, SKIP_ALREADY_ATTACKED)
                continue
            candidates.append((path, fingerprint))
        workers = self._workers if len(candidates) > 1 else None
        pending: list[tuple[Path, str, PcapAttackTask, tuple[bool, ...] | None]] = []
        # Dedup within the batch at *generation* time: deciding against the
        # result-time ``self._attacked`` set would race the parallel pull-
        # ahead window (a duplicate's task can be submitted before the
        # original's verdict lands), making serial and parallel logs differ.
        batch_fingerprints: set[str] = set()

        def tasks() -> Iterator[PcapAttackTask]:
            for path, fingerprint in candidates:
                if self._log is not None and fingerprint in batch_fingerprints:
                    if on_skip is not None:
                        on_skip(path, SKIP_ALREADY_ATTACKED)
                    continue
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
                    # Undeterminable environment or a malformed metadata
                    # entry: skip loudly; a long-running watch must outlive
                    # foreign metadata just like foreign captures.
                    if on_skip is not None:
                        on_skip(path, str(error))
                    continue
                if task.condition_key not in self.library:
                    if on_skip is not None:
                        on_skip(
                            path,
                            f"environment {task.condition_key} not in the "
                            "fingerprint library",
                        )
                    continue
                batch_fingerprints.add(fingerprint)
                pending.append((path, fingerprint, task, truth))
                yield task

        fresh: list[CaptureVerdict] = []
        queued: Iterator[PcapAttackTask] = tasks()
        while True:
            try:
                for result in self._attack.iter_attack_pcaps(queued, workers=workers):
                    self._record(pending.pop(0), result, source, fresh, on_verdict)
                return fresh
            except EngineError as error:
                if on_error is None:
                    raise
                on_error(error)
            # imap preserves input order and fails at the first failed slot,
            # so the front of ``pending`` is the capture that failed; the
            # rest of ``pending`` was in flight and is resubmitted ahead of
            # the captures not yet produced.
            pending.pop(0)
            queued = itertools.chain([entry[2] for entry in pending], queued)

    def _record(
        self,
        entry: tuple[Path, str, PcapAttackTask, tuple[bool, ...] | None],
        result: AttackResult,
        source: str | None,
        fresh: list[CaptureVerdict],
        on_verdict: VerdictCallback | None,
    ) -> None:
        """Log, remember and report one capture's verdict."""
        path, fingerprint, task, truth = entry
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
