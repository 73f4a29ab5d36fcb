"""Structured job events and the bus that carries them.

Runners never print: they :meth:`~EventBus.emit` typed :class:`JobEvent`\\ s
(progress, shard-complete, verdict, aggregate, warning, ...) and attached
sinks decide how to surface them.  The two stock sinks live in
:mod:`repro.jobs.renderers`: a console renderer reproducing the historical
terminal output byte-for-byte (pinned by the CLI golden tests) and a JSONL
renderer for machine consumers (``repro --log-format jsonl``, and the
future fleet coordinator's progress feed).

An event is a ``kind`` plus a JSON-friendly payload.  The payload carries
*semantic* fields (counts, paths, rows, patterns), never pre-rendered text:
formatting is entirely the sink's business, which is what keeps one run
drivable by a terminal, a log pipeline, or another process at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Protocol

#: Version stamped into every serialised event line (``"schema": N``), so
#: the jsonl streams coordinators and workers exchange can evolve: a
#: consumer that sees an unfamiliar version refuses it by name instead of
#: misreading the payload.  Bump on any incompatible payload change; new
#: event *kinds* are not incompatible (consumers skip unknown kinds).
EVENT_SCHEMA_VERSION = 1

# The event vocabulary.  Constants rather than an Enum so payloads stay
# plain JSON and new kinds can be introduced without a schema migration;
# the console renderer fails loudly on a kind it has no formatter for.
GENERATION_STARTED = "generation-started"
PROGRESS = "progress"
PROGRESS_FINISHED = "progress-finished"
SHARD_COMPLETE = "shard-complete"
SUBSET_WRITTEN = "subset-written"
DATASET_SUMMARY = "dataset-summary"
TRAINING_STARTED = "training-started"
SIDECAR_FOLDED = "sidecar-folded"
FINGERPRINTS = "fingerprints"
STITCH_STARTED = "stitch-started"
STATE_FOLDED = "state-folded"
ARTIFACT_WRITTEN = "artifact-written"
CHOICES_RECOVERED = "choices-recovered"
PROFILE = "profile"
CAPTURE_QUEUED = "capture-queued"
CAPTURE_SKIPPED = "capture-skipped"
VERDICT = "verdict"
AGGREGATE = "aggregate"
RESUMED = "resumed"
WARNING = "warning"
STOPPED = "stopped"
RESULTS_LOG = "results-log"
QUEUE_SATURATED = "queue-saturated"
LIBRARY_RELOADED = "library-reloaded"
METRICS_SERVING = "metrics-serving"
FLOWS = "flows"
RECORD_STATS = "record-stats"
TABLE = "table"
NOTE = "note"
FIGURE1 = "figure1"
HEADLINE = "headline"
RESULT = "result"
# Attack-vs-defense arena (repro arena).
ARENA_STARTED = "arena-started"
CELL_COMPLETE = "cell-complete"
# Fleet coordination (repro serve / repro work).
SERVE_STARTED = "serve-started"
LEASE_GRANTED = "lease-granted"
LEASE_RECLAIMED = "lease-reclaimed"
UNIT_COMPLETE = "unit-complete"
PLAN_COMPLETE = "plan-complete"
WORK_STARTED = "work-started"
UNIT_LEASED = "unit-leased"
UNIT_UPLOADED = "unit-uploaded"
WORK_FINISHED = "work-finished"


@dataclass(frozen=True)
class JobEvent:
    """One structured fact about a running job."""

    kind: str
    data: Mapping[str, object] = field(default_factory=dict)

    def to_json(self) -> str:
        """One machine-readable line: ``{"event": kind, "schema": N, ...}``.

        Keys are sorted and separators compact so identical events always
        serialise to identical bytes (the results-log determinism rule,
        applied to the event stream).  Every line carries the event schema
        version (:data:`EVENT_SCHEMA_VERSION`) so stream consumers — the
        coordinator ingesting a worker's feed, a pipeline tailing
        ``--log-format jsonl`` — can refuse an incompatible stream by name.
        """
        return json.dumps(
            {"event": self.kind, "schema": EVENT_SCHEMA_VERSION, **self.data},
            sort_keys=True,
            separators=(",", ":"),
        )


class EventSink(Protocol):
    """Anything that can receive job events (renderers, collectors...)."""

    def handle(self, event: JobEvent) -> None:  # pragma: no cover - protocol
        ...


class EventBus:
    """Fans each emitted event out to every attached sink, in order."""

    def __init__(self, *sinks: EventSink) -> None:
        self._sinks: list[EventSink] = list(sinks)

    def attach(self, sink: EventSink) -> None:
        """Subscribe ``sink`` to every subsequent event."""
        self._sinks.append(sink)

    def detach(self, sink: EventSink) -> None:
        """Unsubscribe a previously attached ``sink``."""
        self._sinks.remove(sink)

    def emit(self, kind: str, **data: object) -> JobEvent:
        """Build a :class:`JobEvent` and deliver it to every sink."""
        event = JobEvent(kind=kind, data=data)
        for sink in self._sinks:
            sink.handle(event)
        return event
