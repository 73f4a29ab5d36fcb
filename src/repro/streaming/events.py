"""Session event log.

The simulator records a structured event for everything that happens during a
viewing session.  The Figure 1 reproduction checks this log against the
streaming process described in the paper, and the evaluation code uses it as
ground truth when scoring the attack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.exceptions import StreamingError


class EventKind(str, Enum):
    """All event types the simulator can emit."""

    SESSION_STARTED = "session_started"
    HANDSHAKE_COMPLETED = "handshake_completed"
    SEGMENT_STARTED = "segment_started"
    CHUNK_REQUESTED = "chunk_requested"
    CHUNK_RECEIVED = "chunk_received"
    QUESTION_SHOWN = "question_shown"
    TYPE1_SENT = "type1_sent"
    PREFETCH_STARTED = "prefetch_started"
    PREFETCH_CHUNK = "prefetch_chunk"
    CHOICE_MADE = "choice_made"
    TYPE2_SENT = "type2_sent"
    PREFETCH_DISCARDED = "prefetch_discarded"
    TELEMETRY_SENT = "telemetry_sent"
    BULK_REPORT_SENT = "bulk_report_sent"
    STATE_MESSAGE_LOST = "state_message_lost"
    SEGMENT_FINISHED = "segment_finished"
    SESSION_FINISHED = "session_finished"


@dataclass(frozen=True)
class SessionEvent:
    """One entry of the session event log."""

    timestamp: float
    kind: EventKind
    details: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise StreamingError("event timestamp must be non-negative")


class EventLog:
    """Ordered collection of session events."""

    def __init__(self) -> None:
        self._events: list[SessionEvent] = []

    def record(self, timestamp: float, kind: EventKind, **details: object) -> SessionEvent:
        """Append an event and return it."""
        event = SessionEvent(timestamp=timestamp, kind=kind, details=dict(details))
        self._events.append(event)
        return event

    @property
    def events(self) -> tuple[SessionEvent, ...]:
        """All recorded events, in order."""
        return tuple(self._events)

    def of_kind(self, kind: EventKind) -> list[SessionEvent]:
        """All events of one kind, in order."""
        return [event for event in self._events if event.kind is kind]

    def count(self, kind: EventKind) -> int:
        """Number of events of one kind."""
        return len(self.of_kind(kind))

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)
