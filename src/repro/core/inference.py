"""Choice-sequence inference from classified record events.

The streaming protocol (Section III of the paper, Figure 1) implies a simple
decoding rule for the classified client-record sequence:

* every **type-1** record marks a question being shown;
* if a **type-2** record appears after a type-1 and before the next type-1
  (or the end of the session), the viewer picked the **non-default** branch
  at that question; otherwise they picked (or defaulted into) the **default**
  branch.

Given the story graph, the recovered default/non-default pattern identifies
the exact path (and therefore the on-screen labels) the viewer followed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.features import ClientRecord, LABEL_TYPE1, LABEL_TYPE2
from repro.exceptions import AttackError
from repro.narrative.graph import StoryGraph
from repro.narrative.path import ViewingPath, path_from_choices


@dataclass(frozen=True)
class ChoiceEvent:
    """One question the attack believes the viewer encountered."""

    index: int
    question_shown_at: float
    took_default: bool
    type2_seen_at: float | None = None

    def __post_init__(self) -> None:
        if self.index < 0:
            raise AttackError("choice index must be non-negative")
        if self.question_shown_at < 0:
            raise AttackError("question timestamp must be non-negative")
        if not self.took_default and self.type2_seen_at is None:
            raise AttackError("a non-default choice must record when type-2 was seen")


@dataclass(frozen=True)
class InferredChoices:
    """The attack's reconstruction of a session's choices."""

    events: tuple[ChoiceEvent, ...]

    @property
    def choice_count(self) -> int:
        """How many questions the attack believes were encountered."""
        return len(self.events)

    @property
    def default_pattern(self) -> tuple[bool, ...]:
        """Recovered default/non-default pattern, in question order."""
        return tuple(event.took_default for event in self.events)

    @property
    def non_default_count(self) -> int:
        """How many non-default selections were recovered."""
        return sum(1 for event in self.events if not event.took_default)


def infer_choices(
    records: Sequence[ClientRecord],
    labels: Sequence[str],
) -> InferredChoices:
    """Decode a labelled record sequence into choices.

    ``labels[i]`` is the classification of ``records[i]``; the two sequences
    must be equally long.  Records must be in capture (time) order.
    """
    if len(records) != len(labels):
        raise AttackError(
            f"got {len(labels)} labels for {len(records)} records"
        )
    if not records:
        raise AttackError("cannot infer choices from an empty record sequence")
    events: list[ChoiceEvent] = []
    current_question_time: float | None = None
    current_type2_time: float | None = None

    def _flush(index: int) -> None:
        nonlocal current_question_time, current_type2_time
        if current_question_time is None:
            return
        events.append(
            ChoiceEvent(
                index=index,
                question_shown_at=current_question_time,
                took_default=current_type2_time is None,
                type2_seen_at=current_type2_time,
            )
        )
        current_question_time = None
        current_type2_time = None

    for record, label in zip(records, labels):
        if label == LABEL_TYPE1:
            _flush(len(events))
            current_question_time = record.timestamp
        elif label == LABEL_TYPE2:
            if current_question_time is None:
                # A type-2 with no preceding type-1: the question report was
                # missed (lost or misclassified).  The selection is still a
                # non-default choice, so synthesise the question event at the
                # type-2 time rather than dropping the information.
                current_question_time = record.timestamp
            if current_type2_time is None:
                current_type2_time = record.timestamp
    _flush(len(events))
    return InferredChoices(events=tuple(events))


def reconstruct_path(
    graph: StoryGraph,
    inferred: InferredChoices,
    decision_time_seconds: float = 5.0,
) -> ViewingPath:
    """Map a recovered default/non-default pattern onto the story graph.

    The result names the actual segments (and therefore the on-screen option
    labels) the viewer saw — the "fine-grained information" of the paper's
    title.
    """
    return path_from_choices(
        graph,
        inferred.default_pattern,
        decision_time_seconds=decision_time_seconds,
    )
