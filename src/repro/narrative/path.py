"""Viewing paths: walks through the story graph."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import NarrativeError
from repro.narrative.choices import ChoiceRecord
from repro.narrative.graph import StoryGraph


@dataclass(frozen=True)
class ViewingPath:
    """The ordered segments a viewer watched and the choices that led there.

    ``segments`` always starts with the root segment.  ``choices`` has one
    entry per choice point encountered, in order; ``len(segments) ==
    len(choices) + 1`` for completed sessions.
    """

    segment_ids: tuple[str, ...]
    choices: tuple[ChoiceRecord, ...]

    def __post_init__(self) -> None:
        if not self.segment_ids:
            raise NarrativeError("a viewing path must contain at least one segment")

    @property
    def choice_count(self) -> int:
        """Number of decisions made along the path."""
        return len(self.choices)

    @property
    def default_pattern(self) -> tuple[bool, ...]:
        """``True`` where the viewer took the default branch, in order."""
        return tuple(record.took_default for record in self.choices)

    @property
    def non_default_count(self) -> int:
        """How many times the viewer rejected the prefetched branch."""
        return sum(1 for record in self.choices if not record.took_default)

    def selected_labels(self) -> tuple[str, ...]:
        """The on-screen labels the viewer picked, in order."""
        return tuple(record.selected_label for record in self.choices)

    def question_ids(self) -> tuple[str, ...]:
        """The questions encountered, in order."""
        return tuple(record.question_id for record in self.choices)


def path_from_choices(
    graph: StoryGraph,
    take_default: Sequence[bool],
    decision_time_seconds: float = 5.0,
    max_choice_points: int | None = None,
) -> ViewingPath:
    """Walk the story graph applying a fixed default/non-default pattern.

    Parameters
    ----------
    graph:
        The interactive script.
    take_default:
        ``take_default[i]`` is applied at the ``i``-th question encountered.
        If the walk reaches more questions than the pattern covers, the walk
        stops there (a partially watched session); if the movie ends earlier,
        the surplus pattern entries are ignored.
    decision_time_seconds:
        Ground-truth decision latency recorded for every choice.
    max_choice_points:
        Safety valve for graphs with loops; defaults to twice the number of
        choice points.
    """
    graph.validate()
    limit = max_choice_points or 2 * max(1, graph.choice_point_count)
    segments = [graph.root_segment.segment_id]
    records: list[ChoiceRecord] = []
    current = graph.root_segment.segment_id
    while len(records) < limit:
        choice_point = graph.choice_point_after(current)
        if choice_point is None:
            break
        if len(records) >= len(take_default):
            break
        takes_default = bool(take_default[len(records)])
        choice = choice_point.choice_for(takes_default)
        records.append(
            ChoiceRecord(
                question_id=choice_point.question_id,
                selected_label=choice.label,
                took_default=takes_default,
                decision_time_seconds=decision_time_seconds,
            )
        )
        current = choice.target_segment_id
        segments.append(current)
    return ViewingPath(segment_ids=tuple(segments), choices=tuple(records))
