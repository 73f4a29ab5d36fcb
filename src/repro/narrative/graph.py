"""The story graph: segments wired together by choice points."""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Iterator

from repro.exceptions import NarrativeError
from repro.narrative.choices import Choice, ChoicePoint
from repro.narrative.segment import Segment


class StoryGraph:
    """Directed graph of :class:`Segment` nodes and choice-point edges.

    The graph models an interactive script the way the streaming simulator
    needs it:

    * every segment is a node;
    * a segment either ends the movie (``is_ending``) or has exactly one
      outgoing :class:`ChoicePoint` with two target segments;
    * exactly one segment is the *root* (Segment 0 of the paper), where every
      viewing starts.
    """

    def __init__(self, title: str, root_segment_id: str) -> None:
        if not title:
            raise NarrativeError("story title must be non-empty")
        if not root_segment_id:
            raise NarrativeError("root segment id must be non-empty")
        self._title = title
        self._root_segment_id = root_segment_id
        self._segments: dict[str, Segment] = {}
        self._choice_points: dict[str, ChoicePoint] = {}
        self._choice_point_by_source: dict[str, str] = {}

    # -- construction ------------------------------------------------------

    def add_segment(self, segment: Segment) -> None:
        """Register a segment node."""
        if segment.segment_id in self._segments:
            raise NarrativeError(f"duplicate segment id {segment.segment_id!r}")
        self._segments[segment.segment_id] = segment

    def add_segments(self, segments: Iterable[Segment]) -> None:
        """Register several segments."""
        for segment in segments:
            self.add_segment(segment)

    def add_choice_point(self, choice_point: ChoicePoint) -> None:
        """Attach a choice point to the end of its source segment."""
        if choice_point.question_id in self._choice_points:
            raise NarrativeError(
                f"duplicate choice point id {choice_point.question_id!r}"
            )
        source = choice_point.source_segment_id
        if source not in self._segments:
            raise NarrativeError(
                f"choice point {choice_point.question_id!r} references unknown "
                f"source segment {source!r}"
            )
        if self._segments[source].is_ending:
            raise NarrativeError(
                f"ending segment {source!r} cannot have a choice point"
            )
        if source in self._choice_point_by_source:
            raise NarrativeError(
                f"segment {source!r} already has a choice point attached"
            )
        for option in choice_point.options:
            if option.target_segment_id not in self._segments:
                raise NarrativeError(
                    f"choice point {choice_point.question_id!r} targets unknown "
                    f"segment {option.target_segment_id!r}"
                )
        self._choice_points[choice_point.question_id] = choice_point
        self._choice_point_by_source[source] = choice_point.question_id

    # -- lookups -----------------------------------------------------------

    @property
    def title(self) -> str:
        """Title of the interactive movie."""
        return self._title

    @property
    def root_segment(self) -> Segment:
        """Segment 0: where every viewing session starts."""
        return self.segment(self._root_segment_id)

    @property
    def segment_ids(self) -> tuple[str, ...]:
        """All segment identifiers, in insertion order."""
        return tuple(self._segments.keys())

    @property
    def question_ids(self) -> tuple[str, ...]:
        """All choice-point identifiers, in insertion order."""
        return tuple(self._choice_points.keys())

    def segment(self, segment_id: str) -> Segment:
        """Look up a segment by id."""
        try:
            return self._segments[segment_id]
        except KeyError:
            raise NarrativeError(f"unknown segment {segment_id!r}") from None

    def choice_point(self, question_id: str) -> ChoicePoint:
        """Look up a choice point by id."""
        try:
            return self._choice_points[question_id]
        except KeyError:
            raise NarrativeError(f"unknown choice point {question_id!r}") from None

    def choice_point_after(self, segment_id: str) -> ChoicePoint | None:
        """The question shown when ``segment_id`` ends, or ``None`` for endings."""
        self.segment(segment_id)
        question_id = self._choice_point_by_source.get(segment_id)
        if question_id is None:
            return None
        return self._choice_points[question_id]

    def successors(self, segment_id: str) -> tuple[str, ...]:
        """Segments reachable in one step from ``segment_id``.

        Targets keep option order; a target shared by both options is
        listed once.
        """
        self.segment(segment_id)
        return self._targets(segment_id)

    def _targets(self, segment_id: str) -> tuple[str, ...]:
        question_id = self._choice_point_by_source.get(segment_id)
        if question_id is None:
            return ()
        options = self._choice_points[question_id].options
        return tuple(dict.fromkeys(option.target_segment_id for option in options))

    def ending_segments(self) -> tuple[Segment, ...]:
        """All segments flagged as endings."""
        return tuple(
            segment for segment in self._segments.values() if segment.is_ending
        )

    def iter_segments(self) -> Iterator[Segment]:
        """Iterate over all segments in insertion order."""
        return iter(self._segments.values())

    def iter_choice_points(self) -> Iterator[ChoicePoint]:
        """Iterate over all choice points in insertion order."""
        return iter(self._choice_points.values())

    def default_successor(self, segment_id: str) -> Segment | None:
        """The prefetched next segment after ``segment_id``, if any."""
        choice_point = self.choice_point_after(segment_id)
        if choice_point is None:
            return None
        return self.segment(choice_point.default_choice.target_segment_id)

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raise :class:`NarrativeError` if broken.

        Invariants:

        * the root segment exists;
        * every non-ending segment has a choice point;
        * every ending segment has no outgoing edges;
        * every segment is reachable from the root;
        * at least one ending is reachable (the movie can finish).
        """
        if self._root_segment_id not in self._segments:
            raise NarrativeError(
                f"root segment {self._root_segment_id!r} is not part of the graph"
            )
        for segment in self._segments.values():
            has_choice = segment.segment_id in self._choice_point_by_source
            if segment.is_ending and has_choice:
                raise NarrativeError(
                    f"ending segment {segment.segment_id!r} has a choice point"
                )
            if not segment.is_ending and not has_choice:
                raise NarrativeError(
                    f"non-ending segment {segment.segment_id!r} has no choice point"
                )
        reachable = {self._root_segment_id}
        frontier = [self._root_segment_id]
        while frontier:
            for target in self._targets(frontier.pop()):
                if target not in reachable:
                    reachable.add(target)
                    frontier.append(target)
        unreachable = set(self._segments) - reachable
        if unreachable:
            raise NarrativeError(
                f"segments unreachable from the root: {sorted(unreachable)}"
            )
        if not any(self._segments[s].is_ending for s in reachable):
            raise NarrativeError("no ending segment is reachable from the root")

    # -- metrics -----------------------------------------------------------

    @property
    def segment_count(self) -> int:
        """Number of segments in the script."""
        return len(self._segments)

    @property
    def choice_point_count(self) -> int:
        """Number of choice points in the script."""
        return len(self._choice_points)

    def total_content_seconds(self) -> float:
        """Sum of all segment durations (the full shot footage, not one path)."""
        return sum(segment.duration_seconds for segment in self._segments.values())

    def max_choices_on_any_path(self) -> int:
        """Upper bound on how many questions a single viewing can encounter.

        Computed as the longest path (in edges) of the condensation of the
        graph; loops therefore count once, which matches how the simulator
        caps re-visits.
        """
        components = self._strongly_connected_components()
        component_of: dict[str, int] = {}
        depths: list[int] = []
        for number, component in enumerate(components):
            for member in component:
                component_of[member] = number
            # Tarjan emits a component after every component it reaches, so
            # the depth of each successor component is already known.
            depths.append(
                max(
                    (
                        depths[component_of[target]] + 1
                        for member in component
                        for target in self._targets(member)
                        if component_of[target] != number
                    ),
                    default=0,
                )
            )
        return max(depths, default=0)

    def _strongly_connected_components(self) -> list[list[str]]:
        """Tarjan's algorithm without recursion, in reverse topological order."""
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        stack: list[str] = []
        on_stack: set[str] = set()
        components: list[list[str]] = []
        work: list[tuple[str, Iterator[str]]] = []

        def visit(node: str) -> None:
            index[node] = low[node] = len(index)
            stack.append(node)
            on_stack.add(node)
            work.append((node, iter(self._targets(node))))

        for start in self._segments:
            if start in index:
                continue
            visit(start)
            while work:
                node, targets = work[-1]
                for target in targets:
                    if target not in index:
                        visit(target)
                        break
                    if target in on_stack:
                        low[node] = min(low[node], index[target])
                else:
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        low[parent] = min(low[parent], low[node])
                    if low[node] == index[node]:
                        component = []
                        while True:
                            member = stack.pop()
                            on_stack.discard(member)
                            component.append(member)
                            if member == node:
                                break
                        components.append(component)
        return components

    def fingerprint(self) -> str:
        """A stable digest of the script's structure and timings.

        Two graphs share a fingerprint iff they describe the same title,
        segments (ids, titles, durations, endings) and choice points (ids,
        prompts, sources, timeouts and options) — everything a simulated
        session's bytes can depend on.  Datasets record it so that
        re-simulation and resumable generation can detect being handed a
        different script than the one that produced the stored traces.
        """
        canonical = {
            "title": self._title,
            "root": self._root_segment_id,
            "segments": [
                [
                    segment.segment_id,
                    segment.title,
                    segment.duration_seconds,
                    segment.is_ending,
                ]
                for segment in sorted(
                    self._segments.values(), key=lambda s: s.segment_id
                )
            ],
            "choice_points": [
                [
                    point.question_id,
                    point.prompt,
                    point.source_segment_id,
                    point.timeout_seconds,
                    [
                        [option.label, option.target_segment_id, option.is_default]
                        for option in point.options
                    ],
                ]
                for point in sorted(
                    self._choice_points.values(), key=lambda p: p.question_id
                )
            ],
        }
        digest = hashlib.sha256(
            json.dumps(canonical, sort_keys=True).encode("utf-8")
        )
        return digest.hexdigest()

    def __contains__(self, segment_id: object) -> bool:
        return segment_id in self._segments

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"StoryGraph(title={self._title!r}, segments={self.segment_count}, "
            f"choice_points={self.choice_point_count})"
        )


def choice_edge_attributes(graph: StoryGraph) -> list[dict[str, object]]:
    """Flatten every (question, option) pair into a row for reporting."""
    rows: list[dict[str, object]] = []
    for choice_point in graph.iter_choice_points():
        for option in choice_point.options:
            rows.append(
                {
                    "question_id": choice_point.question_id,
                    "source_segment": choice_point.source_segment_id,
                    "label": option.label,
                    "target_segment": option.target_segment_id,
                    "is_default": option.is_default,
                }
            )
    return rows
