"""Readers and walks over library objects that only the tests ask for.

The library never needs a script's longest chain of questions, a
profile's calibrated record lengths or a session's transmitted state
kinds; the tests that pin those shapes compute them here, through the
objects' public API.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    from repro.core.features import ClientRecord
    from repro.core.profiling import BehavioralProfile, TraitEstimate
    from repro.media.encoding import BitrateLadder, EncodingProfile
    from repro.narrative.graph import StoryGraph
    from repro.narrative.segment import Segment
    from repro.streaming.session import SessionResult
    from repro.utils.histogram import Histogram

#: TLS overhead assumed by the Figure 2 calibration: 5-byte record header
#: plus AES-128-GCM explicit nonce (8) and authentication tag (16).
CALIBRATION_TLS_OVERHEAD = 5 + 8 + 16


def expected_record_length(payload_bytes: int) -> int:
    """Wire length of a state report's record at the calibration overhead."""
    return payload_bytes + CALIBRATION_TLS_OVERHEAD


def record_length_series(records: Sequence[ClientRecord]) -> list[int]:
    """The wire lengths of a record sequence (the raw side-channel series)."""
    return [record.wire_length for record in records]


def estimate_for(profile: BehavioralProfile, trait: str) -> TraitEstimate:
    """The profile's estimate for one trait."""
    return next(estimate for estimate in profile.estimates if estimate.trait == trait)


def profile_named(ladder: BitrateLadder, name: str) -> EncodingProfile:
    """The ladder's rung called ``name``."""
    return next(profile for profile in ladder.profiles if profile.name == name)


def transmitted_state_message_kinds(session: SessionResult) -> list[str]:
    """Kinds of the state messages that actually reached the wire."""
    return [message.kind for message in session.state_messages]


def observe_many(histogram: Histogram, values: Iterable[int], category: str) -> None:
    """Record every value in ``values`` under ``category``."""
    for value in values:
        histogram.observe(value, category)


# -- story-graph walks ---------------------------------------------------------


def ending_segments(graph: StoryGraph) -> tuple[Segment, ...]:
    """All segments flagged as endings."""
    return tuple(segment for segment in graph.iter_segments() if segment.is_ending)


def total_content_seconds(graph: StoryGraph) -> float:
    """Sum of all segment durations (the full shot footage, not one path)."""
    return sum(segment.duration_seconds for segment in graph.iter_segments())


def _targets(graph: StoryGraph, segment_id: str) -> tuple[str, ...]:
    choice_point = graph.choice_point_after(segment_id)
    if choice_point is None:
        return ()
    return tuple(dict.fromkeys(option.target_segment_id for option in choice_point.options))


def max_choices_on_any_path(graph: StoryGraph) -> int:
    """Upper bound on how many questions a single viewing can encounter.

    Computed as the longest path (in edges) of the condensation of the
    graph; loops therefore count once, which matches how the simulator
    caps re-visits.
    """
    components = _strongly_connected_components(graph)
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
                    for target in _targets(graph, member)
                    if component_of[target] != number
                ),
                default=0,
            )
        )
    return max(depths, default=0)


def _strongly_connected_components(graph: StoryGraph) -> list[list[str]]:
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
        work.append((node, iter(_targets(graph, node))))

    for start in graph.segment_ids:
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
