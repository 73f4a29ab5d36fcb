"""Tests for the end-to-end interactive streaming session simulator."""

from __future__ import annotations

import pytest

from repro.client.json_state import JSON_TYPE_1, JSON_TYPE_2
from repro.exceptions import StreamingError
from repro.streaming.events import EventKind
from repro.streaming.session import SessionConfig, simulate_session

from helpers import transmitted_state_message_kinds


class TestSessionConfig:
    def test_defaults_valid(self):
        SessionConfig()

    def test_invalid_values_rejected(self):
        with pytest.raises(StreamingError):
            SessionConfig(chunk_duration_seconds=0)
        with pytest.raises(StreamingError):
            SessionConfig(media_scale=0)
        with pytest.raises(StreamingError):
            SessionConfig(bulk_report_probability=1.5)
        with pytest.raises(StreamingError):
            SessionConfig(playback_speedup=0)


class TestMinimalSession:
    def test_path_matches_forced_choices(self, minimal_session):
        assert minimal_session.path.default_pattern == (True, False)
        assert minimal_session.path.segment_ids == ("S0", "S1", "S2p")

    def test_state_messages_follow_protocol(self, minimal_session):
        kinds = transmitted_state_message_kinds(minimal_session)
        # One type-1 per question, one type-2 for the single non-default choice.
        assert kinds.count(JSON_TYPE_1) == 2
        assert kinds.count(JSON_TYPE_2) == 1
        # Protocol order: Q1 type-1 ... Q2 type-1 then type-2.
        assert kinds == [JSON_TYPE_1, JSON_TYPE_1, JSON_TYPE_2]

    def test_event_log_contains_prefetch_and_discard(self, minimal_session):
        kinds = [event.kind for event in minimal_session.events]
        assert EventKind.PREFETCH_STARTED in kinds
        assert EventKind.PREFETCH_DISCARDED in kinds
        assert kinds[0] is EventKind.SESSION_STARTED
        assert kinds[-1] is EventKind.SESSION_FINISHED

    def test_question_shown_precedes_type1(self, minimal_session):
        events = list(minimal_session.events)
        for index, event in enumerate(events):
            if event.kind is EventKind.TYPE1_SENT:
                preceding = [e.kind for e in events[:index]]
                assert EventKind.QUESTION_SHOWN in preceding

    def test_packet_timestamps_monotone_per_direction(self, minimal_session):
        from repro.net.packet import Direction

        client = [
            p
            for p in minimal_session.trace.packets
            if p.direction is Direction.CLIENT_TO_SERVER and not p.is_retransmission
        ]
        ordered = sorted(client, key=lambda p: p.sequence_number)
        timestamps = [p.timestamp for p in ordered]
        assert timestamps == sorted(timestamps)


class TestFullSession:
    def test_full_session_answers_every_question(self, ubuntu_session):
        assert ubuntu_session.path.choice_count == 10
        type1_count = transmitted_state_message_kinds(ubuntu_session).count(JSON_TYPE_1)
        # Every question triggers a type-1 unless it was lost (not possible in
        # the wired/noon condition where loss probability is zero).
        assert type1_count == 10

    def test_type2_count_matches_non_default_choices(self, ubuntu_session):
        type2_count = transmitted_state_message_kinds(ubuntu_session).count(JSON_TYPE_2)
        assert type2_count == ubuntu_session.path.non_default_count

    def test_sessions_are_reproducible(self, study_graph, ubuntu_condition, default_behavior):
        first = simulate_session(study_graph, ubuntu_condition, default_behavior, seed=77)
        second = simulate_session(study_graph, ubuntu_condition, default_behavior, seed=77)
        assert first.path.default_pattern == second.path.default_pattern
        assert first.trace.packet_count == second.trace.packet_count
        assert [p.payload for p in first.trace.packets[:50]] == [
            p.payload for p in second.trace.packets[:50]
        ]

    def test_different_seeds_differ(self, study_graph, ubuntu_condition, default_behavior):
        first = simulate_session(study_graph, ubuntu_condition, default_behavior, seed=78)
        second = simulate_session(study_graph, ubuntu_condition, default_behavior, seed=79)
        assert (
            first.path.default_pattern != second.path.default_pattern
            or first.trace.packet_count != second.trace.packet_count
        )

    def test_downlink_dominates_uplink(self, ubuntu_session):
        from repro.net.packet import Direction

        up = sum(
            p.payload_length
            for p in ubuntu_session.trace.packets
            if p.direction is Direction.CLIENT_TO_SERVER
        )
        down = sum(
            p.payload_length
            for p in ubuntu_session.trace.packets
            if p.direction is Direction.SERVER_TO_CLIENT
        )
        assert down > 5 * up

    def test_media_scale_shrinks_trace(self, study_graph, ubuntu_condition, default_behavior):
        small = simulate_session(
            study_graph,
            ubuntu_condition,
            default_behavior,
            seed=80,
            config=SessionConfig(media_scale=0.005, cross_traffic_enabled=False),
        )
        large = simulate_session(
            study_graph,
            ubuntu_condition,
            default_behavior,
            seed=80,
            config=SessionConfig(media_scale=0.02, cross_traffic_enabled=False),
        )
        assert small.trace.total_bytes() < large.trace.total_bytes()

    def test_non_interactive_mode_sends_no_state_messages(
        self, study_graph, ubuntu_condition, default_behavior
    ):
        session = simulate_session(
            study_graph,
            ubuntu_condition,
            default_behavior,
            seed=81,
            config=SessionConfig(interactive=False, cross_traffic_enabled=False),
        )
        assert transmitted_state_message_kinds(session) == []
        assert session.path.choice_count == 0
