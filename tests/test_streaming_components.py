"""Tests for the streaming building blocks: buffer, ABR, prefetcher, server, events."""

from __future__ import annotations

import pytest

from repro.exceptions import StreamingError
from repro.media.manifest import build_manifest
from repro.narrative.bandersnatch import build_minimal_interactive_script
from repro.streaming.abr import AdaptiveBitrateController
from repro.streaming.buffer import PlaybackBuffer
from repro.streaming.events import EventKind, EventLog
from repro.streaming.prefetch import Prefetcher
from repro.streaming.server import StreamingServer
from repro.media.encoding import default_ladder
from repro.utils.units import mbps


class TestPlaybackBuffer:
    def test_add_and_play(self):
        buffer = PlaybackBuffer(target_seconds=10, max_seconds=30)
        buffer.add(12.0)
        stall = buffer.play(4.0)
        assert stall == 0.0
        assert buffer.level_seconds == pytest.approx(8.0)

    def test_stall_recorded_when_buffer_empty(self):
        buffer = PlaybackBuffer()
        stall = buffer.play(3.0)
        assert stall == pytest.approx(3.0)

    def test_cap_enforced(self):
        buffer = PlaybackBuffer(target_seconds=10, max_seconds=20)
        buffer.add(50.0)
        assert buffer.level_seconds == pytest.approx(20.0)

    def test_drain(self):
        buffer = PlaybackBuffer()
        buffer.add(7.0)
        assert buffer.drain() == pytest.approx(7.0)
        assert buffer.level_seconds == 0.0

    def test_invalid_configuration(self):
        with pytest.raises(StreamingError):
            PlaybackBuffer(target_seconds=0)
        with pytest.raises(StreamingError):
            PlaybackBuffer(target_seconds=30, max_seconds=10)
        with pytest.raises(StreamingError):
            PlaybackBuffer().add(-1.0)


class TestABR:
    def test_starts_at_lowest_quality(self):
        abr = AdaptiveBitrateController(default_ladder())
        assert abr.select_profile(PlaybackBuffer()).name == "ld_240p"

    def test_ramps_up_with_throughput(self):
        abr = AdaptiveBitrateController(default_ladder())
        buffer = PlaybackBuffer()
        buffer.add(30.0)
        for _ in range(10):
            abr.observe_download(5_000_000, 1.0)  # 40 Mbps
        assert abr.select_profile(buffer).name in ("hd_1080p", "uhd_2160p")

    def test_low_buffer_drops_a_rung(self):
        abr = AdaptiveBitrateController(default_ladder(), low_buffer_seconds=8.0)
        for _ in range(10):
            abr.observe_download(5_000_000, 1.0)
        high = abr.select_profile(_full_buffer())
        low = abr.select_profile(PlaybackBuffer())
        assert default_ladder().index_of(low) == default_ladder().index_of(high) - 1

    def test_observe_download_validation(self):
        abr = AdaptiveBitrateController(default_ladder())
        with pytest.raises(StreamingError):
            abr.observe_download(0, 1.0)
        with pytest.raises(StreamingError):
            abr.observe_download(100, 0.0)

    def test_first_download_sets_the_throughput_estimate(self):
        ladder = default_ladder()
        abr = AdaptiveBitrateController(ladder, safety_factor=1.0)
        abr.observe_download(1_000_000, 1.0)  # 8 Mbps
        assert abr.select_profile(_full_buffer()) == ladder.best_under(mbps(8), 1.0)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(StreamingError):
            AdaptiveBitrateController(default_ladder(), safety_factor=0.0)
        with pytest.raises(StreamingError):
            AdaptiveBitrateController(default_ladder(), smoothing=1.5)
        with pytest.raises(StreamingError):
            AdaptiveBitrateController(default_ladder(), low_buffer_seconds=-1.0)


def _full_buffer() -> PlaybackBuffer:
    buffer = PlaybackBuffer()
    buffer.add(60.0)
    return buffer


class TestPrefetcher:
    @pytest.fixture()
    def chunk_map(self):
        graph = build_minimal_interactive_script()
        manifest = build_manifest(graph, content_seed=1)
        return manifest.segment_chunks("S1", "hd_720p")

    def test_plan_respects_window(self, chunk_map):
        prefetcher = Prefetcher(max_prefetch_seconds=10.0)
        plan = prefetcher.plan("Q1", chunk_map)
        assert 0 < len(plan.chunks) <= 3
        assert plan.segment_id == "S1"

    def test_fetchable_during_is_bounded_by_decision_delay(self, chunk_map):
        prefetcher = Prefetcher(max_prefetch_seconds=20.0)
        plan = prefetcher.plan("Q1", chunk_map)
        fetched = prefetcher.fetchable_during(plan, decision_delay_seconds=2.0, chunk_fetch_seconds=0.9)
        assert len(fetched) == 2

    def test_discard_reports_wasted_bytes(self, chunk_map):
        prefetcher = Prefetcher()
        plan = prefetcher.plan("Q1", chunk_map)
        fetched = prefetcher.fetchable_during(plan, 5.0, 1.0)
        prefetcher.mark_fetched(plan, fetched)
        wasted = prefetcher.discard(plan)
        assert wasted == sum(chunk.size_bytes for chunk in fetched)
        assert plan.discarded

    def test_invalid_prefetch_window(self):
        with pytest.raises(StreamingError):
            Prefetcher(max_prefetch_seconds=0)


class TestStreamingServer:
    def test_serves_chunks_and_counts_bytes(self, minimal_graph):
        manifest = build_manifest(minimal_graph, content_seed=2)
        server = StreamingServer(manifest)
        response = server.serve_chunk("S0", 0, "hd_720p")
        assert response.total_bytes > response.payload_bytes

    def test_unknown_chunk_rejected(self, minimal_graph):
        manifest = build_manifest(minimal_graph, content_seed=2)
        server = StreamingServer(manifest)
        with pytest.raises(StreamingError):
            server.serve_chunk("S0", 10_000, "hd_720p")

    def test_state_ack_is_small(self, minimal_graph):
        server = StreamingServer(build_manifest(minimal_graph, content_seed=2))
        assert 0 < server.acknowledge_state_report() < 1000


class TestEventLog:
    def test_record_and_query(self):
        log = EventLog()
        log.record(0.0, EventKind.SESSION_STARTED, session_id="x")
        log.record(1.0, EventKind.QUESTION_SHOWN, question_id="Q1")
        log.record(2.0, EventKind.TYPE1_SENT, question_id="Q1")
        assert len(log) == 3
        assert log.count(EventKind.TYPE1_SENT) == 1
        assert log.of_kind(EventKind.QUESTION_SHOWN)[0].details["question_id"] == "Q1"

    def test_negative_timestamp_rejected(self):
        with pytest.raises(StreamingError):
            EventLog().record(-1.0, EventKind.SESSION_STARTED)
