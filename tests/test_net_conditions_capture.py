"""Tests for network-condition models and the capture sink."""

from __future__ import annotations

import pytest

from repro.client.profiles import OperationalCondition, enumerate_conditions
from repro.exceptions import PacketError
from repro.net.capture import CaptureSink, CapturedTrace
from repro.net.conditions import conditions_for
from repro.net.endpoints import Endpoint, FiveTuple
from repro.net.packet import Direction
from repro.net.tcp import TCPSender
from repro.utils.rng import RandomSource


@pytest.fixture()
def wired_noon_conditions():
    return conditions_for(OperationalCondition("linux", "desktop", "firefox", "wired", "noon"))


@pytest.fixture()
def five_tuple() -> FiveTuple:
    return FiveTuple(
        client=Endpoint("192.168.1.23", 51742), server=Endpoint("198.51.100.7", 443)
    )


class TestNetworkConditions:
    def test_every_condition_maps_to_network_parameters(self):
        for condition in enumerate_conditions():
            network = conditions_for(condition)
            assert network.base_rtt_seconds > 0
            assert network.downlink.bits_per_second > 0

    def test_wireless_has_higher_rtt_and_loss(self):
        wired = conditions_for(OperationalCondition("linux", "desktop", "firefox", "wired", "noon"))
        wireless = conditions_for(
            OperationalCondition("linux", "desktop", "firefox", "wireless", "noon")
        )
        assert wireless.base_rtt_seconds > wired.base_rtt_seconds
        assert wireless.loss_probability > wired.loss_probability

    def test_night_is_more_congested_than_morning(self):
        morning = conditions_for(
            OperationalCondition("linux", "desktop", "firefox", "wired", "morning")
        )
        night = conditions_for(OperationalCondition("linux", "desktop", "firefox", "wired", "night"))
        assert night.downlink.bits_per_second < morning.downlink.bits_per_second
        assert night.cross_traffic_flow_rate_per_minute > morning.cross_traffic_flow_rate_per_minute

    def test_one_way_delay_positive(self, wired_noon_conditions):
        rng = RandomSource(1)
        for _ in range(50):
            assert wired_noon_conditions.one_way_delay(rng) > 0

    def test_serialization_delay_direction(self, wired_noon_conditions):
        down = wired_noon_conditions.serialization_delay(10_000, uplink=False)
        up = wired_noon_conditions.serialization_delay(10_000, uplink=True)
        assert up > down  # uplinks are slower


class TestCaptureSink:
    def test_observe_and_trace_sorted(self, wired_noon_conditions, five_tuple):
        sink = CaptureSink(wired_noon_conditions, RandomSource(2))
        sender = TCPSender(five_tuple, Direction.CLIENT_TO_SERVER)
        sink.write(sender, b"b" * 10, 2.0)
        sink.write(sender, b"a" * 10, 1.0)
        trace = sink.trace()
        timestamps = [p.timestamp for p in trace.packets]
        assert timestamps == sorted(timestamps)

    def test_retransmissions_appear_under_loss(self, five_tuple):
        lossy = conditions_for(
            OperationalCondition("linux", "desktop", "firefox", "wireless", "night")
        )
        # Force a high-loss variant for the test by reusing the model directly.
        sink = CaptureSink(lossy, RandomSource(3))
        sender = TCPSender(five_tuple, Direction.CLIENT_TO_SERVER)
        for index in range(500):
            sink.write(sender, b"x" * 100, float(index))
        trace = sink.trace()
        assert any(p.is_retransmission for p in trace.packets)

    def test_cross_traffic_uses_other_five_tuples(self, wired_noon_conditions, five_tuple):
        sink = CaptureSink(wired_noon_conditions, RandomSource(4))
        sender = TCPSender(five_tuple, Direction.CLIENT_TO_SERVER)
        sink.write(sender, b"x" * 100, 0.0)
        added = sink.add_cross_traffic(session_duration_seconds=600.0)
        trace = sink.trace()
        if added:
            other_flows = {
                p.five_tuple.key for p in trace.packets if p.five_tuple != five_tuple
            }
            assert other_flows
        assert trace.packet_count == len(sink)

    def test_empty_capture_rejected(self, wired_noon_conditions):
        sink = CaptureSink(wired_noon_conditions, RandomSource(5))
        with pytest.raises(PacketError):
            sink.trace()


class TestCapturedTrace:
    def test_round_trip_via_pcap(self, tmp_path, minimal_session):
        trace = minimal_session.trace
        path = tmp_path / "session.pcap"
        written = trace.to_pcap(path)
        assert written == trace.packet_count
        restored = CapturedTrace.from_pcap(
            path, client_ip=trace.client_ip, server_ip=trace.server_ip
        )
        assert restored.packet_count == trace.packet_count
        assert len(restored.client_packets()) == len(trace.client_packets())
        # Annotations (ground truth) must not survive the round trip.
        assert all(not p.annotations for p in restored.packets)

    def test_trace_statistics(self, minimal_session):
        trace = minimal_session.trace
        assert trace.duration_seconds > 0
        assert trace.total_bytes() > 0
        assert len(trace.server_packets()) + len(trace.client_packets()) == trace.packet_count

    def test_flow_table_contains_streaming_flow(self, minimal_session):
        table = minimal_session.trace.flow_table()
        largest = table.largest_flow()
        assert largest.five_tuple.server.ip == minimal_session.trace.server_ip
