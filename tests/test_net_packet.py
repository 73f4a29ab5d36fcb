"""Tests for the packet abstraction and frame serialization."""

from __future__ import annotations

import pickle

import pytest

from repro.exceptions import PacketError
from repro.net.endpoints import Endpoint, FiveTuple
from repro.net.headers import TCP_FLAG_SYN
from repro.net.packet import Direction, Packet, push_flags

from strategies.packets import as_retransmission, syn_packet, with_timestamp


@pytest.fixture()
def five_tuple() -> FiveTuple:
    return FiveTuple(
        client=Endpoint("192.168.1.23", 51742),
        server=Endpoint("198.51.100.7", 443),
    )


class TestEndpoints:
    def test_endpoint_validation(self):
        with pytest.raises(PacketError):
            Endpoint("not-an-ip", 443)
        with pytest.raises(PacketError):
            Endpoint("10.0.0.1", 0)

    def test_five_tuple_key_and_reverse(self, five_tuple):
        assert five_tuple.key == "192.168.1.23:51742->198.51.100.7:443"
        assert five_tuple.reversed().client == five_tuple.server


class TestPacket:
    def test_direction_determines_source(self, five_tuple):
        up = Packet(1.0, Direction.CLIENT_TO_SERVER, five_tuple, b"abc")
        down = Packet(2.0, Direction.SERVER_TO_CLIENT, five_tuple, b"def")
        assert up.source == five_tuple.client
        assert up.destination == five_tuple.server
        assert down.source == five_tuple.server
        assert down.destination == five_tuple.client

    def test_wire_length_includes_headers(self, five_tuple):
        packet = Packet(1.0, Direction.CLIENT_TO_SERVER, five_tuple, b"x" * 100)
        assert packet.wire_length == 14 + 20 + 20 + 100
        assert packet.payload_length == 100

    def test_negative_timestamp_rejected(self, five_tuple):
        with pytest.raises(PacketError):
            Packet(-1.0, Direction.CLIENT_TO_SERVER, five_tuple, b"")

    @pytest.mark.parametrize(
        "timestamp", [float("nan"), float("inf"), -float("inf"), 2.0**32, 2**32, 1e300]
    )
    def test_non_finite_and_out_of_range_timestamps_rejected(self, five_tuple, timestamp):
        # The pcap record header stores unsigned 32-bit seconds.
        with pytest.raises(PacketError, match="timestamp"):
            Packet(timestamp, Direction.CLIENT_TO_SERVER, five_tuple, b"x")
        packet = Packet(1.0, Direction.CLIENT_TO_SERVER, five_tuple, b"x")
        with pytest.raises(PacketError, match="timestamp"):
            with_timestamp(packet, timestamp)

    def test_five_tuple_key_is_cached_and_leaves_equality_alone(self, five_tuple):
        key = five_tuple.key
        assert five_tuple.key is key
        twin = FiveTuple(client=five_tuple.client, server=five_tuple.server)
        assert twin == five_tuple and hash(twin) == hash(five_tuple)
        restored = pickle.loads(pickle.dumps(five_tuple))
        assert restored == five_tuple and restored.key == key

    def test_with_timestamp_and_retransmission(self, five_tuple):
        packet = Packet(1.0, Direction.CLIENT_TO_SERVER, five_tuple, b"x")
        later = with_timestamp(packet, 5.0)
        retransmit = as_retransmission(packet, 6.0)
        assert later.timestamp == 5.0 and not later.is_retransmission
        assert retransmit.is_retransmission and retransmit.payload == packet.payload

    def test_serialize_parse_roundtrip(self, five_tuple):
        packet = Packet(
            timestamp=3.25,
            direction=Direction.CLIENT_TO_SERVER,
            five_tuple=five_tuple,
            payload=b"payload-bytes",
            sequence_number=1234,
            acknowledgment_number=99,
            flags=push_flags(),
            annotations={"kind": "type1"},
        )
        frame = packet.serialize_frame()
        parsed = Packet.parse_frame(frame, timestamp=3.25, client_ip="192.168.1.23")
        assert parsed is not None
        assert parsed.direction is Direction.CLIENT_TO_SERVER
        assert parsed.payload == b"payload-bytes"
        assert parsed.sequence_number == 1234
        assert parsed.five_tuple == five_tuple
        # Ground-truth annotations never survive serialization.
        assert parsed.annotations == {}

    def test_parse_frame_downlink_direction(self, five_tuple):
        packet = Packet(
            timestamp=1.0,
            direction=Direction.SERVER_TO_CLIENT,
            five_tuple=five_tuple,
            payload=b"chunk",
            sequence_number=10,
        )
        parsed = Packet.parse_frame(packet.serialize_frame(), 1.0, client_ip="192.168.1.23")
        assert parsed is not None
        assert parsed.direction is Direction.SERVER_TO_CLIENT
        assert parsed.five_tuple == five_tuple

    def test_oversized_payload_rejected_at_serialization(self, five_tuple):
        packet = Packet(1.0, Direction.CLIENT_TO_SERVER, five_tuple, b"x" * 70_000)
        with pytest.raises(PacketError):
            packet.serialize_frame()

    def test_syn_packet_helper(self, five_tuple):
        packet = syn_packet(five_tuple, 0.5)
        assert packet.flags == TCP_FLAG_SYN
        assert packet.payload == b""
