"""Tests for TCP segmentation and flow reassembly."""

from __future__ import annotations

import pytest

from repro.exceptions import PacketError
from repro.net.endpoints import Endpoint, FiveTuple
from repro.net.flow import Flow, FlowTable
from repro.net.packet import Direction, Packet
from repro.net.tcp import TCPSender, segment_payload

from strategies.packets import as_retransmission


@pytest.fixture()
def five_tuple() -> FiveTuple:
    return FiveTuple(
        client=Endpoint("192.168.1.23", 51742),
        server=Endpoint("198.51.100.7", 443),
    )


class TestSegmentation:
    def test_segment_payload_sizes(self):
        segments = segment_payload(b"a" * 3500, mss=1460)
        assert [len(s) for s in segments] == [1460, 1460, 580]

    def test_segment_empty_payload(self):
        assert segment_payload(b"", 1460) == []

    def test_segment_rejects_bad_mss(self):
        with pytest.raises(PacketError):
            segment_payload(b"abc", 0)


class TestTCPSender:
    def test_sequence_numbers_advance_by_payload(self, five_tuple):
        sender = TCPSender(five_tuple, Direction.CLIENT_TO_SERVER, mss=1000)
        packets = sender.send(b"x" * 2500, timestamp=1.0)
        assert [p.sequence_number for p in packets] == [1, 1001, 2001]
        assert sender.next_sequence_number == 2501

    def test_annotations_attached_to_every_segment(self, five_tuple):
        sender = TCPSender(five_tuple, Direction.CLIENT_TO_SERVER, mss=100)
        packets = sender.send(b"y" * 250, 2.0, annotations={"kind": "type1"})
        assert all(p.annotations == {"kind": "type1"} for p in packets)

    def test_empty_payload_rejected(self, five_tuple):
        with pytest.raises(PacketError):
            TCPSender(five_tuple, Direction.CLIENT_TO_SERVER).send(b"", 1.0)

    def test_note_peer_progress_sets_ack_numbers(self, five_tuple):
        sender = TCPSender(five_tuple, Direction.CLIENT_TO_SERVER)
        sender.note_peer_progress(777)
        packet = sender.send(b"abc", 1.0)[0]
        assert packet.acknowledgment_number == 777


class TestFlowReassembly:
    def test_reassemble_in_order(self, five_tuple):
        sender = TCPSender(five_tuple, Direction.CLIENT_TO_SERVER, mss=4)
        flow = Flow(five_tuple)
        for packet in sender.send(b"hello world!", 1.0):
            flow.add(packet)
        assert flow.reassemble(Direction.CLIENT_TO_SERVER) == b"hello world!"
        assert flow.payload_bytes(Direction.CLIENT_TO_SERVER) == 12

    def test_duplicate_segments_suppressed(self, five_tuple):
        sender = TCPSender(five_tuple, Direction.CLIENT_TO_SERVER, mss=8)
        flow = Flow(five_tuple)
        packets = sender.send(b"abcdefgh12345678", 1.0)
        for packet in packets:
            flow.add(packet)
        # A retransmitted copy of the first segment arrives later.
        flow.add(as_retransmission(packets[0], 2.0))
        assert flow.reassemble(Direction.CLIENT_TO_SERVER) == b"abcdefgh12345678"
        assert flow.retransmission_count(Direction.CLIENT_TO_SERVER) == 1

    def test_wrong_flow_rejected(self, five_tuple):
        other = FiveTuple(client=Endpoint("10.0.0.1", 1024), server=Endpoint("10.0.0.2", 80))
        flow = Flow(five_tuple)
        packet = Packet(1.0, Direction.CLIENT_TO_SERVER, other, b"x")
        with pytest.raises(PacketError):
            flow.add(packet)

    def test_client_packets_filtering(self, five_tuple):
        flow = Flow(five_tuple)
        flow.add(Packet(1.0, Direction.CLIENT_TO_SERVER, five_tuple, b"up"))
        flow.add(Packet(2.0, Direction.SERVER_TO_CLIENT, five_tuple, b"down"))
        assert len(flow.client_packets()) == 1
        assert flow.duration_seconds() == pytest.approx(1.0)


class TestFlowTable:
    def test_groups_by_five_tuple(self, five_tuple):
        other = FiveTuple(client=Endpoint("192.168.1.23", 40000), server=Endpoint("203.0.113.5", 443))
        table = FlowTable()
        table.add(Packet(1.0, Direction.CLIENT_TO_SERVER, five_tuple, b"x"))
        table.add(Packet(2.0, Direction.CLIENT_TO_SERVER, other, b"y"))
        table.add(Packet(3.0, Direction.SERVER_TO_CLIENT, five_tuple, b"z" * 100))
        assert len(table) == 2

    def test_largest_flow_picks_most_downlink_bytes(self, five_tuple):
        other = FiveTuple(client=Endpoint("192.168.1.23", 40000), server=Endpoint("203.0.113.5", 443))
        table = FlowTable()
        table.add(Packet(1.0, Direction.SERVER_TO_CLIENT, five_tuple, b"x" * 5000))
        table.add(Packet(2.0, Direction.SERVER_TO_CLIENT, other, b"y" * 100))
        assert table.largest_flow().five_tuple == five_tuple

    def test_empty_table_rejects_queries(self):
        with pytest.raises(PacketError):
            FlowTable().largest_flow()
