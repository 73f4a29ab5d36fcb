"""Tests for the pcap reader/writer."""

from __future__ import annotations

import struct

import pytest

from repro.exceptions import PcapError
from repro.net.capture import CapturedTrace
from repro.net.endpoints import Endpoint, FiveTuple
from repro.net.packet import Direction, Packet
from repro.net.pcap import (
    LINKTYPE_ETHERNET,
    PCAP_MAGIC,
    PcapReader,
    PcapWriter,
    read_pcap,
    read_pcap_columns,
    write_pcap,
)


@pytest.fixture()
def sample_frames() -> list[tuple[float, bytes]]:
    five_tuple = FiveTuple(
        client=Endpoint("192.168.1.23", 51742), server=Endpoint("198.51.100.7", 443)
    )
    frames = []
    for index in range(5):
        packet = Packet(
            timestamp=float(index) + 0.125,
            direction=Direction.CLIENT_TO_SERVER,
            five_tuple=five_tuple,
            payload=bytes([index]) * (10 + index),
            sequence_number=index * 100 + 1,
        )
        frames.append((packet.timestamp, packet.serialize_frame()))
    return frames


class TestPcapRoundTrip:
    def test_write_and_read_back(self, tmp_path, sample_frames):
        path = tmp_path / "trace.pcap"
        count = write_pcap(path, sample_frames)
        assert count == 5
        packets = read_pcap(path)
        assert len(packets) == 5
        for (timestamp, frame), packet in zip(sample_frames, packets):
            assert packet.frame == frame
            assert packet.timestamp == pytest.approx(timestamp, abs=1e-5)
            assert packet.original_length == len(frame)

    def test_global_header_magic_and_linktype(self, tmp_path, sample_frames):
        path = tmp_path / "trace.pcap"
        write_pcap(path, sample_frames)
        raw = path.read_bytes()
        magic, _major, _minor, _tz, _sig, _snap, linktype = struct.unpack("<IHHiIII", raw[:24])
        assert magic == 0xA1B2C3D4
        assert linktype == 1  # Ethernet

    def test_snaplen_truncates_but_keeps_original_length(self, tmp_path, sample_frames):
        path = tmp_path / "trace.pcap"
        with PcapWriter(path, snaplen=40) as writer:
            for timestamp, frame in sample_frames:
                writer.write(timestamp, frame)
        for packet, (_, frame) in zip(read_pcap(path), sample_frames):
            assert packet.captured_length == 40
            assert packet.original_length == len(frame)

    def test_writer_requires_context_manager(self, tmp_path):
        writer = PcapWriter(tmp_path / "x.pcap")
        with pytest.raises(PcapError):
            writer.write(0.0, b"frame")

    def test_writer_rejects_empty_frame(self, tmp_path):
        with PcapWriter(tmp_path / "x.pcap") as writer:
            with pytest.raises(PcapError):
                writer.write(0.0, b"")

    @pytest.mark.parametrize(
        "timestamp",
        [float("nan"), float("inf"), -float("inf"), -0.5, 2.0**32, 2**32 + 7, 1e300],
    )
    def test_writer_rejects_unrepresentable_timestamps_before_writing(
        self, tmp_path, sample_frames, timestamp
    ):
        path = tmp_path / "x.pcap"
        with PcapWriter(path) as writer:
            writer.write(*sample_frames[0])
            with pytest.raises(PcapError, match="timestamp"):
                writer.write(timestamp, sample_frames[1][1])
            assert writer.packets_written == 1
        # The rejected record left no byte behind.
        assert [packet.frame for packet in read_pcap(path)] == [sample_frames[0][1]]

    def test_largest_timestamp_round_trips(self, tmp_path):
        largest = 2.0**32 - 2.0**-20  # the last float64 below 2**32, which Packet accepts
        five_tuple = FiveTuple(
            client=Endpoint("192.168.1.23", 51742), server=Endpoint("198.51.100.7", 443)
        )
        trace = CapturedTrace(
            packets=(Packet(largest, Direction.CLIENT_TO_SERVER, five_tuple, b"x"),),
            client_ip="192.168.1.23",
            server_ip="198.51.100.7",
        )
        path = tmp_path / "late.pcap"
        assert trace.to_pcap(path) == 1
        (packet,) = read_pcap(path)
        assert packet.timestamp == 0xFFFFFFFF + 0.999999


def _write_big_endian_pcap(path, packets) -> None:
    """Write a classic pcap in the *opposite* byte order, as a big-endian
    capture host would: magic stored as ``>I`` reads back byte-swapped."""
    with open(path, "wb") as handle:
        handle.write(
            struct.pack(">IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, 65_535, LINKTYPE_ETHERNET)
        )
        for timestamp, frame in packets:
            seconds = int(timestamp)
            microseconds = int(round((timestamp - seconds) * 1_000_000))
            handle.write(
                struct.pack(">IIII", seconds, microseconds, len(frame), len(frame))
            )
            handle.write(frame)


class TestByteSwappedMagic:
    def test_round_trip_matches_native_order(self, tmp_path, sample_frames):
        native = tmp_path / "native.pcap"
        swapped = tmp_path / "swapped.pcap"
        write_pcap(native, sample_frames)
        _write_big_endian_pcap(swapped, sample_frames)
        native_packets = read_pcap(native)
        swapped_packets = read_pcap(swapped)
        assert len(swapped_packets) == len(sample_frames)
        for ours, theirs in zip(native_packets, swapped_packets):
            assert theirs.frame == ours.frame
            assert theirs.timestamp == ours.timestamp
            assert theirs.original_length == ours.original_length

    def test_columns_match_native_order(self, tmp_path, sample_frames):
        native = tmp_path / "native.pcap"
        swapped = tmp_path / "swapped.pcap"
        write_pcap(native, sample_frames)
        _write_big_endian_pcap(swapped, sample_frames)
        native_columns = read_pcap_columns(native)
        swapped_columns = read_pcap_columns(swapped)
        assert swapped_columns.timestamps.tolist() == native_columns.timestamps.tolist()
        assert (
            swapped_columns.captured_lengths.tolist()
            == native_columns.captured_lengths.tolist()
        )
        for index in range(len(native_columns)):
            assert swapped_columns.frame(index) == native_columns.frame(index)

    def test_truncated_body_in_swapped_file(self, tmp_path, sample_frames):
        path = tmp_path / "swapped.pcap"
        _write_big_endian_pcap(path, sample_frames)
        cut = tmp_path / "cut.pcap"
        cut.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(PcapError, match="truncated packet body"):
            read_pcap(cut)


class TestColumnarReader:
    def test_columns_agree_with_packet_iterator(self, tmp_path, sample_frames):
        path = tmp_path / "trace.pcap"
        write_pcap(path, sample_frames)
        columns = read_pcap_columns(path)
        packets = read_pcap(path)
        assert columns.packet_count == len(packets) == len(sample_frames)
        for index, packet in enumerate(packets):
            assert columns.timestamps[index] == packet.timestamp
            assert int(columns.captured_lengths[index]) == packet.captured_length
            assert int(columns.original_lengths[index]) == packet.original_length
            assert bytes(columns.frame(index)) == packet.frame

    def test_frames_are_zero_copy_views(self, tmp_path, sample_frames):
        path = tmp_path / "trace.pcap"
        write_pcap(path, sample_frames)
        columns = read_pcap_columns(path)
        frame = columns.frame(0)
        assert isinstance(frame, memoryview)
        # The view windows the shared file mapping, not a per-frame copy.
        assert frame.obj is columns.data.obj
        for packet in PcapReader(path).read():
            assert isinstance(packet.frame, memoryview)

    def test_read_pcap_returns_owned_bytes(self, tmp_path, sample_frames):
        path = tmp_path / "trace.pcap"
        write_pcap(path, sample_frames)
        packets = read_pcap(path)
        assert all(isinstance(packet.frame, bytes) for packet in packets)

    def test_empty_packet_section(self, tmp_path):
        path = tmp_path / "empty.pcap"
        with PcapWriter(path):
            pass
        columns = read_pcap_columns(path)
        assert columns.packet_count == 0
        assert read_pcap(path) == []

    def test_snaplen_reflected_in_columns(self, tmp_path, sample_frames):
        path = tmp_path / "trace.pcap"
        with PcapWriter(path, snaplen=40) as writer:
            for timestamp, frame in sample_frames:
                writer.write(timestamp, frame)
        columns = read_pcap_columns(path)
        assert columns.captured_lengths.tolist() == [40] * len(sample_frames)
        assert columns.original_lengths.tolist() == [
            len(frame) for _, frame in sample_frames
        ]


class TestPcapErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(PcapError):
            read_pcap(tmp_path / "does-not-exist.pcap")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.pcap"
        path.write_bytes(b"")
        with pytest.raises(PcapError, match="too short"):
            read_pcap(path)

    def test_truncated_packet_header(self, tmp_path, sample_frames):
        path = tmp_path / "trace.pcap"
        write_pcap(path, sample_frames)
        raw = path.read_bytes()
        # Keep the global header plus half of the first packet header.
        (tmp_path / "cut.pcap").write_bytes(raw[: 24 + 8])
        with pytest.raises(PcapError, match="truncated packet header"):
            read_pcap(tmp_path / "cut.pcap")

    def test_truncated_header_via_columns(self, tmp_path, sample_frames):
        path = tmp_path / "trace.pcap"
        write_pcap(path, sample_frames)
        (tmp_path / "cut.pcap").write_bytes(path.read_bytes()[: 24 + 8])
        with pytest.raises(PcapError, match="truncated packet header"):
            read_pcap_columns(tmp_path / "cut.pcap")

    def test_truncated_body_via_columns(self, tmp_path, sample_frames):
        path = tmp_path / "trace.pcap"
        write_pcap(path, sample_frames)
        (tmp_path / "cut.pcap").write_bytes(path.read_bytes()[:-5])
        with pytest.raises(PcapError, match="truncated packet body"):
            read_pcap_columns(tmp_path / "cut.pcap")

    def test_unsupported_link_type(self, tmp_path):
        path = tmp_path / "lo.pcap"
        path.write_bytes(struct.pack("<IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, 65_535, 101))
        with pytest.raises(PcapError, match="unsupported link type"):
            read_pcap(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pcap"
        path.write_bytes(b"\x00" * 40)
        with pytest.raises(PcapError):
            read_pcap(path)

    def test_truncated_packet_body(self, tmp_path, sample_frames):
        path = tmp_path / "trace.pcap"
        write_pcap(path, sample_frames)
        raw = path.read_bytes()
        (tmp_path / "cut.pcap").write_bytes(raw[:-5])
        with pytest.raises(PcapError):
            read_pcap(tmp_path / "cut.pcap")

    def test_too_short_file(self, tmp_path):
        path = tmp_path / "tiny.pcap"
        path.write_bytes(b"\x01\x02")
        with pytest.raises(PcapError):
            read_pcap(path)

    def test_iterating_reader_directly(self, tmp_path, sample_frames):
        path = tmp_path / "trace.pcap"
        write_pcap(path, sample_frames)
        assert len(list(PcapReader(path))) == 5
