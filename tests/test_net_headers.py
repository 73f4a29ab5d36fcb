"""Tests for binary header construction and parsing."""

from __future__ import annotations

import struct

import pytest

from repro.exceptions import PacketError
from repro.net.headers import (
    ETHERNET_HEADER_LENGTH,
    IPV4_HEADER_LENGTH,
    TCP_HEADER_LENGTH,
    EthernetHeader,
    IPv4Header,
    TCPHeader,
    checksum16,
    format_ipv4,
    parse_ipv4,
    parse_mac,
)


class TestChecksum:
    def test_checksum_of_zeroes(self):
        assert checksum16(b"\x00" * 8) == 0xFFFF

    def test_checksum_detects_change(self):
        data = bytes(range(20))
        altered = bytes([data[0] ^ 0xFF]) + data[1:]
        assert checksum16(data) != checksum16(altered)

    def test_odd_length_padded(self):
        assert isinstance(checksum16(b"\x01\x02\x03"), int)

    def test_odd_bytearray_is_not_extended(self):
        buffer = bytearray(b"\x01\x02\x03")
        assert checksum16(buffer) == checksum16(b"\x01\x02\x03")
        assert buffer == bytearray(b"\x01\x02\x03")

    def test_memoryview_input(self):
        data = bytes(range(1, 22))
        assert checksum16(memoryview(data)) == checksum16(data)
        assert checksum16(memoryview(data)[:20]) == checksum16(data[:20])


class TestAddressParsing:
    def test_ipv4_roundtrip(self):
        assert format_ipv4(parse_ipv4("192.168.1.23")) == "192.168.1.23"

    def test_ipv4_invalid(self):
        for bad in ("1.2.3", "1.2.3.256", "a.b.c.d"):
            with pytest.raises(PacketError):
                parse_ipv4(bad)

    def test_mac_parse(self):
        assert parse_mac("02:00:00:00:00:01") == b"\x02\x00\x00\x00\x00\x01"
        with pytest.raises(PacketError):
            parse_mac("02:00:00")


class TestEthernetHeader:
    def test_roundtrip(self):
        header = EthernetHeader("02:00:00:00:00:02", "02:00:00:00:00:01")
        parsed, size = EthernetHeader.parse(header.serialize())
        assert size == ETHERNET_HEADER_LENGTH
        assert parsed.destination_mac == "02:00:00:00:00:02"
        assert parsed.ethertype == 0x0800

    def test_truncated(self):
        with pytest.raises(PacketError):
            EthernetHeader.parse(b"\x00" * 5)


class TestIPv4Header:
    def test_roundtrip(self):
        header = IPv4Header("10.0.0.1", "10.0.0.2", total_length=60, identification=7)
        parsed, size = IPv4Header.parse(header.serialize())
        assert size == IPV4_HEADER_LENGTH
        assert parsed.source == "10.0.0.1"
        assert parsed.destination == "10.0.0.2"
        assert parsed.total_length == 60
        assert parsed.identification == 7

    def test_checksum_is_valid(self):
        header = IPv4Header("10.0.0.1", "10.0.0.2", total_length=40).serialize()
        # Recomputing the checksum over the header (checksum field included)
        # must give zero for a correct checksum.
        assert checksum16(header) == 0

    def test_invalid_total_length(self):
        with pytest.raises(PacketError):
            IPv4Header("10.0.0.1", "10.0.0.2", total_length=5)

    def test_parse_rejects_non_ipv4(self):
        raw = bytearray(IPv4Header("10.0.0.1", "10.0.0.2", total_length=40).serialize())
        raw[0] = (6 << 4) | 5
        with pytest.raises(PacketError):
            IPv4Header.parse(bytes(raw))


class TestTCPHeader:
    def test_roundtrip(self):
        header = TCPHeader(
            source_port=51742,
            destination_port=443,
            sequence_number=1000,
            acknowledgment_number=55,
            flags=0x18,
        )
        raw = header.serialize("10.0.0.1", "10.0.0.2", b"hello")
        parsed, size = TCPHeader.parse(raw)
        assert size == TCP_HEADER_LENGTH
        assert parsed.source_port == 51742
        assert parsed.destination_port == 443
        assert parsed.sequence_number == 1000
        assert parsed.flags == 0x18

    def test_invalid_port(self):
        with pytest.raises(PacketError):
            TCPHeader(0, 443, 0, 0, 0)

    def test_truncated(self):
        with pytest.raises(PacketError):
            TCPHeader.parse(b"\x00" * 10)
