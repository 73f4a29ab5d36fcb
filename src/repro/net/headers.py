"""Binary construction and parsing of Ethernet, IPv4 and TCP headers.

The pcap files the library writes must be readable by standard tools
(tcpdump, Wireshark, scapy), so the headers are real wire-format headers with
valid checksums, not ad-hoc structs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.exceptions import PacketError

ETHERTYPE_IPV4 = 0x0800
IP_PROTO_TCP = 6

_ETH_STRUCT = struct.Struct("!6s6sH")
_IPV4_STRUCT = struct.Struct("!BBHHHBBH4s4s")
_TCP_STRUCT = struct.Struct("!HHIIBBHHH")

ETHERNET_HEADER_LENGTH = _ETH_STRUCT.size  # 14
IPV4_HEADER_LENGTH = _IPV4_STRUCT.size  # 20
TCP_HEADER_LENGTH = _TCP_STRUCT.size  # 20

TCP_FLAG_FIN = 0x01
TCP_FLAG_SYN = 0x02
TCP_FLAG_RST = 0x04
TCP_FLAG_PSH = 0x08
TCP_FLAG_ACK = 0x10


def checksum16(data: bytes) -> int:
    """RFC 1071 16-bit one's-complement checksum of any bytes-like ``data``.

    The odd-length pad goes on a private copy: the caller's buffer is
    never extended.
    """
    data = bytes(memoryview(data))
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for (word,) in struct.iter_unpack("!H", data):
        total += word
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def parse_ipv4(address: str) -> bytes:
    """Convert dotted-quad notation into 4 network-order bytes."""
    parts = address.split(".")
    if len(parts) != 4:
        raise PacketError(f"invalid IPv4 address {address!r}")
    try:
        values = [int(part) for part in parts]
    except ValueError:
        raise PacketError(f"invalid IPv4 address {address!r}") from None
    if any(not 0 <= value <= 255 for value in values):
        raise PacketError(f"invalid IPv4 address {address!r}")
    return bytes(values)


def format_ipv4(raw: bytes) -> str:
    """Convert 4 bytes into dotted-quad notation."""
    if len(raw) != 4:
        raise PacketError(f"IPv4 address must be 4 bytes, got {len(raw)}")
    return ".".join(str(byte) for byte in raw)


def parse_mac(address: str) -> bytes:
    """Convert ``aa:bb:cc:dd:ee:ff`` notation into 6 bytes."""
    parts = address.split(":")
    if len(parts) != 6:
        raise PacketError(f"invalid MAC address {address!r}")
    try:
        return bytes(int(part, 16) for part in parts)
    except ValueError:
        raise PacketError(f"invalid MAC address {address!r}") from None


@dataclass(frozen=True)
class EthernetHeader:
    """Ethernet II header."""

    destination_mac: str
    source_mac: str
    ethertype: int = ETHERTYPE_IPV4

    def serialize(self) -> bytes:
        """Encode the header into 14 wire bytes."""
        return _ETH_STRUCT.pack(
            parse_mac(self.destination_mac),
            parse_mac(self.source_mac),
            self.ethertype,
        )

    @classmethod
    def parse(cls, data: bytes) -> tuple["EthernetHeader", int]:
        """Decode a header from the start of ``data``; return it and its size."""
        if len(data) < ETHERNET_HEADER_LENGTH:
            raise PacketError("truncated Ethernet header")
        dst, src, ethertype = _ETH_STRUCT.unpack_from(data)
        to_str = lambda raw: ":".join(f"{byte:02x}" for byte in raw)  # noqa: E731
        return (
            cls(destination_mac=to_str(dst), source_mac=to_str(src), ethertype=ethertype),
            ETHERNET_HEADER_LENGTH,
        )


@dataclass(frozen=True)
class IPv4Header:
    """Minimal (option-less) IPv4 header."""

    source: str
    destination: str
    total_length: int
    identification: int = 0
    ttl: int = 64
    protocol: int = IP_PROTO_TCP

    def __post_init__(self) -> None:
        if not IPV4_HEADER_LENGTH <= self.total_length <= 0xFFFF:
            raise PacketError(f"invalid IPv4 total length {self.total_length}")
        if not 0 <= self.identification <= 0xFFFF:
            raise PacketError(f"invalid IPv4 identification {self.identification}")
        if not 0 < self.ttl <= 255:
            raise PacketError(f"invalid TTL {self.ttl}")

    def serialize(self) -> bytes:
        """Encode the header (with a correct checksum) into 20 wire bytes."""
        version_ihl = (4 << 4) | 5
        without_checksum = _IPV4_STRUCT.pack(
            version_ihl,
            0,
            self.total_length,
            self.identification,
            0x4000,  # don't fragment
            self.ttl,
            self.protocol,
            0,
            parse_ipv4(self.source),
            parse_ipv4(self.destination),
        )
        checksum = checksum16(without_checksum)
        return without_checksum[:10] + struct.pack("!H", checksum) + without_checksum[12:]

    @classmethod
    def parse(cls, data: bytes) -> tuple["IPv4Header", int]:
        """Decode a header from the start of ``data``; return it and its size."""
        if len(data) < IPV4_HEADER_LENGTH:
            raise PacketError("truncated IPv4 header")
        (
            version_ihl,
            _tos,
            total_length,
            identification,
            _flags,
            ttl,
            protocol,
            _checksum,
            source,
            destination,
        ) = _IPV4_STRUCT.unpack_from(data)
        if version_ihl >> 4 != 4:
            raise PacketError("not an IPv4 packet")
        header_length = (version_ihl & 0x0F) * 4
        if header_length < IPV4_HEADER_LENGTH:
            raise PacketError(f"implausible IPv4 header length {header_length}")
        return (
            cls(
                source=format_ipv4(source),
                destination=format_ipv4(destination),
                total_length=total_length,
                identification=identification,
                ttl=ttl,
                protocol=protocol,
            ),
            header_length,
        )


@dataclass(frozen=True)
class TCPHeader:
    """Minimal (option-less) TCP header."""

    source_port: int
    destination_port: int
    sequence_number: int
    acknowledgment_number: int
    flags: int
    window: int = 65_535

    def __post_init__(self) -> None:
        for name in ("source_port", "destination_port"):
            port = getattr(self, name)
            if not 0 < port <= 0xFFFF:
                raise PacketError(f"invalid {name} {port}")
        for name in ("sequence_number", "acknowledgment_number"):
            value = getattr(self, name)
            if not 0 <= value <= 0xFFFFFFFF:
                raise PacketError(f"invalid {name} {value}")
        if not 0 <= self.window <= 0xFFFF:
            raise PacketError(f"invalid window {self.window}")

    def serialize(self, source_ip: str, destination_ip: str, payload: bytes) -> bytes:
        """Encode the header with a valid checksum over the pseudo-header."""
        data_offset_flags = (5 << 12) | (self.flags & 0x3F)
        without_checksum = _TCP_STRUCT.pack(
            self.source_port,
            self.destination_port,
            self.sequence_number,
            self.acknowledgment_number,
            (data_offset_flags >> 8) & 0xFF,
            data_offset_flags & 0xFF,
            self.window,
            0,
            0,
        )
        pseudo = (
            parse_ipv4(source_ip)
            + parse_ipv4(destination_ip)
            + struct.pack("!BBH", 0, IP_PROTO_TCP, len(without_checksum) + len(payload))
        )
        checksum = checksum16(pseudo + without_checksum + payload)
        return without_checksum[:16] + struct.pack("!H", checksum) + without_checksum[18:]

    @classmethod
    def parse(cls, data: bytes) -> tuple["TCPHeader", int]:
        """Decode a header from the start of ``data``; return it and its size."""
        if len(data) < TCP_HEADER_LENGTH:
            raise PacketError("truncated TCP header")
        (
            source_port,
            destination_port,
            sequence_number,
            acknowledgment_number,
            offset_byte,
            flags_byte,
            window,
            _checksum,
            _urgent,
        ) = _TCP_STRUCT.unpack_from(data)
        header_length = (offset_byte >> 4) * 4
        if header_length < TCP_HEADER_LENGTH:
            raise PacketError(f"implausible TCP header length {header_length}")
        return (
            cls(
                source_port=source_port,
                destination_port=destination_port,
                sequence_number=sequence_number,
                acknowledgment_number=acknowledgment_number,
                flags=flags_byte & 0x3F,
                window=window,
            ),
            header_length,
        )
