"""The packet abstraction shared by the simulator, the capture and the attack."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.exceptions import PacketError
from repro.net.endpoints import Endpoint, FiveTuple
from repro.net.headers import (
    ETHERNET_HEADER_LENGTH,
    IPV4_HEADER_LENGTH,
    TCP_FLAG_ACK,
    TCP_FLAG_PSH,
    TCP_HEADER_LENGTH,
    EthernetHeader,
    IPv4Header,
    TCPHeader,
)


class Direction(str, Enum):
    """Which way a packet travels relative to the viewer's machine."""

    CLIENT_TO_SERVER = "client_to_server"
    SERVER_TO_CLIENT = "server_to_client"

    @property
    def is_client(self) -> bool:
        """``True`` for uplink (client-originated) packets."""
        return self is Direction.CLIENT_TO_SERVER


#: Timestamps live in ``[0, MAX_TIMESTAMP)``: the range the pcap record
#: header's unsigned 32-bit seconds field can carry.
MAX_TIMESTAMP = 2**32


def check_timestamp(timestamp: float) -> None:
    """Raise :class:`PacketError` unless ``0 <= timestamp < MAX_TIMESTAMP``."""
    # The chained comparison also rejects NaN and infinities.
    if not 0 <= timestamp < MAX_TIMESTAMP:
        raise PacketError(
            f"packet timestamp must be finite, non-negative and below 2**32 s, "
            f"got {timestamp}"
        )


_CLIENT_MAC = "02:00:00:00:00:01"
_SERVER_MAC = "02:00:00:00:00:02"


@dataclass(frozen=True)
class Packet:
    """One captured TCP segment.

    ``annotations`` carry simulator-side ground truth (e.g. which TLS record
    and which state message a segment belongs to); they are never serialized
    into the pcap and the attack never reads them — they exist so tests and
    evaluation code can compute accuracy.
    """

    timestamp: float
    direction: Direction
    five_tuple: FiveTuple
    payload: bytes
    sequence_number: int = 0
    acknowledgment_number: int = 0
    flags: int = TCP_FLAG_ACK
    is_retransmission: bool = False
    annotations: dict[str, object] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        check_timestamp(self.timestamp)
        if self.sequence_number < 0 or self.acknowledgment_number < 0:
            raise PacketError("sequence/acknowledgment numbers must be non-negative")

    @property
    def source(self) -> Endpoint:
        """The sending endpoint, derived from the direction."""
        if self.direction.is_client:
            return self.five_tuple.client
        return self.five_tuple.server

    @property
    def destination(self) -> Endpoint:
        """The receiving endpoint, derived from the direction."""
        if self.direction.is_client:
            return self.five_tuple.server
        return self.five_tuple.client

    @property
    def payload_length(self) -> int:
        """TCP payload bytes carried by the segment."""
        return len(self.payload)

    @property
    def wire_length(self) -> int:
        """Total frame length on the wire (Ethernet + IP + TCP + payload)."""
        return (
            ETHERNET_HEADER_LENGTH
            + IPV4_HEADER_LENGTH
            + TCP_HEADER_LENGTH
            + self.payload_length
        )

    def serialize_frame(self) -> bytes:
        """Full Ethernet frame bytes for pcap emission."""
        source = self.source
        destination = self.destination
        total_length = IPV4_HEADER_LENGTH + TCP_HEADER_LENGTH + self.payload_length
        if total_length > 0xFFFF:
            raise PacketError(
                f"IPv4 total length {total_length} exceeds 65535; "
                "segment the payload before building packets"
            )
        ethernet = EthernetHeader(
            destination_mac=_SERVER_MAC if self.direction.is_client else _CLIENT_MAC,
            source_mac=_CLIENT_MAC if self.direction.is_client else _SERVER_MAC,
        )
        ip_header = IPv4Header(
            source=source.ip,
            destination=destination.ip,
            total_length=total_length,
            identification=self.sequence_number & 0xFFFF,
        )
        tcp_header = TCPHeader(
            source_port=source.port,
            destination_port=destination.port,
            sequence_number=self.sequence_number & 0xFFFFFFFF,
            acknowledgment_number=self.acknowledgment_number & 0xFFFFFFFF,
            flags=self.flags,
        )
        return (
            ethernet.serialize()
            + ip_header.serialize()
            + tcp_header.serialize(source.ip, destination.ip, self.payload)
            + self.payload
        )

    @classmethod
    def parse_frame(
        cls,
        frame: bytes,
        timestamp: float,
        client_ip: str,
    ) -> Optional["Packet"]:
        """Rebuild a :class:`Packet` from raw frame bytes.

        Returns ``None`` for frames that are not IPv4/TCP.  ``client_ip``
        tells the parser which endpoint is the viewer's machine so it can
        recover the direction.
        """
        ethernet, eth_len = EthernetHeader.parse(frame)
        if ethernet.ethertype != 0x0800:
            return None
        ip_header, ip_len = IPv4Header.parse(frame[eth_len:])
        if ip_header.protocol != 6:
            return None
        tcp_offset = eth_len + ip_len
        tcp_header, tcp_len = TCPHeader.parse(frame[tcp_offset:])
        payload_start = tcp_offset + tcp_len
        payload_end = eth_len + ip_header.total_length
        payload = bytes(frame[payload_start:payload_end])
        from_client = ip_header.source == client_ip
        client = Endpoint(
            ip=ip_header.source if from_client else ip_header.destination,
            port=tcp_header.source_port if from_client else tcp_header.destination_port,
        )
        server = Endpoint(
            ip=ip_header.destination if from_client else ip_header.source,
            port=tcp_header.destination_port if from_client else tcp_header.source_port,
        )
        return cls(
            timestamp=timestamp,
            direction=Direction.CLIENT_TO_SERVER if from_client else Direction.SERVER_TO_CLIENT,
            five_tuple=FiveTuple(client=client, server=server),
            payload=payload,
            sequence_number=tcp_header.sequence_number,
            acknowledgment_number=tcp_header.acknowledgment_number,
            flags=tcp_header.flags,
        )


def push_flags() -> int:
    """Flags for a data-bearing segment (PSH+ACK)."""
    return TCP_FLAG_PSH | TCP_FLAG_ACK
