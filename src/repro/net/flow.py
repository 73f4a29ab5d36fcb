"""Flow bookkeeping and TCP stream reassembly.

The attack works per connection and per direction: it reassembles the
client-to-server byte stream of the TLS connection to Netflix and walks the
TLS record headers inside it.  :class:`Flow` provides that reassembly (with
retransmission suppression), and :class:`FlowTable` groups captured packets
into flows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.exceptions import PacketError
from repro.net.endpoints import FiveTuple
from repro.net.packet import Direction, Packet


@dataclass
class _DirectionalStream:
    """Payload bytes of one direction, keyed by sequence number."""

    segments: dict[int, bytes] = field(default_factory=dict)
    packet_count: int = 0
    retransmission_count: int = 0

    def add(self, packet: Packet) -> None:
        self.packet_count += 1
        if not packet.payload:
            return
        existing = self.segments.get(packet.sequence_number)
        if existing is not None:
            # Same sequence number seen twice: a retransmission (possibly a
            # shorter or longer overlap); keep the longer payload.
            self.retransmission_count += 1
            if len(packet.payload) <= len(existing):
                return
        self.segments[packet.sequence_number] = packet.payload

    def reassemble(self) -> bytes:
        """Concatenate payloads in sequence order, tolerating overlaps."""
        stream = bytearray()
        expected: int | None = None
        for sequence in sorted(self.segments):
            payload = self.segments[sequence]
            if expected is None:
                stream.extend(payload)
                expected = sequence + len(payload)
                continue
            if sequence >= expected:
                # A gap means bytes were never captured; the observer can only
                # concatenate what it saw (gaps are rare in our simulation and
                # correspond to captured-side loss).
                stream.extend(payload)
                expected = sequence + len(payload)
            else:
                overlap = expected - sequence
                if overlap < len(payload):
                    stream.extend(payload[overlap:])
                    expected = sequence + len(payload)
        return bytes(stream)


class Flow:
    """All packets of one TCP connection, split by direction."""

    def __init__(self, five_tuple: FiveTuple) -> None:
        self._five_tuple = five_tuple
        self._streams = {
            Direction.CLIENT_TO_SERVER: _DirectionalStream(),
            Direction.SERVER_TO_CLIENT: _DirectionalStream(),
        }
        self._packets: list[Packet] = []

    @property
    def five_tuple(self) -> FiveTuple:
        """The connection identifier."""
        return self._five_tuple

    @property
    def packets(self) -> tuple[Packet, ...]:
        """Every packet added to the flow, in arrival order."""
        return tuple(self._packets)

    def add(self, packet: Packet) -> None:
        """Add one packet to the flow."""
        if packet.five_tuple != self._five_tuple:
            raise PacketError(
                f"packet for {packet.five_tuple.key} added to flow {self._five_tuple.key}"
            )
        self._packets.append(packet)
        self._streams[packet.direction].add(packet)

    def packet_count(self, direction: Direction | None = None) -> int:
        """Number of packets, optionally restricted to one direction."""
        if direction is None:
            return len(self._packets)
        return self._streams[direction].packet_count

    def retransmission_count(self, direction: Direction) -> int:
        """Number of suppressed duplicate segments in one direction."""
        return self._streams[direction].retransmission_count

    def payload_bytes(self, direction: Direction) -> int:
        """Total distinct payload bytes observed in one direction."""
        return len(self.reassemble(direction))

    def reassemble(self, direction: Direction) -> bytes:
        """The reassembled byte stream of one direction."""
        return self._streams[direction].reassemble()

    def client_packets(self) -> list[Packet]:
        """Uplink packets in arrival order (what the attack inspects)."""
        return [
            packet
            for packet in self._packets
            if packet.direction is Direction.CLIENT_TO_SERVER
        ]

    def duration_seconds(self) -> float:
        """Time between the first and last packet of the flow."""
        if not self._packets:
            return 0.0
        timestamps = [packet.timestamp for packet in self._packets]
        return max(timestamps) - min(timestamps)


class FlowTable:
    """Groups packets into flows keyed by their five-tuple."""

    def __init__(self) -> None:
        self._flows: dict[str, Flow] = {}

    def add(self, packet: Packet) -> Flow:
        """Route one packet to its flow, creating the flow if needed."""
        key = packet.five_tuple.key
        flow = self._flows.get(key)
        if flow is None:
            flow = Flow(packet.five_tuple)
            self._flows[key] = flow
        flow.add(packet)
        return flow

    def add_all(self, packets: Iterable[Packet]) -> None:
        """Route an iterable of packets."""
        for packet in packets:
            self.add(packet)

    @property
    def flows(self) -> tuple[Flow, ...]:
        """All flows, in creation order."""
        return tuple(self._flows.values())

    def largest_flow(self) -> Flow:
        """The flow carrying the most payload bytes (heuristically, the video).

        An eavesdropper who does not know which connection is the Netflix one
        can use this to find it: the streaming connection dwarfs everything
        else in a viewing session.
        """
        if not self._flows:
            raise PacketError("flow table is empty")
        return max(
            self._flows.values(),
            key=lambda flow: flow.payload_bytes(Direction.SERVER_TO_CLIENT),
        )

    def __len__(self) -> int:
        return len(self._flows)
