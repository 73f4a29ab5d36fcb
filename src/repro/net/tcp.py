"""TCP send-side behaviour: segmentation of TLS record streams into packets."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import PacketError
from repro.net.endpoints import FiveTuple
from repro.net.packet import Direction, Packet, push_flags


def segment_payload(payload: bytes, mss: int) -> list[bytes]:
    """Split an application byte string into <= ``mss``-byte TCP payloads."""
    if mss <= 0:
        raise PacketError(f"MSS must be positive, got {mss}")
    if not payload:
        return []
    return [payload[start : start + mss] for start in range(0, len(payload), mss)]


@dataclass
class TCPSender:
    """One direction of a TCP connection that the simulator writes into.

    The sender keeps sequence-number state so the emitted packets form a
    coherent TCP stream that pcap consumers (and our own flow reassembly)
    can follow.

    Parameters
    ----------
    five_tuple:
        The connection the sender belongs to.
    direction:
        Which way this sender transmits.
    mss:
        Maximum segment size for data packets.
    initial_sequence_number:
        Starting sequence number (kept small by default for readability in
        packet dumps).
    """

    five_tuple: FiveTuple
    direction: Direction
    mss: int = 1460
    initial_sequence_number: int = 1
    _next_sequence: int = field(init=False, repr=False)
    _peer_sequence: int = field(default=1, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.mss <= 0:
            raise PacketError(f"MSS must be positive, got {self.mss}")
        if self.initial_sequence_number < 0:
            raise PacketError("initial sequence number must be non-negative")
        self._next_sequence = self.initial_sequence_number

    @property
    def next_sequence_number(self) -> int:
        """Sequence number the next data byte will carry."""
        return self._next_sequence

    def note_peer_progress(self, peer_next_sequence: int) -> None:
        """Record how far the other direction has advanced (for ACK fields)."""
        if peer_next_sequence < 0:
            raise PacketError("peer sequence must be non-negative")
        self._peer_sequence = peer_next_sequence

    def send(
        self,
        payload: bytes,
        timestamp: float,
        annotations: dict[str, object] | None = None,
    ) -> list[Packet]:
        """Segment ``payload`` into packets stamped at ``timestamp``.

        All segments of one application write share the same annotations
        (each packet gets its own copy); the capture layer later spaces their
        timestamps by serialization delay.  Only the first segment is built
        through the validating constructor; the rest copy its fields.
        """
        if not payload:
            raise PacketError("cannot send an empty payload")
        segments = segment_payload(payload, self.mss)
        first = Packet(
            timestamp=timestamp,
            direction=self.direction,
            five_tuple=self.five_tuple,
            payload=segments[0],
            sequence_number=self._next_sequence,
            acknowledgment_number=self._peer_sequence,
            flags=push_flags(),
            annotations=dict(annotations or {}),
        )
        packets = [first]
        sequence = self._next_sequence + len(segments[0])
        for segment in segments[1:]:
            packets.append(first._next_segment(segment, sequence, dict(first.annotations)))
            sequence += len(segment)
        self._next_sequence = sequence
        return packets

    def send_ack(self, timestamp: float) -> Packet:
        """Emit a bare ACK (no payload)."""
        return Packet(
            timestamp=timestamp,
            direction=self.direction,
            five_tuple=self.five_tuple,
            payload=b"",
            sequence_number=self._next_sequence,
            acknowledgment_number=self._peer_sequence,
        )
