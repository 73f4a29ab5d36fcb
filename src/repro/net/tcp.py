"""TCP send-side behaviour: segmentation of TLS record streams into packets.

:func:`segment_layout` is the one definition of how an application write
splits into segments; the capture sink lays out every simulated write
with it, and :func:`segment_payload` and :meth:`TCPSender.send` slice
payloads by it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.exceptions import PacketError
from repro.net.endpoints import FiveTuple
from repro.net.packet import Direction, Packet, push_flags


def segment_layout(
    lengths: Sequence[int] | np.ndarray, mss: int | Sequence[int] | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """How writes of ``lengths`` bytes split into <= ``mss``-byte segments.

    ``mss`` is one value or one per write.  Returns three arrays with one
    entry per segment, writes in order and each write's segments in order:
    the write it belongs to, its byte offset within the write and its
    length.  An empty write has no segment.
    """
    lengths = np.asarray(lengths, dtype=np.int64).reshape(-1)
    mss = np.broadcast_to(np.asarray(mss, dtype=np.int64), lengths.shape)
    if lengths.size and int(mss.min()) <= 0:
        raise PacketError(f"MSS must be positive, got {int(mss.min())}")
    counts = -(-lengths // mss)
    writes = np.repeat(np.arange(lengths.size), counts)
    firsts = np.cumsum(counts) - counts
    segment_mss = mss[writes]
    offsets = (np.arange(writes.size) - firsts[writes]) * segment_mss
    return writes, offsets, np.minimum(segment_mss, lengths[writes] - offsets)


def segment_payload(payload: bytes, mss: int) -> list[bytes]:
    """Split an application byte string into <= ``mss``-byte TCP payloads."""
    _, offsets, sizes = segment_layout([len(payload)], mss)
    return [
        payload[offset : offset + size]
        for offset, size in zip(offsets.tolist(), sizes.tolist())
    ]


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

    def advance(self, length: int) -> tuple[int, int]:
        """Claim the next ``length`` stream bytes for one application write.

        Returns the write's first sequence number and the acknowledgment
        number its segments carry.
        """
        if length <= 0:
            raise PacketError("cannot send an empty payload")
        sequence = self._next_sequence
        self._next_sequence = sequence + length
        return sequence, self._peer_sequence

    def send(
        self,
        payload: bytes,
        timestamp: float,
        annotations: dict[str, object] | None = None,
    ) -> list[Packet]:
        """Segment ``payload`` into packets stamped at ``timestamp``.

        All segments of one application write share the same annotations
        (each packet gets its own copy).  The capture sink records the same
        write as rows instead (:meth:`repro.net.capture.CaptureSink.write`).
        """
        sequence, acknowledgment = self.advance(len(payload))
        _, offsets, sizes = segment_layout([len(payload)], self.mss)
        return [
            Packet(
                timestamp=timestamp,
                direction=self.direction,
                five_tuple=self.five_tuple,
                payload=payload[offset : offset + size],
                sequence_number=sequence + offset,
                acknowledgment_number=acknowledgment,
                flags=push_flags(),
                annotations=dict(annotations or {}),
            )
            for offset, size in zip(offsets.tolist(), sizes.tolist())
        ]

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
