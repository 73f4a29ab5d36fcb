"""The capture point: where the eavesdropper sits.

A :class:`CaptureSink` records the TCP writes the simulator emits, applies
the observable consequences of the network-condition model (occasional
retransmitted duplicates, cross-traffic flows to unrelated servers), and
produces a :class:`CapturedTrace` — the passive observer's view of one
viewing session.  Traces can be persisted to and restored from pcap.

The sink never builds a :class:`Packet`: each write becomes rows of a
:class:`~repro.net.columnar.TcpSegments` (timestamp, direction, flow,
sequence and acknowledgment numbers, flags, retransmission flag,
annotations), laid out by :func:`repro.net.tcp.segment_layout`, with its
payload kept once.  A trace is backed by those columns.  Its ``packets``
are a view built on first use; ``packet_count``, ``duration_seconds``,
:meth:`CapturedTrace.to_pcap`, the shard sidecar and labelled record
extraction read the columns directly.  Traces built from packets — by
hand or by :meth:`CapturedTrace.from_pcap` — hold the same columns.

:meth:`CapturedTrace.from_pcap`, built on :meth:`Packet.parse_frame`, is the
oracle for reading a capture: ``repro inspect`` and the dataset loader use
it, and the attack's columnar decoder (:mod:`repro.net.columnar`) defers to
it for any capture whose frames the columns cannot prove it decodes the same
way.  Property tests pin the decoder to it.

Writing mirrors that: :meth:`CapturedTrace.to_pcap` encodes blocks of rows
as header columns (:func:`repro.net.columnar.encode_tcp_frames`), and
:meth:`Packet.serialize_frame` written record by record stays the oracle
— the encoder hands it every block holding a row the columns cannot
express, and property tests pin the encoder's bytes to it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.exceptions import PacketError
from repro.net.columnar import TcpSegments, _int_column, encode_tcp_frames
from repro.net.endpoints import Endpoint, FiveTuple
from repro.net.flow import FlowTable
from repro.net.packet import Direction, Packet, check_timestamp, push_flags
from repro.net.pcap import PcapReader, PcapWriter

if TYPE_CHECKING:
    from repro.net.conditions import NetworkConditions
    from repro.net.tcp import TCPSender
    from repro.utils.rng import RandomSource


@dataclass(frozen=True, init=False, eq=False)
class CapturedTrace:
    """Everything the eavesdropper recorded for one session.

    Built from ``packets`` or from ``segments``, its columns; either way
    the rows keep the order given.
    """

    segments: TcpSegments
    client_ip: str
    server_ip: str

    def __init__(
        self,
        packets: Iterable[Packet] | None = None,
        *,
        client_ip: str,
        server_ip: str,
        segments: TcpSegments | None = None,
    ) -> None:
        if (packets is None) == (segments is None):
            raise TypeError("a captured trace takes either packets or segments")
        if segments is None:
            segments = TcpSegments.from_packets(tuple(packets))
        if len(segments) == 0:
            raise PacketError("a captured trace must contain at least one packet")
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "client_ip", client_ip)
        object.__setattr__(self, "server_ip", server_ip)

    @cached_property
    def packets(self) -> tuple[Packet, ...]:
        """The rows as packets, built on first use and then kept."""
        return self.segments.packets()

    def __getstate__(self) -> dict[str, object]:
        # The packet view is rebuilt on demand, never shipped.
        state = dict(self.__dict__)
        state.pop("packets", None)
        return state

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CapturedTrace):
            return NotImplemented
        return (self.client_ip, self.server_ip, self.packets) == (
            other.client_ip, other.server_ip, other.packets,
        )

    def __hash__(self) -> int:
        return hash((self.client_ip, self.server_ip, self.packet_count))

    @property
    def packet_count(self) -> int:
        """Total packets in the trace."""
        return len(self.segments)

    @property
    def duration_seconds(self) -> float:
        """Time between the first and last captured packet."""
        timestamps = self.segments.timestamps
        return float(timestamps.max()) - float(timestamps.min())

    def client_packets(self) -> list[Packet]:
        """Uplink packets in capture order."""
        return [p for p in self.packets if p.direction is Direction.CLIENT_TO_SERVER]

    def server_packets(self) -> list[Packet]:
        """Downlink packets in capture order."""
        return [p for p in self.packets if p.direction is Direction.SERVER_TO_CLIENT]

    def total_bytes(self) -> int:
        """Sum of frame lengths across the trace."""
        return int(self.segments.wire_lengths.sum())

    def flow_table(self) -> FlowTable:
        """Group the trace's packets into flows."""
        table = FlowTable()
        table.add_all(self.packets)
        return table

    def to_pcap(self, path: str | Path) -> int:
        """Write the trace to a pcap file; returns the packet count written.

        Rows go out in stable timestamp order through the columnar
        encoder, whose bytes equal ``serialize_frame`` written packet by
        packet (the oracle it falls back to).
        """
        with PcapWriter(path) as writer:
            encode_tcp_frames(self.segments.in_capture_order(), writer)
            return writer.packets_written

    def to_pcap_atomic(self, path: str | Path) -> int:
        """Publish the trace as a pcap that appears complete or not at all.

        The capture is first written next to its destination under the
        ``<name>.inprogress`` suffix — the same marker convention the dataset
        writer uses — and renamed into place only once every packet is on
        disk.  A capture-ingest watcher (:mod:`repro.ingest`) therefore never
        observes a truncated ``*.pcap``: the marker name says "still being
        written", the final name says "finished".  Returns the packet count.
        """
        path = Path(path)
        staging_path = path.with_name(path.name + ".inprogress")
        written = self.to_pcap(staging_path)
        # The data must be durable before the rename publishes the final
        # name: a rename can survive a power cut that the buffered packet
        # bytes did not, which would leave a truncated capture under the
        # very name the convention promises is complete.
        with open(staging_path, "rb") as handle:
            os.fsync(handle.fileno())
        os.replace(staging_path, path)
        return written

    @classmethod
    def from_pcap(
        cls, path: str | Path, client_ip: str, server_ip: str
    ) -> "CapturedTrace":
        """Rebuild a trace from a pcap file written by :meth:`to_pcap`.

        Ground-truth annotations are *not* recoverable from pcap — by design:
        the on-disk artefact contains only what a real capture would.
        """
        packets: list[Packet] = []
        for record in PcapReader(path).read():
            packet = Packet.parse_frame(record.frame, record.timestamp, client_ip)
            if packet is not None:
                packets.append(packet)
        if not packets:
            raise PacketError(f"pcap file {path} contained no parseable TCP packets")
        return cls(packets=packets, client_ip=client_ip, server_ip=server_ip)


def draw_losses(
    generator: np.random.Generator, count: int, probability: float
) -> list[tuple[int, float]]:
    """Which of a write's ``count`` data segments are lost, with each
    loss's retransmit factor.

    Every segment takes one ``random()`` double and is lost when it falls
    below ``probability``; a lost segment then takes one more double ``u``
    for its factor ``1 + u`` (``uniform(1.0, 2.0)``).  The doubles come
    from ``generator`` in exactly that order — one ``random(count)`` call,
    topped up by one double per loss — so the stream, and every later
    draw, is a per-segment loop's.  Returns ``(segment index, factor)`` per
    loss, in order.
    """
    draws = generator.random(count).tolist()
    losses: list[tuple[int, float]] = []
    cursor = 0
    for segment in range(count):
        cursor += 1
        if draws[cursor - 1] < probability:
            # The double after the loss draw is the factor; the segments
            # after the lost one take the doubles after that.
            draws.append(generator.random())
            losses.append((segment, 1.0 + draws[cursor]))
            cursor += 1
    return losses


class CaptureSink:
    """Records simulator writes as segment rows and applies capture noise.

    Parameters
    ----------
    conditions:
        The network conditions in force during the session.
    rng:
        Random source for retransmission/cross-traffic sampling.
    client_ip / server_ip:
        Addresses of the viewer's machine and the streaming server, used when
        synthesising cross-traffic flows and when exporting to pcap.
    """

    def __init__(
        self,
        conditions: NetworkConditions,
        rng: RandomSource,
        client_ip: str = "192.168.1.23",
        server_ip: str = "198.51.100.7",
    ) -> None:
        self._conditions = conditions
        self._rng = rng
        self._client_ip = client_ip
        self._server_ip = server_ip
        # One entry per write: (timestamp, uplink, flow, sequence,
        # acknowledgment, note, length, mss), and its payload.
        self._writes: list[tuple[float, bool, int, int, int, int, int, int]] = []
        self._payloads: list[bytes] = []
        self._segment_count = 0
        # (segment row, retransmission timestamp) per lost segment.
        self._losses: list[tuple[int, float]] = []
        # Flow slots keyed by five-tuple key, and the five-tuples in slot order.
        self._flows: dict[str, int] = {}
        self._five_tuples: list[FiveTuple] = []
        self._annotations: list[dict[str, object]] = [{}]

    @property
    def client_ip(self) -> str:
        """IP address of the viewer's machine."""
        return self._client_ip

    @property
    def server_ip(self) -> str:
        """IP address of the streaming server."""
        return self._server_ip

    def _record(
        self,
        sender: TCPSender,
        payload: bytes,
        timestamp: float,
        annotations: dict[str, object] | None,
    ) -> tuple[int, int]:
        """Append one write's segments; returns its first row and row count."""
        check_timestamp(timestamp)
        sequence, acknowledgment = sender.advance(len(payload))
        five_tuple = sender.five_tuple
        flow = self._flows.get(five_tuple.key)
        if flow is None:
            flow = self._flows[five_tuple.key] = len(self._five_tuples)
            self._five_tuples.append(five_tuple)
        note = 0
        if annotations:
            note = len(self._annotations)
            self._annotations.append(dict(annotations))
        self._writes.append(
            (
                timestamp, sender.direction is Direction.CLIENT_TO_SERVER, flow,
                sequence, acknowledgment, note, len(payload), sender.mss,
            )
        )
        self._payloads.append(payload)
        first = self._segment_count
        count = -(-len(payload) // sender.mss)
        self._segment_count += count
        return first, count

    def write(
        self,
        sender: TCPSender,
        payload: bytes,
        timestamp: float,
        annotations: dict[str, object] | None = None,
    ) -> None:
        """Record one application write from ``sender`` at ``timestamp``.

        Each segment may be lost downstream of the capture point; the
        sender then retransmits it after one to two RTTs, and the duplicate
        is captured too.  ``annotations`` label every segment of the write.
        """
        first, count = self._record(sender, payload, timestamp, annotations)
        losses = draw_losses(self._rng.generator, count, self._conditions.loss_probability)
        for segment, factor in losses:
            retransmitted = timestamp + self._conditions.base_rtt_seconds * factor
            check_timestamp(retransmitted)
            self._losses.append((first + segment, retransmitted))

    def add_cross_traffic(
        self,
        session_duration_seconds: float,
        rng: RandomSource | None = None,
    ) -> int:
        """Synthesise unrelated background flows over the session duration.

        Each cross-traffic flow is a short TLS-looking exchange with a
        different server (software updates, messaging apps, other tabs).  The
        attack must not be confused by them; they are *not* on the Netflix
        five-tuple, so correct flow selection filters them out.  Returns the
        number of cross-traffic packets added.
        """
        from repro.net.tcp import TCPSender

        rng = rng or self._rng.child("cross-traffic")
        if session_duration_seconds < 0:
            raise PacketError("session duration must be non-negative")
        rate = self._conditions.cross_traffic_flow_rate_per_minute
        expected_flows = rate * session_duration_seconds / 60.0
        flow_count = rng.poisson(expected_flows) if expected_flows > 0 else 0
        added = 0
        for flow_index in range(flow_count):
            flow_rng = rng.child(flow_index)
            start = flow_rng.uniform(0.0, max(session_duration_seconds, 1e-3))
            remote = Endpoint(
                ip=f"203.0.113.{flow_rng.integer(1, 250)}",
                port=443,
            )
            local = Endpoint(ip=self._client_ip, port=flow_rng.integer(40_000, 60_000))
            five_tuple = FiveTuple(client=local, server=remote)
            uplink = TCPSender(five_tuple, Direction.CLIENT_TO_SERVER, mss=1460)
            downlink = TCPSender(five_tuple, Direction.SERVER_TO_CLIENT, mss=1460)
            exchanges = flow_rng.integer(2, 8)
            clock = start
            for _ in range(exchanges):
                request_size = flow_rng.integer(180, 1400)
                response_size = flow_rng.integer(400, 9000)
                request_payload = flow_rng.random_bytes(request_size)
                response_payload = flow_rng.random_bytes(response_size)
                added += self._record(uplink, request_payload, clock, None)[1]
                clock += self._conditions.base_rtt_seconds
                added += self._record(downlink, response_payload, clock, None)[1]
                clock += flow_rng.exponential(0.8)
        return added

    def trace(self) -> CapturedTrace:
        """Finalize the capture into an immutable trace, sorted by time.

        Each retransmission follows its original, and the stable sort by
        timestamp keeps that order among equal timestamps.
        """
        from repro.net.tcp import segment_layout

        if not self._writes:
            raise PacketError("a captured trace must contain at least one packet")
        (
            stamps, uplink, flows, sequences, acknowledgments, notes, lengths, mss,
        ) = zip(*self._writes)
        sequences = _int_column(sequences)
        acknowledgments = _int_column(acknowledgments)
        stamps, uplink, flows, notes = map(np.array, (stamps, uplink, flows, notes))
        writes, offsets, sizes = segment_layout(lengths, mss)
        lost = np.array([row for row, _ in self._losses], dtype=np.intp)
        rows = np.concatenate((np.arange(writes.size), lost))
        timestamps = np.concatenate(
            (stamps[writes], [stamp for _, stamp in self._losses])
        ).astype(np.float64)
        # Original before its retransmission, then stable by timestamp.
        retransmissions = np.arange(rows.size) >= writes.size
        order = np.argsort(2 * rows + retransmissions, kind="stable")
        order = order[np.argsort(timestamps[order], kind="stable")]
        rows, timestamps = rows[order], timestamps[order]
        row_writes = writes[rows]
        segments = TcpSegments(
            timestamps=timestamps,
            uplink=uplink[row_writes],
            flows=flows[row_writes],
            five_tuples=tuple(self._five_tuples),
            sequence_numbers=sequences[row_writes] + offsets[rows],
            acknowledgment_numbers=acknowledgments[row_writes],
            flags=np.full(rows.size, push_flags(), dtype=np.int64),
            retransmissions=retransmissions[order],
            notes=notes[row_writes],
            annotations=tuple(self._annotations),
            spans=rows,
            span_offsets=np.concatenate(([0], np.cumsum(sizes))),
            payload=b"".join(self._payloads),
        )
        return CapturedTrace(
            segments=segments, client_ip=self._client_ip, server_ip=self._server_ip
        )

    def __len__(self) -> int:
        return self._segment_count + len(self._losses)
