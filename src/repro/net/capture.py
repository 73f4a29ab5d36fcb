"""The capture point: where the eavesdropper sits.

A :class:`CaptureSink` collects the packets the simulator emits, applies the
observable consequences of the network-condition model (serialization delays,
occasional retransmitted duplicates, cross-traffic flows to unrelated
servers), and produces a :class:`CapturedTrace` — the passive observer's view
of one viewing session.  Traces can be persisted to and restored from pcap.

:meth:`CapturedTrace.from_pcap`, built on :meth:`Packet.parse_frame`, is the
oracle for reading a capture: ``repro inspect`` and the dataset loader use
it, and the attack's columnar decoder (:mod:`repro.net.columnar`) defers to
it for any capture whose frames the columns cannot prove it decodes the same
way.  Property tests pin the decoder to it.

Writing mirrors that: :meth:`CapturedTrace.to_pcap` encodes blocks of
packets as header columns (:func:`repro.net.columnar.encode_tcp_frames`),
and :meth:`Packet.serialize_frame` written record by record stays the oracle
— the encoder hands it every block holding a packet the columns cannot
express, and property tests pin the encoder's bytes to it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.exceptions import PacketError
from repro.net.columnar import encode_tcp_frames
from repro.net.conditions import NetworkConditions
from repro.net.endpoints import Endpoint, FiveTuple
from repro.net.flow import FlowTable
from repro.net.packet import Direction, Packet
from repro.net.pcap import PcapReader, PcapWriter
from repro.net.tcp import TCPSender
from repro.utils.rng import RandomSource


@dataclass(frozen=True)
class CapturedTrace:
    """Everything the eavesdropper recorded for one session."""

    packets: tuple[Packet, ...]
    client_ip: str
    server_ip: str

    def __post_init__(self) -> None:
        if not self.packets:
            raise PacketError("a captured trace must contain at least one packet")

    @property
    def packet_count(self) -> int:
        """Total packets in the trace."""
        return len(self.packets)

    @property
    def duration_seconds(self) -> float:
        """Time between the first and last captured packet."""
        timestamps = [packet.timestamp for packet in self.packets]
        return max(timestamps) - min(timestamps)

    def client_packets(self) -> list[Packet]:
        """Uplink packets in capture order."""
        return [p for p in self.packets if p.direction is Direction.CLIENT_TO_SERVER]

    def server_packets(self) -> list[Packet]:
        """Downlink packets in capture order."""
        return [p for p in self.packets if p.direction is Direction.SERVER_TO_CLIENT]

    def total_bytes(self) -> int:
        """Sum of frame lengths across the trace."""
        return sum(packet.wire_length for packet in self.packets)

    def flow_table(self) -> FlowTable:
        """Group the trace's packets into flows."""
        table = FlowTable()
        table.add_all(self.packets)
        return table

    def to_pcap(self, path: str | Path) -> int:
        """Write the trace to a pcap file; returns the packet count written.

        Packets go out in stable timestamp order through the columnar
        encoder, whose bytes equal ``serialize_frame`` written packet by
        packet (the oracle it falls back to).
        """
        ordered = sorted(self.packets, key=lambda packet: packet.timestamp)
        with PcapWriter(path) as writer:
            encode_tcp_frames(ordered, writer)
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
        return cls(packets=tuple(packets), client_ip=client_ip, server_ip=server_ip)


class CaptureSink:
    """Collects simulator packets and applies capture-side noise.

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
        self._packets: list[Packet] = []

    @property
    def client_ip(self) -> str:
        """IP address of the viewer's machine."""
        return self._client_ip

    @property
    def server_ip(self) -> str:
        """IP address of the streaming server."""
        return self._server_ip

    def observe(self, packet: Packet) -> None:
        """Record one packet, possibly duplicating it as a retransmission."""
        self._packets.append(packet)
        if packet.payload and self._conditions.is_lost(self._rng):
            # The original made it to the capture point but was lost
            # downstream; the sender retransmits after roughly one RTT and the
            # duplicate is captured too.
            retransmit_delay = self._conditions.base_rtt_seconds * self._rng.uniform(1.0, 2.0)
            self._packets.append(
                packet.as_retransmission(packet.timestamp + retransmit_delay)
            )

    def observe_all(self, packets: Iterable[Packet]) -> None:
        """Record an iterable of packets."""
        for packet in packets:
            self.observe(packet)

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
                for packet in uplink.send(request_payload, clock):
                    self._packets.append(packet)
                    added += 1
                clock += self._conditions.base_rtt_seconds
                for packet in downlink.send(response_payload, clock):
                    self._packets.append(packet)
                    added += 1
                clock += flow_rng.exponential(0.8)
        return added

    def trace(self) -> CapturedTrace:
        """Finalize the capture into an immutable trace, sorted by time."""
        ordered = tuple(sorted(self._packets, key=lambda packet: packet.timestamp))
        return CapturedTrace(
            packets=ordered, client_ip=self._client_ip, server_ip=self._server_ip
        )

    def __len__(self) -> int:
        return len(self._packets)
