"""Columnar Ethernet/IPv4/TCP decoding: header fields as numpy arrays.

The attack needs three things from a capture: which packets belong to the
streaming connection, which of those travel uplink, and where their
payloads sit in the file.  :func:`decode_tcp_columns` reads exactly that
from a :class:`~repro.net.pcap.PcapColumns` scan — every header field is a
gather at ``frame offset + field offset`` over all packets at once, with the
IPv4 header length and the TCP data offset applied per packet, so IP and TCP
options and Ethernet padding need no special case.  No :class:`Packet`,
:class:`Endpoint` or :class:`~repro.net.flow.FlowTable` is built.

:meth:`Packet.parse_frame` (via :meth:`CapturedTrace.from_pcap`) stays the
definition of correct.  The columns reproduce its decisions only where they
can prove them: non-IPv4 and non-TCP frames drop out just as ``parse_frame``
returns ``None`` for them, and any frame ``parse_frame`` would *reject*
(truncated headers, a bad version, header length, total length, TTL or
port) makes :func:`decode_tcp_columns` return ``None`` so the caller runs
the oracle, which raises its own error.  Flow selection mirrors
:func:`repro.core.features.select_streaming_flow` over
:meth:`FlowTable.largest_flow`, ties and creation order included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import PacketError
from repro.net.headers import (
    ETHERNET_HEADER_LENGTH,
    ETHERTYPE_IPV4,
    IP_PROTO_TCP,
    IPV4_HEADER_LENGTH,
    TCP_HEADER_LENGTH,
    format_ipv4,
    parse_ipv4,
)
from repro.net.pcap import PcapColumns

_IP = ETHERNET_HEADER_LENGTH
#: Frame bytes up to the end of the option-less IPv4 header.
_IP_END = ETHERNET_HEADER_LENGTH + IPV4_HEADER_LENGTH
#: The streaming connection's server port (HTTPS).
_SERVER_PORT = 443


def canonical_ipv4(address: str) -> int | None:
    """``address`` as a 32-bit integer, or ``None`` unless it is canonical.

    ``parse_frame`` compares address *strings*, and decoded addresses are
    always in dotted-quad canonical form; an address that does not survive
    ``format_ipv4(parse_ipv4(...))`` unchanged can never match one, which
    only the oracle path reproduces faithfully.
    """
    try:
        raw = parse_ipv4(address)
    except PacketError:
        return None
    if format_ipv4(raw) != address:
        return None
    return int.from_bytes(raw, "big")


def _gather_be(data: np.ndarray, positions: np.ndarray, width: int) -> np.ndarray:
    """Big-endian unsigned integers of ``width`` bytes at each position."""
    if width == 1:
        return data[positions].astype(np.int64)
    raw = data[positions[:, None] + np.arange(width)]
    return raw.view(f">u{width}")[:, 0].astype(np.int64)


@dataclass(frozen=True)
class TcpColumns:
    """One capture's TCP segments, one array per field, in capture order.

    Sides follow ``parse_frame``: a segment is uplink when its source
    address is the client's, and its client endpoint is then its source
    (otherwise its destination).  Payload offsets index ``data``, the whole
    file's bytes.
    """

    data: np.ndarray
    timestamps: np.ndarray
    uplink: np.ndarray
    client_ips: np.ndarray
    client_ports: np.ndarray
    server_ips: np.ndarray
    server_ports: np.ndarray
    sequence_numbers: np.ndarray
    payload_offsets: np.ndarray
    payload_lengths: np.ndarray

    def __len__(self) -> int:
        return int(self.timestamps.size)

    def flow_to(self, server_ip: int) -> np.ndarray | None:
        """The first-created connection to ``server_ip`` port 443.

        A connection is created by its first segment, so the first segment
        whose server side matches belongs to the earliest such connection.
        ``None`` when no segment matches.
        """
        matches = np.flatnonzero(
            (self.server_ips == server_ip) & (self.server_ports == _SERVER_PORT)
        )
        if matches.size == 0:
            return None
        first = int(matches[0])
        return (
            (self.client_ips == self.client_ips[first])
            & (self.client_ports == self.client_ports[first])
            & (self.server_ips == self.server_ips[first])
            & (self.server_ports == self.server_ports[first])
        )

    def largest_flow_server(self) -> int:
        """Server address of the connection with the most downlink bytes.

        A connection's downlink bytes are the length of the union of its
        downlink ``[seq, seq + len)`` spans — what reassembling that stream
        yields.  Ties go to the earliest-created connection.
        """
        keys = np.stack(
            ((self.client_ips << 16) | self.client_ports,
             (self.server_ips << 16) | self.server_ports),
            axis=1,
        )
        _, first_segment, flows = np.unique(
            keys, axis=0, return_index=True, return_inverse=True
        )
        flows = flows.reshape(-1)
        downlink = ~self.uplink & (self.payload_lengths > 0)
        flow = flows[downlink]
        starts = self.sequence_numbers[downlink]
        order = np.lexsort((starts, flow))
        flow = flow[order]
        # Spans end below 2**33; shifting each flow by 2**34 lets one running
        # maximum cover every flow without a flow seeing its predecessor's.
        shift = flow.astype(np.int64) << 34
        starts = starts[order] + shift
        ends = starts + self.payload_lengths[downlink][order]
        previous = np.zeros_like(ends)
        previous[1:] = np.maximum.accumulate(ends)[:-1]
        fresh = np.maximum(ends - np.maximum(starts, previous), 0)
        totals = np.bincount(flow, weights=fresh, minlength=first_segment.size)
        creation = np.argsort(first_segment)
        best = creation[int(np.argmax(totals[creation]))]
        return int(self.server_ips[first_segment[best]])

    def uplink_segments(
        self, flow: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The flow's uplink payload segments in reassembly order.

        Segments sort by ``(sequence number, timestamp)`` — stably, so equal
        keys keep capture order — and a repeated sequence number keeps only
        its first segment, as the record parser's duplicate suppression does.
        Returns ``(timestamps, sequence_numbers, payload_offsets,
        payload_lengths)``.
        """
        chosen = np.flatnonzero(flow & self.uplink & (self.payload_lengths > 0))
        sequence = self.sequence_numbers[chosen]
        order = chosen[np.lexsort((self.timestamps[chosen], sequence))]
        sequence = self.sequence_numbers[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = sequence[1:] != sequence[:-1]
        order = order[first]
        return (
            self.timestamps[order],
            self.sequence_numbers[order],
            self.payload_offsets[order],
            self.payload_lengths[order],
        )

    def gather(self, offsets: np.ndarray, lengths: np.ndarray) -> bytes:
        """Concatenate the payload spans ``[offset, offset + length)``."""
        data = self.data
        return b"".join(
            data[offset : offset + length]
            for offset, length in zip(offsets.tolist(), lengths.tolist())
        )


def decode_tcp_columns(columns: PcapColumns, client_ip: str) -> TcpColumns | None:
    """Decode a capture's IPv4/TCP headers into :class:`TcpColumns`.

    Returns ``None`` whenever the columns cannot prove that ``parse_frame``
    would decode the capture the same way: a frame it would reject, no TCP
    segment at all, or a non-canonical ``client_ip``.
    """
    client = canonical_ipv4(client_ip)
    if client is None:
        return None
    data = np.frombuffer(columns.data, dtype=np.uint8)
    offsets = columns.frame_offsets
    captured = columns.captured_lengths
    if captured.size == 0 or bool((captured < ETHERNET_HEADER_LENGTH).any()):
        return None
    ethertype = _gather_be(data, offsets + 12, 2)
    ip = np.flatnonzero(ethertype == ETHERTYPE_IPV4)
    frames, captured = offsets[ip], captured[ip]
    if bool((captured < _IP_END).any()):
        return None
    version_ihl = _gather_be(data, frames + _IP, 1)
    header_lengths = (version_ihl & 0x0F) * 4
    total_lengths = _gather_be(data, frames + _IP + 2, 2)
    ttls = _gather_be(data, frames + _IP + 8, 1)
    if bool(
        (
            ((version_ihl >> 4) != 4)
            | (header_lengths < IPV4_HEADER_LENGTH)
            | (total_lengths < IPV4_HEADER_LENGTH)
            | (ttls == 0)
        ).any()
    ):
        return None
    tcp = np.flatnonzero(_gather_be(data, frames + _IP + 9, 1) == IP_PROTO_TCP)
    if tcp.size == 0:
        return None
    ip, frames, captured = ip[tcp], frames[tcp], captured[tcp]
    total_lengths = total_lengths[tcp]
    tcp_starts = _IP + header_lengths[tcp]
    if bool((captured - tcp_starts < TCP_HEADER_LENGTH).any()):
        return None
    header = frames + tcp_starts
    source_ports = _gather_be(data, header, 2)
    destination_ports = _gather_be(data, header + 2, 2)
    data_offsets = _gather_be(data, header + 12, 1) >> 4
    if bool(
        (
            (source_ports == 0)
            | (destination_ports == 0)
            | (data_offsets * 4 < TCP_HEADER_LENGTH)
        ).any()
    ):
        return None
    sources = _gather_be(data, frames + _IP + 12, 4)
    destinations = _gather_be(data, frames + _IP + 16, 4)
    # ``frame[start:end]`` semantics: both bounds clamp to the captured bytes.
    payload_starts = np.minimum(tcp_starts + data_offsets * 4, captured)
    payload_ends = np.minimum(_IP + total_lengths, captured)
    uplink = sources == client
    return TcpColumns(
        data=data,
        timestamps=columns.timestamps[ip],
        uplink=uplink,
        client_ips=np.where(uplink, sources, destinations),
        client_ports=np.where(uplink, source_ports, destination_ports),
        server_ips=np.where(uplink, destinations, sources),
        server_ports=np.where(uplink, destination_ports, source_ports),
        sequence_numbers=_gather_be(data, header + 4, 4),
        payload_offsets=frames + payload_starts,
        payload_lengths=np.maximum(payload_ends - payload_starts, 0),
    )
