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

Writing runs the same way in reverse.  :func:`encode_tcp_frames` turns a
block of :class:`Packet` objects into pcap records at once: the record
header and the Ethernet/IPv4/TCP headers of every packet are one row of a
structured array, each address is parsed once per capture, and the IPv4 and
TCP checksums are two batched RFC 1071 sums over big-endian word views.
:meth:`Packet.serialize_frame` (and :func:`~repro.net.headers.checksum16`
under it) written through :meth:`PcapWriter.write` stays the definition of
correct: a block holding any packet the rows cannot express — a payload too
long for one IPv4 datagram, a frame over the writer's snaplen, a timestamp
the record header cannot hold — is written by that per-packet loop, which
raises its own error.  Property tests pin the encoder's bytes to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Sequence

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
    parse_mac,
)
from repro.net.packet import _CLIENT_MAC, _SERVER_MAC, Direction, Packet
from repro.net.pcap import PcapColumns, PcapWriter

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


#: Packets encoded at once: bounds the rows, payload copies and checksum
#: words alive at any moment to one block's worth, whatever the capture size.
_BLOCK_PACKETS = 4096

#: One packet's pcap record header followed by its Ethernet, option-less
#: IPv4 and option-less TCP headers, exactly as they sit in the file.
_FRAME_HEADER = np.dtype(
    [
        ("seconds", "<u4"),
        ("microseconds", "<u4"),
        ("captured_length", "<u4"),
        ("original_length", "<u4"),
        ("destination_mac", "S6"),
        ("source_mac", "S6"),
        ("ethertype", ">u2"),
        ("version_ihl", "u1"),
        ("tos", "u1"),
        ("total_length", ">u2"),
        ("identification", ">u2"),
        ("fragment", ">u2"),
        ("ttl", "u1"),
        ("protocol", "u1"),
        ("ip_checksum", ">u2"),
        ("source_ip", ">u4"),
        ("destination_ip", ">u4"),
        ("source_port", ">u2"),
        ("destination_port", ">u2"),
        ("sequence_number", ">u4"),
        ("acknowledgment_number", ">u4"),
        ("data_offset", "u1"),
        ("flags", "u1"),
        ("window", ">u2"),
        ("tcp_checksum", ">u2"),
        ("urgent", ">u2"),
    ]
)
#: Where the IPv4 header starts in a row, and the frame bytes before a payload.
_ROW_IP = _FRAME_HEADER.fields["version_ihl"][1]
_HEADERS = ETHERNET_HEADER_LENGTH + IPV4_HEADER_LENGTH + TCP_HEADER_LENGTH
#: The largest payload whose IPv4 total length still fits 16 bits.
_MAX_PAYLOAD = 0xFFFF - IPV4_HEADER_LENGTH - TCP_HEADER_LENGTH
_CLIENT_MAC_BYTES = parse_mac(_CLIENT_MAC)
_SERVER_MAC_BYTES = parse_mac(_SERVER_MAC)
#: The fields ``serialize_frame`` writes the same way into every frame.
_TEMPLATE = np.zeros((), dtype=_FRAME_HEADER)
_TEMPLATE["ethertype"] = ETHERTYPE_IPV4
_TEMPLATE["version_ihl"] = (4 << 4) | (IPV4_HEADER_LENGTH // 4)
_TEMPLATE["fragment"] = 0x4000  # don't fragment
_TEMPLATE["ttl"] = 64
_TEMPLATE["protocol"] = IP_PROTO_TCP
_TEMPLATE["data_offset"] = (TCP_HEADER_LENGTH // 4) << 4
_TEMPLATE["window"] = 0xFFFF

_PADS = (b"", b"\0")
_PACKET_FIELDS = attrgetter(
    "timestamp", "direction", "five_tuple", "payload",
    "sequence_number", "acknowledgment_number", "flags",
)


def _ones_complement(total: np.ndarray) -> np.ndarray:
    """Fold int64 word sums with end-around carry and complement them."""
    while True:
        carry = total >> 16
        if not carry.any():
            return ~total & 0xFFFF
        total = (total & 0xFFFF) + carry


def _payload_sums(payloads: tuple, lengths: np.ndarray) -> np.ndarray:
    """Each payload's sum of big-endian 16-bit words, odd ones zero-padded.

    One ``>u2`` view covers every payload of the block; the pad byte after an
    odd payload exists only in this buffer, never in the file.
    """
    pads = map(_PADS.__getitem__, (lengths & 1).tolist())
    # Two trailing zero bytes give a last word that trailing empty payloads
    # can start at, so every ``reduceat`` index stays in range.
    joined = b"".join(chain.from_iterable(zip(payloads, pads))) + b"\0\0"
    words = np.frombuffer(joined, dtype=">u2")
    word_counts = (lengths + 1) // 2
    starts = np.cumsum(word_counts) - word_counts
    # A payload is at most _MAX_PAYLOAD bytes, so its sum stays below
    # 32_748 * 0xFFFF < 2**31: a 32-bit accumulator cannot overflow.
    sums = np.add.reduceat(words, starts, dtype=np.uint32).astype(np.int64)
    # ``reduceat`` yields the element at an empty segment's start, not 0.
    sums[word_counts == 0] = 0
    return sums


def _encode_block(
    block: Sequence[Packet], snaplen: int, addresses: dict[str, int]
) -> bytes | None:
    """The pcap records of ``block``, or ``None`` if a packet needs the oracle."""
    count = len(block)
    (
        timestamps, directions, flows, payloads, sequences, acknowledgments, flags
    ) = zip(*map(_PACKET_FIELDS, block))
    lengths = np.fromiter(map(len, payloads), dtype=np.int64, count=count)
    frame_lengths = lengths + _HEADERS
    stamps = np.array(timestamps, dtype=np.float64)
    if (
        int(lengths.max()) > _MAX_PAYLOAD
        or int(frame_lengths.max()) > snaplen
        or not bool(np.isfinite(stamps).all())
    ):
        return None
    # ``PcapWriter.write``: truncate, round half to even, carry a full second.
    seconds = np.floor(stamps)
    microseconds = np.rint((stamps - seconds) * 1_000_000)
    carry = microseconds >= 1_000_000
    seconds[carry] += 1
    microseconds[carry] -= 1_000_000
    if float(seconds.max()) > 0xFFFFFFFF:
        return None

    # Each distinct five-tuple object resolves to integer endpoints once.
    distinct = list({id(flow): flow for flow in flows}.values())
    slot = {id(flow): index for index, flow in enumerate(distinct)}
    endpoints = np.array(
        [
            (
                _address(flow.client.ip, addresses), flow.client.port,
                _address(flow.server.ip, addresses), flow.server.port,
            )
            for flow in distinct
        ],
        dtype=np.int64,
    )[np.fromiter(map(slot.__getitem__, map(id, flows)), np.int64, count)]
    uplink = np.fromiter(
        (direction is Direction.CLIENT_TO_SERVER for direction in directions),
        dtype=bool,
        count=count,
    )
    sequence_numbers = np.array([s & 0xFFFFFFFF for s in sequences], dtype=np.int64)

    rows = np.full(count, _TEMPLATE, dtype=_FRAME_HEADER)
    rows["seconds"] = seconds
    rows["microseconds"] = microseconds
    rows["captured_length"] = frame_lengths
    rows["original_length"] = frame_lengths
    rows["destination_mac"] = np.where(uplink, _SERVER_MAC_BYTES, _CLIENT_MAC_BYTES)
    rows["source_mac"] = np.where(uplink, _CLIENT_MAC_BYTES, _SERVER_MAC_BYTES)
    rows["total_length"] = IPV4_HEADER_LENGTH + TCP_HEADER_LENGTH + lengths
    rows["identification"] = sequence_numbers & 0xFFFF
    rows["source_ip"] = np.where(uplink, endpoints[:, 0], endpoints[:, 2])
    rows["destination_ip"] = np.where(uplink, endpoints[:, 2], endpoints[:, 0])
    rows["source_port"] = np.where(uplink, endpoints[:, 1], endpoints[:, 3])
    rows["destination_port"] = np.where(uplink, endpoints[:, 3], endpoints[:, 1])
    rows["sequence_number"] = sequence_numbers
    rows["acknowledgment_number"] = [a & 0xFFFFFFFF for a in acknowledgments]
    rows["flags"] = [f & 0x3F for f in flags]

    # Words 0-9 are the IPv4 header, 6-9 its addresses (the pseudo-header's
    # first half) and 10-19 the TCP header; both checksum fields are still 0.
    words = rows.view(np.uint8).reshape(count, -1)[:, _ROW_IP:].view(">u2")
    ip_sums = words[:, :10].sum(axis=1, dtype=np.int64)
    tcp_sums = (
        words[:, 6:].sum(axis=1, dtype=np.int64)
        + IP_PROTO_TCP
        + TCP_HEADER_LENGTH
        + lengths
        + _payload_sums(payloads, lengths)
    )
    rows["ip_checksum"] = _ones_complement(ip_sums)
    rows["tcp_checksum"] = _ones_complement(tcp_sums)

    headers = rows.tobytes()
    size = _FRAME_HEADER.itemsize
    parts: list = [None] * (2 * count)
    parts[0::2] = [headers[start : start + size] for start in range(0, len(headers), size)]
    parts[1::2] = payloads
    return b"".join(parts)


def _address(address: str, addresses: dict[str, int]) -> int:
    """``address`` as a 32-bit integer, parsed at most once per capture."""
    value = addresses.get(address)
    if value is None:
        value = addresses[address] = int.from_bytes(parse_ipv4(address), "big")
    return value


def encode_tcp_frames(packets: Sequence[Packet], writer: PcapWriter) -> None:
    """Append ``packets`` to ``writer`` as pcap records, in the order given.

    The bytes are exactly those of ``writer.write(packet.timestamp,
    packet.serialize_frame())`` for each packet in turn.  Blocks of
    :data:`_BLOCK_PACKETS` packets are encoded as columns; a block holding a
    packet the columns cannot express is written by that per-packet loop
    instead, so it raises the oracle's own error after the same records.
    """
    addresses: dict[str, int] = {}
    for start in range(0, len(packets), _BLOCK_PACKETS):
        block = packets[start : start + _BLOCK_PACKETS]
        records = _encode_block(block, writer.snaplen, addresses)
        if records is None:
            for packet in block:
                writer.write(packet.timestamp, packet.serialize_frame())
        else:
            writer.write_records(records, len(block))
