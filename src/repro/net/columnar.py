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
the oracle, which raises its own error.  Flow selection follows
:func:`repro.core.features.extract_client_records`: the first-created
connection to port 443 of a known server (:meth:`TcpColumns.flow_to`), and
for an unknown one the server of :meth:`FlowTable.largest_flow`, ties and
creation order included (:meth:`TcpColumns.largest_flow_server`).

Writing runs the same way in reverse.  A capture's segments are columns
from the moment the simulator emits them (:class:`TcpSegments`: one row
per segment, payloads kept once in one buffer), and
:func:`encode_tcp_frames` turns blocks of rows into pcap records at once:
the record header and the Ethernet/IPv4/TCP headers of every row are one
row of a structured array, each address is parsed once per capture, the
IPv4 and TCP checksums are batched RFC 1071 sums over big-endian word
views, and the payload sums come from one pass over the capture's payload
buffer.  :meth:`Packet.serialize_frame` (and
:func:`~repro.net.headers.checksum16` under it) written through
:meth:`PcapWriter.write` stays the definition of correct: a block holding
any row the structured rows cannot express — a payload too long for one
IPv4 datagram, a frame over the writer's snaplen, a timestamp the record
header cannot hold — is written by that per-packet loop, which raises its
own error.  Property tests pin the encoder's bytes to it.
:meth:`TcpSegments.tcp_columns` gives a trace's rows as :class:`TcpColumns`,
grouped as the flow table groups them, for labelled record extraction;
:func:`written_tcp_columns` gives the same rows as decoding the written
file would yield them, without reading it, for the shard sidecar.  Both
keep the simulator's rows, whose retransmission flags and annotations a
pcap cannot hold.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Sequence

import numpy as np

from repro.exceptions import PacketError
from repro.net.endpoints import FiveTuple
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
from repro.net.pcap import DEFAULT_SNAPLEN, PcapColumns, PcapWriter

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


def reassembly_order(
    rows: np.ndarray, sequence_numbers: np.ndarray, timestamps: np.ndarray
) -> np.ndarray:
    """``rows`` in the order the record parser reassembles them.

    Rows sort by ``(sequence number, timestamp)`` — stably, so equal keys
    keep capture order — and a repeated sequence number keeps only its first
    row, as the record parser's duplicate suppression does.
    """
    order = rows[np.lexsort((timestamps[rows], sequence_numbers[rows]))]
    sequence = sequence_numbers[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = sequence[1:] != sequence[:-1]
    return order[first]


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

    Columns built from the simulator's rows (:meth:`TcpSegments.tcp_columns`,
    :func:`written_tcp_columns`) keep those rows in ``segments``, row for
    row: the retransmission flags and annotations a pcap cannot hold.
    Decoded captures have none.
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
    segments: TcpSegments | None = None

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

    def largest_flow_server(self) -> int | None:
        """Server address of the connection with the most downlink bytes.

        A connection's downlink bytes are the length of the union of its
        downlink ``[seq, seq + len)`` spans — what reassembling that stream
        yields.  Ties go to the earliest-created connection.  ``None`` when
        a span ends at or past 2**34, which the running maximum below
        cannot keep apart from the next connection's spans (a decoded
        capture's never do: pcap sequence numbers are 32-bit).
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
        lengths = self.payload_lengths[downlink]
        if bool((starts >= 1 << 34).any() or (starts + lengths >= 1 << 34).any()):
            return None
        order = np.lexsort((starts, flow))
        flow = flow[order]
        # Spans end below 2**34; shifting each flow by 2**34 lets one running
        # maximum cover every flow without a flow seeing its predecessor's.
        shift = flow.astype(np.int64) << 34
        starts = starts[order] + shift
        ends = starts + lengths[order]
        previous = np.zeros_like(ends)
        previous[1:] = np.maximum.accumulate(ends)[:-1]
        fresh = np.maximum(ends - np.maximum(starts, previous), 0)
        totals = np.bincount(flow, weights=fresh, minlength=first_segment.size)
        creation = np.argsort(first_segment)
        best = creation[int(np.argmax(totals[creation]))]
        return int(self.server_ips[first_segment[best]])

    def uplink_rows(self, flow: np.ndarray) -> np.ndarray:
        """The flow's uplink payload rows in :func:`reassembly_order`."""
        return reassembly_order(
            np.flatnonzero(flow & self.uplink & (self.payload_lengths > 0)),
            self.sequence_numbers,
            self.timestamps,
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


def _int_column(values: Sequence[int]) -> np.ndarray:
    """``values`` as int64, or as Python ints when one does not fit 63 bits."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


_DIRECTIONS = (Direction.SERVER_TO_CLIENT, Direction.CLIENT_TO_SERVER)
_PACKET_FIELDS = attrgetter(
    "timestamp", "direction", "five_tuple", "payload", "sequence_number",
    "acknowledgment_number", "flags", "is_retransmission", "annotations",
)


@dataclass(frozen=True, eq=False, repr=False)
class TcpSegments:
    """A capture's TCP segments as columns: one row per segment.

    The row arrays share the row index.  ``flows`` indexes ``five_tuples``
    and ``notes`` indexes ``annotations`` (the simulator's ground truth,
    never written to pcap).  Payloads live once in ``payload``, cut into
    consecutive *spans* by ``span_offsets`` — span ``i`` is
    ``payload[span_offsets[i]:span_offsets[i + 1]]`` — and ``spans`` gives
    each row its span, so a retransmitted row shares its original's bytes.
    Sequence, acknowledgment and flag columns are int64, or hold Python
    ints when a value needs more than 63 bits.
    """

    timestamps: np.ndarray
    uplink: np.ndarray
    flows: np.ndarray
    five_tuples: tuple[FiveTuple, ...]
    sequence_numbers: np.ndarray
    acknowledgment_numbers: np.ndarray
    flags: np.ndarray
    retransmissions: np.ndarray
    notes: np.ndarray
    annotations: tuple[dict[str, object], ...]
    spans: np.ndarray
    span_offsets: np.ndarray
    payload: bytes

    def __len__(self) -> int:
        return int(self.timestamps.size)

    def __repr__(self) -> str:
        return (
            f"TcpSegments(rows={len(self)}, flows={len(self.five_tuples)}, "
            f"payload_bytes={len(self.payload)})"
        )

    @classmethod
    def from_packets(cls, packets: Sequence[Packet]) -> "TcpSegments":
        """The columns of ``packets``, rows in the order given."""
        count = len(packets)
        (
            timestamps, directions, five_tuples, payloads, sequences,
            acknowledgments, flags, retransmissions, annotations,
        ) = zip(*map(_PACKET_FIELDS, packets)) if count else ((),) * 9
        slots: dict[FiveTuple, int] = {}
        flows = np.fromiter(
            (slots.setdefault(five_tuple, len(slots)) for five_tuple in five_tuples),
            dtype=np.intp,
            count=count,
        )
        # Unannotated packets share note 0; every other one gets its own copy.
        notes: list[dict[str, object]] = [{}]
        note_rows = np.zeros(count, dtype=np.intp)
        for row, note in enumerate(annotations):
            if note:
                note_rows[row] = len(notes)
                notes.append(dict(note))
        lengths = np.fromiter(map(len, payloads), dtype=np.int64, count=count)
        return cls(
            timestamps=np.array(timestamps, dtype=np.float64),
            uplink=np.fromiter(
                (direction is Direction.CLIENT_TO_SERVER for direction in directions),
                dtype=bool,
                count=count,
            ),
            flows=flows,
            five_tuples=tuple(slots),
            sequence_numbers=_int_column(sequences),
            acknowledgment_numbers=_int_column(acknowledgments),
            flags=_int_column(flags),
            retransmissions=np.array(retransmissions, dtype=bool),
            notes=note_rows,
            annotations=tuple(notes),
            spans=np.arange(count),
            span_offsets=np.concatenate(([0], np.cumsum(lengths))),
            payload=b"".join(payloads),
        )

    @property
    def payload_offsets(self) -> np.ndarray:
        """Where each row's payload starts in ``payload``."""
        return self.span_offsets[self.spans]

    @property
    def payload_lengths(self) -> np.ndarray:
        """Each row's payload length."""
        return np.diff(self.span_offsets)[self.spans]

    @property
    def wire_lengths(self) -> np.ndarray:
        """Each row's frame length on the wire (Ethernet + IP + TCP + payload)."""
        return self.payload_lengths + _HEADERS

    def tcp_columns(self) -> TcpColumns | None:
        """The rows as :class:`TcpColumns`, grouped as a
        :class:`~repro.net.flow.FlowTable` groups their packets.

        Each row's five-tuple gives its sides and its direction whether it
        is uplink; payload offsets index ``payload``.  ``None`` when integer
        addresses could match where the flow table's strings do not (an
        address that is not canonical) or a sequence number needs more
        than 63 bits.
        """
        addresses = {
            address
            for five_tuple in self.five_tuples
            for address in (five_tuple.client.ip, five_tuple.server.ip)
        }
        if self.sequence_numbers.dtype == object or any(
            canonical_ipv4(address) is None for address in addresses
        ):
            return None
        endpoints = _endpoints(self.five_tuples)[self.flows]
        return TcpColumns(
            data=np.frombuffer(self.payload, dtype=np.uint8),
            timestamps=self.timestamps,
            uplink=self.uplink,
            client_ips=endpoints[:, 0],
            client_ports=endpoints[:, 1],
            server_ips=endpoints[:, 2],
            server_ports=endpoints[:, 3],
            sequence_numbers=self.sequence_numbers,
            payload_offsets=self.payload_offsets,
            payload_lengths=self.payload_lengths,
            segments=self,
        )

    def take(self, rows: np.ndarray) -> "TcpSegments":
        """The columns of ``rows``, in that order."""
        return replace(
            self,
            timestamps=self.timestamps[rows],
            uplink=self.uplink[rows],
            flows=self.flows[rows],
            sequence_numbers=self.sequence_numbers[rows],
            acknowledgment_numbers=self.acknowledgment_numbers[rows],
            flags=self.flags[rows],
            retransmissions=self.retransmissions[rows],
            notes=self.notes[rows],
            spans=self.spans[rows],
        )

    def in_capture_order(self) -> "TcpSegments":
        """The rows in stable timestamp order, as a pcap stores them."""
        timestamps = self.timestamps
        if bool((timestamps[1:] >= timestamps[:-1]).all()):
            return self
        return self.take(np.argsort(timestamps, kind="stable"))

    def packets(self) -> tuple[Packet, ...]:
        """One :class:`Packet` per row, each with its own annotations dict."""
        payload = self.payload
        starts = self.payload_offsets.tolist()
        ends = self.span_offsets[self.spans + 1].tolist()
        five_tuples = self.five_tuples
        annotations = self.annotations
        return tuple(
            Packet(
                timestamp=timestamp,
                direction=_DIRECTIONS[uplink],
                five_tuple=five_tuples[flow],
                payload=payload[start:end],
                sequence_number=sequence,
                acknowledgment_number=acknowledgment,
                flags=flags,
                is_retransmission=retransmission,
                annotations=dict(annotations[note]),
            )
            for (
                timestamp, uplink, flow, start, end, sequence, acknowledgment,
                flags, retransmission, note,
            ) in zip(
                self.timestamps.tolist(), self.uplink.tolist(), self.flows.tolist(),
                starts, ends, self.sequence_numbers.tolist(),
                self.acknowledgment_numbers.tolist(), self.flags.tolist(),
                self.retransmissions.tolist(), self.notes.tolist(),
            )
        )

    def span_sums(self) -> np.ndarray:
        """Each span's sum of big-endian 16-bit words, an odd tail zero-padded.

        One ``reduceat`` over the aligned words of the whole buffer: a span
        starting at an odd offset sums its bytes with the high and low
        halves swapped, which the buffer's aligned words give directly.
        """
        data = np.frombuffer(self.payload, dtype=np.uint8)
        size = data.size
        words = data[: size - size % 2].view(">u2")
        starts, ends = self.span_offsets[:-1], self.span_offsets[1:]
        # Bytes at even offsets weigh 256 in an aligned word, odd ones 1.
        # Window i of the reduceat covers words [ceil(s/2), ceil(e/2)): the
        # span's bytes from its first even offset on, plus the byte just
        # past an odd end, which is taken off again below.
        first_words = (starts + 1) // 2
        inside = np.flatnonzero(first_words < words.size)
        aligned = np.zeros(starts.size, dtype=np.int64)
        if inside.size:
            aligned[inside] = np.add.reduceat(
                words, first_words[inside], dtype=np.uint32
            )
        aligned[first_words == (ends + 1) // 2] = 0
        odd_start = (starts & 1).astype(bool) & (ends > starts)
        aligned[odd_start] += data[starts[odd_start]]
        odd_end = (ends & 1).astype(bool) & (ends > starts)
        past = odd_end & (ends < size)
        aligned[past] -= data[ends[past]]
        last = odd_end & (ends == size)
        aligned[last] += data[ends[last] - 1].astype(np.int64) << 8
        # A swapped sum is 256 times the aligned one, modulo 0xFFFF: what a
        # ones' complement fold of it, and so the checksum, depends on.
        aligned[(starts & 1) == 1] <<= 8
        return aligned


#: Rows encoded at once: bounds the header rows and payload views alive at
#: any moment to one block's worth, whatever the capture size.
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


def _ones_complement(total: np.ndarray) -> np.ndarray:
    """Fold int64 word sums with end-around carry and complement them."""
    while True:
        carry = total >> 16
        if not carry.any():
            return ~total & 0xFFFF
        total = (total & 0xFFFF) + carry


def _record_times(
    lengths: np.ndarray, timestamps: np.ndarray, snaplen: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """``(seconds, microseconds)`` of each row's record header, as float64.

    ``PcapWriter.write``: truncate, round half to even, carry a full second.
    ``None`` when a row needs the oracle: a payload too long for one IPv4
    datagram, a frame over ``snaplen``, a time the header cannot hold.
    """
    longest = int(lengths.max())
    if (
        longest > _MAX_PAYLOAD
        or longest + _HEADERS > snaplen
        or not bool(np.isfinite(timestamps).all())
    ):
        return None
    seconds = np.floor(timestamps)
    microseconds = np.rint((timestamps - seconds) * 1_000_000)
    carry = microseconds >= 1_000_000
    seconds[carry] += 1
    microseconds[carry] -= 1_000_000
    if float(seconds.max()) > 0xFFFFFFFF:
        return None
    return seconds, microseconds


def _endpoints(five_tuples: Sequence[FiveTuple]) -> np.ndarray:
    """``(client ip, client port, server ip, server port)`` per five-tuple."""
    addresses: dict[str, int] = {}

    def address(value: str) -> int:
        if value not in addresses:
            addresses[value] = int.from_bytes(parse_ipv4(value), "big")
        return addresses[value]

    return np.array(
        [
            (address(flow.client.ip), flow.client.port,
             address(flow.server.ip), flow.server.port)
            for flow in five_tuples
        ],
        dtype=np.int64,
    ).reshape(-1, 4)


def _sides(
    endpoints: np.ndarray, uplink: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each row's source and destination address, then port, from its
    five-tuple's ``_endpoints`` row and its direction."""
    client, server = endpoints[:, :2], endpoints[:, 2:]
    source = np.where(uplink[:, None], client, server)
    destination = np.where(uplink[:, None], server, client)
    return source[:, 0], destination[:, 0], source[:, 1], destination[:, 1]


def _encode_block(
    segments: TcpSegments,
    rows: np.ndarray,
    snaplen: int,
    endpoints: np.ndarray,
    span_sums: np.ndarray,
) -> bytes | None:
    """The pcap records of ``rows``, or ``None`` if one needs the oracle."""
    count = rows.size
    spans = segments.spans[rows]
    starts = segments.span_offsets[spans]
    lengths = segments.span_offsets[spans + 1] - starts
    times = _record_times(lengths, segments.timestamps[rows], snaplen)
    if times is None:
        return None
    seconds, microseconds = times
    frame_lengths = lengths + _HEADERS

    ends = endpoints[segments.flows[rows]]
    uplink = segments.uplink[rows]
    sequence_numbers = (segments.sequence_numbers[rows] & 0xFFFFFFFF).astype(np.int64)

    headers = np.full(count, _TEMPLATE, dtype=_FRAME_HEADER)
    headers["seconds"] = seconds
    headers["microseconds"] = microseconds
    headers["captured_length"] = frame_lengths
    headers["original_length"] = frame_lengths
    headers["destination_mac"] = np.where(uplink, _SERVER_MAC_BYTES, _CLIENT_MAC_BYTES)
    headers["source_mac"] = np.where(uplink, _CLIENT_MAC_BYTES, _SERVER_MAC_BYTES)
    headers["total_length"] = IPV4_HEADER_LENGTH + TCP_HEADER_LENGTH + lengths
    headers["identification"] = sequence_numbers & 0xFFFF
    (
        headers["source_ip"], headers["destination_ip"],
        headers["source_port"], headers["destination_port"],
    ) = _sides(ends, uplink)
    headers["sequence_number"] = sequence_numbers
    headers["acknowledgment_number"] = segments.acknowledgment_numbers[rows] & 0xFFFFFFFF
    headers["flags"] = segments.flags[rows] & 0x3F

    # Words 0-9 are the IPv4 header, 6-9 its addresses (the pseudo-header's
    # first half) and 10-19 the TCP header; both checksum fields are still 0.
    words = headers.view(np.uint8).reshape(count, -1)[:, _ROW_IP:].view(">u2")
    ip_sums = words[:, :10].sum(axis=1, dtype=np.int64)
    tcp_sums = (
        words[:, 6:].sum(axis=1, dtype=np.int64)
        + IP_PROTO_TCP
        + TCP_HEADER_LENGTH
        + lengths
        + span_sums[spans]
    )
    headers["ip_checksum"] = _ones_complement(ip_sums)
    headers["tcp_checksum"] = _ones_complement(tcp_sums)

    header_bytes = memoryview(headers.tobytes())
    payload = memoryview(segments.payload)
    size = _FRAME_HEADER.itemsize
    parts: list = [None] * (2 * count)
    parts[0::2] = [header_bytes[start : start + size] for start in range(0, count * size, size)]
    parts[1::2] = [
        payload[start:end]
        for start, end in zip(starts.tolist(), (starts + lengths).tolist())
    ]
    return b"".join(parts)


def encode_tcp_frames(segments: TcpSegments, writer: PcapWriter) -> None:
    """Append the rows of ``segments`` to ``writer`` as pcap records, in order.

    The bytes are exactly those of ``writer.write(packet.timestamp,
    packet.serialize_frame())`` for each row's packet in turn.  Blocks of
    :data:`_BLOCK_PACKETS` rows are encoded as columns; a block holding a
    row the columns cannot express is written by that per-packet loop
    instead, so it raises the oracle's own error after the same records.
    """
    endpoints = _endpoints(segments.five_tuples)
    span_sums = segments.span_sums()
    for start in range(0, len(segments), _BLOCK_PACKETS):
        rows = np.arange(start, min(start + _BLOCK_PACKETS, len(segments)))
        records = _encode_block(segments, rows, writer.snaplen, endpoints, span_sums)
        if records is None:
            for packet in segments.take(rows).packets():
                writer.write(packet.timestamp, packet.serialize_frame())
        else:
            writer.write_records(records, rows.size)


def written_tcp_columns(segments: TcpSegments, client_ip: str) -> TcpColumns | None:
    """What :func:`decode_tcp_columns` reads back from ``segments`` once
    :meth:`~repro.net.capture.CapturedTrace.to_pcap` has written them,
    computed without the file.

    Timestamps are quantized to the record header's microseconds exactly
    as :meth:`PcapReader.read_columns` computes them, and payload offsets
    index ``segments.payload`` instead of the file.  The rows are also
    those of :meth:`TcpSegments.tcp_columns`, so they keep ``segments``.
    ``None`` unless both hold: the rows are in capture order (``to_pcap``
    would reorder them), ``client_ip`` is every five-tuple's client address
    and no server's (decoding takes each segment's sides from it), every
    sequence number fits the header's 32 bits, and the writer encodes
    every frame whole.
    """
    columns = segments.tcp_columns()
    client = canonical_ipv4(client_ip)
    if (
        columns is None
        or client is None
        or len(segments) == 0
        or segments.in_capture_order() is not segments
    ):
        return None
    sequence = columns.sequence_numbers
    if bool(
        (columns.client_ips != client).any()
        or (columns.server_ips == client).any()
        or (sequence < 0).any()
        or (sequence > 0xFFFFFFFF).any()
    ):
        return None
    times = _record_times(columns.payload_lengths, columns.timestamps, DEFAULT_SNAPLEN)
    if times is None:
        return None
    seconds, microseconds = times
    return replace(columns, timestamps=seconds + microseconds / 1e6)
