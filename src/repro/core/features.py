"""Feature extraction: client-side SSL record lengths from a captured trace.

The extractor works exactly the way a passive observer has to:

* pick the streaming connection out of the capture by server endpoint (if
  the server is unknown, it is the server of the flow carrying by far the
  most downlink bytes);
* follow the client-to-server TCP byte stream in sequence order, ignoring
  retransmitted duplicates;
* walk the TLS record headers inside that stream (they are cleartext) and
  note, for every record, its wire length, its content type and the capture
  timestamp of the segment that completed it.

Ground-truth labels are attached *only* when the trace still carries the
simulator's annotations (in-memory traces used for training and evaluation);
traces loaded back from pcap yield unlabelled records, as real captures would.

:func:`_extract_records_scalar`, the per-packet parser, is the definition
of every record and label.  Records come from the trace's rows as columns
instead (:meth:`~repro.net.columnar.TcpSegments.tcp_columns`): one framing
pass over the streaming flow's uplink, each record labelled from the
segment it starts in (:func:`_column_records`).  Anything the columns
cannot prove goes through the packets and the scalar parser, and property
tests pin the column path to it.  The same pass frames columns decoded
from a pcap file, or computed as the writer writes them
(:func:`columnar_client_records`), so every caller picks the streaming
flow by one rule: the first connection to port 443 of the server whose
connection carries the most downlink bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core import kernel
from repro.exceptions import AttackError
from repro.net.capture import CapturedTrace
from repro.net.columnar import TcpColumns, canonical_ipv4
from repro.net.flow import Flow, FlowTable
from repro.net.packet import Packet
from repro.tls.records import (
    MAX_CIPHERTEXT_LENGTH,
    RECORD_HEADER_LENGTH,
    ContentType,
)

LABEL_TYPE1 = "type1"
LABEL_TYPE2 = "type2"
LABEL_OTHER = "other"

#: Compact label encoding shared by the batch kernels and the columnar shard
#: sidecars (:mod:`repro.dataset.sidecar`): index = code, value = label.
LABEL_BY_CODE: tuple[str | None, ...] = (None, LABEL_TYPE1, LABEL_TYPE2, LABEL_OTHER)
CODE_BY_LABEL: dict[str | None, int] = {
    label: code for code, label in enumerate(LABEL_BY_CODE)
}

_HEADER = RECORD_HEADER_LENGTH


@dataclass(frozen=True)
class ClientRecord:
    """One client-to-server TLS record as seen by the observer."""

    timestamp: float
    wire_length: int
    content_type: int
    label: str | None = None
    question_id: str | None = None

    def __post_init__(self) -> None:
        if self.wire_length <= RECORD_HEADER_LENGTH:
            raise AttackError(
                f"record wire length must exceed the header, got {self.wire_length}"
            )

    @property
    def is_application_data(self) -> bool:
        """Whether the record carries application data (what the attack inspects)."""
        return self.content_type == int(ContentType.APPLICATION_DATA)

    @property
    def payload_length(self) -> int:
        """The record's length field (ciphertext bytes)."""
        return self.wire_length - RECORD_HEADER_LENGTH


def _label_from_annotations(
    annotations: dict[str, object],
) -> tuple[str | None, str | None]:
    kind = annotations.get("kind")
    if kind is None:
        return None, None
    question = annotations.get("question_id")
    if kind == LABEL_TYPE1:
        return LABEL_TYPE1, question
    if kind == LABEL_TYPE2:
        return LABEL_TYPE2, question
    return LABEL_OTHER, question


def select_streaming_flow(
    trace: CapturedTrace, server_ip: str | None = None, server_port: int = 443
) -> Flow:
    """Find the connection that carries the streaming session.

    When the server address is known (the observer can resolve the CDN names
    Netflix uses), the flow is selected by endpoint; otherwise the heuristic
    is the flow with the most downlink payload bytes, which in any real
    viewing session is the video connection by orders of magnitude.
    """
    table: FlowTable = trace.flow_table()
    if server_ip is not None:
        for flow in table.flows:
            server = flow.five_tuple.server
            if server.ip == server_ip and server.port == server_port:
                return flow
        raise AttackError(f"no flow to {server_ip}:{server_port} in the trace")
    return table.largest_flow()


def extract_client_records(
    trace: CapturedTrace,
    server_ip: str | None = None,
    application_data_only: bool = True,
    flow: Flow | None = None,
) -> list[ClientRecord]:
    """Extract the client-side TLS records of the streaming connection.

    Parameters
    ----------
    trace:
        The captured session.
    server_ip:
        Optional known server address used to pick the right flow: the
        first connection to its port 443.  When unknown, it is the server
        of the flow with the most downlink bytes, as
        :func:`repro.core.pipeline.load_attack_trace` resolves it.
    application_data_only:
        Drop handshake/CCS/alert records (the observer can always identify
        them from the cleartext content-type byte).
    flow:
        Pre-selected flow, whose records the scalar parser reads; skips
        flow selection and the columns.
    """
    records = None
    if flow is None:
        columns = trace.segments.tcp_columns()
        if columns is not None:
            records = _column_records(columns, server_ip)
        if records is None:
            if server_ip is None:
                server_ip = select_streaming_flow(trace).five_tuple.server.ip
            flow = select_streaming_flow(trace, server_ip)
    if records is None:
        packets = [
            packet
            for packet in flow.client_packets()
            if packet.payload and not packet.is_retransmission
        ]
        # Order by sequence number (capture order can interleave
        # retransmissions), drop duplicate segments the way any TCP
        # reassembler does.
        packets.sort(key=lambda packet: (packet.sequence_number, packet.timestamp))
        records = _extract_records_scalar(packets)
    if application_data_only:
        records = [record for record in records if record.is_application_data]
    if not records:
        raise AttackError("no client-side TLS records found in the trace")
    return records


def columnar_client_records(
    columns: TcpColumns, server_ip: str | None = None
) -> list[ClientRecord] | None:
    """The application-data records :func:`extract_client_records` finds,
    computed from header columns instead of a :class:`CapturedTrace`.

    With ``server_ip`` unknown the streaming server is resolved the way
    :func:`repro.core.pipeline.load_attack_trace` does (largest downlink
    flow).  Returns ``None`` — the caller then runs the oracle, which
    raises its own error — wherever :func:`_column_records` does, or when
    no application-data record is found.
    """
    records = _column_records(columns, server_ip)
    if records is None:
        return None
    return [record for record in records if record.is_application_data] or None


def _column_records(
    columns: TcpColumns, server_ip: str | None
) -> list[ClientRecord] | None:
    """Every record of the streaming flow's uplink, from the columns.

    The flow is selected by endpoint exactly as :func:`select_streaming_flow`
    does; an unknown server is the one
    :meth:`TcpColumns.largest_flow_server` names, the server of
    :meth:`~repro.net.flow.FlowTable.largest_flow`.  Its uplink payload
    rows are deduplicated by sequence number
    (:meth:`TcpColumns.uplink_rows`), and the gap-free result is framed by
    one :func:`kernel.tls_record_spans` pass.  Columns that keep the
    simulator's rows label each record from the segment it starts in, as
    the scalar parser does.  Returns ``None`` when the server address is
    not canonical or cannot be resolved, no flow matches, the stream has a
    gap or an overlap, it loses TLS framing, or the simulator's rows
    disagree with what the record parser would see: a retransmission kept
    in place of an original (the parser drops retransmissions first), or a
    label that cannot be placed (see :func:`_framed_records`).
    """
    if server_ip is None:
        server = columns.largest_flow_server()
    else:
        server = canonical_ipv4(server_ip)
    if server is None:
        return None
    flow = columns.flow_to(server)
    if flow is None:
        return None
    rows = columns.uplink_rows(flow)
    sequence = columns.sequence_numbers[rows]
    lengths = columns.payload_lengths[rows]
    if rows.size == 0 or not np.array_equal(
        sequence[1:], sequence[:-1] + lengths[:-1]
    ):
        return None
    labels = None
    segments = columns.segments
    if segments is not None:
        if bool(segments.retransmissions[rows].any()):
            return None
        notes = segments.notes[rows].tolist()
        label_of = {
            note: _label_from_annotations(segments.annotations[note])
            for note in set(notes)
        }
        if any(label != (None, None) for label in label_of.values()):
            labels = [label_of[note] for note in notes]
    return _framed_records(
        columns.gather(columns.payload_offsets[rows], lengths),
        lengths,
        columns.timestamps[rows],
        labels,
    )


def _framed_records(
    stream: bytes,
    payload_lengths: Sequence[int] | np.ndarray,
    timestamps: Sequence[float] | np.ndarray,
    labels: Sequence[tuple[str | None, str | None]] | None = None,
) -> list[ClientRecord] | None:
    """Records of a gap-free uplink stream built from consecutive segments.

    ``payload_lengths``/``timestamps`` — and ``labels``, ``(label,
    question_id)`` pairs, when the segments carry any — describe the
    segments ``stream`` concatenates, in order.  ``None`` when the stream
    loses TLS framing, or when a labelled record does not start a segment
    that holds its whole header: the scalar parser labels a record with the
    segment its header is read from.
    """
    spans = kernel.tls_record_spans(stream)
    if spans is None:
        return None
    starts, wire_lengths, content_types = spans
    if starts.size == 0:
        return []
    # The scalar parser stamps each record with the packet that completed it:
    # the first packet whose cumulative payload covers the record's end
    # offset in the reassembled stream.
    payload_lengths = np.asarray(payload_lengths)
    payload_ends = np.cumsum(payload_lengths)
    completed_by = np.searchsorted(payload_ends, starts + wire_lengths, side="left")
    stamps = np.asarray(timestamps, dtype=np.float64)[completed_by]
    if labels is None:
        record_labels = [(None, None)] * starts.size
    else:
        segment_starts = payload_ends - payload_lengths
        started_in = np.searchsorted(segment_starts, starts, side="right") - 1
        if not (
            np.array_equal(segment_starts[started_in], starts)
            and bool((payload_lengths[started_in] >= _HEADER).all())
        ):
            return None
        record_labels = [labels[segment] for segment in started_in.tolist()]
    return [
        ClientRecord(
            timestamp=timestamp,
            wire_length=wire_length,
            content_type=content_type,
            label=label,
            question_id=question,
        )
        for timestamp, wire_length, content_type, (label, question) in zip(
            stamps.tolist(), wire_lengths.tolist(), content_types.tolist(), record_labels
        )
    ]


def _extract_records_scalar(packets: Sequence[Packet]) -> list[ClientRecord]:
    """Reference parser: the per-packet state machine the kernel must match.

    Handles everything the column path refuses — duplicate segments, capture
    gaps, framing loss, labels it cannot place — and serves as the oracle
    the property tests pin :func:`_column_records` to.
    """
    seen_sequences: set[int] = set()
    records: list[ClientRecord] = []
    buffer = bytearray()
    # Parser state for the record currently being assembled.
    pending_label: str | None = None
    pending_question: str | None = None
    pending_content: int | None = None
    pending_needed = 0
    expected_sequence: int | None = None

    def _reset_parser() -> None:
        nonlocal pending_label, pending_question, pending_content, pending_needed
        buffer.clear()
        pending_label = None
        pending_question = None
        pending_content = None
        pending_needed = 0

    for packet in packets:
        if packet.sequence_number in seen_sequences:
            continue
        seen_sequences.add(packet.sequence_number)
        if expected_sequence is not None and packet.sequence_number > expected_sequence:
            # Bytes are missing from the capture (packets the observer never
            # saw).  Whatever record was mid-assembly cannot be completed and
            # the framing of the buffered tail is unreliable, so resynchronise
            # at the gap: real capture tooling does the same.
            _reset_parser()
        expected_sequence = packet.sequence_number + len(packet.payload)
        buffer.extend(packet.payload)
        label, question = _label_from_annotations(packet.annotations)
        if pending_needed == 0:
            pending_label, pending_question = label, question
        # Consume as many complete records as the buffer now holds.
        while True:
            if pending_needed == 0:
                if len(buffer) < _HEADER:
                    break
                content_type = buffer[0]
                length = int.from_bytes(buffer[3:5], "big")
                if length == 0 or length > MAX_CIPHERTEXT_LENGTH:
                    # The stream lost framing (e.g. a capture gap landed inside
                    # a record header).  Drop the unparseable tail and wait for
                    # the next gap to resynchronise rather than aborting the
                    # whole extraction.
                    _reset_parser()
                    break
                pending_content = content_type
                pending_needed = _HEADER + length
                if pending_label is None:
                    pending_label, pending_question = label, question
            if len(buffer) < pending_needed:
                break
            records.append(
                ClientRecord(
                    timestamp=packet.timestamp,
                    wire_length=pending_needed,
                    content_type=int(pending_content or 0),
                    label=pending_label,
                    question_id=pending_question,
                )
            )
            del buffer[:pending_needed]
            pending_needed = 0
            pending_label, pending_question = label, question
    return records


def record_length_series(records: Sequence[ClientRecord]) -> list[int]:
    """The wire lengths of a record sequence (the raw side-channel series)."""
    return [record.wire_length for record in records]


def labelled_lengths(
    records: Sequence[ClientRecord],
) -> tuple[list[int], list[str]]:
    """Split labelled records into (lengths, labels) for classifier training.

    Raises when any record is unlabelled — training data must come from
    annotated (simulated or self-collected) sessions.
    """
    lengths: list[int] = []
    labels: list[str] = []
    for record in records:
        if record.label is None:
            raise AttackError("cannot build training data from unlabelled records")
        lengths.append(record.wire_length)
        labels.append(record.label)
    return lengths, labels
