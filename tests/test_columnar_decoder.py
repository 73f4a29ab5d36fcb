"""Property tests pinning the columnar capture decoder to its oracle.

``Packet.parse_frame`` (through ``CapturedTrace.from_pcap``) and
``extract_client_records`` define what a capture means.  The columnar path
(:func:`repro.net.columnar.decode_tcp_columns`,
:func:`repro.core.features.columnar_client_records` and
:func:`repro.core.pipeline.capture_client_records`) must agree with them on
every generated capture: the same segments, the same records, or — when the
oracle fails — the same exception type and message.
"""

from __future__ import annotations

import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, strategies as st

from repro.core import features, kernel
from repro.core.features import (
    _extract_records_scalar,
    columnar_client_records,
    extract_client_records,
    select_streaming_flow,
)
from repro.core.pipeline import capture_client_records, load_attack_trace
from repro.exceptions import AttackError, PacketError, ReproError
from repro.net.capture import CapturedTrace
from repro.net.columnar import canonical_ipv4, decode_tcp_columns
from repro.net.packet import Direction, Packet
from repro.net.pcap import PcapReader, read_pcap_columns

from strategies import DETERMINISM_SETTINGS, STANDARD_SETTINGS, captures
from strategies.frames import CLIENT_IP, OTHER_IPS, SERVER_IP, Capture, Segment, build_frame

_names = itertools.count()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("columnar")


def _write(capture: Capture, workdir):
    return capture.write(workdir / f"capture-{next(_names)}.pcap")


def _outcome(function, *args):
    """``("ok", value)`` or ``("error", type, message)``."""
    try:
        return ("ok", function(*args))
    except ReproError as error:
        return ("error", type(error), str(error))


def _oracle_records(path, client_ip, server_ip):
    trace = load_attack_trace(path, client_ip=client_ip, server_ip=server_ip)
    return tuple(extract_client_records(trace, server_ip=trace.server_ip))


@STANDARD_SETTINGS
@given(capture=captures())
def test_decoded_segments_are_parse_frames(workdir, capture):
    """Every TCP frame decodes to the fields ``parse_frame`` recovers, or the
    decoder declines exactly when the oracle must decide."""
    path = _write(capture, workdir)
    oracle: list[Packet] = []
    rejected = False
    for record in PcapReader(path).read():
        try:
            packet = Packet.parse_frame(record.frame, record.timestamp, capture.client_ip)
        except PacketError:
            rejected = True
            continue
        if packet is not None:
            oracle.append(packet)
    columns = decode_tcp_columns(read_pcap_columns(path), capture.client_ip)
    if columns is None:
        event("decoder declined")
        assert rejected or not oracle or canonical_ipv4(capture.client_ip) is None
        return
    event("decoded")
    assert not rejected
    assert len(columns) == len(oracle)
    for index, packet in enumerate(oracle):
        offset = int(columns.payload_offsets[index])
        length = int(columns.payload_lengths[index])
        assert float(columns.timestamps[index]) == packet.timestamp
        assert bool(columns.uplink[index]) == (
            packet.direction is Direction.CLIENT_TO_SERVER
        )
        assert columns.data[offset : offset + length].tobytes() == packet.payload
        assert int(columns.sequence_numbers[index]) == packet.sequence_number
        client, server = packet.five_tuple.client, packet.five_tuple.server
        assert int(columns.client_ips[index]) == canonical_ipv4(client.ip)
        assert int(columns.client_ports[index]) == client.port
        assert int(columns.server_ips[index]) == canonical_ipv4(server.ip)
        assert int(columns.server_ports[index]) == server.port


@STANDARD_SETTINGS
@given(capture=captures())
def test_capture_records_equal_the_oracle(workdir, capture):
    """Records equal the oracle's, or both raise the same error."""
    path = _write(capture, workdir)
    expected = _outcome(_oracle_records, path, capture.client_ip, capture.server_ip)
    actual = _outcome(capture_client_records, path, capture.client_ip, capture.server_ip)
    assert actual == expected
    columns = decode_tcp_columns(read_pcap_columns(path), capture.client_ip)
    records = (
        columnar_client_records(columns, capture.server_ip) if columns is not None else None
    )
    if records is None:
        event(f"oracle fallback ({expected[1].__name__ if expected[0] == 'error' else 'ok'})")
        return
    event("columnar records")
    # The columnar answer alone, without the fallback, is the oracle's.
    assert expected == ("ok", tuple(records))


@DETERMINISM_SETTINGS
@given(
    capture=captures(
        damage=st.just(frozenset({"duplicate"})),
        hostile=False,
        cross_traffic=False,
    )
)
def test_dedup_then_vectorize_matches_the_scalar_parser(workdir, capture):
    """On streams with retransmitted duplicates the scalar parser is the
    oracle; dropping duplicate
    sequence numbers first lets one framing pass reproduce it.  A stream
    that still has a gap, an overlap or lost framing goes to the oracle."""
    path = _write(capture, workdir)
    trace = CapturedTrace.from_pcap(path, client_ip=CLIENT_IP, server_ip=SERVER_IP)
    flow = select_streaming_flow(trace, SERVER_IP)
    packets = sorted(
        (packet for packet in flow.client_packets() if packet.payload),
        key=lambda packet: (packet.sequence_number, packet.timestamp),
    )
    expected = [
        record for record in _extract_records_scalar(packets) if record.is_application_data
    ]
    first = {}
    for packet in packets:
        first.setdefault(packet.sequence_number, packet.payload)
    starts = sorted(first)
    contiguous = all(
        later == earlier + len(first[earlier]) for earlier, later in zip(starts, starts[1:])
    )
    framed = contiguous and kernel.tls_record_spans(b"".join(map(first.get, starts)))
    columns = decode_tcp_columns(read_pcap_columns(path), CLIENT_IP)
    if not framed:
        event("gap, overlap or lost framing")
        assert columnar_client_records(columns, SERVER_IP) is None
        try:
            records = list(capture_client_records(path, CLIENT_IP, SERVER_IP))
        except AttackError:
            records = []
    else:
        event("one framing pass")
        # A gap-free, framed stream: the scalar parser must not be needed.
        with mock.patch.object(
            features, "_extract_records_scalar", side_effect=AssertionError
        ):
            records = columnar_client_records(columns, SERVER_IP)
    assert (records or []) == expected


def _downlink_capture(sizes: list[tuple[str, int, int]]) -> Capture:
    """Connections in creation order: ``(server, client port, downlink bytes)``,
    each with one uplink application-data record."""
    rng = random.Random(0)
    segments = []
    clock = 0
    for server, port, size in sizes:
        record = b"\x17\x03\x03\x00\x10" + bytes(16)
        for source, destination, sport, dport, payload in (
            (CLIENT_IP, server, port, 443, record),
            (server, CLIENT_IP, 443, port, bytes(size)),
        ):
            clock += 10
            segments.append(Segment(clock, source, destination, sport, dport, 1, payload))
    frames = tuple((s.micros, *build_frame(s, None, rng)) for s in segments)
    return Capture(frames=frames, byteorder="<", client_ip=CLIENT_IP, server_ip=None)


def test_largest_flow_ties_go_to_the_earliest_created_connection(workdir):
    capture = _downlink_capture(
        [(OTHER_IPS[0], 40_001, 900), (SERVER_IP, 40_002, 1400), (OTHER_IPS[1], 40_003, 1400)]
    )
    path = _write(capture, workdir)
    columns = decode_tcp_columns(read_pcap_columns(path), CLIENT_IP)
    assert columns.largest_flow_server() == canonical_ipv4(SERVER_IP)
    trace = load_attack_trace(path, client_ip=CLIENT_IP)
    assert trace.server_ip == SERVER_IP
    assert capture_client_records(path, CLIENT_IP) == _oracle_records(path, CLIENT_IP, None)


def _connections_capture(
    connections: list[tuple[str, int, int, tuple[int, ...], int]]
) -> Capture:
    """Connections in creation order: ``(server, client port, server port,
    uplink record wire lengths, downlink bytes)``.  Each sends its records,
    then receives its downlink bytes in 1,400-byte segments."""
    rng = random.Random(0)
    segments = []
    clock = 0
    for server, port, server_port, lengths, downlink in connections:
        sequence = 1
        for length in lengths:
            clock += 10
            record = b"\x17\x03\x03" + (length - 5).to_bytes(2, "big") + bytes(length - 5)
            segments.append(
                Segment(clock, CLIENT_IP, server, port, server_port, sequence, record)
            )
            sequence += length
        for offset in range(0, downlink, 1_400):
            clock += 10
            payload = bytes(min(1_400, downlink - offset))
            segments.append(
                Segment(clock, server, CLIENT_IP, server_port, port, 1 + offset, payload)
            )
    frames = tuple((s.micros, *build_frame(s, None, rng)) for s in segments)
    return Capture(frames=frames, byteorder="<", client_ip=CLIENT_IP, server_ip=None)


def _inspect_records(path):
    """What ``repro inspect`` reads: the pcap's packets, no server given."""
    trace = CapturedTrace.from_pcap(path, client_ip=CLIENT_IP, server_ip="0.0.0.0")
    return tuple(extract_client_records(trace))


_STREAM_A = (SERVER_IP, 40_001, 443, (105, 205), 3_000)
_FIRST_CONNECTION_RECORDS = ("ok", tuple((105, 205)))


@pytest.mark.parametrize(
    "connections, expected",
    [
        # A second connection to the same server carries more downlink
        # bytes: the first :443 connection to that server is still read.
        ([_STREAM_A, (SERVER_IP, 40_002, 443, (305, 405, 505), 90_000)],
         _FIRST_CONNECTION_RECORDS),
        ([_STREAM_A, (SERVER_IP, 40_002, 8443, (305, 405, 505), 90_000)],
         _FIRST_CONNECTION_RECORDS),
        # A tie goes to the earliest-created connection.
        ([(OTHER_IPS[0], 40_001, 443, (105, 205), 5_000),
          (SERVER_IP, 40_002, 443, (305,), 5_000)],
         _FIRST_CONNECTION_RECORDS),
        # Cross traffic with more downlink bytes wins; on :443 its own
        # connection is read, on :80 there is no streaming connection.
        ([_STREAM_A, (OTHER_IPS[0], 40_002, 443, (305,), 20_000)],
         ("ok", (305,))),
        ([_STREAM_A, (OTHER_IPS[0], 40_002, 80, (305,), 20_000)],
         ("error", AttackError, f"no flow to {OTHER_IPS[0]}:443 in the trace")),
    ],
)
def test_inspect_and_attack_read_the_same_flow_when_the_server_is_unknown(
    workdir, connections, expected
):
    path = _write(_connections_capture(connections), workdir)
    outcomes = [
        _outcome(_inspect_records, path),
        _outcome(capture_client_records, path, CLIENT_IP, None),
        _outcome(_oracle_records, path, CLIENT_IP, None),
    ]
    lengths = [
        (outcome[0], tuple(record.wire_length for record in outcome[1]))
        if outcome[0] == "ok"
        else outcome
        for outcome in outcomes
    ]
    assert lengths == [expected] * 3
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_non_canonical_addresses_take_the_oracle_path(workdir):
    capture = _downlink_capture([(SERVER_IP, 40_001, 900)])
    path = _write(capture, workdir)
    assert decode_tcp_columns(read_pcap_columns(path), "192.168.001.23") is None
    columns = decode_tcp_columns(read_pcap_columns(path), CLIENT_IP)
    assert columnar_client_records(columns, "198.51.100.07") is None
    with pytest.raises(ReproError, match="no flow to 198.51.100.07:443"):
        capture_client_records(path, CLIENT_IP, "198.51.100.07")


def test_uplink_segments_keep_the_first_of_each_sequence_number(workdir):
    # The same sequence number three times, out of capture order.
    rng = random.Random(1)
    record = b"\x17\x03\x03\x00\x08" + bytes(8)
    segments = [
        Segment(30, CLIENT_IP, SERVER_IP, 40_001, 443, 100, record[:6]),
        Segment(10, CLIENT_IP, SERVER_IP, 40_001, 443, 100, record[:4]),
        Segment(20, CLIENT_IP, SERVER_IP, 40_001, 443, 100, record[:6]),
        Segment(40, CLIENT_IP, SERVER_IP, 40_001, 443, 104, record[4:]),
    ]
    frames = tuple((s.micros, *build_frame(s, None, rng)) for s in segments)
    path = _write(Capture(frames, "<", CLIENT_IP, SERVER_IP), workdir)
    columns = decode_tcp_columns(read_pcap_columns(path), CLIENT_IP)
    rows = columns.uplink_rows(columns.flow_to(canonical_ipv4(SERVER_IP)))
    timestamps = columns.timestamps[rows]
    sequence = columns.sequence_numbers[rows]
    lengths = columns.payload_lengths[rows]
    # (sequence, timestamp) order, first of each sequence number kept.
    assert sequence.tolist() == [100, 104]
    assert lengths.tolist() == [4, len(record) - 4]
    assert np.allclose(timestamps, [10e-6, 40e-6])
    assert capture_client_records(path, CLIENT_IP, SERVER_IP) == _oracle_records(
        path, CLIENT_IP, SERVER_IP
    )


def test_ip_fragments_read_as_whole_segments_on_both_paths(workdir):
    # Neither path reassembles: MF or a fragment offset leaves the frame a
    # whole TCP segment, and the columnar records stay the oracle's.
    rng = random.Random(2)
    record = b"\x17\x03\x03\x00\x08" + bytes(8)
    segments = [
        Segment(10, CLIENT_IP, SERVER_IP, 40_001, 443, 100, record[:6]),
        Segment(20, CLIENT_IP, SERVER_IP, 40_001, 443, 106, record[6:]),
        Segment(30, SERVER_IP, CLIENT_IP, 443, 40_001, 1, bytes(700)),
    ]
    frames = tuple((s.micros, *build_frame(s, "ip_fragment", rng)) for s in segments)
    path = _write(Capture(frames, "<", CLIENT_IP, SERVER_IP), workdir)
    words = [int.from_bytes(frame[20:22], "big") for _, frame, _ in frames]
    assert all(word & 0x2000 or word & 0x1FFF for word in words)
    columns = decode_tcp_columns(read_pcap_columns(path), CLIENT_IP)
    records = columnar_client_records(columns, SERVER_IP)
    assert records is not None and len(records) == 1
    assert tuple(records) == _oracle_records(path, CLIENT_IP, SERVER_IP)
