"""Property tests pinning the columnar capture encoder to its oracle.

``PcapWriter.write(packet.timestamp, packet.serialize_frame())`` for each
packet in stable timestamp order defines the bytes of a capture.
:meth:`CapturedTrace.to_pcap`, through
:func:`repro.net.columnar.encode_tcp_frames`, must write exactly those
bytes for every generated trace, raise the same error after the same
records when a packet cannot be serialized, and produce files the reading
side decodes to the oracle's records.
"""

from __future__ import annotations

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.pipeline import capture_client_records
from repro.exceptions import PacketError
from repro.net import columnar
from repro.net.capture import CapturedTrace
from repro.net.columnar import TcpSegments, decode_tcp_columns, encode_tcp_frames
from repro.net.endpoints import Endpoint, FiveTuple
from repro.net.headers import parse_ipv4
from repro.net.packet import Direction, Packet
from repro.net.pcap import PcapWriter, read_pcap_columns

from strategies import DETERMINISM_SETTINGS, STANDARD_SETTINGS, packets
from strategies.frames import CLIENT_IP, SERVER_IP
from strategies.packets import MAX_PAYLOAD

from test_columnar_decoder import _oracle_records, _outcome

_names = itertools.count()
#: ``PcapWriter``'s default snaplen, and the frame bytes before a payload:
#: the last few near-maximum payloads are stored truncated.
_SNAPLEN = 65_535
_HEADERS = 54


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("encoder")


def _path(workdir, label: str):
    return workdir / f"{label}-{next(_names)}.pcap"


def _ordered(trace: list[Packet]) -> list[Packet]:
    return sorted(trace, key=lambda packet: packet.timestamp)


def _oracle_write(trace: list[Packet], path, snaplen: int = _SNAPLEN):
    """The per-packet loop ``to_pcap`` replaced: the definition of the bytes."""
    with PcapWriter(path, snaplen=snaplen) as writer:
        for packet in _ordered(trace):
            writer.write(packet.timestamp, packet.serialize_frame())
        return writer.packets_written


def _encoder_write(trace: list[Packet], path, snaplen: int = _SNAPLEN):
    with PcapWriter(path, snaplen=snaplen) as writer:
        encode_tcp_frames(TcpSegments.from_packets(_ordered(trace)), writer)
        return writer.packets_written


def _written(function, trace, path):
    """``(outcome, file bytes)``: what ``function`` returned or raised, and
    what it left on disk."""
    try:
        outcome = ("ok", function(trace, path))
    except Exception as error:  # noqa: BLE001 - the oracle's type is the spec
        outcome = ("error", type(error), str(error))
    return outcome, path.read_bytes()


def _captured(trace: list[Packet]) -> CapturedTrace:
    return CapturedTrace(packets=tuple(trace), client_ip=CLIENT_IP, server_ip=SERVER_IP)


@DETERMINISM_SETTINGS
@given(trace=packets(), block=st.sampled_from((1, 2, 3, 7, columnar._BLOCK_PACKETS)))
def test_encoder_bytes_equal_the_oracle_loop(workdir, trace, block):
    expected = _path(workdir, "oracle")
    written = _oracle_write(trace, expected)
    actual = _path(workdir, "encoder")
    with mock.patch.object(columnar, "_BLOCK_PACKETS", block):
        assert _captured(trace).to_pcap(actual) == written == len(trace)
    assert actual.read_bytes() == expected.read_bytes()


@DETERMINISM_SETTINGS
@given(
    trace=packets(max_extra=4),
    position=st.integers(0, 10),
    excess=st.integers(1, 3_000),
    block=st.sampled_from((1, 3, columnar._BLOCK_PACKETS)),
)
def test_an_oversize_payload_raises_the_oracle_error_on_both_paths(
    workdir, trace, position, excess, block
):
    """A payload too long for one datagram raises ``serialize_frame``'s
    ``PacketError`` after the same records on both paths."""
    oversize = Packet(
        timestamp=trace[0].timestamp,
        direction=Direction.CLIENT_TO_SERVER,
        five_tuple=trace[0].five_tuple,
        payload=bytes(MAX_PAYLOAD + excess),
    )
    trace = [*trace[:position], oversize, *trace[position:]]
    expected = _written(_oracle_write, trace, _path(workdir, "oracle"))
    with mock.patch.object(columnar, "_BLOCK_PACKETS", block):
        actual = _written(_encoder_write, trace, _path(workdir, "encoder"))
    assert expected[0][:2] == ("error", PacketError)
    assert actual == expected


@STANDARD_SETTINGS
@given(trace=packets())
def test_encoded_captures_decode_to_the_oracle_records(workdir, trace):
    """``read_columns`` -> ``decode_tcp_columns`` recovers every packet the
    encoder wrote, and the attack's records match the oracle's."""
    path = _path(workdir, "roundtrip")
    _captured(trace).to_pcap(path)
    columns = decode_tcp_columns(read_pcap_columns(path), CLIENT_IP)
    assert columns is not None
    ordered = _ordered(trace)
    sources = np.where(columns.uplink, columns.client_ips, columns.server_ips)
    source_ports = np.where(columns.uplink, columns.client_ports, columns.server_ports)
    assert list(zip(sources.tolist(), source_ports.tolist())) == [
        (int.from_bytes(parse_ipv4(packet.source.ip), "big"), packet.source.port)
        for packet in ordered
    ]
    assert columns.sequence_numbers.tolist() == [
        packet.sequence_number & 0xFFFFFFFF for packet in ordered
    ]
    assert [
        columns.gather(columns.payload_offsets[i : i + 1], columns.payload_lengths[i : i + 1])
        for i in range(len(columns))
    ] == [packet.payload[: _SNAPLEN - _HEADERS] for packet in ordered]
    for server_ip in (SERVER_IP, None):
        assert _outcome(capture_client_records, path, CLIENT_IP, server_ip) == _outcome(
            _oracle_records, path, CLIENT_IP, server_ip
        )


def test_frames_over_the_snaplen_take_the_oracle_path(workdir):
    """A block holding a frame longer than the writer's snaplen is written
    by ``serialize_frame`` packet by packet (which truncates it), and a
    block without one never calls it."""
    flow = FiveTuple(client=Endpoint(CLIENT_IP, 40_000), server=Endpoint(SERVER_IP, 443))
    trace = [
        Packet(timestamp=index * 0.5, direction=Direction.SERVER_TO_CLIENT,
               five_tuple=flow, payload=bytes(size), sequence_number=index)
        for index, size in enumerate((10, 11, 200, 3, 0, 7))
    ]
    snaplen = 100  # Only the 200-byte payload's frame is longer.
    expected = _path(workdir, "oracle")
    _oracle_write(trace, expected, snaplen=snaplen)
    actual = _path(workdir, "encoder")
    serialize = Packet.serialize_frame
    with mock.patch.object(columnar, "_BLOCK_PACKETS", 2), mock.patch.object(
        Packet, "serialize_frame", autospec=True, side_effect=serialize
    ) as oracle:
        assert _encoder_write(trace, actual, snaplen=snaplen) == len(trace)
    assert actual.read_bytes() == expected.read_bytes()
    # Only the second block of two went to the per-packet loop.
    assert [call.args[0] for call in oracle.call_args_list] == trace[2:4]


def test_a_timestamp_past_the_record_header_takes_the_oracle_path(workdir):
    """Seconds that carry past 2**32 - 1 cannot be stored: the oracle's
    ``struct`` error, after the records before it, on both paths."""
    flow = FiveTuple(client=Endpoint(CLIENT_IP, 40_000), server=Endpoint(SERVER_IP, 443))
    trace = [
        Packet(timestamp=stamp, direction=Direction.CLIENT_TO_SERVER,
               five_tuple=flow, payload=b"\x17")
        for stamp in (1.0, 2**32 - 1 + 0.9999996)
    ]
    with mock.patch.object(columnar, "_BLOCK_PACKETS", 1):
        actual = _written(_encoder_write, trace, _path(workdir, "encoder"))
    assert actual == _written(_oracle_write, trace, _path(workdir, "oracle"))
    assert actual[0][0] == "error"
