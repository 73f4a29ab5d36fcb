"""Property tests pinning the columnar session capture to the packet path.

The capture sink records each simulated TCP write as segment rows
(:class:`repro.net.columnar.TcpSegments`) instead of :class:`Packet`
objects, and every stage after it reads those rows.  Each fast path is
pinned here to the per-packet code it replaced:

* the per-write loss draw (:func:`repro.net.capture.draw_losses`) to the
  per-segment ``is_lost`` + ``uniform`` loop, following draws included;
* a simulated trace's packets and fingerprint to a sink that sends,
  observes and sorts :class:`Packet` objects;
* sidecar entries from the writer's columns to a re-read of the pcap, and
  labelled record extraction from the columns to the packet path, on
  simulated traces and on hand-built ones that force the fallback.
"""

from __future__ import annotations

import hashlib
import itertools
import pickle
import random
from dataclasses import dataclass, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.client.profiles import OperationalCondition
from repro.core.features import (
    LABEL_BY_CODE,
    extract_client_records,
    select_streaming_flow,
)
from repro.core.pipeline import capture_client_records
from repro.dataset import sidecar as sidecar_module
from repro.dataset.sidecar import sidecar_entry_for
from repro.exceptions import ReproError
from repro.net.capture import CaptureSink, CapturedTrace, draw_losses
from repro.net.columnar import TcpSegments
from repro.net.conditions import conditions_for
from repro.net.endpoints import Endpoint, FiveTuple
from repro.net.packet import Direction, Packet
from repro.net.tcp import TCPSender, segment_layout
from repro.streaming import session as session_module
from repro.streaming.session import SessionConfig, SessionResult, simulate_session
from repro.utils.rng import RandomSource

from strategies import (
    DETERMINISM_SETTINGS,
    STANDARD_SETTINGS,
    annotated,
    packets,
    record_aligned_packets,
)
from strategies.frames import CLIENT_IP, OTHER_IPS, SERVER_IP

_NOISY = OperationalCondition("linux", "desktop", "firefox", "wireless", "night")
_FLOW = FiveTuple(client=Endpoint(CLIENT_IP, 40_001), server=Endpoint(SERVER_IP, 443))
_PROBABILITIES = st.one_of(
    st.sampled_from((0.0, 0.004, 0.05, 1.0)), st.floats(0.0, 1.0)
)


# -- the loss draw --------------------------------------------------------


@DETERMINISM_SETTINGS
@given(
    seed=st.integers(0, 2**32),
    writes=st.lists(
        st.tuples(
            st.integers(1, 20_000),
            st.integers(1, 3_000),
            st.lists(st.integers(0, 64), max_size=3),
        ),
        min_size=1,
        max_size=6,
    ),
    probability=_PROBABILITIES,
)
def test_loss_draws_equal_the_per_segment_loop(seed, writes, probability):
    """Per write, ``draw_losses`` picks the segments the per-packet loop
    lost, with the same delays, and leaves both generators in step.
    Zero-payload segments (bare ACKs, placed at the listed positions)
    take no draw on either side."""
    conditions = replace(conditions_for(_NOISY), loss_probability=probability)
    rtt = conditions.base_rtt_seconds
    loop, columns = RandomSource(seed), RandomSource(seed)
    for length, mss, acks in writes:
        sizes = segment_layout([length], mss)[2].tolist()
        for position in acks:
            sizes.insert(position % (len(sizes) + 1), 0)

        expected = []
        for index, size in enumerate(sizes):
            if size and conditions.is_lost(loop):
                expected.append((index, rtt * loop.uniform(1.0, 2.0)))

        data = [index for index, size in enumerate(sizes) if size]
        actual = [
            (data[segment], rtt * factor)
            for segment, factor in draw_losses(columns.generator, len(data), probability)
        ]
        assert actual == expected
    assert columns.generator.random(3).tolist() == loop.generator.random(3).tolist()
    assert columns.random_bytes(7) == loop.random_bytes(7)
    assert columns.integer(0, 10**6) == loop.integer(0, 10**6)


# -- simulated traces against the packet path ------------------------------


class _PacketSink(CaptureSink):
    """The capture the columns replaced: send packets, observe each one
    (possibly duplicating it as a retransmission), sort them by time."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.packets: list[Packet] = []

    def _record(self, sender, payload, timestamp, annotations):
        sent = sender.send(payload, timestamp, annotations)
        self.packets.extend(sent)
        return 0, len(sent)

    def write(self, sender, payload, timestamp, annotations=None):
        for packet in sender.send(payload, timestamp, annotations):
            self.packets.append(packet)
            if packet.payload and self._conditions.is_lost(self._rng):
                delay = self._conditions.base_rtt_seconds * self._rng.uniform(1.0, 2.0)
                self.packets.append(packet.as_retransmission(packet.timestamp + delay))

    def trace(self):
        self.packets.sort(key=lambda packet: packet.timestamp)
        return CapturedTrace(
            packets=self.packets, client_ip=self.client_ip, server_ip=self.server_ip
        )


def _packet_fingerprint(result, packets) -> str:
    """``SessionResult.fingerprint`` as computed over packet objects."""
    hasher = hashlib.sha256()
    for packet in packets:
        hasher.update(
            f"{packet.timestamp!r}|{packet.direction.value}|"
            f"{packet.sequence_number}|{packet.wire_length}|"
            f"{int(packet.is_retransmission)}\n".encode("utf-8")
        )
        hasher.update(packet.payload)
    hasher.update("|".join(result.path.segment_ids).encode("utf-8"))
    for choice in result.path.choices:
        hasher.update(
            f"{choice.question_id}|{choice.selected_label}|"
            f"{int(choice.took_default)}|{choice.decision_time_seconds!r}\n".encode("utf-8")
        )
    for message in result.state_messages:
        hasher.update(
            f"{message.kind}|{message.question_id}|{message.size_bytes}\n".encode("utf-8")
        )
    return hasher.hexdigest()


_CASES = {
    "noisy-cross-traffic": ("study", _NOISY, SessionConfig(), None, 67),
    "wired-no-cross-traffic": (
        "study",
        OperationalCondition("linux", "desktop", "firefox", "wired", "noon"),
        SessionConfig(cross_traffic_enabled=False),
        None,
        5,
    ),
    "padded-forced": (
        "minimal", _NOISY, SessionConfig(state_report_pad_to=900), [True, False], 9
    ),
    "cbc-forced": (
        "study",
        _NOISY,
        SessionConfig(cipher_suite="TLS_ECDHE_RSA_WITH_AES_256_CBC_SHA"),
        [False, False, True],
        21,
    ),
    "tls13": (
        "study",
        OperationalCondition("windows", "desktop", "chrome", "wired", "morning"),
        SessionConfig(cipher_suite="TLS_AES_128_GCM_SHA256"),
        None,
        33,
    ),
}


@dataclass(frozen=True)
class _Simulated:
    case: str
    result: SessionResult
    reference: SessionResult
    packets: list[Packet]


@pytest.fixture(scope="module", params=sorted(_CASES))
def simulated(request, study_graph, minimal_graph, default_behavior) -> _Simulated:
    """One case simulated through the columns and through the packet sink."""
    graph, condition, config, forced, seed = _CASES[request.param]
    graph = study_graph if graph == "study" else minimal_graph

    def run():
        return simulate_session(
            graph, condition, default_behavior, seed=seed, config=config,
            forced_choices=forced,
        )

    sinks: list[_PacketSink] = []

    def packet_sink(*args, **kwargs):
        sinks.append(_PacketSink(*args, **kwargs))
        return sinks[-1]

    with mock.patch.object(session_module, "CaptureSink", packet_sink):
        reference = run()
    return _Simulated(request.param, run(), reference, sinks[0].packets)


def test_simulated_packets_equal_the_packet_path(simulated):
    result, reference, packets = simulated.result, simulated.reference, simulated.packets
    built = result.trace.packets
    assert [vars(packet) for packet in built] == [vars(packet) for packet in packets]
    assert all(type(packet.timestamp) is float for packet in built)
    assert all(type(packet.sequence_number) is int for packet in built)
    annotations = [id(packet.annotations) for packet in built]
    assert len(set(annotations)) == len(built)
    assert result.trace.packet_count == len(packets)
    assert result.trace.duration_seconds == (
        max(p.timestamp for p in packets) - min(p.timestamp for p in packets)
    )
    assert result.fingerprint() == reference.fingerprint()
    assert result.fingerprint() == _packet_fingerprint(reference, packets)


def test_the_cases_exercise_losses_and_cross_traffic(simulated):
    packets = simulated.packets
    flows = {packet.five_tuple.key for packet in packets}
    assert len(simulated.result.trace.segments.five_tuples) == len(flows)
    if simulated.case == "noisy-cross-traffic":
        assert any(packet.is_retransmission for packet in packets)
        assert len(flows) > 1
    if simulated.case == "wired-no-cross-traffic":
        assert len(flows) == 1


def test_pickling_ships_columns_without_building_packets(simulated):
    result = simulated.result
    fingerprint = result.fingerprint()
    with mock.patch.object(TcpSegments, "packets", side_effect=AssertionError):
        restored = pickle.loads(pickle.dumps(result))
        assert restored.fingerprint() == fingerprint
        assert restored.trace.packet_count == result.trace.packet_count
    # A materialized view is never shipped: it is rebuilt on demand.
    result.trace.packets
    assert "packets" not in pickle.loads(pickle.dumps(result.trace)).__dict__


def test_generating_a_capture_builds_no_packet(simulated, tmp_path):
    """``to_pcap`` and the sidecar entry read only the columns."""
    trace = simulated.result.trace
    fresh = pickle.loads(pickle.dumps(trace))
    with mock.patch.object(TcpSegments, "packets", side_effect=AssertionError):
        fresh.to_pcap(tmp_path / "capture.pcap")
        entry = sidecar_entry_for(tmp_path / "capture.pcap", fresh, "v", "env")
    assert entry is not None


# -- sidecar entries and labelled records against the oracle ---------------


def _packet_path_records(trace, server_ip, application_data_only=True):
    """``extract_client_records`` over the trace's packets: a pre-selected
    flow skips the columns."""
    flow = select_streaming_flow(trace, server_ip)
    return extract_client_records(
        trace, server_ip, application_data_only=application_data_only, flow=flow
    )


def _oracle_entry(path, trace):
    """The sidecar columns derived by re-reading the pcap, labels from the
    packet path: ``None`` wherever the entry must be refused."""
    try:
        observed = capture_client_records(path, trace.client_ip, trace.server_ip)
        labelled = _packet_path_records(trace, trace.server_ip)
    except ReproError:
        return None
    if [r.wire_length for r in observed] != [r.wire_length for r in labelled]:
        return None
    return (
        [r.timestamp for r in observed],
        [r.wire_length for r in observed],
        [r.content_type for r in observed],
        [r.label for r in labelled],
    )


def _entry(path, trace):
    entry = sidecar_entry_for(path, trace, "viewer", "env")
    if entry is None:
        return None
    return (
        entry.timestamps.tolist(),
        entry.wire_lengths.tolist(),
        entry.content_types.tolist(),
        [LABEL_BY_CODE[code] for code in entry.label_codes.tolist()],
    )


def _outcome(function, *args, **kwargs):
    try:
        return ("ok", function(*args, **kwargs))
    except ReproError as error:
        return ("error", type(error), str(error))


def test_simulated_sidecar_entries_come_from_the_columns(simulated, tmp_path):
    trace = simulated.result.trace
    path = tmp_path / "capture.pcap"
    trace.to_pcap(path)
    # One pass over the writer's columns: no re-read, no second extraction.
    with mock.patch.object(
        sidecar_module, "capture_client_records", side_effect=AssertionError
    ), mock.patch.object(
        sidecar_module, "extract_client_records", side_effect=AssertionError
    ):
        entry = _entry(path, trace)
    assert entry is not None
    assert entry == _oracle_entry(path, trace)
    for application_data_only in (True, False):
        assert extract_client_records(
            trace, trace.server_ip, application_data_only=application_data_only
        ) == _packet_path_records(trace, trace.server_ip, application_data_only)


def _dropped(trace: CapturedTrace, seed: int) -> CapturedTrace:
    """The trace with some uplink packets lost to the observer: gaps."""
    rng = random.Random(seed)
    kept = [
        packet
        for packet in trace.packets
        if packet.direction is Direction.SERVER_TO_CLIENT or rng.random() > 0.05
    ]
    return CapturedTrace(packets=kept, client_ip=trace.client_ip, server_ip=trace.server_ip)


def test_gapped_traces_fall_back_to_the_re_read(simulated, tmp_path):
    trace = _dropped(simulated.result.trace, seed=len(simulated.packets))
    path = tmp_path / "gapped.pcap"
    trace.to_pcap(path)
    with mock.patch.object(
        sidecar_module, "capture_client_records", wraps=capture_client_records
    ) as reread:
        entry = _entry(path, trace)
    assert reread.called
    assert entry == _oracle_entry(path, trace)
    assert _outcome(extract_client_records, trace, trace.server_ip) == _outcome(
        _packet_path_records, trace, trace.server_ip
    )


def _retransmitted_in_place(trace: CapturedTrace) -> CapturedTrace:
    """The trace with one streaming uplink segment captured only as its
    retransmission: the pcap keeps the bytes, the record parser drops them."""
    flow = select_streaming_flow(trace, trace.server_ip).five_tuple
    packets = list(trace.packets)
    row = next(
        row
        for row, packet in enumerate(packets)
        if packet.five_tuple == flow
        and packet.direction is Direction.CLIENT_TO_SERVER
        and packet.payload
    )
    packets[row] = replace(packets[row], is_retransmission=True)
    return CapturedTrace(packets=packets, client_ip=trace.client_ip, server_ip=trace.server_ip)


def _reversed(trace: CapturedTrace) -> CapturedTrace:
    """The trace's rows out of capture order: ``to_pcap`` reorders them."""
    return CapturedTrace(
        packets=trace.packets[::-1], client_ip=trace.client_ip, server_ip=trace.server_ip
    )


@pytest.mark.parametrize("mutate", (_retransmitted_in_place, _reversed))
def test_traces_the_columns_cannot_prove_fall_back_to_the_re_read(
    simulated, tmp_path, mutate
):
    trace = mutate(simulated.result.trace)
    path = tmp_path / "mutated.pcap"
    trace.to_pcap(path)
    with mock.patch.object(
        sidecar_module, "capture_client_records", wraps=capture_client_records
    ) as reread:
        entry = _entry(path, trace)
    assert reread.called
    assert entry == _oracle_entry(path, trace)
    assert _outcome(extract_client_records, trace, trace.server_ip) == _outcome(
        _packet_path_records, trace, trace.server_ip
    )


def test_hand_built_entries_in_capture_order_come_from_the_columns(tmp_path):
    """A retransmitted duplicate and an unlabelled record: the one pass over
    the writer's columns labels each record from the segment it starts in."""
    record = bytes((23, 3, 3)) + (40).to_bytes(2, "big") + bytes(40)
    state = {"kind": "type1", "question_id": "q1"}
    uplink, downlink = Direction.CLIENT_TO_SERVER, Direction.SERVER_TO_CLIENT
    trace = CapturedTrace(
        packets=[
            Packet(1.0, uplink, _FLOW, record[:20], 100, annotations=dict(state)),
            Packet(1.0, uplink, _FLOW, record[20:], 120, annotations=dict(state)),
            Packet(1.5, uplink, _FLOW, record[:20], 100, is_retransmission=True),
            Packet(2.0, downlink, _FLOW, bytes(300), 7),
            Packet(2.5, uplink, _FLOW, record, 145, annotations={"kind": "chunk"}),
        ],
        client_ip=CLIENT_IP,
        server_ip=SERVER_IP,
    )
    path = tmp_path / "hand-built.pcap"
    trace.to_pcap(path)
    with mock.patch.object(
        sidecar_module, "capture_client_records", side_effect=AssertionError
    ):
        entry = _entry(path, trace)
    assert entry is not None and entry[3] == ["type1", "other"]
    assert entry == _oracle_entry(path, trace)


_HAND_BUILT = st.one_of(annotated(packets()), record_aligned_packets())


@STANDARD_SETTINGS
@given(trace=_HAND_BUILT, server_ip=st.sampled_from((SERVER_IP, "203.0.113.9")))
def test_labelled_records_from_columns_equal_the_packet_path(trace, server_ip):
    captured = CapturedTrace(packets=trace, client_ip=CLIENT_IP, server_ip=server_ip)
    for application_data_only in (True, False):
        assert _outcome(
            extract_client_records,
            captured,
            server_ip,
            application_data_only=application_data_only,
        ) == _outcome(_packet_path_records, captured, server_ip, application_data_only)


def _largest_flow_route(trace, application_data_only=True):
    """The unknown-server rule on the packets: the server of the flow with
    the most downlink bytes, then its first :443 connection, read by the
    scalar parser."""
    server_ip = select_streaming_flow(trace).five_tuple.server.ip
    return _packet_path_records(trace, server_ip, application_data_only)


@STANDARD_SETTINGS
@given(trace=_HAND_BUILT)
def test_unknown_server_records_from_columns_equal_the_packet_path(trace):
    """Ties, cross traffic with more downlink bytes, several connections to
    one server and sequence numbers past 2**34 included."""
    captured = CapturedTrace(packets=trace, client_ip=CLIENT_IP, server_ip=SERVER_IP)
    for application_data_only in (True, False):
        assert _outcome(
            extract_client_records,
            captured,
            None,
            application_data_only=application_data_only,
        ) == _outcome(_largest_flow_route, captured, application_data_only)


def test_unknown_server_spans_past_2_34_take_the_packet_path():
    """The column tally keeps connections apart by shifting each by 2**34,
    so a downlink span past it makes the columns refuse: here the cross
    connection's span would hide the streaming connection's larger one."""
    uplink, downlink = Direction.CLIENT_TO_SERVER, Direction.SERVER_TO_CLIENT
    cross = FiveTuple(client=Endpoint(CLIENT_IP, 40_000), server=Endpoint(OTHER_IPS[0], 443))
    record = bytes((23, 3, 3)) + (40).to_bytes(2, "big") + bytes(40)
    trace = CapturedTrace(
        packets=[
            Packet(1.0, uplink, cross, record, 7),
            Packet(1.5, downlink, cross, bytes(1_000), 2**35),
            Packet(2.0, uplink, _FLOW, record + record, 100),
            Packet(2.5, downlink, _FLOW, bytes(1_400), 1),
        ],
        client_ip=CLIENT_IP,
        server_ip=SERVER_IP,
    )
    assert trace.segments.tcp_columns().largest_flow_server() is None
    records = extract_client_records(trace)
    assert [record.wire_length for record in records] == [45, 45]
    assert records == _largest_flow_route(trace)


_names = itertools.count()


@STANDARD_SETTINGS
@given(trace=_HAND_BUILT, in_capture_order=st.booleans())
def test_hand_built_sidecar_entries_equal_the_re_read(
    tmp_path_factory, trace, in_capture_order
):
    if in_capture_order:
        trace = sorted(trace, key=lambda packet: packet.timestamp)
    captured = CapturedTrace(packets=trace, client_ip=CLIENT_IP, server_ip=SERVER_IP)
    path = tmp_path_factory.getbasetemp() / f"hand-built-{next(_names)}.pcap"
    try:
        captured.to_pcap(path)
    except ReproError:
        return  # A packet the oracle cannot serialize: no capture, no entry.
    assert _entry(path, captured) == _oracle_entry(path, captured)


@DETERMINISM_SETTINGS
@given(trace=annotated(packets()))
def test_columns_round_trip_packets(trace):
    """``CapturedTrace(packets=...)`` keeps every field, annotations included,
    in the order given, each packet with its own annotations dict."""
    captured = CapturedTrace(packets=trace, client_ip=CLIENT_IP, server_ip=SERVER_IP)
    rebuilt = captured.packets
    assert [vars(packet) for packet in rebuilt] == [
        {**vars(packet), "timestamp": float(packet.timestamp)} for packet in trace
    ]
    assert all(
        built.annotations is not given.annotations
        for built, given in zip(rebuilt, trace)
    )
    assert captured.total_bytes() == sum(packet.wire_length for packet in trace)


def test_sink_rows_follow_the_write_layout():
    """Each write's segments carry consecutive sequence numbers from the
    sender and the sender's acknowledgment number, as ``send`` builds them."""
    sink = CaptureSink(replace(conditions_for(_NOISY), loss_probability=0.0), RandomSource(1))
    sender = TCPSender(_FLOW, Direction.CLIENT_TO_SERVER, mss=4, initial_sequence_number=7)
    sender.note_peer_progress(99)
    mirror = TCPSender(_FLOW, Direction.CLIENT_TO_SERVER, mss=4, initial_sequence_number=7)
    mirror.note_peer_progress(99)
    sink.write(sender, b"hello world", 1.0, {"kind": "type1"})
    sink.write(sender, b"!", 2.0)
    expected = mirror.send(b"hello world", 1.0, {"kind": "type1"}) + mirror.send(b"!", 2.0)
    assert [vars(p) for p in sink.trace().packets] == [vars(p) for p in expected]
    assert len(sink) == len(expected)


def test_span_sums_equal_word_sums_at_any_alignment():
    """Each span's sum is congruent, modulo 0xFFFF, to the sum of its own
    big-endian words with an odd tail zero-padded."""
    rng = random.Random(5)
    for _ in range(200):
        lengths = [rng.choice((0, 1, 2, 3, rng.randint(0, 60))) for _ in range(rng.randint(1, 9))]
        trace = [
            Packet(1.0, Direction.CLIENT_TO_SERVER, _FLOW, rng.randbytes(length))
            for length in lengths
        ]
        sums = TcpSegments.from_packets(trace).span_sums()
        for packet, value in zip(trace, sums.tolist()):
            padded = packet.payload + b"\0" * (len(packet.payload) % 2)
            words = np.frombuffer(padded, dtype=">u2").astype(np.int64)
            assert value % 0xFFFF == int(words.sum()) % 0xFFFF
