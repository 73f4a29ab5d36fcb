"""Hypothesis strategies for simulator-side traces: lists of :class:`Packet`.

Where :mod:`strategies.frames` builds hostile *bytes* for the readers, this
module builds the *objects* the writer serializes, with every value
``Packet.serialize_frame`` and ``PcapWriter.write`` must still encode: both
directions of the streaming connection (an uplink TLS record stream cut
into segments) plus cross-traffic connections on other addresses and ports,
empty, 1-byte, odd and near-maximum payloads, sequence and acknowledgment
numbers at or above 2**32, flag words above 0x3F, tied timestamps and
timestamps whose microseconds round up into the next second.
:func:`annotated` adds simulator ground truth to any of them, and
:func:`record_aligned_packets` builds an annotated uplink stream whose
segments start at TLS record starts, the shape simulated sessions have.
"""

from __future__ import annotations

import random
from dataclasses import replace

from hypothesis import strategies as st

from repro.net.endpoints import Endpoint, FiveTuple
from repro.net.headers import IPV4_HEADER_LENGTH, TCP_HEADER_LENGTH
from repro.net.packet import Direction, Packet

from strategies.frames import CLIENT_IP, OTHER_IPS, SERVER_IP, tls_streams

#: The largest payload one IPv4 datagram carries after option-less headers.
MAX_PAYLOAD = 0xFFFF - IPV4_HEADER_LENGTH - TCP_HEADER_LENGTH

#: Timestamps at the edges of ``PcapWriter``'s microsecond rounding: a carry
#: into the next second, exact halves (round half to even) and zero.
EDGE_TIMESTAMPS = (0.0, 1.9999996, 7.9999995, 2.0000005, 0.0000005, 1.5, 4096.0)

_SIZES = ("empty",) * 2 + ("one",) * 2 + ("odd",) * 3 + ("even",) * 3 + ("huge",)
_WIDE_NUMBERS = st.one_of(
    st.integers(0, 2**34),
    st.sampled_from((2**32 - 1, 2**32, 2**32 + 1, 2**33 + 0xFFFF, 2**64 + 3)),
)
_TIMESTAMPS = st.one_of(
    st.floats(0, 10_000, allow_nan=False, allow_infinity=False),
    st.sampled_from(EDGE_TIMESTAMPS),
    st.integers(0, 10_000).map(lambda second: second + 0.9999996),
)


def _payload_length(kind: str, rng: random.Random) -> int:
    if kind == "empty":
        return 0
    if kind == "one":
        return 1
    if kind == "huge":
        return rng.randint(MAX_PAYLOAD - 64, MAX_PAYLOAD)
    length = rng.randint(2, 1_500)
    return length | 1 if kind == "odd" else length & ~1


@st.composite
def packets(draw, max_extra: int = 12) -> list[Packet]:
    """A non-empty, unsorted list of packets over one or more connections.

    Payload bytes come from a seeded :class:`random.Random`, so a
    near-maximum payload costs one drawn integer, not 64 KiB of example data.
    """
    rng = random.Random(draw(st.integers(0, 2**32)))
    main = FiveTuple(
        client=Endpoint(CLIENT_IP, draw(st.integers(40_000, 40_010))),
        server=Endpoint(SERVER_IP, 443),
    )
    flows = [main]
    for _ in range(draw(st.integers(0, 3))):
        client = draw(st.sampled_from((CLIENT_IP, CLIENT_IP, "192.168.1.99", "010.0.0.1")))
        server = draw(st.sampled_from((*OTHER_IPS, SERVER_IP, "203.0.113.010")))
        flows.append(
            FiveTuple(
                client=Endpoint(client, draw(st.integers(1, 0xFFFF))),
                server=Endpoint(server, draw(st.sampled_from((443, 8443, 1, 0xFFFF)))),
            )
        )
    # An equal but distinct five-tuple object: identity must not matter.
    flows.append(FiveTuple(client=Endpoint(main.client.ip, main.client.port), server=main.server))

    ties = draw(st.lists(_TIMESTAMPS, min_size=1, max_size=3))

    def timestamp() -> float:
        return rng.choice(ties) if rng.random() < 0.3 else draw(_TIMESTAMPS)

    trace: list[Packet] = []
    stream = draw(tls_streams())
    sequence = draw(_WIDE_NUMBERS)
    offset = 0
    while offset < len(stream):
        take = rng.randint(1, min(1_400, len(stream) - offset))
        trace.append(
            Packet(
                timestamp=timestamp(),
                direction=Direction.CLIENT_TO_SERVER,
                five_tuple=main,
                payload=stream[offset : offset + take],
                sequence_number=sequence + offset,
                acknowledgment_number=draw(_WIDE_NUMBERS),
                flags=0x18,
            )
        )
        offset += take
    for _ in range(draw(st.integers(0 if trace else 1, max_extra))):
        length = _payload_length(draw(st.sampled_from(_SIZES)), rng)
        trace.append(
            Packet(
                timestamp=timestamp(),
                direction=draw(st.sampled_from(tuple(Direction))),
                five_tuple=draw(st.sampled_from(flows)),
                payload=rng.randbytes(length),
                sequence_number=draw(_WIDE_NUMBERS),
                acknowledgment_number=draw(_WIDE_NUMBERS),
                flags=draw(st.integers(0, 0x1FF)),
                is_retransmission=draw(st.booleans()),
            )
        )
    rng.shuffle(trace)
    if draw(st.sampled_from((False,) * 9 + (True,))):
        trace = trace[:1]
    return trace


#: Simulator ground truth a packet may carry: labelled state reports, an
#: unlabelled kind, a question without a kind, or nothing.
NOTES = (
    {},
    {"kind": "type1", "question_id": "q1"},
    {"kind": "type2", "question_id": "q2"},
    {"kind": "chunk_request"},
    {"question_id": "q3"},
)


@st.composite
def annotated(draw, trace_strategy):
    """The packets ``trace_strategy`` draws, each carrying one of :data:`NOTES`."""
    trace = draw(trace_strategy)
    notes = draw(
        st.lists(st.sampled_from(NOTES), min_size=len(trace), max_size=len(trace))
    )
    return [replace(packet, annotations=dict(note)) for packet, note in zip(trace, notes)]


_ALIGNED_FLOW = FiveTuple(
    client=Endpoint(CLIENT_IP, 40_001), server=Endpoint(SERVER_IP, 443)
)


@st.composite
def record_aligned_packets(draw) -> list[Packet]:
    """An uplink record stream cut into segments that start at record
    starts, each record annotated (a few segments differently), with
    retransmitted and unflagged duplicates, downlink traffic and a
    shuffled capture order."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    records = draw(
        st.lists(
            st.tuples(
                st.sampled_from((23, 23, 22, 20)),
                st.integers(1, 3_000),
                st.sampled_from(NOTES),
            ),
            min_size=1,
            max_size=8,
        )
    )
    mss = draw(st.sampled_from((1, 3, 5, 7, 100, 1460)))
    # Mostly within the pcap header's 32 bits, sometimes past them.
    sequence = draw(st.one_of(st.integers(0, 2**32 - 2**16), st.integers(0, 2**40)))
    clock = 0.0
    trace: list[Packet] = []
    for content_type, length, note in records:
        record = bytes((content_type, 3, 3)) + length.to_bytes(2, "big") + rng.randbytes(length)
        clock += draw(st.sampled_from((0.0, 0.25, 1.0)))
        for offset in range(0, len(record), mss):
            trace.append(
                Packet(
                    timestamp=clock,
                    direction=Direction.CLIENT_TO_SERVER,
                    five_tuple=_ALIGNED_FLOW,
                    payload=record[offset : offset + mss],
                    sequence_number=sequence + offset,
                    flags=0x18,
                    annotations=dict(note if rng.random() < 0.8 else rng.choice(NOTES)),
                )
            )
        sequence += len(record)
    for packet in list(trace):
        if rng.random() < 0.1:
            trace.append(
                replace(
                    packet,
                    timestamp=max(0.0, packet.timestamp + rng.choice((-0.5, 0.5))),
                    is_retransmission=rng.random() < 0.5,
                    annotations=dict(rng.choice(NOTES)),
                )
            )
        if rng.random() < 0.1:
            trace.append(
                Packet(
                    timestamp=packet.timestamp + 0.01,
                    direction=Direction.SERVER_TO_CLIENT,
                    five_tuple=_ALIGNED_FLOW,
                    payload=rng.randbytes(rng.randint(0, 900)),
                    sequence_number=rng.randint(0, 2**32),
                )
            )
    rng.shuffle(trace)
    return trace
