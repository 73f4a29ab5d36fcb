"""Hypothesis strategies for captures: TLS-over-TCP sessions as pcap bytes.

A generated :class:`Capture` holds the streaming connection (an uplink TLS
record stream cut into segments, plus downlink data), optional
cross-traffic connections, and per-frame hostility: IP and TCP options,
IP fragment bits (MF or a fragment offset), Ethernet padding, snaplen
truncation, frames that are not IPv4/TCP (VLAN,
ARP, IPv6, UDP) and frames ``Packet.parse_frame`` rejects (TTL 0, port 0,
IHL < 5, version != 4, data offset < 5, total length < 20).  Captures are
written in either pcap byte order, and the attack's address arguments may
be canonical, non-canonical, or absent from the capture.

Frames are built with ``struct`` rather than ``Packet.serialize_frame`` so
every header field can be set to a value the library itself never writes.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from pathlib import Path

from hypothesis import strategies as st

CLIENT_IP = "192.168.1.23"
SERVER_IP = "198.51.100.7"
OTHER_IPS = ("203.0.113.9", "203.0.113.10")

#: Frame changes ``parse_frame`` copes with.
BENIGN = (
    "ip_options", "tcp_options", "ip_fragment", "padding", "snaplen",
    "short_total_length",
)
#: Frames that are not IPv4/TCP: ``parse_frame`` returns ``None`` for them.
FOREIGN = ("vlan", "arp", "ipv6", "udp")
#: Frames ``parse_frame`` raises on.
REJECTED = (
    "ttl0", "port0", "ihl_small", "version", "doff_small", "tiny_total_length",
    "cut_headers",
)

_ETHERTYPES = {"vlan": 0x8100, "arp": 0x0806, "ipv6": 0x86DD}


@dataclass(frozen=True)
class Segment:
    """One TCP segment before framing."""

    micros: int
    source: str
    destination: str
    source_port: int
    destination_port: int
    sequence: int
    payload: bytes


@dataclass(frozen=True)
class Capture:
    """A generated capture and the addresses the attack is given."""

    #: ``(timestamp in microseconds, captured bytes, original length)``.
    frames: tuple[tuple[int, bytes, int], ...]
    byteorder: str
    client_ip: str
    server_ip: str | None

    def pcap_bytes(self) -> bytes:
        """The capture as a classic pcap in its byte order."""
        order = self.byteorder
        chunks = [struct.pack(f"{order}IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65_535, 1)]
        for micros, frame, original in self.frames:
            seconds, fraction = divmod(micros, 1_000_000)
            chunks.append(struct.pack(f"{order}IIII", seconds, fraction, len(frame), original))
            chunks.append(frame)
        return b"".join(chunks)

    def write(self, path: Path) -> Path:
        """Write :meth:`pcap_bytes` to ``path``."""
        path.write_bytes(self.pcap_bytes())
        return path


def _ip_bytes(address: str) -> bytes:
    return bytes(int(part) for part in address.split("."))


def build_frame(
    segment: Segment, change: str | None, rng: random.Random
) -> tuple[bytes, int]:
    """Captured Ethernet + IPv4 + TCP frame bytes for ``segment`` with one
    change, and the frame's original length on the wire."""
    ip_options = bytes(4 * rng.randint(1, 10)) if change == "ip_options" else b""
    tcp_options = bytes(4 * rng.randint(1, 10)) if change == "tcp_options" else b""
    ihl = 5 + len(ip_options) // 4
    data_offset = 5 + len(tcp_options) // 4
    total_length = 4 * ihl + 4 * data_offset + len(segment.payload)
    if change == "short_total_length":
        total_length = rng.randint(20, total_length)
    elif change == "tiny_total_length":
        total_length = rng.randint(0, 19)
    if change == "ihl_small":
        ihl = rng.randint(0, 4)
    if change == "doff_small":
        data_offset = rng.randint(0, 4)
    version = rng.choice((0, 6, 15)) if change == "version" else 4
    ttl = 0 if change == "ttl0" else 64
    protocol = 17 if change == "udp" else 6
    # Flags + fragment offset: DF, or a fragment (MF and/or an offset).
    # Neither decoder reassembles, so a fragment reads as a whole segment.
    fragment_word = 0x4000
    if change == "ip_fragment":
        more_fragments = rng.choice((0x2000, 0))
        fragment_word = more_fragments | rng.randint(
            0 if more_fragments else 1, 0x1FFF
        )
    source_port, destination_port = segment.source_port, segment.destination_port
    if change == "port0":
        if rng.random() < 0.5:
            source_port = 0
        else:
            destination_port = 0
    ethernet = b"\x02\x00\x00\x00\x00\x02\x02\x00\x00\x00\x00\x01" + struct.pack(
        "!H", _ETHERTYPES.get(change, 0x0800)
    )
    ip = struct.pack(
        "!BBHHHBBH4s4s",
        (version << 4) | ihl,
        0,
        total_length & 0xFFFF,
        segment.sequence & 0xFFFF,
        fragment_word,
        ttl,
        protocol,
        0,
        _ip_bytes(segment.source),
        _ip_bytes(segment.destination),
    )
    tcp = struct.pack(
        "!HHIIBBHHH",
        source_port,
        destination_port,
        segment.sequence & 0xFFFFFFFF,
        0,
        data_offset << 4,
        0x18,
        65_535,
        0,
        0,
    )
    frame = ethernet + ip + ip_options + tcp + tcp_options + segment.payload
    if change == "padding":
        frame += bytes(rng.randint(1, 40))
    original = len(frame)
    if change == "snaplen":
        frame = frame[: rng.randint(54, len(frame))]
    if change == "cut_headers":
        frame = frame[: rng.randint(0, 53)]
    return frame, original


@st.composite
def tls_streams(draw, min_records: int = 0, max_records: int = 8) -> bytes:
    """A TLS record stream; sometimes with a record whose framing is lost."""
    records = draw(
        st.lists(
            st.tuples(st.sampled_from((23, 23, 23, 22, 20, 21)), st.integers(1, 600)),
            min_size=min_records,
            max_size=max_records,
        )
    )
    stream = b"".join(
        bytes((content_type, 3, 3)) + length.to_bytes(2, "big") + bytes(length)
        for content_type, length in records
    )
    if draw(st.sampled_from((False,) * 9 + (True,))):
        cut = draw(st.integers(0, len(stream)))
        stream = stream[:cut] + b"\x17\x03\x03\x00\x00" + stream[cut:]
    return stream


def _cut(stream: bytes, base: int, rng: random.Random) -> list[tuple[int, bytes]]:
    """Split a stream into contiguous ``(sequence, payload)`` segments."""
    segments: list[tuple[int, bytes]] = []
    offset = 0
    while offset < len(stream):
        take = rng.randint(1, min(900, len(stream) - offset))
        segments.append((base + offset, stream[offset : offset + take]))
        offset += take
    return segments


def _damage(
    segments: list[tuple[int, bytes]],
    stream: bytes,
    base: int,
    damage: frozenset[str],
    rng: random.Random,
) -> list[tuple[int, bytes]]:
    """Add retransmissions, overlaps and gaps to a segment list."""
    damaged = list(segments)
    if not segments:
        return damaged
    for _ in range(rng.randint(1, 3)):
        sequence, payload = rng.choice(segments)
        if "duplicate" in damage:
            damaged.append((sequence, payload))
        if "resized_duplicate" in damage:
            start = sequence - base
            damaged.append((sequence, stream[start : start + rng.randint(1, 900)]))
        if "overlap" in damage and len(payload) > 1:
            shift = rng.randint(1, len(payload) - 1)
            start = sequence - base + shift
            damaged.append((sequence + shift, stream[start : start + rng.randint(1, 900)]))
    if "gap" in damage and len(damaged) > 1:
        damaged.remove(rng.choice(damaged))
    if "empty" in damage:
        damaged.append((rng.choice(segments)[0], b""))
    return damaged


@dataclass(frozen=True)
class _Flow:
    client_port: int
    server: str
    server_port: int
    uplink: list[tuple[int, bytes]]
    downlink: list[tuple[int, bytes]]


@st.composite
def captures(
    draw,
    damage: st.SearchStrategy[frozenset[str]] | None = None,
    hostile: bool = True,
    min_records: int = 1,
    cross_traffic: bool = True,
) -> Capture:
    """A capture of one streaming connection plus optional cross traffic.

    ``damage`` draws which uplink damages apply (``duplicate``,
    ``resized_duplicate``, ``overlap``, ``gap``, ``empty``); ``hostile``
    allows per-frame changes and non-canonical addresses; ``min_records``
    bounds the streaming connection's uplink record count from below;
    ``cross_traffic`` allows other connections, some to the same server.
    """
    rng = draw(st.randoms(use_true_random=True))
    if damage is None:
        damage = st.frozensets(
            st.sampled_from(("duplicate", "resized_duplicate", "overlap", "gap", "empty"))
        )
    # Downlink sizes come from a short list so connections often tie.
    sizes = st.sampled_from((0, 700, 1400, 3000))
    base = draw(st.integers(0, 2**32 - 70_000))
    stream = draw(tls_streams(min_records=min_records))
    main = _Flow(
        client_port=draw(st.integers(40_000, 40_010)),
        server=SERVER_IP,
        server_port=443,
        uplink=_damage(_cut(stream, base, rng), stream, base, draw(damage), rng),
        downlink=_cut(bytes(draw(sizes)), draw(st.integers(0, 2**31)), rng),
    )
    flows = [main]
    for _ in range(draw(st.integers(0, 3)) if cross_traffic else 0):
        other_stream = draw(tls_streams(min_records=1, max_records=3))
        other_base = draw(st.integers(0, 2**31))
        flows.append(
            _Flow(
                client_port=draw(st.integers(40_000, 40_010)),
                server=draw(st.sampled_from((*OTHER_IPS, SERVER_IP))),
                server_port=draw(st.sampled_from((443, 8443))),
                uplink=_cut(other_stream, other_base, rng),
                downlink=_cut(bytes(draw(sizes)), draw(st.integers(0, 2**31)), rng),
            )
        )
    segments: list[Segment] = []
    for flow in flows:
        for sequence, payload in flow.uplink:
            segments.append(
                Segment(rng.randint(0, 10**8), CLIENT_IP, flow.server,
                        flow.client_port, flow.server_port, sequence, payload)
            )
        for sequence, payload in flow.downlink:
            segments.append(
                Segment(rng.randint(0, 10**8), flow.server, CLIENT_IP,
                        flow.server_port, flow.client_port, sequence, payload)
            )
    if draw(st.booleans()):
        segments.sort(key=lambda segment: segment.micros)
    else:
        rng.shuffle(segments)
    changes: dict[int, str] = {}
    hostility = draw(st.sampled_from(("none", "benign", "benign", "foreign", "rejected")))
    if hostile and segments and hostility != "none":
        everywhere = sorted(draw(st.sets(st.sampled_from(BENIGN), min_size=1, max_size=2)))
        for index in range(len(segments)):
            if rng.random() < 0.3:
                changes[index] = rng.choice(everywhere)
        if hostility != "benign":
            rare = FOREIGN if hostility == "foreign" else REJECTED
            changes[rng.randrange(len(segments))] = draw(st.sampled_from(rare))
    frames = [
        (segment.micros, *build_frame(segment, changes.get(index), rng))
        for index, segment in enumerate(segments)
    ]
    if hostile:
        # Mostly the addresses a healthy attack is given; sometimes a
        # non-canonical spelling or an address the capture does not hold.
        client_ip = draw(st.sampled_from((CLIENT_IP,) * 6 + ("192.168.001.23", "10.0.0.1")))
        server_ip = draw(
            st.sampled_from(
                (None,) * 3 + (SERVER_IP,) * 3 + ("198.51.100.07", OTHER_IPS[0], "10.9.9.9")
            )
        )
    else:
        client_ip = CLIENT_IP
        server_ip = draw(st.sampled_from((None, SERVER_IP)))
    return Capture(
        frames=tuple(frames),
        byteorder=draw(st.sampled_from(("<", ">"))),
        client_ip=client_ip,
        server_ip=server_ip,
    )
