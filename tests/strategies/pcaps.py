"""Hypothesis strategies for whole capture files, malformed ones included.

:func:`malformed_pcaps` damages a generated valid capture in one of the ways
a pcap reader must reject, and names the damage together with the start of
the ``PcapError`` message the reader raises for it.  :func:`write_pcap` and
:func:`read_pcap` write and read whole files for example-based tests.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Iterable

from hypothesis import assume, strategies as st

from repro.net.pcap import PcapPacket, PcapReader, PcapWriter

from strategies.frames import captures

#: Each damage and how the reader's ``PcapError`` message for it starts
#: (``{path}`` stands for the file's path).
MALFORMED = {
    "empty": "{path} is too short to be a pcap file",
    "short": "{path} is too short to be a pcap file",
    "bad_magic": "{path} has unknown pcap magic",
    "link_type": "unsupported link type",
    "truncated_header": "{path} ends with a truncated packet header",
    "truncated_body": "{path} ends with a truncated packet body",
}

_MAGICS = (0xA1B2C3D4, 0xD4C3B2A1)


@st.composite
def malformed_pcaps(draw) -> tuple[str, bytes]:
    """``(damage, file bytes)`` for one damage of :data:`MALFORMED`."""
    damage = draw(st.sampled_from(sorted(MALFORMED)))
    capture = draw(captures(hostile=False, cross_traffic=False))
    valid = capture.pcap_bytes()
    order = capture.byteorder
    if damage == "empty":
        return damage, b""
    if damage == "short":
        return damage, valid[: draw(st.integers(1, 23))]
    if damage == "bad_magic":
        magic = draw(st.integers(0, 2**32 - 1).filter(lambda value: value not in _MAGICS))
        return damage, struct.pack("<I", magic) + valid[4:]
    if damage == "link_type":
        link = draw(st.integers(0, 2**32 - 1).filter(lambda value: value != 1))
        return damage, valid[:20] + struct.pack(f"{order}I", link) + valid[24:]
    if damage == "truncated_header":
        # A whole file followed by the first 1-15 bytes of a record header.
        partial = struct.pack(f"{order}IIII", 1, 0, 64, 64)[: draw(st.integers(1, 15))]
        return damage, valid + partial
    # truncated_body: cut into the last frame, keeping its record header.
    assume(capture.frames)
    last_frame = capture.frames[-1][1]
    return damage, valid[: -draw(st.integers(1, len(last_frame)))]


def write_pcap(path: str | Path, packets: Iterable[tuple[float, bytes]]) -> int:
    """Write ``(timestamp, frame)`` pairs to ``path``; return the packet count."""
    with PcapWriter(path) as writer:
        for timestamp, frame in packets:
            writer.write(timestamp, frame)
        return writer.packets_written


def read_pcap(path: str | Path) -> list[PcapPacket]:
    """Read a whole pcap file into memory (frames as owned ``bytes``)."""
    return [
        PcapPacket(
            timestamp=packet.timestamp,
            frame=bytes(packet.frame),
            original_length=packet.original_length,
        )
        for packet in PcapReader(path).read()
    ]
