"""Reading and writing pcap files (classic libpcap format, no dependencies).

The dataset stores each viewer's capture as a standard pcap so the traces can
be opened in Wireshark/tcpdump and so the attack consumes exactly what a real
eavesdropper would: frames and timestamps, nothing more.

Format reference: the classic 24-byte global header (magic 0xa1b2c3d4,
microsecond timestamps) followed by per-packet records of a 16-byte header
(seconds, microseconds, captured length, original length) and the frame bytes.
Both byte orders are accepted on read — a capture written on a big-endian
machine stores the magic byte-swapped relative to ours.

Writing has two entries.  :meth:`PcapWriter.write` appends one record and
is the definition of the record format; :meth:`PcapWriter.write_records`
appends records a caller has already encoded the same way — the batch path
of :func:`repro.net.columnar.encode_tcp_frames`, which
:meth:`CapturedTrace.to_pcap` uses and which property tests pin to
``write`` byte for byte.

Reading is built for the attack's hot path: the file is memory-mapped once
and every packet header is decoded in a single vectorized numpy pass, so a
capture costs one sequential scan instead of a per-packet
``struct.unpack``/``bytes()`` copy loop.  Two views sit on top of that scan:

* :meth:`PcapReader.read` — the classic packet iterator, now yielding
  zero-copy :class:`PcapPacket` frames (memoryviews into the mapping).
* :meth:`PcapReader.read_columns` — the columnar fast path: one
  :class:`PcapColumns` holding timestamp/length arrays plus frame views,
  ready for the batch kernels in :mod:`repro.core.kernel`.

A caller that needs the file's bytes for more than the decode maps it
itself (:func:`map_capture`) and hands the mapping to ``read_columns``, so
one mapping serves both.  The attack does this to fingerprint a capture
while decoding it: :class:`BufferFingerprint` hashes the mapping on a
helper thread, and :func:`file_fingerprint` is the same SHA-256 digest from
bounded block reads, for captures that are not decoded.

The mapping stays alive for as long as any view into it does (the columns,
a yielded frame, …) and is released by reference counting — no explicit
close, no dangling buffers.  Callers that need frames to outlive every view
copy them with ``bytes(packet.frame)``.
"""

from __future__ import annotations

import hashlib
import math
import mmap
import struct
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.exceptions import PcapError

PCAP_MAGIC = 0xA1B2C3D4
PCAP_MAGIC_SWAPPED = 0xD4C3B2A1
LINKTYPE_ETHERNET = 1
#: The snapshot length a :class:`PcapWriter` truncates frames to by default.
DEFAULT_SNAPLEN = 65_535

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_PACKET_HEADER = struct.Struct("<IIII")


@dataclass(frozen=True)
class PcapPacket:
    """One packet record read from (or destined for) a pcap file.

    ``frame`` is a zero-copy memoryview into the reader's file mapping when
    the packet came from :class:`PcapReader`; callers that keep frames
    around copy it to owned ``bytes``.
    """

    timestamp: float
    frame: bytes | memoryview
    original_length: int | None = None

    @property
    def captured_length(self) -> int:
        """Bytes actually stored in the file."""
        return len(self.frame)


@dataclass(frozen=True)
class PcapColumns:
    """Columnar view of one pcap file: arrays for headers, views for frames.

    All arrays share the packet index; :meth:`frame` slices the underlying
    file mapping without copying.  The mapping is kept alive by ``data``
    (and by any frame view derived from it), so the columns can outlive the
    :class:`PcapReader` that produced them.
    """

    path: Path
    timestamps: np.ndarray = field(repr=False)
    captured_lengths: np.ndarray = field(repr=False)
    original_lengths: np.ndarray = field(repr=False)
    frame_offsets: np.ndarray = field(repr=False)
    data: memoryview = field(repr=False)

    @property
    def packet_count(self) -> int:
        """Number of packet records in the file."""
        return int(self.timestamps.size)

    def __len__(self) -> int:
        return self.packet_count

    def frame(self, index: int) -> memoryview:
        """Zero-copy view of packet ``index``'s captured frame bytes."""
        offset = int(self.frame_offsets[index])
        return self.data[offset : offset + int(self.captured_lengths[index])]

    def iter_packets(self) -> Iterator[PcapPacket]:
        """Yield :class:`PcapPacket` records (frames as zero-copy views)."""
        timestamps = self.timestamps.tolist()
        offsets = self.frame_offsets.tolist()
        captured = self.captured_lengths.tolist()
        originals = self.original_lengths.tolist()
        for timestamp, offset, length, original in zip(
            timestamps, offsets, captured, originals
        ):
            yield PcapPacket(
                timestamp=timestamp,
                frame=self.data[offset : offset + length],
                original_length=original,
            )


class PcapWriter:
    """Streaming pcap writer.

    Usage::

        with PcapWriter(path) as writer:
            writer.write(timestamp, frame_bytes)
    """

    def __init__(self, path: str | Path, snaplen: int = DEFAULT_SNAPLEN) -> None:
        if snaplen <= 0:
            raise PcapError(f"snaplen must be positive, got {snaplen}")
        self._path = Path(path)
        self._snaplen = snaplen
        self._handle = None
        self._count = 0

    def __enter__(self) -> "PcapWriter":
        self._handle = open(self._path, "wb")
        header = _GLOBAL_HEADER.pack(
            PCAP_MAGIC, 2, 4, 0, 0, self._snaplen, LINKTYPE_ETHERNET
        )
        self._handle.write(header)
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    @property
    def packets_written(self) -> int:
        """Number of packet records emitted so far."""
        return self._count

    @property
    def snaplen(self) -> int:
        """Longest frame stored whole; :meth:`write` truncates longer ones."""
        return self._snaplen

    def write(self, timestamp: float, frame: bytes) -> None:
        """Append one packet record."""
        if self._handle is None:
            raise PcapError("PcapWriter must be used as a context manager")
        # The chained comparison also rejects NaN and infinities.
        if not 0 <= timestamp < math.inf:
            raise PcapError(f"timestamp must be finite and non-negative, got {timestamp}")
        if not frame:
            raise PcapError("cannot write an empty frame")
        seconds = int(timestamp)
        microseconds = int(round((timestamp - seconds) * 1_000_000))
        if microseconds >= 1_000_000:
            seconds += 1
            microseconds -= 1_000_000
        if seconds > 0xFFFFFFFF:
            raise PcapError(
                f"timestamp {timestamp} overflows the record header's 32-bit seconds"
            )
        captured = frame[: self._snaplen]
        self._handle.write(
            _PACKET_HEADER.pack(seconds, microseconds, len(captured), len(frame))
        )
        self._handle.write(captured)
        self._count += 1

    def write_records(self, records: bytes, count: int) -> None:
        """Append ``count`` packet records already encoded as :meth:`write`
        would encode them (see :func:`repro.net.columnar.encode_tcp_frames`)."""
        if self._handle is None:
            raise PcapError("PcapWriter must be used as a context manager")
        self._handle.write(records)
        self._count += count


class PcapReader:
    """Iterates over the packet records of a pcap file.

    The file is memory-mapped and all packet headers decode in one
    vectorized pass (:meth:`read_columns`); :meth:`read` is a thin iterator
    over those columns yielding zero-copy frames.
    """

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)

    def __iter__(self) -> Iterator[PcapPacket]:
        return self.read()

    def read_columns(self, data: memoryview | None = None) -> PcapColumns:
        """Decode every packet header into columnar arrays in one pass.

        The sequential part of the scan is minimal by construction: packet
        records chain through their captured-length field, so one pass hops
        record to record reading only that field (validating truncation on
        the way); the remaining header fields then decode in a single
        vectorized gather over all records at once.

        ``data`` is the file's bytes as the caller already mapped them
        (:func:`map_capture`); without it the file is mapped here.  Either
        way the result and every error are the same.
        """
        if data is None:
            data = map_capture(self._path)
        size = len(data)
        if size < _GLOBAL_HEADER.size:
            raise PcapError(f"{self._path} is too short to be a pcap file")
        magic = struct.unpack_from("<I", data)[0]
        if magic == PCAP_MAGIC:
            byteorder, word_dtype = "little", "<u4"
        elif magic == PCAP_MAGIC_SWAPPED:
            byteorder, word_dtype = "big", ">u4"
        else:
            raise PcapError(f"{self._path} has unknown pcap magic {magic:#x}")
        linktype = int.from_bytes(data[20:24], byteorder)
        if linktype != LINKTYPE_ETHERNET:
            raise PcapError(f"unsupported link type {linktype}")
        # The record-to-record hop is the only sequential part of the scan;
        # keep its per-iteration cost minimal (one unpack_from, no slicing).
        header_offsets: list[int] = []
        append = header_offsets.append
        read_caplen = struct.Struct("<I" if byteorder == "little" else ">I").unpack_from
        header_size = _PACKET_HEADER.size
        offset = _GLOBAL_HEADER.size
        while size - offset >= header_size:
            (captured_length,) = read_caplen(data, offset + 8)
            next_offset = offset + header_size + captured_length
            if next_offset > size:
                raise PcapError(f"{self._path} ends with a truncated packet body")
            append(offset)
            offset = next_offset
        if offset != size:
            raise PcapError(f"{self._path} ends with a truncated packet header")
        offsets = np.asarray(header_offsets, dtype=np.int64)
        raw = np.frombuffer(data, dtype=np.uint8)
        fields = (
            raw[offsets[:, None] + np.arange(_PACKET_HEADER.size)]
            .view(word_dtype)
            .astype(np.int64)
        )
        timestamps = (
            fields[:, 0].astype(np.float64) + fields[:, 1].astype(np.float64) / 1e6
        )
        return PcapColumns(
            path=self._path,
            timestamps=timestamps,
            captured_lengths=fields[:, 2],
            original_lengths=fields[:, 3],
            frame_offsets=offsets + _PACKET_HEADER.size,
            data=data,
        )

    def read(self) -> Iterator[PcapPacket]:
        """Yield every packet record in file order.

        Frames are zero-copy views into one shared file mapping — iterating
        a capture holds one mapping, not the whole file plus a copy of every
        frame.  Copy a frame with ``bytes(packet.frame)`` to keep it after
        the last view is dropped.
        """
        yield from self.read_columns().iter_packets()


def map_capture(path: str | Path) -> memoryview:
    """The whole file as a read-only memory mapping (an empty file maps to
    an empty view, which no pcap decode accepts)."""
    try:
        with open(path, "rb") as handle:
            try:
                return memoryview(
                    mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
                )
            except ValueError:
                # mmap refuses empty files.
                return memoryview(b"")
    except OSError as error:
        raise PcapError(f"cannot read pcap file {path}: {error}") from error


def file_fingerprint(path: str | Path) -> str:
    """SHA-256 hex digest of a file, read in bounded 1 MiB blocks.

    Raises ``OSError`` when the file cannot be read.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class BufferFingerprint:
    """SHA-256 hex digest of a buffer, computed on a helper thread.

    ``hashlib`` releases the GIL for the length of one ``update`` over a
    large buffer, so the digest runs on a second core while the starting
    thread decodes the same bytes.  The thread starts on construction;
    :meth:`result` joins it.  Call ``result`` before the buffer is released
    (a ``finally`` does), so no thread outlives the step that started it.
    The digest equals :func:`file_fingerprint` of the file the buffer maps.
    """

    def __init__(self, data: memoryview) -> None:
        self._digest: str | None = None
        self._thread = threading.Thread(
            target=self._hash, args=(data,), name="capture-fingerprint"
        )
        self._thread.start()

    def _hash(self, data: memoryview) -> None:
        self._digest = hashlib.sha256(data).hexdigest()

    def result(self) -> str:
        """Wait for the digest and return it."""
        self._thread.join()
        if self._digest is None:
            raise PcapError("the capture fingerprint thread failed")
        return self._digest


def read_pcap_columns(path: str | Path) -> PcapColumns:
    """Columnar fast path over a pcap file (see :meth:`PcapReader.read_columns`)."""
    return PcapReader(path).read_columns()
