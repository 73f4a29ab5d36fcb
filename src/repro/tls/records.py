"""TLS record framing: the 5-byte header and what it reveals.

A TLS record on the wire is::

    +--------------+---------+---------+----------------------+
    | content type | version | length  |      ciphertext      |
    |    1 byte    | 2 bytes | 2 bytes |   ``length`` bytes   |
    +--------------+---------+---------+----------------------+

The header is never encrypted, so a passive observer always learns the
content type, protocol version and — crucially for this paper — the exact
ciphertext length of every record.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

from repro.exceptions import TLSError

RECORD_HEADER_LENGTH = 5
#: TLS forbids plaintext fragments larger than 2**14 bytes.
MAX_PLAINTEXT_FRAGMENT = 16_384
#: Upper bound on the ciphertext length field (2**14 + 2048, RFC 5246).
MAX_CIPHERTEXT_LENGTH = 18_432

_HEADER_STRUCT = struct.Struct("!BHH")


class ContentType(IntEnum):
    """TLS record content types (subset relevant to the simulation)."""

    CHANGE_CIPHER_SPEC = 20
    ALERT = 21
    HANDSHAKE = 22
    APPLICATION_DATA = 23


@dataclass(frozen=True)
class TLSRecord:
    """One TLS record as it appears on the wire.

    Attributes
    ----------
    content_type:
        The record's content type.
    version:
        The legacy protocol version field (0x0303 for TLS 1.2 and for
        TLS 1.3 application records).
    ciphertext:
        The (simulated) encrypted fragment.
    """

    content_type: ContentType
    version: int
    ciphertext: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.content_type, ContentType):
            raise TLSError(f"invalid content type {self.content_type!r}")
        if not 0 <= self.version <= 0xFFFF:
            raise TLSError(f"invalid version field {self.version:#x}")
        if len(self.ciphertext) == 0:
            raise TLSError("a TLS record must carry at least one ciphertext byte")
        if len(self.ciphertext) > MAX_CIPHERTEXT_LENGTH:
            raise TLSError(
                f"ciphertext length {len(self.ciphertext)} exceeds the TLS "
                f"maximum of {MAX_CIPHERTEXT_LENGTH}"
            )

    @property
    def length(self) -> int:
        """Value of the record header's length field (ciphertext bytes)."""
        return len(self.ciphertext)

    @property
    def wire_length(self) -> int:
        """Total bytes the record occupies on the wire (header + ciphertext).

        This is the quantity the paper calls the *SSL record length*: it is
        what an observer measuring the encrypted byte stream sees for each
        record.
        """
        return RECORD_HEADER_LENGTH + self.length

    def serialize(self) -> bytes:
        """Encode the record into its wire representation."""
        header = _HEADER_STRUCT.pack(int(self.content_type), self.version, self.length)
        return header + self.ciphertext

    @classmethod
    def parse_one(cls, data: bytes, offset: int = 0) -> tuple["TLSRecord", int]:
        """Parse a single record starting at ``offset``.

        Returns the record and the offset just past it.  Raises
        :class:`TLSError` on truncation or malformed headers.
        """
        if offset < 0:
            raise TLSError(f"negative parse offset {offset}")
        if len(data) - offset < RECORD_HEADER_LENGTH:
            raise TLSError("truncated TLS record header")
        raw_type, version, length = _HEADER_STRUCT.unpack_from(data, offset)
        try:
            content_type = ContentType(raw_type)
        except ValueError:
            raise TLSError(f"unknown TLS content type {raw_type}") from None
        if length == 0:
            raise TLSError("TLS record declares a zero-length fragment")
        if length > MAX_CIPHERTEXT_LENGTH:
            raise TLSError(f"TLS record declares oversized fragment ({length} bytes)")
        body_start = offset + RECORD_HEADER_LENGTH
        body_end = body_start + length
        if body_end > len(data):
            raise TLSError(
                f"truncated TLS record body: need {length} bytes, "
                f"have {len(data) - body_start}"
            )
        record = cls(
            content_type=content_type,
            version=version,
            ciphertext=bytes(data[body_start:body_end]),
        )
        return record, body_end


def parse_records(data: bytes) -> list[TLSRecord]:
    """Parse a byte stream into consecutive TLS records.

    The whole buffer must be consumed exactly; trailing garbage raises.
    """
    records: list[TLSRecord] = []
    offset = 0
    while offset < len(data):
        record, offset = TLSRecord.parse_one(data, offset)
        records.append(record)
    return records
