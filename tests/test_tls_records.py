"""Tests for TLS record framing."""

from __future__ import annotations

import pytest

from repro.core.kernel import tls_record_spans
from repro.exceptions import TLSError
from repro.tls.records import (
    MAX_CIPHERTEXT_LENGTH,
    RECORD_HEADER_LENGTH,
    ContentType,
    TLSRecord,
    parse_records,
)


def _record(size: int, content: ContentType = ContentType.APPLICATION_DATA) -> TLSRecord:
    return TLSRecord(content_type=content, version=0x0303, ciphertext=b"\xaa" * size)


class TestTLSRecord:
    def test_lengths(self):
        record = _record(100)
        assert record.length == 100
        assert record.wire_length == 105

    def test_serialize_parse_roundtrip(self):
        record = _record(64, ContentType.HANDSHAKE)
        parsed, consumed = TLSRecord.parse_one(record.serialize())
        assert consumed == record.wire_length
        assert parsed == record

    def test_rejects_empty_ciphertext(self):
        with pytest.raises(TLSError):
            TLSRecord(ContentType.APPLICATION_DATA, 0x0303, b"")

    def test_rejects_oversized_ciphertext(self):
        with pytest.raises(TLSError):
            TLSRecord(ContentType.APPLICATION_DATA, 0x0303, b"x" * (MAX_CIPHERTEXT_LENGTH + 1))

    def test_rejects_bad_version(self):
        with pytest.raises(TLSError):
            TLSRecord(ContentType.APPLICATION_DATA, -1, b"x")

    def test_parse_truncated_header(self):
        with pytest.raises(TLSError):
            TLSRecord.parse_one(b"\x17\x03")

    def test_parse_truncated_body(self):
        data = _record(50).serialize()[:-10]
        with pytest.raises(TLSError):
            TLSRecord.parse_one(data)

    def test_parse_unknown_content_type(self):
        data = bytearray(_record(10).serialize())
        data[0] = 99
        with pytest.raises(TLSError):
            TLSRecord.parse_one(bytes(data))

    def test_parse_one_from_an_offset(self):
        first, second = _record(10), _record(30, ContentType.HANDSHAKE)
        stream = first.serialize() + second.serialize()
        parsed, end = TLSRecord.parse_one(stream, first.wire_length)
        assert parsed == second
        assert end == len(stream)

    def test_parse_negative_offset_rejected(self):
        with pytest.raises(TLSError):
            TLSRecord.parse_one(_record(10).serialize(), -1)

    def test_parse_zero_length_fragment_rejected(self):
        data = bytearray(_record(10).serialize())
        data[3:5] = b"\x00\x00"
        with pytest.raises(TLSError):
            TLSRecord.parse_one(bytes(data))


class TestStreamParsing:
    def test_parse_records_consumes_whole_stream(self):
        records = [_record(10), _record(200, ContentType.HANDSHAKE), _record(3000)]
        stream = b"".join(record.serialize() for record in records)
        parsed = parse_records(stream)
        assert parsed == records

    def test_parse_records_rejects_trailing_garbage(self):
        stream = _record(10).serialize() + b"\x17\x03"
        with pytest.raises(TLSError):
            parse_records(stream)


def _with_length_field(record: TLSRecord, value: int) -> bytes:
    data = bytearray(record.serialize())
    data[3:5] = value.to_bytes(2, "big")
    return bytes(data)


class TestRecordSpans:
    """The array framer the capture decoder uses, against the scalar parser."""

    def test_spans_match_parsed_wire_lengths(self):
        records = [_record(10), _record(555, ContentType.HANDSHAKE), _record(2184)]
        stream = b"".join(record.serialize() for record in records)
        starts, wire_lengths, content_types = tls_record_spans(stream)
        assert wire_lengths.tolist() == [r.wire_length for r in parse_records(stream)]
        assert starts.tolist() == [0, 15, 15 + 560]
        assert content_types.tolist() == [int(r.content_type) for r in records]

    def test_spans_never_read_the_payload(self):
        # Corrupting ciphertext bytes must not affect the observed lengths.
        record = _record(100)
        stream = bytearray(record.serialize())
        stream[RECORD_HEADER_LENGTH:] = b"\x00" * 100
        _, wire_lengths, _ = tls_record_spans(bytes(stream))
        assert wire_lengths.tolist() == [record.wire_length]

    def test_trailing_partial_record_is_dropped(self):
        stream = _record(20).serialize() + _record(50).serialize()[:-1]
        _, wire_lengths, _ = tls_record_spans(stream)
        assert wire_lengths.tolist() == [25]

    def test_empty_stream_has_no_spans(self):
        starts, wire_lengths, content_types = tls_record_spans(b"")
        assert starts.size == wire_lengths.size == content_types.size == 0

    def test_zero_length_fragment_loses_framing(self):
        assert tls_record_spans(_with_length_field(_record(10), 0)) is None

    def test_oversized_fragment_loses_framing(self):
        stream = _with_length_field(_record(10), MAX_CIPHERTEXT_LENGTH + 1)
        assert tls_record_spans(stream) is None
