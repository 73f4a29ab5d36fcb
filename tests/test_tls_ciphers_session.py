"""Tests for cipher-suite size models, handshake simulation and the TLS session."""

from __future__ import annotations

import pytest

from repro.exceptions import TLSError
from repro.tls.ciphers import CIPHER_SUITES, cipher_by_name, default_cipher
from repro.tls.handshake import simulate_handshake
from repro.tls.records import ContentType, MAX_PLAINTEXT_FRAGMENT, RECORD_HEADER_LENGTH
from repro.tls.session import TLSSession
from repro.utils.rng import RandomSource


class TestCipherSpecs:
    def test_gcm_tls12_overhead_is_24(self):
        cipher = cipher_by_name("TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256")
        assert cipher.ciphertext_length(1000) == 1024
        assert cipher.overhead() == 24

    def test_chacha_overhead_is_16(self):
        cipher = cipher_by_name("TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305_SHA256")
        assert cipher.overhead() == 16

    def test_cbc_pads_to_block(self):
        cipher = cipher_by_name("TLS_ECDHE_RSA_WITH_AES_256_CBC_SHA")
        # CBC output length is a step function of the plaintext length.
        lengths = {cipher.ciphertext_length(size) for size in range(100, 108)}
        assert all(length % 16 == 0 for length in lengths)

    def test_tls13_overhead_is_17(self):
        cipher = cipher_by_name("TLS_AES_128_GCM_SHA256")
        assert cipher.overhead() == 17

    def test_unknown_suite_rejected(self):
        with pytest.raises(TLSError):
            cipher_by_name("TLS_NULL_WITH_NULL_NULL")

    def test_rejects_non_positive_plaintext(self):
        with pytest.raises(TLSError):
            default_cipher().ciphertext_length(0)

    def test_encrypt_length_and_determinism(self):
        cipher = default_cipher()
        ciphertext = cipher.encrypt(b"hello world", 3, "key")
        assert len(ciphertext) == cipher.ciphertext_length(11)
        assert ciphertext == cipher.encrypt(b"hello world", 3, "key")
        assert ciphertext != cipher.encrypt(b"hello world", 4, "key")

    def test_encrypt_rejects_negative_sequence(self):
        with pytest.raises(TLSError):
            default_cipher().encrypt(b"x", -1, "key")

    def test_all_registered_suites_expand(self):
        for cipher in CIPHER_SUITES.values():
            assert cipher.ciphertext_length(500) > 500


class TestHandshake:
    def test_handshake_structure(self):
        entries = simulate_handshake(default_cipher(), RandomSource(1))
        assert entries[0].description == "ClientHello"
        assert entries[0].from_client
        assert any(e.description == "Certificate" and not e.from_client for e in entries)
        assert all(
            e.record.content_type in (ContentType.HANDSHAKE, ContentType.CHANGE_CIPHER_SPEC)
            for e in entries
        )

    def test_handshake_sizes_jitter_but_stay_plausible(self):
        first = simulate_handshake(default_cipher(), RandomSource(1))
        second = simulate_handshake(default_cipher(), RandomSource(2))
        client_hello_sizes = {first[0].record.length, second[0].record.length}
        assert all(500 <= size <= 530 for size in client_hello_sizes)


class TestTLSSession:
    def test_small_payload_single_record(self):
        session = TLSSession(key_id="test")
        records = session.protect(b"x" * 100)
        assert len(records) == 1
        assert records[0].content_type is ContentType.APPLICATION_DATA
        assert records[0].length == session.cipher.ciphertext_length(100)

    def test_large_payload_fragments(self):
        session = TLSSession(key_id="test")
        payload = b"y" * (MAX_PLAINTEXT_FRAGMENT * 2 + 100)
        records = session.protect(payload)
        assert len(records) == 3

    def test_empty_payload_rejected(self):
        with pytest.raises(TLSError):
            TLSSession(key_id="test").protect(b"")

    def test_figure2_calibration_ubuntu_type1(self):
        # A 2183-byte type-1 payload must produce a record in the paper's
        # 2211-2213 band under the default cipher suite.
        (record,) = TLSSession(key_id="calibration").protect(b"z" * 2183)
        assert 2211 <= record.wire_length <= 2213

    def test_different_key_ids_produce_different_ciphertext(self):
        a = TLSSession(key_id="a").protect(b"payload" * 10)[0]
        b = TLSSession(key_id="b").protect(b"payload" * 10)[0]
        assert a.ciphertext != b.ciphertext
        assert a.length == b.length

    @pytest.mark.parametrize("size", [1, 2183, MAX_PLAINTEXT_FRAGMENT])
    def test_wire_length_is_header_plus_cipher_output(self, size):
        session = TLSSession(key_id="a")
        (record,) = session.protect(b"z" * size)
        assert record.wire_length == RECORD_HEADER_LENGTH + session.cipher.ciphertext_length(size)

    def test_fragment_limit_splits_one_byte_over(self):
        session = TLSSession(key_id="a")
        records = session.protect(b"z" * (MAX_PLAINTEXT_FRAGMENT + 1))
        assert [record.length for record in records] == [
            session.cipher.ciphertext_length(MAX_PLAINTEXT_FRAGMENT),
            session.cipher.ciphertext_length(1),
        ]

    def test_sequence_number_carries_across_payloads(self):
        session = TLSSession(key_id="a")
        (first,) = session.protect(b"same payload")
        (second,) = session.protect(b"same payload")
        assert first.ciphertext != second.ciphertext
        assert first.length == second.length

    def test_version_field_is_stamped_on_records(self):
        (record,) = TLSSession(key_id="a", version=0x0301).protect(b"x")
        assert record.version == 0x0301
