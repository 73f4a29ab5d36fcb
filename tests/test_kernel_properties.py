"""Property tests pinning the vectorized kernels to their scalar oracles.

Every batch kernel replaced a per-record Python loop; these tests replay
seeded-random inputs — including the adversarial shapes the kernels must not
get wrong: band edges, adjacent and overlapping intervals, fallback values,
records split across packets at awkward boundaries — through both paths and
require *exact* equality.  The kernels are never allowed to be
"approximately" the attack.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import kernel
from repro.core.features import (
    LABEL_OTHER,
    LABEL_TYPE1,
    LABEL_TYPE2,
    _column_records,
    _extract_records_scalar,
)
from repro.core.fingerprint import (
    FingerprintLibrary,
    LengthBand,
    RecordLengthFingerprint,
)
from repro.ml.interval import IntervalClassifier
from repro.net.columnar import TcpSegments
from repro.net.endpoints import Endpoint, FiveTuple
from repro.net.packet import Direction, Packet
from repro.tls.records import MAX_CIPHERTEXT_LENGTH, RECORD_HEADER_LENGTH

SEED = 0x5EED


def _random_fingerprint(rng: random.Random, margin: int) -> RecordLengthFingerprint:
    """A random non-overlapping (possibly adjacent) pair of widened bands."""
    while True:
        low1 = rng.randint(margin + 1, 600)
        high1 = low1 + rng.randint(0, 40)
        # Sometimes exactly adjacent after widening, sometimes far away.
        gap = rng.choice([2 * margin + 1, 2 * margin + 1, rng.randint(2 * margin + 1, 400)])
        low2 = high1 + gap
        high2 = low2 + rng.randint(0, 40)
        try:
            return RecordLengthFingerprint(
                condition_key=f"env-{low1}-{low2}",
                type1_band=LengthBand(low1, high1).widened(margin),
                type2_band=LengthBand(low2, high2).widened(margin),
                training_records=1 + rng.randint(0, 50),
            )
        except Exception:
            continue


def _edge_heavy_lengths(
    rng: random.Random, fingerprint: RecordLengthFingerprint, count: int
) -> list[int]:
    """Random lengths biased onto the band edges, where off-by-ones live."""
    edges = [
        fingerprint.type1_band.low,
        fingerprint.type1_band.high,
        fingerprint.type2_band.low,
        fingerprint.type2_band.high,
    ]
    lengths = []
    for _ in range(count):
        mode = rng.random()
        if mode < 0.5:
            lengths.append(max(1, rng.choice(edges) + rng.randint(-2, 2)))
        else:
            lengths.append(rng.randint(RECORD_HEADER_LENGTH + 1, 2_000))
    return lengths


class TestBandClassification:
    def test_kernel_matches_classify_length_oracle(self):
        rng = random.Random(SEED)
        for _ in range(50):
            margin = rng.randint(0, 10)
            fingerprint = _random_fingerprint(rng, margin)
            lengths = _edge_heavy_lengths(rng, fingerprint, 200)
            expected = [fingerprint.classify_length(length) for length in lengths]
            assert fingerprint.classify_lengths(lengths) == expected
            assert (
                fingerprint.classify_lengths(np.asarray(lengths, dtype=np.int64))
                == expected
            )

    def test_library_batch_matches_per_environment_oracle(self):
        rng = random.Random(SEED + 1)
        library = FingerprintLibrary()
        fingerprints = [_random_fingerprint(rng, rng.randint(0, 8)) for _ in range(7)]
        for fingerprint in fingerprints:
            library.add(fingerprint)
        lengths = [
            value
            for fingerprint in fingerprints
            for value in _edge_heavy_lengths(rng, fingerprint, 100)
        ]
        batched = library.classify_lengths(lengths)
        assert set(batched) == set(library.condition_keys)
        for condition_key, labels in batched.items():
            fingerprint = library.get(condition_key)
            assert labels == [fingerprint.classify_length(length) for length in lengths]

    def test_empty_batch(self):
        rng = random.Random(SEED + 2)
        fingerprint = _random_fingerprint(rng, 2)
        assert fingerprint.classify_lengths([]) == []
        assert fingerprint.classify([]) == []

    def test_overlapping_bands_honour_priority_order(self):
        # RecordLengthFingerprint forbids overlap, so pin the raw kernel's
        # precedence against a local first-hit oracle on overlapping and
        # duplicated intervals directly.
        rng = random.Random(SEED + 3)
        for _ in range(50):
            band_count = rng.randint(1, 6)
            bands = []
            for _ in range(band_count):
                low = rng.randint(1, 100)
                bands.append((low, low + rng.randint(0, 80)))
            if rng.random() < 0.5:
                bands.append(rng.choice(bands))  # exact duplicate interval
            values = [rng.randint(1, 220) for _ in range(300)]
            codes = kernel.classify_codes(values, bands).tolist()
            for value, code in zip(values, codes):
                expected = 0
                for position, (low, high) in enumerate(bands):
                    if low <= value <= high:
                        expected = position + 1
                        break
                assert code == expected


class TestIntervalClassifier:
    def _random_fitted(self, rng: random.Random) -> tuple[IntervalClassifier, int]:
        class_count = rng.randint(2, 6)
        values, labels = [], []
        for index in range(class_count):
            center = rng.randint(10, 500)
            for _ in range(rng.randint(1, 20)):
                values.append(center + rng.randint(-5, 5))
                labels.append(f"class-{index}")
        classifier = IntervalClassifier(margin=float(rng.randint(0, 6)))
        classifier.fit(np.asarray(values, dtype=float).reshape(-1, 1), labels)
        return classifier, max(values)

    def test_predict_matches_scalar_oracle(self):
        rng = random.Random(SEED + 4)
        for _ in range(50):
            classifier, top = self._random_fitted(rng)
            # Overlapping intervals arise naturally from nearby centers; the
            # fallback fires for values beyond every interval.
            queries = np.asarray(
                [rng.randint(0, top + 50) for _ in range(300)], dtype=float
            ).reshape(-1, 1)
            vectorized = classifier.predict(queries)
            scalar = classifier._predict_scalar(queries)
            assert vectorized.tolist() == scalar.tolist()

    def test_fallback_label(self):
        classifier = IntervalClassifier(margin=0.0, fallback_label="none-of-the-above")
        classifier.fit(
            np.asarray([10.0, 11.0, 30.0], dtype=float).reshape(-1, 1),
            ["a", "a", "b"],
        )
        predictions = classifier.predict(
            np.asarray([10.5, 30.0, 999.0], dtype=float).reshape(-1, 1)
        )
        assert predictions.tolist() == ["a", "b", "none-of-the-above"]
        assert (
            classifier._predict_scalar(
                np.asarray([999.0], dtype=float).reshape(-1, 1)
            ).tolist()
            == ["none-of-the-above"]
        )

    def test_ties_prefer_narrowest_then_label_order(self):
        classifier = IntervalClassifier(margin=0.0)
        classifier.fit(
            np.asarray([0.0, 100.0, 40.0, 60.0, 45.0, 55.0], dtype=float).reshape(-1, 1),
            ["wide", "wide", "mid", "mid", "tight", "tight"],
        )
        queries = np.asarray([50.0, 42.0, 5.0], dtype=float).reshape(-1, 1)
        assert classifier.predict(queries).tolist() == ["tight", "mid", "wide"]
        assert (
            classifier.predict(queries).tolist()
            == classifier._predict_scalar(queries).tolist()
        )


def _tls_stream(rng: random.Random, record_count: int) -> bytes:
    """A valid reassembled TLS stream of random records."""
    stream = bytearray()
    for _ in range(record_count):
        content = rng.choice([20, 21, 22, 23, 23, 23])
        length = rng.randint(1, 400)
        stream += bytes([content, 3, 3]) + length.to_bytes(2, "big")
        stream += bytes(rng.getrandbits(8) for _ in range(length))
    return bytes(stream)


_SERVER = "198.51.100.7"


def _packets_from_stream(
    stream: bytes, rng: random.Random, base_sequence: int = 1
) -> list[Packet]:
    """Split a TLS stream into contiguous uplink segments at random cuts."""
    five_tuple = FiveTuple(
        client=Endpoint("192.168.1.23", 51742), server=Endpoint(_SERVER, 443)
    )
    packets: list[Packet] = []
    offset = 0
    clock = 0.0
    while offset < len(stream):
        take = min(len(stream) - offset, rng.randint(1, 700))
        clock += rng.random() * 0.01
        packets.append(
            Packet(
                timestamp=clock,
                direction=Direction.CLIENT_TO_SERVER,
                five_tuple=five_tuple,
                payload=stream[offset : offset + take],
                sequence_number=base_sequence + offset,
            )
        )
        offset += take
    return packets


def _column_path(packets: list[Packet]) -> list | None:
    """The packets' records read from their rows as columns."""
    return _column_records(TcpSegments.from_packets(packets).tcp_columns(), _SERVER)


class TestRecordExtractionFastPath:
    def test_matches_scalar_oracle_on_clean_streams(self):
        rng = random.Random(SEED + 5)
        for _ in range(40):
            stream = _tls_stream(rng, rng.randint(0, 30))
            # Leave a trailing partial record half the time.
            if stream and rng.random() < 0.5:
                stream += bytes([23, 3, 3, 1, 0])[: rng.randint(1, 5)]
            packets = _packets_from_stream(stream, rng)
            if not packets:  # no segment, so no flow: see test_empty_packet_list
                continue
            fast = _column_path(packets)
            assert fast is not None
            assert fast == _extract_records_scalar(packets)

    def test_refuses_gaps_and_scalar_handles_them(self):
        rng = random.Random(SEED + 6)
        stream = _tls_stream(rng, 12)
        packets = _packets_from_stream(stream, rng)
        if len(packets) < 3:
            pytest.skip("stream split produced too few segments")
        with_gap = packets[:1] + packets[2:]  # drop one middle segment
        assert _column_path(with_gap) is None
        # The scalar parser resynchronises at the gap without raising.
        records = _extract_records_scalar(with_gap)
        assert all(record.wire_length > RECORD_HEADER_LENGTH for record in records)

    def test_refuses_bad_framing(self):
        rng = random.Random(SEED + 8)
        # A declared fragment length beyond the TLS maximum loses framing.
        bogus = bytes([23, 3, 3]) + (MAX_CIPHERTEXT_LENGTH + 1).to_bytes(2, "big")
        stream = _tls_stream(rng, 2) + bogus + bytes(10)
        packets = _packets_from_stream(stream, rng)
        assert _column_path(packets) is None

    def test_empty_packet_list(self):
        # No segment means no flow to the server: the columns refuse, and
        # the scalar parser finds no record.
        assert _column_path([]) is None
        assert _extract_records_scalar([]) == []

    def test_labels_decode_through_shared_tables(self):
        codes = np.asarray([0, 1, 2, 1, 0])
        labels = kernel.decode_labels(codes, (LABEL_OTHER, LABEL_TYPE1, LABEL_TYPE2))
        assert labels == [LABEL_OTHER, LABEL_TYPE1, LABEL_TYPE2, LABEL_TYPE1, LABEL_OTHER]
