"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.features import ClientRecord, LABEL_OTHER, LABEL_TYPE1, LABEL_TYPE2
from repro.core.fingerprint import LengthBand, RecordLengthFingerprint
from repro.core.inference import infer_choices
from repro.defenses.padding import PadToConstant, PadToMultiple
from repro.defenses.splitting import SplitRecords
from repro.ml.interval import IntervalClassifier
from repro.ml.metrics import ConfusionMatrix, accuracy_score
from repro.net.headers import IPv4Header, TCPHeader, checksum16, format_ipv4, parse_ipv4
from repro.net.tcp import segment_payload
from repro.tls.ciphers import CIPHER_SUITES
from repro.tls.records import ContentType, TLSRecord, parse_records
from repro.utils.histogram import Histogram, LengthBin
from repro.utils.rng import RandomSource, derive_seed

from helpers import observe_many

# -- TLS record framing -------------------------------------------------------


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=4096), min_size=1, max_size=20),
    content=st.sampled_from(list(ContentType)),
)
@settings(max_examples=50, deadline=None)
def test_tls_stream_roundtrip(sizes, content):
    """Any sequence of records serializes and parses back identically."""
    records = [
        TLSRecord(content_type=content, version=0x0303, ciphertext=bytes([i % 256]) * size)
        for i, size in enumerate(sizes)
    ]
    stream = b"".join(record.serialize() for record in records)
    assert parse_records(stream) == records


@given(plaintext_len=st.integers(min_value=1, max_value=16_384))
@settings(max_examples=100, deadline=None)
def test_cipher_expansion_is_monotone_and_bounded(plaintext_len):
    """Ciphertext is never shorter than the plaintext and overhead is bounded."""
    for cipher in CIPHER_SUITES.values():
        ciphertext_len = cipher.ciphertext_length(plaintext_len)
        assert ciphertext_len >= plaintext_len
        assert ciphertext_len - plaintext_len <= 64


@given(
    plaintext=st.binary(min_size=1, max_size=2048),
    sequence=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=50, deadline=None)
def test_encrypt_length_matches_model(plaintext, sequence):
    cipher = CIPHER_SUITES["TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256"]
    assert len(cipher.encrypt(plaintext, sequence, "k")) == cipher.ciphertext_length(len(plaintext))


# -- packet substrate ----------------------------------------------------------


@given(
    octets=st.lists(st.integers(min_value=0, max_value=255), min_size=4, max_size=4)
)
def test_ipv4_address_roundtrip(octets):
    address = ".".join(str(o) for o in octets)
    assert format_ipv4(parse_ipv4(address)) == address


@given(payload=st.binary(min_size=0, max_size=5000), mss=st.integers(min_value=1, max_value=1500))
@settings(max_examples=50, deadline=None)
def test_segmentation_reassembles_exactly(payload, mss):
    segments = segment_payload(payload, mss)
    assert b"".join(segments) == payload
    assert all(0 < len(segment) <= mss for segment in segments)


@given(data=st.binary(min_size=0, max_size=200))
def test_checksum_is_16_bit(data):
    assert 0 <= checksum16(data) <= 0xFFFF


@given(
    total_length=st.integers(min_value=20, max_value=1500),
    identification=st.integers(min_value=0, max_value=0xFFFF),
)
@settings(max_examples=50, deadline=None)
def test_ipv4_header_roundtrip(total_length, identification):
    header = IPv4Header("10.1.2.3", "192.0.2.9", total_length, identification)
    parsed, _ = IPv4Header.parse(header.serialize())
    assert parsed.total_length == total_length
    assert parsed.identification == identification


# -- RNG determinism -----------------------------------------------------------


@given(seed=st.integers(min_value=0, max_value=2**31), name=st.text(min_size=1, max_size=10))
@settings(max_examples=50, deadline=None)
def test_derive_seed_deterministic_and_in_range(seed, name):
    assert derive_seed(seed, name) == derive_seed(seed, name)
    assert 0 <= derive_seed(seed, name) < 2**63


@given(
    seed=st.integers(min_value=0, max_value=2**20),
    center=st.integers(min_value=100, max_value=5000),
    jitter=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=50, deadline=None)
def test_jittered_draws_stay_in_range(seed, center, jitter):
    rng = RandomSource(seed)
    for _ in range(10):
        value = rng.jittered(center, jitter)
        assert center - jitter <= value <= center + jitter


# -- histogram / bands ---------------------------------------------------------


@given(
    values=st.lists(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=200)
)
@settings(max_examples=50, deadline=None)
def test_histogram_percentages_sum_to_100(values):
    bins = [LengthBin(None, 2000), LengthBin(2001, 5000), LengthBin(5001, None)]
    histogram = Histogram(bins=bins, categories=["x"])
    observe_many(histogram, values, "x")
    assert sum(histogram.percentages("x")) == pytest.approx(100.0)
    assert histogram.total("x") == len(values)


@given(
    values=st.lists(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=50),
    margin=st.integers(min_value=0, max_value=20),
)
@settings(max_examples=50, deadline=None)
def test_band_from_values_always_contains_values(values, margin):
    band = LengthBand.from_values(values, margin=margin)
    assert all(band.contains(value) for value in values)


@given(
    type1=st.lists(st.integers(min_value=2000, max_value=2100), min_size=1, max_size=30),
    type2=st.lists(st.integers(min_value=3000, max_value=3100), min_size=1, max_size=30),
)
@settings(max_examples=50, deadline=None)
def test_fingerprint_classifies_training_data_correctly(type1, type2):
    records = [
        ClientRecord(timestamp=float(i), wire_length=length, content_type=23, label=LABEL_TYPE1)
        for i, length in enumerate(type1)
    ] + [
        ClientRecord(
            timestamp=float(i + 100), wire_length=length, content_type=23, label=LABEL_TYPE2
        )
        for i, length in enumerate(type2)
    ]
    fingerprint = RecordLengthFingerprint.learn("env", records, margin=2)
    for record in records:
        assert fingerprint.classify_length(record.wire_length) == record.label


# -- inference invariants --------------------------------------------------------


_LABEL_STRATEGY = st.lists(
    st.sampled_from([LABEL_TYPE1, LABEL_TYPE2, LABEL_OTHER]), min_size=1, max_size=60
)


@given(labels=_LABEL_STRATEGY)
@settings(max_examples=100, deadline=None)
def test_inference_counts_are_consistent(labels):
    records = [
        ClientRecord(timestamp=float(i), wire_length=1000 + i, content_type=23)
        for i in range(len(labels))
    ]
    inferred = infer_choices(records, labels)
    type1_count = labels.count(LABEL_TYPE1)
    # Every question the attack reports is backed by at least one JSON record,
    # and the number of questions never exceeds type1 count plus orphan type2 runs.
    assert inferred.choice_count <= labels.count(LABEL_TYPE1) + labels.count(LABEL_TYPE2)
    assert inferred.choice_count >= type1_count
    assert inferred.non_default_count <= labels.count(LABEL_TYPE2)
    # Timestamps of inferred questions are non-decreasing.
    times = [event.question_shown_at for event in inferred.events]
    assert times == sorted(times)


# -- defences ---------------------------------------------------------------------


_RECORD_STRATEGY = st.lists(
    st.tuples(
        st.integers(min_value=30, max_value=6000),
        st.sampled_from([LABEL_TYPE1, LABEL_TYPE2, LABEL_OTHER]),
    ),
    min_size=1,
    max_size=50,
)


def _records_from(spec):
    return [
        ClientRecord(timestamp=float(i), wire_length=length, content_type=23, label=label)
        for i, (length, label) in enumerate(spec)
    ]


@given(spec=_RECORD_STRATEGY, block=st.integers(min_value=1, max_value=1024))
@settings(max_examples=50, deadline=None)
def test_padding_never_shrinks_records(spec, block):
    records = _records_from(spec)
    defended = PadToMultiple(block).transform(records)
    assert len(defended) == len(records)
    for original, padded in zip(records, defended):
        assert padded.wire_length >= original.wire_length
        assert padded.wire_length % block == 0 or not original.is_application_data


@given(spec=_RECORD_STRATEGY, target=st.integers(min_value=64, max_value=8192))
@settings(max_examples=50, deadline=None)
def test_constant_padding_is_idempotent(spec, target):
    records = _records_from(spec)
    defense = PadToConstant(target)
    once = defense.transform(records)
    twice = defense.transform(once)
    assert [r.wire_length for r in once] == [r.wire_length for r in twice]


@given(spec=_RECORD_STRATEGY, parts=st.integers(min_value=2, max_value=6))
@settings(max_examples=50, deadline=None)
def test_splitting_preserves_time_order_and_grows_count(spec, parts):
    records = _records_from(spec)
    defended = SplitRecords(parts=parts, min_length_to_split=1800).transform(records)
    assert len(defended) >= len(records)
    timestamps = [record.timestamp for record in defended]
    assert timestamps == sorted(timestamps)


# -- ML invariants -----------------------------------------------------------------


@given(
    lengths=st.lists(st.integers(min_value=1, max_value=10_000), min_size=4, max_size=100)
)
@settings(max_examples=50, deadline=None)
def test_interval_classifier_perfect_on_single_class(lengths):
    features = np.asarray(lengths, dtype=float).reshape(-1, 1)
    labels = ["only"] * len(lengths)
    classifier = IntervalClassifier().fit(features, labels)
    assert list(classifier.predict(features)) == labels


@given(
    labels=st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=100),
)
@settings(max_examples=50, deadline=None)
def test_confusion_matrix_total_and_accuracy_bounds(labels):
    predictions = list(reversed(labels))
    matrix = ConfusionMatrix.from_predictions(labels, predictions)
    assert matrix.total == len(labels)
    assert 0.0 <= matrix.accuracy <= 1.0
    assert matrix.accuracy == pytest.approx(accuracy_score(labels, predictions))
