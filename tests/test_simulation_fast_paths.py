"""Property tests pinning the session simulator's fast paths to their formulas.

Each fast path must produce exactly what the formula it replaced produces,
so simulated sessions -- and every artifact byte derived from them -- do not
move:

* :func:`repro.utils.rng._next_uint32_bytes` and
  :meth:`RandomSource.random_bytes` against
  ``generator.integers(0, 256, size=n, dtype=np.uint8).tobytes()``, including
  every draw that follows;
* :meth:`CipherSpec.encrypt` against the zero-pad-then-XOR keystream formula;
* :meth:`TCPSender.send` against fully validated ``Packet(...)`` segments;
* the memoized :func:`build_manifest` against an uncached build.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.media import manifest as manifest_module
from repro.media.encoding import default_ladder
from repro.media.manifest import build_manifest
from repro.narrative.bandersnatch import build_bandersnatch_script
from repro.net.endpoints import Endpoint, FiveTuple
from repro.net.packet import Direction, Packet, push_flags
from repro.net.tcp import TCPSender, segment_payload
from repro.tls.ciphers import CIPHER_SUITES
from repro.tls.records import MAX_PLAINTEXT_FRAGMENT
from repro.utils.rng import RandomSource, _next_uint32_bytes

from strategies import DETERMINISM_SETTINGS, rng_draws
from strategies.rng import replay_scalar


def _integers_bytes(source: RandomSource, count: int) -> bytes:
    return source.generator.integers(0, 256, size=count, dtype=np.uint8).tobytes()


def _assert_same_continuation(fast: RandomSource, reference: RandomSource) -> None:
    """The draws after a program agree, whichever path comes next."""
    assert fast.integer(0, 2**32 - 1) == reference.integer(0, 2**32 - 1)
    assert _next_uint32_bytes(fast.generator.bit_generator, 5).tobytes() == (
        _integers_bytes(reference, 5)
    )
    assert fast.integer(0, 6) == reference.integer(0, 6)
    assert fast.uniform() == reference.uniform()
    assert _integers_bytes(fast, 11) == _integers_bytes(reference, 11)


class TestRandomBytes:
    @pytest.mark.parametrize(
        "fast_bytes",
        [
            lambda source, count: source.random_bytes(count),
            lambda source, count: _next_uint32_bytes(
                source.generator.bit_generator, count
            ).tobytes(),
        ],
        ids=["random_bytes", "_next_uint32_bytes"],
    )
    @DETERMINISM_SETTINGS
    @given(program=rng_draws())
    def test_equals_integers_under_interleaved_draws(self, fast_bytes, program):
        seed, draws = program
        fast, reference = RandomSource(seed), RandomSource(seed)
        for step in draws:
            if step[0] == "bytes":
                assert fast_bytes(fast, step[1]) == _integers_bytes(reference, step[1])
            else:
                assert replay_scalar(fast, step) == replay_scalar(reference, step)
        _assert_same_continuation(fast, reference)


def _reference_encrypt(spec, plaintext: bytes, sequence_number: int, key_id: str) -> bytes:
    """The keystream formula ``CipherSpec.encrypt`` must keep: zero-pad the
    plaintext to the ciphertext length, then XOR the ``integers`` stream."""
    target = spec.ciphertext_length(len(plaintext))
    digest = hashlib.sha256(
        f"{key_id}:{spec.name}:{sequence_number}".encode("utf-8")
    ).digest()
    seed = int.from_bytes(digest[:8], "big")
    keystream = np.random.default_rng(seed).integers(0, 256, size=target, dtype=np.uint8)
    padded = np.zeros(target, dtype=np.uint8)
    padded[: len(plaintext)] = np.frombuffer(plaintext, dtype=np.uint8)
    return (padded ^ keystream).tobytes()


class TestEncrypt:
    @pytest.mark.parametrize("suite", sorted(CIPHER_SUITES))
    @DETERMINISM_SETTINGS
    @given(
        length=st.one_of(
            st.integers(1, 64),
            st.integers(1, MAX_PLAINTEXT_FRAGMENT),
            st.just(MAX_PLAINTEXT_FRAGMENT),
        ),
        fill=st.integers(0, 2**32),
        sequence_number=st.integers(0, 2**64),
        key_id=st.text(max_size=12),
    )
    def test_equals_zero_pad_xor_formula(self, suite, length, fill, sequence_number, key_id):
        spec = CIPHER_SUITES[suite]
        plaintext = random.Random(fill).randbytes(length)
        ciphertext = spec.encrypt(plaintext, sequence_number, key_id)
        assert ciphertext == _reference_encrypt(spec, plaintext, sequence_number, key_id)
        assert len(ciphertext) == spec.ciphertext_length(length)


_FLOW = FiveTuple(client=Endpoint("192.168.1.23", 51742), server=Endpoint("198.51.100.7", 443))


class TestTCPSend:
    @DETERMINISM_SETTINGS
    @given(
        direction=st.sampled_from(tuple(Direction)),
        mss=st.integers(1, 2_000),
        length=st.integers(1, 12_000),
        initial=st.integers(0, 2**40),
        peer=st.integers(0, 2**40),
        timestamp=st.floats(0, 2**32, exclude_max=True, allow_nan=False),
        annotations=st.one_of(
            st.none(), st.dictionaries(st.sampled_from("abc"), st.integers(), max_size=3)
        ),
    )
    def test_equals_validated_packets(
        self, direction, mss, length, initial, peer, timestamp, annotations
    ):
        payload = random.Random(length).randbytes(length)
        sender = TCPSender(_FLOW, direction, mss=mss, initial_sequence_number=initial)
        sender.note_peer_progress(peer)
        packets = sender.send(payload, timestamp, annotations)

        expected = []
        sequence = initial
        for segment in segment_payload(payload, mss):
            expected.append(
                Packet(
                    timestamp=timestamp,
                    direction=direction,
                    five_tuple=_FLOW,
                    payload=segment,
                    sequence_number=sequence,
                    acknowledgment_number=peer,
                    flags=push_flags(),
                    annotations=dict(annotations or {}),
                )
            )
            sequence += len(segment)
        assert [vars(packet) for packet in packets] == [vars(packet) for packet in expected]
        assert all(type(packet) is Packet for packet in packets)
        assert sender.next_sequence_number == sequence
        dicts = [packet.annotations for packet in packets]
        assert len({id(d) for d in dicts}) == len(packets)
        assert all(d is not annotations for d in dicts)


def _manifest_shape(manifest) -> tuple:
    """Everything a manifest carries, as comparable values."""
    return (
        manifest.title,
        manifest.chunk_duration_seconds,
        manifest.ladder.profiles,
        {
            segment: {profile: chunk_map.chunks for profile, chunk_map in maps.items()}
            for segment, maps in manifest.chunk_maps.items()
        },
    )


class TestManifestMemo:
    @pytest.mark.parametrize("content_seed, duration", [(0, 4.0), (5, 2.0), (2**32, 6.5)])
    def test_memo_equals_an_uncached_build(self, minimal_graph, content_seed, duration):
        memoized = build_manifest(minimal_graph, content_seed, duration)
        assert build_manifest(minimal_graph, content_seed, duration) is memoized
        uncached = build_manifest(minimal_graph, content_seed, duration, ladder=default_ladder())
        assert uncached is not memoized
        assert _manifest_shape(memoized) == _manifest_shape(uncached)

    def test_memo_keys_on_seed_duration_and_graph(self, minimal_graph, study_graph):
        base = _manifest_shape(build_manifest(study_graph, 5, 4.0))
        retimed = build_bandersnatch_script(
            trunk_segment_minutes=1.6, branch_segment_minutes=1.0, ending_minutes=2.0
        )
        assert retimed.title == study_graph.title
        for variant in (
            build_manifest(study_graph, 6, 4.0),
            build_manifest(study_graph, 5, 3.0),
            build_manifest(retimed, 5, 4.0),
            build_manifest(minimal_graph, 5, 4.0),
        ):
            assert _manifest_shape(variant) != base

    def test_an_equal_graph_shares_the_build(self, study_graph):
        rebuilt = build_bandersnatch_script(
            trunk_segment_minutes=1.5, branch_segment_minutes=1.0, ending_minutes=2.0
        )
        assert rebuilt is not study_graph
        assert build_manifest(rebuilt, 7) is build_manifest(study_graph, 7)

    def test_memo_stays_bounded(self, minimal_graph):
        for content_seed in range(manifest_module._MEMO_SIZE + 3):
            build_manifest(minimal_graph, 10_000 + content_seed)
        assert len(manifest_module._memo) == manifest_module._MEMO_SIZE
