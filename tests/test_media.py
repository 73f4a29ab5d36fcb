"""Tests for the chunked-media model (encoding ladder, chunk maps, manifest)."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.media.chunks import build_chunk_map, ladder_chunk_maps
from repro.media.encoding import (
    BitrateLadder,
    EncodingProfile,
    default_ladder,
    vbr_chunk_bytes,
)
from repro.media.manifest import build_manifest
from repro.narrative.segment import Segment
from repro.utils.units import kbps, mbps

from helpers import profile_named


class TestEncodingProfile:
    def test_nominal_chunk_bytes(self):
        profile = EncodingProfile("test", kbps(800), "640x480")
        assert profile.nominal_chunk_bytes(4.0) == 400_000

    def test_rejects_zero_bitrate(self):
        with pytest.raises(ConfigurationError):
            EncodingProfile("bad", kbps(0), "x")

    def test_rejects_bad_chunk_duration(self):
        with pytest.raises(ConfigurationError):
            EncodingProfile("test", kbps(800), "x").nominal_chunk_bytes(0)


class TestBitrateLadder:
    def test_default_ladder_is_sorted(self):
        ladder = default_ladder()
        rates = [p.bandwidth.bits_per_second for p in ladder.profiles]
        assert rates == sorted(rates)
        assert ladder.lowest.name == "ld_240p"
        assert ladder.highest.name == "uhd_2160p"

    def test_best_under_picks_highest_affordable(self):
        ladder = default_ladder()
        chosen = ladder.best_under(mbps(3.0))
        assert chosen.name == "hd_720p"

    def test_best_under_falls_back_to_lowest(self):
        ladder = default_ladder()
        assert ladder.best_under(kbps(100)).name == ladder.lowest.name

    def test_by_name_and_index(self):
        ladder = default_ladder()
        profile = profile_named(ladder, "hd_1080p")
        assert ladder.index_of(profile) == 3

    def test_empty_ladder_rejected(self):
        with pytest.raises(ConfigurationError):
            BitrateLadder([])

    def test_duplicate_names_rejected(self):
        profile = EncodingProfile("dup", kbps(100), "x")
        other = EncodingProfile("dup", kbps(200), "y")
        with pytest.raises(ConfigurationError):
            BitrateLadder([profile, other])


class TestVbrChunks:
    def test_deterministic_per_content_seed(self):
        profile = profile_named(default_ladder(), "hd_1080p")
        first = vbr_chunk_bytes(profile, 4.0, 99, "S1", 0)
        second = vbr_chunk_bytes(profile, 4.0, 99, "S1", 0)
        assert first == second

    def test_different_chunks_differ(self):
        profile = profile_named(default_ladder(), "hd_1080p")
        sizes = {vbr_chunk_bytes(profile, 4.0, 99, "S1", index) for index in range(10)}
        assert len(sizes) > 1

    def test_zero_sigma_gives_nominal(self):
        profile = profile_named(default_ladder(), "hd_1080p")
        assert vbr_chunk_bytes(profile, 4.0, 99, "S1", 0, complexity_sigma=0.0) == (
            profile.nominal_chunk_bytes(4.0)
        )


class TestChunkMap:
    def test_chunk_map_covers_segment(self):
        segment = Segment("S1", "x", duration_seconds=10.0)
        chunk_map = build_chunk_map(segment, default_ladder().lowest, 4.0, content_seed=1)
        assert len(chunk_map) == 3
        assert chunk_map.total_seconds == pytest.approx(10.0)
        assert chunk_map.total_bytes > 0
        assert chunk_map[0].chunk_id.startswith("S1/0@")

    def test_ladder_chunk_maps_has_every_rung(self):
        segment = Segment("S1", "x", duration_seconds=8.0)
        maps = ladder_chunk_maps(segment, default_ladder(), 4.0, content_seed=1)
        assert set(maps) == {p.name for p in default_ladder().profiles}

    def test_higher_quality_means_more_bytes(self):
        segment = Segment("S1", "x", duration_seconds=20.0)
        maps = ladder_chunk_maps(segment, default_ladder(), 4.0, content_seed=1)
        assert maps["uhd_2160p"].total_bytes > maps["ld_240p"].total_bytes


class TestManifest:
    def test_manifest_contains_all_segments(self, minimal_graph):
        manifest = build_manifest(minimal_graph, content_seed=5)
        assert set(manifest.segment_ids) == set(minimal_graph.segment_ids)

    def test_manifest_deterministic(self, minimal_graph):
        first = build_manifest(minimal_graph, content_seed=5)
        second = build_manifest(minimal_graph, content_seed=5)
        assert first.total_bytes("hd_1080p") == second.total_bytes("hd_1080p")

    def test_manifest_differs_across_content_seeds(self, minimal_graph):
        first = build_manifest(minimal_graph, content_seed=5)
        second = build_manifest(minimal_graph, content_seed=6)
        assert first.total_bytes("hd_1080p") != second.total_bytes("hd_1080p")

    def test_segment_chunks_lookup_errors(self, minimal_graph):
        manifest = build_manifest(minimal_graph, content_seed=5)
        with pytest.raises(Exception):
            manifest.segment_chunks("nope", "hd_1080p")
        with pytest.raises(ConfigurationError):
            manifest.segment_chunks("S0", "nope")

    def test_describe(self, minimal_graph):
        manifest = build_manifest(minimal_graph, content_seed=5)
        description = manifest.describe()
        assert description["segments"] == minimal_graph.segment_count
        assert description["total_bytes_highest_quality"] > 0
