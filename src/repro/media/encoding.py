"""Bitrate ladders and per-chunk size generation.

Chunk sizes follow a variable-bitrate (VBR) model: a chunk encoded at a
nominal ``R`` bits/second over ``d`` seconds occupies roughly ``R*d/8`` bytes,
scaled by a log-normal scene-complexity factor.  The factor is drawn
deterministically per (segment, chunk index) so two sessions that stream the
same content see the same chunk sizes — exactly the property that made chunk
sizes usable as an *inter-video* fingerprint in prior work, and useless for
distinguishing same-size *intra-video* branches here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.rng import spawn_rng
from repro.utils.units import Bandwidth, kbps


@dataclass(frozen=True)
class EncodingProfile:
    """One rung of the bitrate ladder."""

    name: str
    bandwidth: Bandwidth
    resolution: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("encoding profile name must be non-empty")
        if self.bandwidth.bits_per_second <= 0:
            raise ConfigurationError(
                f"encoding profile {self.name!r} must have positive bitrate"
            )

    def nominal_chunk_bytes(self, chunk_duration_seconds: float) -> int:
        """Bytes of a chunk at the nominal (average) rate."""
        if chunk_duration_seconds <= 0:
            raise ConfigurationError("chunk duration must be positive")
        return int(self.bandwidth.bytes_per_second * chunk_duration_seconds)


class BitrateLadder:
    """An ordered set of encoding profiles, lowest bitrate first."""

    def __init__(self, profiles: list[EncodingProfile]) -> None:
        if not profiles:
            raise ConfigurationError("bitrate ladder must contain at least one rung")
        ordered = sorted(profiles, key=lambda p: p.bandwidth.bits_per_second)
        names = [profile.name for profile in ordered]
        if len(set(names)) != len(names):
            raise ConfigurationError("bitrate ladder rung names must be unique")
        self._profiles = tuple(ordered)

    @property
    def profiles(self) -> tuple[EncodingProfile, ...]:
        """All rungs, lowest bitrate first."""
        return self._profiles

    @property
    def lowest(self) -> EncodingProfile:
        """The lowest-bitrate rung (startup / panic quality)."""
        return self._profiles[0]

    @property
    def highest(self) -> EncodingProfile:
        """The highest-bitrate rung."""
        return self._profiles[-1]

    def best_under(self, available: Bandwidth, safety_factor: float = 0.8) -> EncodingProfile:
        """Highest rung whose bitrate fits within ``available * safety_factor``.

        Falls back to the lowest rung when even that does not fit, mirroring
        how ABR controllers never stop playback solely because of bandwidth.
        """
        if not 0 < safety_factor <= 1:
            raise ConfigurationError(
                f"safety factor must be in (0, 1], got {safety_factor}"
            )
        budget = available.bits_per_second * safety_factor
        candidates = [
            profile
            for profile in self._profiles
            if profile.bandwidth.bits_per_second <= budget
        ]
        return candidates[-1] if candidates else self.lowest

    def index_of(self, profile: EncodingProfile) -> int:
        """Position of a rung within the ladder (0 = lowest)."""
        for index, candidate in enumerate(self._profiles):
            if candidate.name == profile.name:
                return index
        raise ConfigurationError(f"profile {profile.name!r} is not part of this ladder")

    def __len__(self) -> int:
        return len(self._profiles)


def default_ladder() -> BitrateLadder:
    """The ladder used throughout the reproduction (Netflix-like rungs)."""
    return BitrateLadder(
        [
            EncodingProfile("ld_240p", kbps(235), "320x240"),
            EncodingProfile("sd_480p", kbps(1050), "720x480"),
            EncodingProfile("hd_720p", kbps(2350), "1280x720"),
            EncodingProfile("hd_1080p", kbps(4300), "1920x1080"),
            EncodingProfile("uhd_2160p", kbps(11600), "3840x2160"),
        ]
    )


def vbr_chunk_bytes(
    profile: EncodingProfile,
    chunk_duration_seconds: float,
    content_seed: int,
    segment_id: str,
    chunk_index: int,
    complexity_sigma: float = 0.18,
) -> int:
    """Deterministic VBR size of one chunk.

    The scene-complexity multiplier is log-normal with median 1 and shape
    ``complexity_sigma`` and depends only on ``(content_seed, segment_id,
    chunk_index)`` — not on the viewer or the session — because the encoded
    bytes of a given scene are fixed at encode time.
    """
    if complexity_sigma < 0:
        raise ConfigurationError("complexity sigma must be non-negative")
    rng = spawn_rng(content_seed, "vbr", segment_id, chunk_index, profile.name)
    multiplier = float(np.exp(rng.normal(0.0, complexity_sigma))) if complexity_sigma else 1.0
    nominal = profile.nominal_chunk_bytes(chunk_duration_seconds)
    return max(1, int(round(nominal * multiplier)))
