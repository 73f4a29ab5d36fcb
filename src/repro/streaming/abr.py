"""Adaptive-bitrate (ABR) controller.

A simple throughput-and-buffer rule in the spirit of deployed players: start
conservatively, then pick the highest rung that the recent throughput
estimate supports, dropping a rung when the buffer runs low.  The controller
matters to the reproduction only in that (a) chunk sizes in the captured
downlink look like a real session's, and (b) the *same* content streamed
under the *same* conditions produces similar chunk-size series — which is why
bitrate-based baselines cannot tell two same-length branches apart.
"""

from __future__ import annotations

from repro.exceptions import StreamingError
from repro.media.encoding import BitrateLadder, EncodingProfile
from repro.streaming.buffer import PlaybackBuffer
from repro.utils.units import Bandwidth


class AdaptiveBitrateController:
    """Throughput-estimating ABR with a low-buffer safety rule."""

    def __init__(
        self,
        ladder: BitrateLadder,
        safety_factor: float = 0.8,
        low_buffer_seconds: float = 8.0,
        smoothing: float = 0.6,
    ) -> None:
        if not 0 < safety_factor <= 1:
            raise StreamingError("safety factor must be in (0, 1]")
        if not 0 < smoothing <= 1:
            raise StreamingError("smoothing must be in (0, 1]")
        if low_buffer_seconds < 0:
            raise StreamingError("low-buffer threshold must be non-negative")
        self._ladder = ladder
        self._safety = safety_factor
        self._low_buffer = low_buffer_seconds
        self._smoothing = smoothing
        self._estimate_bps: float | None = None

    @property
    def ladder(self) -> BitrateLadder:
        """The bitrate ladder the controller selects from."""
        return self._ladder

    def observe_download(self, num_bytes: int, duration_seconds: float) -> None:
        """Feed one completed chunk download into the throughput estimator."""
        if num_bytes <= 0:
            raise StreamingError("download size must be positive")
        if duration_seconds <= 0:
            raise StreamingError("download duration must be positive")
        sample = num_bytes * 8.0 / duration_seconds
        if self._estimate_bps is None:
            self._estimate_bps = sample
        else:
            self._estimate_bps = (
                self._smoothing * self._estimate_bps + (1.0 - self._smoothing) * sample
            )

    def select_profile(self, buffer: PlaybackBuffer) -> EncodingProfile:
        """Pick the rung to request the next chunk at."""
        if self._estimate_bps is None:
            return self._ladder.lowest
        candidate = self._ladder.best_under(
            Bandwidth(bits_per_second=self._estimate_bps), self._safety
        )
        if buffer.level_seconds < self._low_buffer:
            index = self._ladder.index_of(candidate)
            if index > 0:
                candidate = self._ladder.profiles[index - 1]
        return candidate
