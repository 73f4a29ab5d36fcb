"""Playback buffer model.

The buffer tracks how many seconds of video are downloaded but not yet
played.  The ABR controller reads it to pick qualities, and the session uses
it to decide how aggressively to fetch ahead (and how much default-branch
content can be prefetched while a question is on screen).
"""

from __future__ import annotations

from repro.exceptions import StreamingError


class PlaybackBuffer:
    """Seconds of buffered content with play/fill accounting."""

    def __init__(self, target_seconds: float = 30.0, max_seconds: float = 120.0) -> None:
        if target_seconds <= 0:
            raise StreamingError("buffer target must be positive")
        if max_seconds < target_seconds:
            raise StreamingError("buffer maximum must be at least the target")
        self._max = max_seconds
        self._level = 0.0

    @property
    def level_seconds(self) -> float:
        """Seconds of content currently buffered."""
        return self._level

    def add(self, seconds: float) -> None:
        """Add downloaded content (clamped at the cap)."""
        if seconds < 0:
            raise StreamingError("cannot add negative seconds to the buffer")
        self._level = min(self._max, self._level + seconds)

    def play(self, seconds: float) -> float:
        """Consume ``seconds`` of playback; returns stall time incurred (if any)."""
        if seconds < 0:
            raise StreamingError("cannot play negative seconds")
        stall = 0.0
        if seconds > self._level:
            stall = seconds - self._level
            self._level = 0.0
        else:
            self._level -= seconds
        return stall

    def drain(self) -> float:
        """Discard all buffered content (e.g. prefetched wrong branch); returns seconds dropped."""
        dropped = self._level
        self._level = 0.0
        return dropped
