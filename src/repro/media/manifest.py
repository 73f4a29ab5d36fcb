"""The media manifest the player downloads before streaming starts.

A manifest binds the story graph to the media plane: for every segment it
lists the chunk maps at every ladder rung, so the player (and the prefetcher)
can translate "stream segment S3b" into a sequence of byte transfers.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.exceptions import ConfigurationError, NarrativeError
from repro.media.chunks import ChunkMap, ladder_chunk_maps
from repro.media.encoding import BitrateLadder, default_ladder
from repro.narrative.graph import StoryGraph


@dataclass(frozen=True)
class MediaManifest:
    """Immutable view of all chunk maps for one title.

    Attributes
    ----------
    title:
        The movie title the manifest describes.
    chunk_duration_seconds:
        Nominal duration of each chunk.
    ladder:
        The bitrate ladder available to the player.
    chunk_maps:
        ``chunk_maps[segment_id][profile_name]`` -> :class:`ChunkMap`.
    """

    title: str
    chunk_duration_seconds: float
    ladder: BitrateLadder
    chunk_maps: dict[str, dict[str, ChunkMap]]

    def segment_chunks(self, segment_id: str, profile_name: str) -> ChunkMap:
        """Chunk map of one segment at one quality."""
        try:
            per_profile = self.chunk_maps[segment_id]
        except KeyError:
            raise NarrativeError(f"manifest has no segment {segment_id!r}") from None
        try:
            return per_profile[profile_name]
        except KeyError:
            raise ConfigurationError(
                f"manifest has no profile {profile_name!r} for segment {segment_id!r}"
            ) from None

    @property
    def segment_ids(self) -> tuple[str, ...]:
        """All segments described by the manifest."""
        return tuple(self.chunk_maps.keys())

    def total_bytes(self, profile_name: str) -> int:
        """Total stored bytes of the whole title at one quality."""
        return sum(
            per_profile[profile_name].total_bytes
            for per_profile in self.chunk_maps.values()
        )

    def describe(self) -> dict[str, object]:
        """Summary dictionary used by reports and examples."""
        return {
            "title": self.title,
            "segments": len(self.chunk_maps),
            "chunk_duration_seconds": self.chunk_duration_seconds,
            "ladder_rungs": [profile.name for profile in self.ladder.profiles],
            "total_bytes_highest_quality": self.total_bytes(self.ladder.highest.name),
        }


#: How many default-ladder manifests :func:`build_manifest` keeps.  A process
#: streams one or a handful of titles, so a few entries cover every caller.
_MEMO_SIZE = 8
_memo: OrderedDict[tuple[str, int, float], MediaManifest] = OrderedDict()
_memo_lock = threading.Lock()


def build_manifest(
    graph: StoryGraph,
    content_seed: int,
    chunk_duration_seconds: float = 4.0,
    ladder: BitrateLadder | None = None,
) -> MediaManifest:
    """Build the manifest for a story graph.

    The ``content_seed`` pins the VBR chunk sizes: the same seed always
    produces byte-identical manifests, which the dataset generator relies on
    (all viewers stream the *same* encode of the movie).

    Default-ladder manifests (``ladder=None``) are memoized per process,
    keyed on ``(graph.fingerprint(), content_seed, chunk_duration_seconds)``
    -- every input the chunk maps depend on -- in a least-recently-used
    memo of :data:`_MEMO_SIZE` entries, so every session of a title shares
    one build.  A memoized manifest is shared by all its callers: treat it,
    like every manifest, as read-only.  An explicit ``ladder`` always builds
    afresh.
    """
    if chunk_duration_seconds <= 0:
        raise ConfigurationError("chunk duration must be positive")
    if ladder is not None:
        return _build(graph, content_seed, chunk_duration_seconds, ladder)
    key = (graph.fingerprint(), content_seed, chunk_duration_seconds)
    with _memo_lock:
        manifest = _memo.get(key)
        if manifest is not None:
            _memo.move_to_end(key)
            return manifest
    manifest = _build(graph, content_seed, chunk_duration_seconds, default_ladder())
    with _memo_lock:
        _memo[key] = manifest
        while len(_memo) > _MEMO_SIZE:
            _memo.popitem(last=False)
    return manifest


def _build(
    graph: StoryGraph,
    content_seed: int,
    chunk_duration_seconds: float,
    ladder: BitrateLadder,
) -> MediaManifest:
    chunk_maps = {
        segment.segment_id: ladder_chunk_maps(
            segment, ladder, chunk_duration_seconds, content_seed
        )
        for segment in graph.iter_segments()
    }
    return MediaManifest(
        title=graph.title,
        chunk_duration_seconds=chunk_duration_seconds,
        ladder=ladder,
        chunk_maps=chunk_maps,
    )
