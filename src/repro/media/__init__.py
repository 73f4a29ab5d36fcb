"""Chunked-media model: bitrate ladders, chunk sizes and manifests.

Netflix serves titles as a ladder of encodings (one per bitrate/resolution);
the player downloads the title in chunks of a few seconds each and can switch
ladder rungs between chunks.  The attack in this paper does *not* use media
chunk sizes as its side-channel (that is what prior inter-video work did), but
the simulator still needs a realistic media plane so that

* the captured traces contain the large server-to-client chunk transfers that
  dominate real traffic,
* the inter-video baselines in :mod:`repro.baselines` have the features they
  expect, and
* prefetch/discard behaviour around choice points has actual bytes attached.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        ".encoding": "BitrateLadder EncodingProfile default_ladder",
        ".chunks": "Chunk ChunkMap build_chunk_map",
        ".manifest": "MediaManifest build_manifest",
    },
)
