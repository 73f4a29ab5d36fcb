"""The streaming-service / CDN edge model.

The server side of the simulation is deliberately thin: it owns the media
manifest, answers chunk requests with the right number of bytes, and
acknowledges state reports.  All of its traffic rides the same TLS connection
as the client's messages, which is what makes the downlink records in the
captures look like a real session (large application-data records back to
back during chunk delivery).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import StreamingError
from repro.media.chunks import Chunk
from repro.media.manifest import MediaManifest


@dataclass(frozen=True)
class ChunkResponse:
    """The server's answer to one chunk request."""

    chunk: Chunk
    payload_bytes: int
    http_overhead_bytes: int

    @property
    def total_bytes(self) -> int:
        """Application bytes sent down for this chunk (media + HTTP framing)."""
        return self.payload_bytes + self.http_overhead_bytes


class StreamingServer:
    """Serves chunks and acknowledges state reports for one title."""

    #: HTTP response framing added around each chunk (status line, headers).
    _HTTP_RESPONSE_OVERHEAD = 310
    #: Size of the small acknowledgement sent back for each state report.
    _STATE_ACK_BYTES = 173

    def __init__(self, manifest: MediaManifest) -> None:
        self._manifest = manifest

    @property
    def manifest(self) -> MediaManifest:
        """The manifest the server is answering from."""
        return self._manifest

    def serve_chunk(self, segment_id: str, chunk_index: int, profile_name: str) -> ChunkResponse:
        """Answer one chunk request."""
        chunk_map = self._manifest.segment_chunks(segment_id, profile_name)
        if not 0 <= chunk_index < len(chunk_map):
            raise StreamingError(
                f"segment {segment_id!r} has no chunk index {chunk_index} "
                f"at profile {profile_name!r}"
            )
        chunk = chunk_map[chunk_index]
        response = ChunkResponse(
            chunk=chunk,
            payload_bytes=chunk.size_bytes,
            http_overhead_bytes=self._HTTP_RESPONSE_OVERHEAD,
        )
        return response

    def acknowledge_state_report(self) -> int:
        """Bytes of the acknowledgement sent in response to a state report."""
        return self._STATE_ACK_BYTES
