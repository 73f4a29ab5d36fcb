"""Default-branch prefetching around choice points.

When a question is on screen the player keeps the pipe busy by fetching
chunks of the *default* branch (the paper's ``Si``).  If the viewer picks the
non-default branch ``Si'`` instead, the prefetched chunks are discarded and a
type-2 state message tells the service to switch.  The prefetcher here
reproduces exactly that observable behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import StreamingError
from repro.media.chunks import Chunk, ChunkMap


@dataclass
class PrefetchPlan:
    """The chunks the player intends to prefetch for a default branch."""

    question_id: str
    segment_id: str
    chunks: tuple[Chunk, ...]
    fetched: list[Chunk] = field(default_factory=list)
    discarded: bool = False

    def __post_init__(self) -> None:
        if not self.question_id:
            raise StreamingError("prefetch plan needs a question id")
        if not self.segment_id:
            raise StreamingError("prefetch plan needs a segment id")

    @property
    def fetched_bytes(self) -> int:
        """Bytes of default-branch content fetched so far."""
        return sum(chunk.size_bytes for chunk in self.fetched)

    @property
    def fetched_seconds(self) -> float:
        """Seconds of default-branch content fetched so far."""
        return sum(chunk.duration_seconds for chunk in self.fetched)

    @property
    def remaining(self) -> tuple[Chunk, ...]:
        """Chunks planned but not yet fetched."""
        return self.chunks[len(self.fetched) :]


class Prefetcher:
    """Builds and executes prefetch plans while a question is on screen."""

    def __init__(self, max_prefetch_seconds: float = 20.0) -> None:
        if max_prefetch_seconds <= 0:
            raise StreamingError("maximum prefetch window must be positive")
        self._max_seconds = max_prefetch_seconds

    def plan(self, question_id: str, default_chunks: ChunkMap) -> PrefetchPlan:
        """Choose which default-branch chunks to prefetch."""
        selected: list[Chunk] = []
        budget = self._max_seconds
        for chunk in default_chunks:
            if budget <= 0:
                break
            selected.append(chunk)
            budget -= chunk.duration_seconds
        if not selected:
            raise StreamingError(
                f"prefetch plan for {question_id!r} selected no chunks"
            )
        return PrefetchPlan(
            question_id=question_id,
            segment_id=default_chunks.segment_id,
            chunks=tuple(selected),
        )

    def fetchable_during(
        self, plan: PrefetchPlan, decision_delay_seconds: float, chunk_fetch_seconds: float
    ) -> list[Chunk]:
        """The chunks that actually get fetched before the viewer decides.

        ``chunk_fetch_seconds`` is the (average) time to download one chunk
        under the current conditions; the viewer's decision cuts prefetching
        short.
        """
        if decision_delay_seconds < 0:
            raise StreamingError("decision delay must be non-negative")
        if chunk_fetch_seconds <= 0:
            raise StreamingError("chunk fetch time must be positive")
        count = int(decision_delay_seconds // chunk_fetch_seconds)
        count = max(0, min(count, len(plan.remaining)))
        return list(plan.remaining[:count])

    def mark_fetched(self, plan: PrefetchPlan, chunks: list[Chunk]) -> None:
        """Record chunks as fetched on the plan."""
        plan.fetched.extend(chunks)

    def discard(self, plan: PrefetchPlan) -> int:
        """Discard the plan (viewer took the non-default branch); returns bytes wasted."""
        plan.discarded = True
        return plan.fetched_bytes
