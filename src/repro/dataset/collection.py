"""The collection pipeline: one simulated viewing session per viewer.

Collection is expressed through the batch engine: each viewer becomes one
:class:`~repro.engine.plan.SessionPlan` (seeded via
:func:`repro.utils.rng.derive_seed`, so plans are order-independent) and the
whole population is submitted as one batch.  ``workers`` selects serial or
process-pool execution; both produce byte-identical data points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.engine.executor import BatchExecutor
from repro.exceptions import DatasetError
from repro.narrative.bandersnatch import build_bandersnatch_script

if TYPE_CHECKING:
    from repro.dataset.population import Viewer
    from repro.engine.executor import ProgressCallback
    from repro.engine.plan import SessionPlan
    from repro.narrative.graph import StoryGraph
    from repro.streaming.session import SessionConfig, SessionResult


@dataclass(frozen=True)
class DataPoint:
    """One dataset entry: a viewer, their session and the ground truth."""

    viewer: Viewer
    session: SessionResult

    @property
    def ground_truth_choices(self) -> tuple[bool, ...]:
        """Default/non-default pattern of the viewer's actual choices."""
        return self.session.path.default_pattern

    @property
    def selected_labels(self) -> tuple[str, ...]:
        """On-screen labels the viewer actually picked, in order."""
        return self.session.path.selected_labels()

    def metadata(self) -> dict[str, object]:
        """JSON-friendly metadata (everything except the raw packets)."""
        return {
            "viewer": self.viewer.as_dict(),
            "session_id": self.session.session_id,
            "choices": [
                {
                    "question_id": record.question_id,
                    "selected_label": record.selected_label,
                    "took_default": record.took_default,
                    "decision_time_seconds": record.decision_time_seconds,
                }
                for record in self.session.path.choices
            ],
            "segments": list(self.session.path.segment_ids),
            "packet_count": self.session.trace.packet_count,
            "capture_duration_seconds": self.session.trace.duration_seconds,
        }


def default_study_script() -> StoryGraph:
    """The script used for dataset collection.

    Structurally identical to the full Bandersnatch-like script (ten binary
    choice points, common trunk, branch/rejoin), but with shorter segments so
    that generating a 100-viewer dataset stays laptop-scale.  The record-level
    side-channel is completely unaffected by segment duration.
    """
    return build_bandersnatch_script(
        trunk_segment_minutes=1.5,
        branch_segment_minutes=1.0,
        ending_minutes=2.0,
    )


def collection_plan(
    viewer: Viewer,
    graph: StoryGraph,
    dataset_seed: int,
    config: SessionConfig | None = None,
) -> SessionPlan:
    """The session plan for one viewer's collection run.

    The seed derives from the dataset seed and the viewer id alone, so the
    plan — and therefore the session — is independent of collection order
    and of how the batch is scheduled across workers.
    """
    from repro.engine.plan import SessionPlan
    from repro.utils.rng import derive_seed

    return SessionPlan(
        graph=graph,
        condition=viewer.condition,
        behavior=viewer.behavior,
        seed=derive_seed(dataset_seed, "collection", viewer.viewer_id),
        config=config,
        session_id=viewer.viewer_id,
    )


def build_collection_plans(
    viewers: Sequence[Viewer],
    dataset_seed: int = 0,
    graph: StoryGraph | None = None,
    config: SessionConfig | None = None,
) -> list[SessionPlan]:
    """Describe the whole population's collection runs as session plans."""
    from repro.streaming.session import SessionConfig

    if not viewers:
        raise DatasetError("cannot collect a dataset for an empty population")
    graph = graph or default_study_script()
    config = config or SessionConfig()
    return [collection_plan(viewer, graph, dataset_seed, config) for viewer in viewers]


def collect_dataset(
    viewers: Sequence[Viewer],
    dataset_seed: int = 0,
    graph: StoryGraph | None = None,
    config: SessionConfig | None = None,
    progress: ProgressCallback | None = None,
    workers: int | None = None,
    executor: BatchExecutor | None = None,
) -> list[DataPoint]:
    """Collect one data point per viewer.

    Parameters
    ----------
    viewers:
        The population to collect from.
    dataset_seed:
        Root seed; every viewer's session seed derives from it.
    graph:
        The interactive script to stream; defaults to
        :func:`default_study_script`.
    config:
        Session configuration shared by every collection run.
    progress:
        Optional callback ``(completed, total)`` invoked after each viewer.
    workers:
        Engine worker count (``None``/``1`` serial, ``0`` all cores,
        ``N > 1`` a pool of ``N`` processes).  Serial and parallel runs
        produce byte-identical data points.
    executor:
        Pre-built :class:`BatchExecutor`; overrides ``workers``.
    """
    plans = build_collection_plans(
        viewers, dataset_seed=dataset_seed, graph=graph, config=config
    )
    executor = executor or BatchExecutor(workers)
    sessions = executor.execute(plans, progress=progress)
    return [
        DataPoint(viewer=viewer, session=session)
        for viewer, session in zip(viewers, sessions)
    ]


def iter_collect_dataset(
    viewers: Sequence[Viewer],
    dataset_seed: int = 0,
    graph: StoryGraph | None = None,
    config: SessionConfig | None = None,
    progress: ProgressCallback | None = None,
    workers: int | None = None,
    executor: BatchExecutor | None = None,
    window: int | None = None,
) -> Iterator[DataPoint]:
    """Streaming variant of :func:`collect_dataset`.

    Yields data points one at a time, in viewer order, through
    :meth:`repro.engine.BatchExecutor.iexecute`: at most a bounded window of
    sessions is in flight (or, on the serial path, exactly one), so peak
    memory is independent of the population size.  Every session is seeded
    via :func:`repro.utils.rng.derive_seed` from the dataset seed and the
    viewer id, so the yielded points are byte-identical to the ones
    :func:`collect_dataset` returns for the same arguments.
    """
    plans = build_collection_plans(
        viewers, dataset_seed=dataset_seed, graph=graph, config=config
    )
    executor = executor or BatchExecutor(workers)
    sessions = executor.iexecute(plans, progress=progress, window=window)
    for viewer, session in zip(viewers, sessions):
        yield DataPoint(viewer=viewer, session=session)
