"""The IITM-Bandersnatch-style dataset object.

:class:`IITMBandersnatchDataset` is the user-facing wrapper around the
population generator and collection pipeline: generate ``n`` viewers, run
their sessions, then slice the result by operational condition, split it into
train/test sets for the attack, summarise it (Table I) or persist it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.client.profiles import OperationalCondition
from repro.dataset.attributes import table1_rows
from repro.dataset.collection import (
    DataPoint,
    collect_dataset,
    default_study_script,
    iter_collect_dataset,
)
from repro.dataset.format import DatasetWriter, save_dataset_metadata
from repro.dataset.population import (
    Viewer,
    attribute_marginals,
    generate_population,
    split_viewers,
)
from repro.engine.executor import ProgressCallback
from repro.exceptions import DatasetError
from repro.narrative.graph import StoryGraph
from repro.streaming.session import SessionConfig


@dataclass(frozen=True)
class DatasetSummary:
    """Headline numbers describing a generated dataset."""

    viewer_count: int
    total_choices: int
    non_default_choices: int
    distinct_conditions: int
    total_packets: int

    @property
    def non_default_fraction(self) -> float:
        """Fraction of all choices that rejected the prefetched branch."""
        if self.total_choices == 0:
            raise DatasetError("summary has no choices")
        return self.non_default_choices / self.total_choices


class SummaryAccumulator:
    """Builds a :class:`DatasetSummary` incrementally from streamed points.

    The streaming generation paths discard each :class:`DataPoint` right
    after persisting it, so the aggregate statistics have to be folded in as
    points pass through; the resulting summary is identical to calling
    :meth:`IITMBandersnatchDataset.summary` on the materialised dataset.
    """

    def __init__(self) -> None:
        self._viewer_count = 0
        self._total_choices = 0
        self._non_default_choices = 0
        self._total_packets = 0
        self._condition_keys: set[str] = set()

    def add(self, point: DataPoint) -> None:
        """Fold one data point into the running totals."""
        self._viewer_count += 1
        self._total_choices += point.session.path.choice_count
        self._non_default_choices += point.session.path.non_default_count
        self._total_packets += point.session.trace.packet_count
        self._condition_keys.add(point.viewer.condition.key)

    @property
    def viewer_count(self) -> int:
        """Data points accumulated so far."""
        return self._viewer_count

    @property
    def condition_keys(self) -> tuple[str, ...]:
        """Sorted distinct operational-condition keys seen so far."""
        return tuple(sorted(self._condition_keys))

    def summary(self) -> DatasetSummary:
        """The summary of everything accumulated so far."""
        if self._viewer_count == 0:
            raise DatasetError("no data points accumulated")
        return DatasetSummary(
            viewer_count=self._viewer_count,
            total_choices=self._total_choices,
            non_default_choices=self._non_default_choices,
            distinct_conditions=len(self._condition_keys),
            total_packets=self._total_packets,
        )


class IITMBandersnatchDataset:
    """Synthetic stand-in for the paper's 100-viewer dataset."""

    def __init__(
        self,
        points: Sequence[DataPoint],
        graph: StoryGraph,
        seed: int,
        config: SessionConfig | None = None,
    ) -> None:
        if not points:
            raise DatasetError("a dataset must contain at least one data point")
        self._points = tuple(points)
        self._graph = graph
        self._seed = seed
        self._config = config

    # -- construction -------------------------------------------------------

    @classmethod
    def generate(
        cls,
        viewer_count: int = 100,
        seed: int = 0,
        graph: StoryGraph | None = None,
        config: SessionConfig | None = None,
        progress: ProgressCallback | None = None,
        workers: int | None = None,
    ) -> "IITMBandersnatchDataset":
        """Generate the full dataset (population + one session per viewer).

        ``workers`` selects the engine's execution mode (``None``/``1``
        serial, ``0`` all cores, ``N > 1`` a pool of ``N`` processes); the
        generated dataset is byte-identical either way.
        """
        graph = graph or default_study_script()
        viewers = generate_population(viewer_count, seed=seed)
        points = collect_dataset(
            viewers,
            dataset_seed=seed,
            graph=graph,
            config=config,
            progress=progress,
            workers=workers,
        )
        return cls(points=points, graph=graph, seed=seed, config=config)

    @classmethod
    def generate_streaming(
        cls,
        directory: str | Path,
        viewer_count: int = 100,
        seed: int = 0,
        graph: StoryGraph | None = None,
        config: SessionConfig | None = None,
        progress: ProgressCallback | None = None,
        workers: int | None = None,
        write_pcaps: bool = True,
    ) -> tuple[Path, DatasetSummary]:
        """Generate the dataset straight to disk without materialising it.

        The streaming counterpart of :meth:`generate` + :meth:`save`: each
        data point is persisted through a :class:`DatasetWriter` as the
        engine completes it and then discarded, so peak memory holds one
        session (serial) or the engine's in-flight window (parallel) rather
        than the whole population.  The written directory is byte-identical
        to ``generate(...).save(directory)`` for the same arguments.

        Returns the metadata path and the dataset's summary, which is
        identical to the in-memory dataset's :meth:`summary`.
        """
        graph = graph or default_study_script()
        viewers = generate_population(viewer_count, seed=seed)
        accumulator = SummaryAccumulator()
        with DatasetWriter(
            directory,
            write_pcaps=write_pcaps,
            seed=seed,
            config=config or SessionConfig(),
            graph=graph,
        ) as writer:
            for point in iter_collect_dataset(
                viewers,
                dataset_seed=seed,
                graph=graph,
                config=config,
                progress=progress,
                workers=workers,
            ):
                writer.add(point)
                accumulator.add(point)
        return writer.metadata_path, accumulator.summary()

    # -- access --------------------------------------------------------------

    @property
    def points(self) -> tuple[DataPoint, ...]:
        """Every data point, in viewer order."""
        return self._points

    @property
    def graph(self) -> StoryGraph:
        """The interactive script all sessions streamed."""
        return self._graph

    @property
    def seed(self) -> int:
        """The root seed the dataset was generated from."""
        return self._seed

    @property
    def viewers(self) -> tuple[Viewer, ...]:
        """The viewer population."""
        return tuple(point.viewer for point in self._points)

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self):
        return iter(self._points)

    def by_condition(
        self, condition: OperationalCondition
    ) -> list[DataPoint]:
        """All data points collected under one exact operational condition."""
        return [point for point in self._points if point.viewer.condition == condition]

    def by_fingerprint_key(self, key: str) -> list[DataPoint]:
        """All data points whose environment (OS × browser) matches ``key``."""
        return [
            point
            for point in self._points
            if point.viewer.condition.fingerprint_key == key
        ]

    def conditions_present(self) -> list[OperationalCondition]:
        """Distinct operational conditions covered by the dataset."""
        seen: dict[str, OperationalCondition] = {}
        for point in self._points:
            seen.setdefault(point.viewer.condition.key, point.viewer.condition)
        return list(seen.values())

    # -- splits ---------------------------------------------------------------

    def train_test_split(
        self, test_fraction: float = 0.5, seed: int | None = None
    ) -> tuple[list[DataPoint], list[DataPoint]]:
        """Split data points into attacker-training and victim sets.

        The split is :func:`repro.dataset.population.split_viewers`, seeded
        by the dataset's seed unless ``seed`` is given; ``repro train``
        makes the same split from a saved dataset's metadata.
        """
        train, test = split_viewers(
            [point.viewer for point in self._points],
            test_fraction,
            self._seed if seed is None else seed,
        )
        return [self._points[i] for i in train], [self._points[i] for i in test]

    # -- reporting -----------------------------------------------------------

    def summary(self) -> DatasetSummary:
        """Aggregate statistics of the dataset."""
        total_choices = sum(point.session.path.choice_count for point in self._points)
        non_default = sum(point.session.path.non_default_count for point in self._points)
        total_packets = sum(point.session.trace.packet_count for point in self._points)
        return DatasetSummary(
            viewer_count=len(self._points),
            total_choices=total_choices,
            non_default_choices=non_default,
            distinct_conditions=len(self.conditions_present()),
            total_packets=total_packets,
        )

    def table1(self) -> list[dict[str, str]]:
        """The Table I attribute rows (the attribute space of the dataset)."""
        return table1_rows()

    def attribute_counts(self) -> dict[str, dict[str, int]]:
        """Observed marginal counts of every attribute value in the population."""
        return attribute_marginals(list(self.viewers))

    # -- persistence -----------------------------------------------------------

    def save(self, directory: str | Path, write_pcaps: bool = True) -> Path:
        """Persist metadata (and optionally pcaps) under ``directory``."""
        return save_dataset_metadata(
            self._points,
            directory,
            write_pcaps=write_pcaps,
            seed=self._seed,
            config=self._config or SessionConfig(),
            graph=self._graph,
        )
