"""Synthetic viewer population generation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.client.profiles import (
    BROWSERS,
    CONNECTION_TYPES,
    OPERATING_SYSTEMS,
    PLATFORMS,
    TRAFFIC_CONDITIONS,
    OperationalCondition,
)
from repro.client.viewer import (
    AGE_GROUPS,
    GENDERS,
    POLITICAL_ALIGNMENTS,
    STATES_OF_MIND,
    ViewerBehavior,
)
from repro.exceptions import DatasetError
from repro.utils.rng import RandomSource, spawn_rng


@dataclass(frozen=True)
class Viewer:
    """One participant of the study: identity, environment and behaviour."""

    viewer_id: str
    condition: OperationalCondition
    behavior: ViewerBehavior

    def __post_init__(self) -> None:
        if not self.viewer_id:
            raise DatasetError("viewer id must be non-empty")

    def as_dict(self) -> dict[str, object]:
        """Flat dictionary used by the dataset metadata file."""
        return {
            "viewer_id": self.viewer_id,
            "condition": self.condition.as_dict(),
            "behavior": self.behavior.as_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "Viewer":
        """Inverse of :meth:`as_dict`."""
        return cls(
            viewer_id=str(data["viewer_id"]),
            condition=OperationalCondition.from_dict(data["condition"]),  # type: ignore[arg-type]
            behavior=ViewerBehavior.from_dict(data["behavior"]),  # type: ignore[arg-type]
        )


def viewers_from_metadata_entries(
    entries: object, source: object
) -> list[Viewer]:
    """Rebuild the viewer list from a dataset's metadata entries.

    Shared by every consumer that re-simulates a saved dataset's sessions
    (``repro train``, shard-by-shard incremental training); a malformed
    entry raises a :class:`DatasetError` naming ``source`` rather than a
    bare ``KeyError``.
    """
    try:
        return [Viewer.from_dict(entry["viewer"]) for entry in entries]  # type: ignore[index, union-attr]
    except (KeyError, TypeError) as error:
        raise DatasetError(
            f"dataset metadata at {source} has a malformed viewer entry: "
            f"{error!r}"
        ) from error


def split_viewers(
    viewers: Sequence[Viewer], test_fraction: float, seed: int
) -> tuple[list[int], list[int]]:
    """Positions in ``viewers`` of the attacker-training and victim sets.

    Stratified by environment (fingerprint key) so every environment in the
    test set also trains, as the paper's attacker calibrates per
    environment; a lone viewer trains.  Only environments, order and
    ``seed`` matter, so metadata alone decides a saved dataset's split.
    """
    if not 0.0 < test_fraction < 1.0:
        raise DatasetError("test fraction must be in (0, 1)")
    rng = spawn_rng(seed, "dataset-split")
    groups: dict[str, list[int]] = {}
    for position, viewer in enumerate(viewers):
        groups.setdefault(viewer.condition.fingerprint_key, []).append(position)
    train: list[int] = []
    test: list[int] = []
    for key in sorted(groups):
        members = groups[key]
        rng.shuffle(members)  # type: ignore[arg-type]
        if len(members) == 1:
            train.extend(members)
            continue
        test_count = int(round(len(members) * test_fraction))
        test_count = min(max(test_count, 1), len(members) - 1)
        test.extend(members[:test_count])
        train.extend(members[test_count:])
    return train, test


#: Marginal distributions used when sampling viewers.  They are deliberately
#: non-uniform (most volunteers used wired desktops at noon, etc.) so the
#: dataset has realistic class imbalance, while every value keeps non-zero
#: probability so the full Table I grid is exercised.
_OS_WEIGHTS = {"windows": 0.5, "linux": 0.3, "mac": 0.2}
_PLATFORM_WEIGHTS = {"desktop": 0.55, "laptop": 0.45}
_BROWSER_WEIGHTS = {"chrome": 0.6, "firefox": 0.4}
_CONNECTION_WEIGHTS = {"wired": 0.55, "wireless": 0.45}
_TRAFFIC_WEIGHTS = {"morning": 0.3, "noon": 0.4, "night": 0.3}
_AGE_WEIGHTS = {"<20": 0.2, "20-25": 0.4, "25-30": 0.25, ">30": 0.15}
_GENDER_WEIGHTS = {"male": 0.55, "female": 0.4, "undisclosed": 0.05}
_POLITICS_WEIGHTS = {"liberal": 0.35, "centrist": 0.3, "communist": 0.15, "undisclosed": 0.2}
_MIND_WEIGHTS = {"happy": 0.45, "stressed": 0.3, "sad": 0.1, "undisclosed": 0.15}


def _sample_condition(rng: RandomSource) -> OperationalCondition:
    return OperationalCondition(
        operating_system=rng.weighted_choice(_OS_WEIGHTS),
        platform=rng.weighted_choice(_PLATFORM_WEIGHTS),
        browser=rng.weighted_choice(_BROWSER_WEIGHTS),
        connection_type=rng.weighted_choice(_CONNECTION_WEIGHTS),
        traffic_condition=rng.weighted_choice(_TRAFFIC_WEIGHTS),
    )


def _sample_behavior(rng: RandomSource) -> ViewerBehavior:
    return ViewerBehavior(
        age_group=rng.weighted_choice(_AGE_WEIGHTS),
        gender=rng.weighted_choice(_GENDER_WEIGHTS),
        political_alignment=rng.weighted_choice(_POLITICS_WEIGHTS),
        state_of_mind=rng.weighted_choice(_MIND_WEIGHTS),
    )


def generate_population(count: int, seed: int = 0) -> list[Viewer]:
    """Generate ``count`` synthetic viewers.

    Determinism: the same ``(count, seed)`` always yields the same viewers.
    The first few viewers are pinned to the two Figure 2 environments so that
    every generated dataset, however small, supports the Figure 2 and
    headline reproductions.
    """
    if count <= 0:
        raise DatasetError(f"population size must be positive, got {count}")
    root = RandomSource(seed, ("population",))
    viewers: list[Viewer] = []
    pinned = [
        OperationalCondition("linux", "desktop", "firefox", "wired", "noon"),
        OperationalCondition("windows", "desktop", "firefox", "wired", "noon"),
        OperationalCondition("linux", "desktop", "firefox", "wireless", "night"),
        OperationalCondition("windows", "laptop", "chrome", "wireless", "night"),
    ]
    for index in range(count):
        viewer_rng = root.child(index)
        condition = (
            pinned[index] if index < len(pinned) else _sample_condition(viewer_rng.child("cond"))
        )
        behavior = _sample_behavior(viewer_rng.child("behavior"))
        viewers.append(
            Viewer(
                viewer_id=f"viewer-{index:03d}",
                condition=condition,
                behavior=behavior,
            )
        )
    return viewers


def attribute_marginals(viewers: list[Viewer]) -> dict[str, dict[str, int]]:
    """Count the occurrences of every attribute value across a population."""
    if not viewers:
        raise DatasetError("cannot summarise an empty population")
    counts: dict[str, dict[str, int]] = {}

    def _bump(attribute: str, value: str) -> None:
        counts.setdefault(attribute, {}).setdefault(value, 0)
        counts[attribute][value] += 1

    for viewer in viewers:
        condition = viewer.condition.as_dict()
        behavior = viewer.behavior.as_dict()
        for attribute, value in {**condition, **behavior}.items():
            _bump(attribute, value)
    return counts
