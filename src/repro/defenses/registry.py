"""The defense registry: stable names + params dicts → :class:`RecordDefense`.

Sweep cells, job specs and the coordinator wire format never hold defense
*instances* — they hold specs (``defense_spec``) and rebuild instances on the
other side (``defense_from_spec``), exactly like job specs round-trip through
``job_from_dict``.  See :mod:`repro.components` for the spec grammar.
"""

from __future__ import annotations

from typing import Mapping

from repro.components import ComponentRegistry
from repro.defenses.base import RecordDefense
from repro.defenses.compression import CompressStateReports
from repro.defenses.padding import PadToConstant, PadToMultiple
from repro.defenses.splitting import SplitRecords

#: The registry of every sweepable defense.
DEFENSE_REGISTRY = ComponentRegistry("defense", RecordDefense)
DEFENSE_REGISTRY.register("pad-to-multiple", PadToMultiple)
DEFENSE_REGISTRY.register("pad-to-constant", PadToConstant)
DEFENSE_REGISTRY.register("split-records", SplitRecords)
DEFENSE_REGISTRY.register("compress-state-reports", CompressStateReports)


def build_defense(
    name: str, params: Mapping[str, object] | None = None
) -> RecordDefense:
    """Construct a defense from its registry name and a params dict."""
    defense = DEFENSE_REGISTRY.build(name, params)
    assert isinstance(defense, RecordDefense)
    return defense


def defense_spec(defense: RecordDefense) -> dict[str, object]:
    """The canonical, wire-ready spec dict of a registry-built defense."""
    return DEFENSE_REGISTRY.spec(defense)


def defense_from_spec(data: object) -> RecordDefense:
    """Rebuild a defense from its spec dict (inverse of :func:`defense_spec`)."""
    defense = DEFENSE_REGISTRY.from_spec(data)
    assert isinstance(defense, RecordDefense)
    return defense
