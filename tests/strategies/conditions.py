"""Every operational condition of Table I, for tests that sweep the grid."""

from __future__ import annotations

from itertools import product

from repro.client.profiles import (
    BROWSERS,
    CONNECTION_TYPES,
    OPERATING_SYSTEMS,
    PLATFORMS,
    TRAFFIC_CONDITIONS,
    OperationalCondition,
)


def enumerate_conditions() -> list[OperationalCondition]:
    """Every combination of the Table I operational attributes (72 cells)."""
    return [
        OperationalCondition(*cell)
        for cell in product(
            OPERATING_SYSTEMS, PLATFORMS, BROWSERS, CONNECTION_TYPES, TRAFFIC_CONDITIONS
        )
    ]
