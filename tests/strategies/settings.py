"""Shared hypothesis settings for the property suites.

Neither object fixes ``max_examples``: the count comes from the active
profile (registered in ``tests/conftest.py``), so ``--hypothesis-profile=ci``
runs the same properties with more examples and a derandomized, replayable
example sequence.
"""

from __future__ import annotations

from hypothesis import HealthCheck, settings

#: Properties over generated captures: each example writes and parses a pcap,
#: so wall time per example varies with machine load — never a failure.
STANDARD_SETTINGS = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Properties whose failures must replay example for example on any machine
#: (pinning a fast path to its oracle): a fixed example sequence.
DETERMINISM_SETTINGS = settings(STANDARD_SETTINGS, derandomize=True)
