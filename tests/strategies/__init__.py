"""Hypothesis strategies and settings shared by the property suites.

    from strategies import STANDARD_SETTINGS, captures, packets, rng_draws
"""

from strategies.frames import Capture, captures, tls_streams
from strategies.packets import annotated, packets, record_aligned_packets
from strategies.pcaps import MALFORMED, malformed_pcaps
from strategies.rng import rng_draws
from strategies.settings import DETERMINISM_SETTINGS, STANDARD_SETTINGS

__all__ = [
    "Capture",
    "DETERMINISM_SETTINGS",
    "MALFORMED",
    "STANDARD_SETTINGS",
    "annotated",
    "captures",
    "malformed_pcaps",
    "packets",
    "record_aligned_packets",
    "rng_draws",
    "tls_streams",
]
