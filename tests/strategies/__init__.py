"""Hypothesis strategies and settings shared by the property suites.

    from strategies import STANDARD_SETTINGS, captures, packets
"""

from strategies.frames import Capture, captures, tls_streams
from strategies.packets import packets
from strategies.settings import DETERMINISM_SETTINGS, STANDARD_SETTINGS

__all__ = [
    "Capture",
    "DETERMINISM_SETTINGS",
    "STANDARD_SETTINGS",
    "captures",
    "packets",
    "tls_streams",
]
