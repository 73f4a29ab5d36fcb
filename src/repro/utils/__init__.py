"""Shared low-level helpers used across every subsystem.

The utilities here deliberately avoid any knowledge of streaming, TLS or the
attack itself: they provide deterministic random-number handling, unit
conversions, descriptive statistics and input validation that the rest of the
library builds upon.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        ".rng": "RandomSource derive_seed spawn_rng",
        ".units": "Bandwidth bits_to_bytes bytes_to_bits kbps mbps milliseconds"
            " seconds",
        ".stats": "SummaryStats mean median percentile stddev summarize",
        ".histogram": "Histogram LengthBin bin_label",
        ".validation": "ensure_in ensure_probability",
    },
)
