"""Byte, bit and time unit helpers.

The simulator mixes quantities expressed in bits (media bitrates), bytes
(record and packet lengths) and seconds/milliseconds (timing).  Keeping the
conversions in one place avoids the classic factor-of-eight and
factor-of-a-thousand bugs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError

BITS_PER_BYTE = 8
BYTES_PER_KB = 1000
BYTES_PER_KIB = 1024
MS_PER_SECOND = 1000.0


def bytes_to_bits(num_bytes: float) -> float:
    """Convert a byte count to bits."""
    return num_bytes * BITS_PER_BYTE


def bits_to_bytes(num_bits: float) -> float:
    """Convert a bit count to bytes."""
    return num_bits / BITS_PER_BYTE


def seconds(value: float) -> float:
    """Identity helper that documents a value is in seconds."""
    return float(value)


def milliseconds(value: float) -> float:
    """Convert milliseconds to seconds."""
    return float(value) / MS_PER_SECOND


def kbps(value: float) -> "Bandwidth":
    """Build a :class:`Bandwidth` from kilobits per second."""
    return Bandwidth(bits_per_second=value * 1000.0)


def mbps(value: float) -> "Bandwidth":
    """Build a :class:`Bandwidth` from megabits per second."""
    return Bandwidth(bits_per_second=value * 1_000_000.0)


@dataclass(frozen=True)
class Bandwidth:
    """A link or stream rate, stored canonically in bits per second."""

    bits_per_second: float

    def __post_init__(self) -> None:
        if self.bits_per_second < 0:
            raise ConfigurationError(
                f"bandwidth must be non-negative, got {self.bits_per_second}"
            )

    @property
    def bytes_per_second(self) -> float:
        """The rate expressed in bytes per second."""
        return bits_to_bytes(self.bits_per_second)

    @property
    def megabits_per_second(self) -> float:
        """The rate expressed in megabits per second."""
        return self.bits_per_second / 1_000_000.0

    def transfer_time(self, num_bytes: float) -> float:
        """Seconds needed to move ``num_bytes`` at this rate.

        A zero bandwidth raises rather than returning infinity so callers
        notice misconfigured links instead of silently stalling simulations.
        """
        if self.bits_per_second == 0:
            raise ConfigurationError("cannot transfer data over a zero-rate link")
        return bytes_to_bits(num_bytes) / self.bits_per_second

    def scaled(self, factor: float) -> "Bandwidth":
        """Return a new bandwidth multiplied by ``factor`` (>= 0)."""
        if factor < 0:
            raise ConfigurationError(f"scale factor must be non-negative, got {factor}")
        return Bandwidth(bits_per_second=self.bits_per_second * factor)

    def __str__(self) -> str:
        return f"{self.megabits_per_second:.3f} Mbps"
