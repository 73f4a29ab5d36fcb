"""Small argument-validation helpers shared across the library."""

from __future__ import annotations

from typing import Container, TypeVar

from repro.exceptions import ConfigurationError

T = TypeVar("T")


def ensure_probability(value: float, name: str) -> float:
    """Raise unless ``value`` lies in [0, 1]; return it otherwise."""
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be within [0, 1], got {value}")
    return value


def ensure_in(value: T, options: Container[T], name: str) -> T:
    """Raise unless ``value`` is one of ``options``; return it otherwise."""
    if value not in options:
        raise ConfigurationError(f"{name} must be one of {options!r}, got {value!r}")
    return value
