"""Deterministic random-number handling.

Reproducibility is a first-class requirement: a dataset generated from seed
``S`` must be bit-identical across runs and machines.  Everything random in
the library flows through :class:`RandomSource`, a thin wrapper around
``numpy.random.Generator`` that adds

* stable *named* child streams (``rng.child("tls")`` always yields the same
  stream for the same parent seed), and
* convenience draws used throughout the simulator (jittered integers,
  truncated normals, categorical picks).

Uniform bytes come from :func:`_next_uint32_bytes`, which reads the bit
generator's raw 64-bit output directly instead of going through
``Generator.integers``, yet yields exactly the bytes ``integers`` would and
leaves the generator in exactly the state ``integers`` would.
"""

from __future__ import annotations

import hashlib
from typing import Mapping, Sequence, TypeVar

import numpy as np

from repro.exceptions import ConfigurationError

T = TypeVar("T")

_MAX_SEED = 2**63 - 1


def derive_seed(base_seed: int, *names: str | int) -> int:
    """Derive a stable child seed from ``base_seed`` and a path of names.

    The derivation hashes the base seed together with every name using
    SHA-256, so child seeds are decorrelated from each other and from the
    parent, yet fully deterministic.

    >>> derive_seed(1, "tls") == derive_seed(1, "tls")
    True
    >>> derive_seed(1, "tls") != derive_seed(1, "net")
    True
    """
    hasher = hashlib.sha256()
    hasher.update(str(int(base_seed)).encode("utf-8"))
    for name in names:
        hasher.update(b"/")
        hasher.update(str(name).encode("utf-8"))
    return int.from_bytes(hasher.digest()[:8], "big") % _MAX_SEED


def _next_uint32_bytes(bit_generator: np.random.BitGenerator, count: int) -> np.ndarray:
    """The ``count`` bytes ``integers(0, 256, size=count, dtype=np.uint8)`` draws.

    ``bit_generator`` is a :class:`numpy.random.PCG64`, ``default_rng``'s.
    numpy fills a full-range ``uint8`` array with the little-endian bytes of
    successive ``next_uint32`` words, dropping the unused tail of the last
    word.  PCG64's ``next_uint32`` hands out a 64-bit raw draw as its low
    half and then its buffered high half, so the byte stream is the raw
    output of ``random_raw`` -- preceded by the buffered half when the
    generator holds one on entry (an earlier scalar ``integers`` call may
    leave one), and leaving the last raw draw's high half buffered when an
    odd number of words came from raw draws.  Both halves of that contract
    are restored here through ``bit_generator.state``, so every following
    draw matches the ``integers`` call's.  (``integers`` also leaves a stale
    copy of the last high half in the state's ``uinteger`` field after
    consuming it; no draw reads that field while ``has_uint32`` is 0, so it
    is not copied.)  The bytes come back as a fresh writable array.
    """
    state = bit_generator.state
    buffered = state["has_uint32"]
    raw_words = max(0, -(-count // 4) - buffered)
    raw = bit_generator.random_raw(-(-raw_words // 2))
    body = raw.astype("<u8", copy=False).view(np.uint8)
    if buffered:
        head = np.array([state["uinteger"]], dtype="<u4").view(np.uint8)
        drawn = np.concatenate((head, body))[:count]
    else:
        drawn = body[:count]
    leftover = raw_words % 2
    if buffered or leftover:
        state = bit_generator.state
        state["has_uint32"] = leftover
        if leftover:
            state["uinteger"] = int(raw[-1]) >> 32
        bit_generator.state = state
    return drawn


def spawn_rng(base_seed: int, *names: str | int) -> np.random.Generator:
    """Return a ``numpy`` generator seeded from ``derive_seed``."""
    return np.random.default_rng(derive_seed(base_seed, *names))


class RandomSource:
    """Deterministic random source with named child streams.

    Parameters
    ----------
    seed:
        Non-negative integer seed.  Two sources built from the same seed
        produce identical draw sequences.
    path:
        Internal; the chain of child names leading to this source.
    """

    def __init__(self, seed: int, path: tuple[str, ...] = ()) -> None:
        if seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {seed}")
        self._seed = int(seed)
        self._path = tuple(path)
        self._rng = spawn_rng(self._seed, *self._path)

    @property
    def seed(self) -> int:
        """The root seed this source was derived from."""
        return self._seed

    @property
    def path(self) -> tuple[str, ...]:
        """Chain of child names from the root source to this one."""
        return self._path

    @property
    def generator(self) -> np.random.Generator:
        """The underlying ``numpy`` generator (advance with care)."""
        return self._rng

    def child(self, name: str | int) -> "RandomSource":
        """Return a decorrelated child source identified by ``name``.

        Children are derived from the root seed and the full name path, not
        from the parent's current state, so the order in which children are
        created does not matter.
        """
        return RandomSource(self._seed, self._path + (str(name),))

    # -- draw helpers ------------------------------------------------------

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Draw a float uniformly from ``[low, high)``."""
        return float(self._rng.uniform(low, high))

    def integer(self, low: int, high: int) -> int:
        """Draw an integer uniformly from the inclusive range ``[low, high]``."""
        if high < low:
            raise ConfigurationError(f"empty integer range [{low}, {high}]")
        return int(self._rng.integers(low, high + 1))

    def jittered(self, center: int, jitter: int) -> int:
        """Draw ``center`` plus a uniform integer offset in ``[-jitter, +jitter]``."""
        if jitter < 0:
            raise ConfigurationError(f"jitter must be non-negative, got {jitter}")
        if jitter == 0:
            return int(center)
        return int(center) + self.integer(-jitter, jitter)

    def normal(self, mean: float, std: float) -> float:
        """Draw from a normal distribution."""
        return float(self._rng.normal(mean, std))

    def truncated_normal(
        self, mean: float, std: float, low: float, high: float
    ) -> float:
        """Draw from a normal distribution clipped to ``[low, high]``."""
        if low > high:
            raise ConfigurationError(f"invalid truncation range [{low}, {high}]")
        return float(np.clip(self._rng.normal(mean, std), low, high))

    def exponential(self, mean: float) -> float:
        """Draw from an exponential distribution with the given mean."""
        if mean <= 0:
            raise ConfigurationError(f"exponential mean must be positive, got {mean}")
        return float(self._rng.exponential(mean))

    def poisson(self, lam: float) -> int:
        """Draw from a Poisson distribution."""
        if lam < 0:
            raise ConfigurationError(f"Poisson rate must be non-negative, got {lam}")
        return int(self._rng.poisson(lam))

    def bernoulli(self, probability: float) -> bool:
        """Return ``True`` with the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError(
                f"probability must be within [0, 1], got {probability}"
            )
        return bool(self._rng.random() < probability)

    def choice(self, options: Sequence[T]) -> T:
        """Pick one element uniformly from a non-empty sequence."""
        if not options:
            raise ConfigurationError("cannot choose from an empty sequence")
        index = int(self._rng.integers(0, len(options)))
        return options[index]

    def weighted_choice(self, weights: Mapping[T, float]) -> T:
        """Pick a key from ``weights`` with probability proportional to its value."""
        if not weights:
            raise ConfigurationError("cannot choose from an empty weight mapping")
        keys = list(weights.keys())
        values = np.asarray([float(weights[key]) for key in keys], dtype=float)
        if np.any(values < 0):
            raise ConfigurationError("weights must be non-negative")
        total = values.sum()
        if total <= 0:
            raise ConfigurationError("weights must not all be zero")
        index = int(self._rng.choice(len(keys), p=values / total))
        return keys[index]

    def random_bytes(self, count: int) -> bytes:
        """Draw ``count`` uniformly random bytes (vectorised, cheap for large counts).

        The bytes, and the stream position they leave, are exactly those of
        ``generator.integers(0, 256, size=count, dtype=np.uint8)``.
        """
        if count < 0:
            raise ConfigurationError(f"byte count must be non-negative, got {count}")
        if count == 0:
            return b""
        return _next_uint32_bytes(self._rng.bit_generator, count).tobytes()

    def sample(self, items: Sequence[T], count: int) -> list[T]:
        """Sample ``count`` distinct items without replacement."""
        if count < 0:
            raise ConfigurationError(f"sample count must be non-negative, got {count}")
        if count > len(items):
            raise ConfigurationError(
                f"cannot sample {count} items from a sequence of {len(items)}"
            )
        indices = self._rng.choice(len(items), size=count, replace=False)
        return [items[int(i)] for i in indices]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        path = "/".join(self._path) or "<root>"
        return f"RandomSource(seed={self._seed}, path={path!r})"
