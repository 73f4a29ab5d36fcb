"""Record-length band fingerprints.

The paper's observation (Figure 2) is that, under a fixed client environment,
the type-1 and type-2 state reports occupy narrow, non-overlapping bands of
SSL record lengths that are disjoint from (almost all) other client records.
A :class:`RecordLengthFingerprint` stores those two bands for one environment;
a :class:`FingerprintLibrary` holds one fingerprint per environment
(OS × browser) and is what the attacker trains during their controlled
viewing sessions.

Because a band is determined entirely by the minimum and maximum labelled
length (plus the record count), learning folds: :class:`FingerprintAccumulator`
keeps that O(environments) running state so training can stream calibration
records shard by shard — discarding each batch as soon as it is observed —
and still finalise into exactly the fingerprints batch learning produces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core import kernel
from repro.core.features import (
    CODE_BY_LABEL,
    ClientRecord,
    LABEL_OTHER,
    LABEL_TYPE1,
    LABEL_TYPE2,
)
from repro.exceptions import FingerprintError
from repro.utils.atomic import write_atomic

#: Code → label table for the band codes of :func:`repro.core.kernel.classify_codes`
#: over ``(type1_band, type2_band)``: 0 = neither band, 1 = type-1, 2 = type-2.
_BAND_LABELS = (LABEL_OTHER, LABEL_TYPE1, LABEL_TYPE2)

#: On-disk format version of serialised accumulator state (``repro
#: merge-fingerprints`` inputs).
ACCUMULATOR_FORMAT_VERSION = 1


@dataclass(frozen=True)
class LengthBand:
    """A closed byte-length interval."""

    low: int
    high: int

    def __post_init__(self) -> None:
        if self.low <= 0 or self.high <= 0:
            raise FingerprintError("band bounds must be positive")
        if self.low > self.high:
            raise FingerprintError(f"band lower bound {self.low} exceeds {self.high}")

    def contains(self, value: int) -> bool:
        """Whether ``value`` lies inside the band (inclusive)."""
        return self.low <= value <= self.high

    def widened(self, margin: int) -> "LengthBand":
        """A copy widened by ``margin`` bytes on each side."""
        if margin < 0:
            raise FingerprintError("margin must be non-negative")
        return LengthBand(low=max(1, self.low - margin), high=self.high + margin)

    def overlaps(self, other: "LengthBand") -> bool:
        """Whether two bands share any length."""
        return self.low <= other.high and other.low <= self.high

    @property
    def width(self) -> int:
        """Number of distinct lengths the band covers."""
        return self.high - self.low + 1

    def as_dict(self) -> dict[str, int]:
        """JSON-friendly form."""
        return {"low": self.low, "high": self.high}

    @classmethod
    def from_dict(cls, data: Mapping[str, int]) -> "LengthBand":
        """Inverse of :meth:`as_dict`."""
        return cls(low=int(data["low"]), high=int(data["high"]))

    @classmethod
    def from_values(cls, values: Sequence[int], margin: int = 0) -> "LengthBand":
        """The tightest band containing every value, widened by ``margin``."""
        if not values:
            raise FingerprintError("cannot build a band from no values")
        return cls(low=min(values), high=max(values)).widened(margin)


@dataclass(frozen=True)
class RecordLengthFingerprint:
    """The type-1/type-2 bands for one client environment."""

    condition_key: str
    type1_band: LengthBand
    type2_band: LengthBand
    training_records: int

    def __post_init__(self) -> None:
        if not self.condition_key:
            raise FingerprintError("fingerprint needs a condition key")
        if self.training_records <= 0:
            raise FingerprintError("fingerprint must be built from at least one record")
        if self.type1_band.overlaps(self.type2_band):
            raise FingerprintError(
                "type-1 and type-2 bands overlap; the side-channel is not "
                "separable for this environment"
            )

    def classify_length(self, wire_length: int) -> str:
        """Assign one record length to ``type1``, ``type2`` or ``other``.

        This is the scalar reference oracle for :meth:`classify_lengths`;
        property tests pin the two to each other exactly.
        """
        if self.type1_band.contains(wire_length):
            return LABEL_TYPE1
        if self.type2_band.contains(wire_length):
            return LABEL_TYPE2
        return LABEL_OTHER

    def band_bounds(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """The two bands as ``(low, high)`` pairs, in classification priority."""
        return (
            (self.type1_band.low, self.type1_band.high),
            (self.type2_band.low, self.type2_band.high),
        )

    def classify_lengths(self, wire_lengths: np.ndarray | Sequence[int]) -> list[str]:
        """Classify a whole batch of wire lengths in one kernel call."""
        codes = kernel.classify_codes(wire_lengths, self.band_bounds())
        return kernel.decode_labels(codes, _BAND_LABELS)

    def classify(self, records: Iterable[ClientRecord]) -> list[str]:
        """Classify a sequence of client records by their wire lengths."""
        lengths = np.fromiter(
            (record.wire_length for record in records), dtype=np.int64
        )
        return self.classify_lengths(lengths)

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly form."""
        return {
            "condition_key": self.condition_key,
            "type1_band": self.type1_band.as_dict(),
            "type2_band": self.type2_band.as_dict(),
            "training_records": self.training_records,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RecordLengthFingerprint":
        """Inverse of :meth:`as_dict`."""
        return cls(
            condition_key=str(data["condition_key"]),
            type1_band=LengthBand.from_dict(data["type1_band"]),  # type: ignore[arg-type]
            type2_band=LengthBand.from_dict(data["type2_band"]),  # type: ignore[arg-type]
            training_records=int(data["training_records"]),  # type: ignore[arg-type]
        )

    @classmethod
    def learn(
        cls,
        condition_key: str,
        records: Sequence[ClientRecord],
        margin: int = 2,
    ) -> "RecordLengthFingerprint":
        """Learn the bands from labelled training records of one environment."""
        type1_lengths = [r.wire_length for r in records if r.label == LABEL_TYPE1]
        type2_lengths = [r.wire_length for r in records if r.label == LABEL_TYPE2]
        if not type1_lengths:
            raise FingerprintError(
                f"no labelled type-1 records for environment {condition_key!r}"
            )
        if not type2_lengths:
            raise FingerprintError(
                f"no labelled type-2 records for environment {condition_key!r}"
            )
        return cls(
            condition_key=condition_key,
            type1_band=LengthBand.from_values(type1_lengths, margin),
            type2_band=LengthBand.from_values(type2_lengths, margin),
            training_records=len(records),
        )


class _BandState:
    """Running min/max of the labelled lengths seen so far for one type."""

    __slots__ = ("minimum", "maximum")

    def __init__(self) -> None:
        self.minimum: int | None = None
        self.maximum: int | None = None

    def observe(self, length: int) -> None:
        if self.minimum is None or length < self.minimum:
            self.minimum = length
        if self.maximum is None or length > self.maximum:
            self.maximum = length

    def merge(self, other: "_BandState") -> None:
        """Fold another running band into this one (min of mins, max of maxes)."""
        if other.minimum is not None:
            self.observe(other.minimum)
        if other.maximum is not None:
            self.observe(other.maximum)

    def band(self, margin: int) -> LengthBand:
        if self.minimum is None or self.maximum is None:
            raise FingerprintError("no labelled lengths observed for this band")
        return LengthBand(low=self.minimum, high=self.maximum).widened(margin)

    def as_dict(self) -> dict[str, int] | None:
        """JSON-friendly form; ``None`` when nothing was observed yet."""
        if self.minimum is None or self.maximum is None:
            return None
        return {"min": self.minimum, "max": self.maximum}

    @classmethod
    def from_dict(cls, data: Mapping[str, int] | None) -> "_BandState":
        """Inverse of :meth:`as_dict`."""
        state = cls()
        if data is not None:
            minimum, maximum = int(data["min"]), int(data["max"])
            if minimum > maximum:
                raise FingerprintError(
                    f"band state min {minimum} exceeds max {maximum}"
                )
            state.observe(minimum)
            state.observe(maximum)
        return state


class _EnvironmentState:
    """One environment's accumulated training state."""

    __slots__ = ("type1", "type2", "record_count")

    def __init__(self) -> None:
        self.type1 = _BandState()
        self.type2 = _BandState()
        self.record_count = 0


class FingerprintAccumulator:
    """Streaming fingerprint learner: fold record batches, finalise once.

    Batch learning (:meth:`RecordLengthFingerprint.learn`) needs every
    training record of an environment in memory at once.  The accumulator
    instead keeps only the running minimum/maximum labelled length per record
    type and the record count — a band depends on nothing else — so an
    arbitrarily large calibration corpus can be folded in shard by shard
    (:meth:`repro.core.pipeline.WhiteMirrorAttack.train_incremental`) and the
    finalised fingerprints are **identical** to batch learning over the
    concatenation of every batch.

    The same folding property makes calibration *distributable*: the running
    state serialises (:meth:`save`/:meth:`load`), and :meth:`merge` folds two
    machines' states together exactly as shard summaries merge — min of
    mins, max of maxes, counts add — so merging is associative and
    commutative up to environment order, and the merged state finalises into
    exactly the library one machine training over every shard would learn
    (``repro merge-fingerprints``).
    """

    def __init__(self) -> None:
        self._environments: dict[str, _EnvironmentState] = {}

    @property
    def condition_keys(self) -> tuple[str, ...]:
        """Environments observed so far, in first-seen order."""
        return tuple(self._environments.keys())

    @property
    def record_count(self) -> int:
        """Total training records folded in so far, across environments."""
        return sum(state.record_count for state in self._environments.values())

    def observe(self, condition_key: str, records: Iterable[ClientRecord]) -> None:
        """Fold one batch of labelled records of one environment.

        Unlabelled or ``other``-labelled records count toward the
        environment's record total (as batch learning counts them) but do
        not move any band.
        """
        if not condition_key:
            raise FingerprintError("accumulator needs a condition key")
        state = self._environments.setdefault(condition_key, _EnvironmentState())
        for record in records:
            state.record_count += 1
            if record.label == LABEL_TYPE1:
                state.type1.observe(record.wire_length)
            elif record.label == LABEL_TYPE2:
                state.type2.observe(record.wire_length)

    def observe_lengths(
        self,
        condition_key: str,
        wire_lengths: np.ndarray | Sequence[int],
        label_codes: np.ndarray | Sequence[int],
    ) -> None:
        """Fold one batch of labelled records from columnar arrays.

        The vectorized counterpart of :meth:`observe`, used when records
        arrive as the packed arrays of a shard sidecar
        (:mod:`repro.dataset.sidecar`) rather than as objects.
        ``label_codes`` uses the :data:`repro.core.features.LABEL_BY_CODE`
        encoding; the resulting state is identical to observing the
        equivalent :class:`~repro.core.features.ClientRecord` batch one
        record at a time — every record counts, only labelled type-1/type-2
        lengths move a band.
        """
        if not condition_key:
            raise FingerprintError("accumulator needs a condition key")
        wire_lengths = np.asarray(wire_lengths, dtype=np.int64)
        label_codes = np.asarray(label_codes)
        if wire_lengths.shape != label_codes.shape:
            raise FingerprintError(
                "wire_lengths and label_codes must have the same shape"
            )
        state = self._environments.setdefault(condition_key, _EnvironmentState())
        state.record_count += int(wire_lengths.size)
        for label, band_state in (
            (LABEL_TYPE1, state.type1),
            (LABEL_TYPE2, state.type2),
        ):
            selected = wire_lengths[label_codes == CODE_BY_LABEL[label]]
            if selected.size:
                band_state.observe(int(selected.min()))
                band_state.observe(int(selected.max()))

    def fingerprint(self, condition_key: str, margin: int = 2) -> RecordLengthFingerprint:
        """Finalise one environment's fingerprint from the accumulated state."""
        try:
            state = self._environments[condition_key]
        except KeyError:
            raise FingerprintError(
                f"no records accumulated for environment {condition_key!r}; "
                f"known environments: {sorted(self._environments)}"
            ) from None
        if state.type1.minimum is None:
            raise FingerprintError(
                f"no labelled type-1 records for environment {condition_key!r}"
            )
        if state.type2.minimum is None:
            raise FingerprintError(
                f"no labelled type-2 records for environment {condition_key!r}"
            )
        return RecordLengthFingerprint(
            condition_key=condition_key,
            type1_band=state.type1.band(margin),
            type2_band=state.type2.band(margin),
            training_records=state.record_count,
        )

    def finalize_into(
        self, library: "FingerprintLibrary", margin: int = 2
    ) -> "FingerprintLibrary":
        """Finalise every accumulated environment into ``library``."""
        if not self._environments:
            raise FingerprintError("no training records accumulated")
        for condition_key in self._environments:
            library.add(self.fingerprint(condition_key, margin=margin))
        return library

    def merge(self, other: "FingerprintAccumulator") -> "FingerprintAccumulator":
        """Fold another accumulator's state into this one; returns ``self``.

        Exactly the shard-summary merge, applied to training state: per
        environment the band extremes fold (min of mins, max of maxes) and
        the record counts add, so ``a.merge(b)`` finalises into the same
        fingerprints as observing both machines' records on one accumulator.
        Environments only ``other`` has seen are adopted whole.  The merge
        order cannot change any finalised fingerprint (only the first-seen
        order of :attr:`condition_keys`).
        """
        for condition_key, other_state in other._environments.items():
            state = self._environments.setdefault(condition_key, _EnvironmentState())
            state.type1.merge(other_state.type1)
            state.type2.merge(other_state.type2)
            state.record_count += other_state.record_count
        return self

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly form of the running state (see :meth:`save`)."""
        return {
            "format_version": ACCUMULATOR_FORMAT_VERSION,
            "environments": {
                condition_key: {
                    "record_count": state.record_count,
                    "type1": state.type1.as_dict(),
                    "type2": state.type2.as_dict(),
                }
                for condition_key, state in self._environments.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FingerprintAccumulator":
        """Inverse of :meth:`as_dict`; validates shape and version."""
        if not isinstance(data, Mapping):
            raise FingerprintError(
                f"accumulator state must be a JSON object, got "
                f"{type(data).__name__}"
            )
        for key in ("format_version", "environments"):
            if key not in data:
                raise FingerprintError(
                    f"accumulator state is missing the {key!r} field (is this "
                    "a fingerprint *library* file? merge-fingerprints takes "
                    "the accumulator state written by `train --save-state`)"
                )
        if data["format_version"] != ACCUMULATOR_FORMAT_VERSION:
            raise FingerprintError(
                f"unsupported accumulator state version {data['format_version']}"
            )
        accumulator = cls()
        environments = data["environments"]
        if not isinstance(environments, Mapping):
            raise FingerprintError("accumulator 'environments' must be an object")
        for condition_key, entry in environments.items():
            if not condition_key:
                raise FingerprintError("accumulator state has an empty condition key")
            try:
                state = _EnvironmentState()
                state.record_count = int(entry["record_count"])  # type: ignore[index]
                state.type1 = _BandState.from_dict(entry["type1"])  # type: ignore[index]
                state.type2 = _BandState.from_dict(entry["type2"])  # type: ignore[index]
            except (KeyError, TypeError, ValueError) as error:
                raise FingerprintError(
                    f"accumulator state for environment {condition_key!r} is "
                    f"malformed: {error!r}"
                ) from error
            if state.record_count < 0:
                raise FingerprintError(
                    f"accumulator state for environment {condition_key!r} has "
                    f"a negative record count"
                )
            accumulator._environments[condition_key] = state
        return accumulator

    def save(self, path: str | Path) -> None:
        """Persist the running state as JSON (one machine's calibration).

        Keys are sorted so that state files — like finalised libraries — are
        byte-identical however the environments were first encountered.  The
        write is atomic: a failed save leaves the previous file intact.
        """
        write_atomic(path, json.dumps(self.as_dict(), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "FingerprintAccumulator":
        """Load a state file previously written by :meth:`save`."""
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            raise FingerprintError(
                f"cannot load accumulator state: {error}"
            ) from error
        return cls.from_dict(data)


class FingerprintLibrary:
    """Per-environment fingerprints, keyed by the condition's fingerprint key."""

    def __init__(self) -> None:
        self._fingerprints: dict[str, RecordLengthFingerprint] = {}

    @property
    def condition_keys(self) -> tuple[str, ...]:
        """All environments the library covers."""
        return tuple(self._fingerprints.keys())

    def add(self, fingerprint: RecordLengthFingerprint) -> None:
        """Insert or replace the fingerprint for one environment."""
        self._fingerprints[fingerprint.condition_key] = fingerprint

    def get(self, condition_key: str) -> RecordLengthFingerprint:
        """Look up the fingerprint for an environment."""
        try:
            return self._fingerprints[condition_key]
        except KeyError:
            raise FingerprintError(
                f"no fingerprint trained for environment {condition_key!r}; "
                f"known environments: {sorted(self._fingerprints)}"
            ) from None

    def __contains__(self, condition_key: object) -> bool:
        return condition_key in self._fingerprints

    def __len__(self) -> int:
        return len(self._fingerprints)

    def classify_lengths(
        self, wire_lengths: np.ndarray | Sequence[int]
    ) -> dict[str, list[str]]:
        """Classify one batch of lengths against every environment at once.

        One broadcast kernel call covers the whole environments × bands ×
        records cube; per environment the labels equal
        ``self.get(key).classify_lengths(wire_lengths)`` exactly.
        """
        if not self._fingerprints:
            return {}
        matrix = np.asarray(
            [
                fingerprint.band_bounds()
                for fingerprint in self._fingerprints.values()
            ],
            dtype=np.int64,
        )
        codes = kernel.classify_codes_multi(wire_lengths, matrix)
        return {
            condition_key: kernel.decode_labels(codes[index], _BAND_LABELS)
            for index, condition_key in enumerate(self._fingerprints)
        }

    def learn(
        self,
        condition_key: str,
        records: Sequence[ClientRecord],
        margin: int = 2,
    ) -> RecordLengthFingerprint:
        """Learn and store the fingerprint for one environment."""
        fingerprint = RecordLengthFingerprint.learn(condition_key, records, margin)
        self.add(fingerprint)
        return fingerprint

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly form of the whole library."""
        return {
            key: fingerprint.as_dict() for key, fingerprint in self._fingerprints.items()
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Mapping[str, object]]) -> "FingerprintLibrary":
        """Inverse of :meth:`as_dict`."""
        library = cls()
        for fingerprint_data in data.values():
            library.add(RecordLengthFingerprint.from_dict(fingerprint_data))
        return library

    def save(self, path: str | Path) -> None:
        """Persist the library as JSON.

        Keys are sorted, so two libraries holding the same fingerprints save
        byte-identically however their environments were learned or merged —
        distributed calibration (``repro merge-fingerprints``) is verified
        against single-machine training with a plain ``diff``.  The write is
        atomic, so a reader (a watch fleet reloading the library) never sees
        a torn file, and a failed save leaves the previous library intact.
        """
        write_atomic(path, json.dumps(self.as_dict(), indent=2, sort_keys=True))

    @classmethod
    def from_bytes(cls, raw: bytes) -> "FingerprintLibrary":
        """Parse the bytes :meth:`save` writes."""
        try:
            data = json.loads(raw.decode("utf-8"))
        except ValueError as error:
            raise FingerprintError(f"cannot load fingerprint library: {error}") from error
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str | Path) -> "FingerprintLibrary":
        """Load a library previously written by :meth:`save`."""
        try:
            raw = Path(path).read_bytes()
        except OSError as error:
            raise FingerprintError(f"cannot load fingerprint library: {error}") from error
        return cls.from_bytes(raw)
