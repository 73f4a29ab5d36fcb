"""Tests for record-length band fingerprints."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.features import ClientRecord, LABEL_OTHER, LABEL_TYPE1, LABEL_TYPE2
from repro.core import fingerprint as fingerprint_module
from repro.core.fingerprint import (
    FingerprintAccumulator,
    FingerprintLibrary,
    LengthBand,
    RecordLengthFingerprint,
)
from repro.exceptions import FingerprintError


def _record(length: int, label: str) -> ClientRecord:
    return ClientRecord(timestamp=1.0, wire_length=length, content_type=23, label=label)


def _training_records() -> list[ClientRecord]:
    records = [_record(length, LABEL_TYPE1) for length in (2211, 2212, 2213)]
    records += [_record(length, LABEL_TYPE2) for length in (2992, 3000, 3017)]
    records += [_record(length, LABEL_OTHER) for length in (600, 2500, 4500)]
    return records


class TestLengthBand:
    def test_contains_and_width(self):
        band = LengthBand(10, 20)
        assert band.contains(10) and band.contains(20) and not band.contains(21)
        assert band.width == 11

    def test_widened(self):
        assert LengthBand(10, 20).widened(3) == LengthBand(7, 23)
        assert LengthBand(2, 5).widened(5).low == 1  # clamped at 1

    def test_overlaps(self):
        assert LengthBand(10, 20).overlaps(LengthBand(20, 30))
        assert not LengthBand(10, 20).overlaps(LengthBand(21, 30))

    def test_from_values(self):
        band = LengthBand.from_values([5, 9, 7], margin=1)
        assert band == LengthBand(4, 10)

    def test_invalid_bands_rejected(self):
        with pytest.raises(FingerprintError):
            LengthBand(5, 4)
        with pytest.raises(FingerprintError):
            LengthBand(0, 4)
        with pytest.raises(FingerprintError):
            LengthBand.from_values([], margin=0)

    def test_dict_round_trip(self):
        band = LengthBand(2211, 2213)
        assert LengthBand.from_dict(band.as_dict()) == band


class TestRecordLengthFingerprint:
    def test_learn_and_classify(self):
        fingerprint = RecordLengthFingerprint.learn("linux/firefox", _training_records(), margin=2)
        assert fingerprint.classify_length(2212) == LABEL_TYPE1
        assert fingerprint.classify_length(3005) == LABEL_TYPE2
        assert fingerprint.classify_length(700) == LABEL_OTHER
        assert fingerprint.classify_length(5000) == LABEL_OTHER

    def test_margin_widens_bands(self):
        tight = RecordLengthFingerprint.learn("env", _training_records(), margin=0)
        wide = RecordLengthFingerprint.learn("env", _training_records(), margin=5)
        assert tight.classify_length(2216) == LABEL_OTHER
        assert wide.classify_length(2216) == LABEL_TYPE1

    def test_learn_requires_both_classes(self):
        only_type1 = [_record(2212, LABEL_TYPE1), _record(600, LABEL_OTHER)]
        with pytest.raises(FingerprintError):
            RecordLengthFingerprint.learn("env", only_type1)

    def test_overlapping_bands_rejected(self):
        records = [_record(1000, LABEL_TYPE1), _record(1001, LABEL_TYPE2)]
        with pytest.raises(FingerprintError):
            RecordLengthFingerprint.learn("env", records, margin=5)

    def test_classify_records(self):
        fingerprint = RecordLengthFingerprint.learn("env", _training_records(), margin=2)
        labels = fingerprint.classify([_record(2212, None), _record(450, None)])
        assert labels == [LABEL_TYPE1, LABEL_OTHER]

    def test_dict_round_trip(self):
        fingerprint = RecordLengthFingerprint.learn("env", _training_records(), margin=2)
        restored = RecordLengthFingerprint.from_dict(fingerprint.as_dict())
        assert restored == fingerprint


class TestFingerprintLibrary:
    def test_learn_get_contains(self):
        library = FingerprintLibrary()
        library.learn("linux/firefox", _training_records())
        assert "linux/firefox" in library
        assert len(library) == 1
        assert library.get("linux/firefox").condition_key == "linux/firefox"

    def test_missing_environment_raises(self):
        with pytest.raises(FingerprintError):
            FingerprintLibrary().get("mac/safari")

    def test_save_and_load(self, tmp_path):
        library = FingerprintLibrary()
        library.learn("linux/firefox", _training_records())
        library.learn("windows/firefox", [
            _record(2342, LABEL_TYPE1),
            _record(3130, LABEL_TYPE2),
            _record(800, LABEL_OTHER),
        ])
        path = tmp_path / "library.json"
        library.save(path)
        restored = FingerprintLibrary.load(path)
        assert set(restored.condition_keys) == set(library.condition_keys)
        assert restored.get("linux/firefox").type1_band == library.get("linux/firefox").type1_band

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FingerprintError):
            FingerprintLibrary.load(tmp_path / "missing.json")

    def test_load_refuses_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "library.json"
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(FingerprintError, match="cannot load fingerprint library"):
            FingerprintLibrary.load(path)


def _unwritable_json(*_args, **_kwargs) -> str:
    # A lone surrogate cannot be encoded as UTF-8: the write fails after
    # the serialised text exists, as a full disk would mid-save.
    return '{"torn": "\ud800"}'


class TestSavesAreAtomic:
    """A failed save must leave the previous file, never a truncated one."""

    def _library(self) -> FingerprintLibrary:
        library = FingerprintLibrary()
        library.learn("linux/firefox", _training_records())
        return library

    def test_failed_library_save_keeps_the_old_library(self, tmp_path, monkeypatch):
        path = tmp_path / "library.json"
        self._library().save(path)
        before = path.read_bytes()
        monkeypatch.setattr(fingerprint_module.json, "dumps", _unwritable_json)
        with pytest.raises(UnicodeEncodeError):
            self._library().save(path)
        assert path.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == [path]

    def test_failed_state_save_keeps_the_old_state(self, tmp_path, monkeypatch):
        path = tmp_path / "state.json"
        accumulator = FingerprintAccumulator()
        accumulator.observe("linux/firefox", _training_records())
        accumulator.save(path)
        before = path.read_bytes()
        monkeypatch.setattr(fingerprint_module.json, "dumps", _unwritable_json)
        with pytest.raises(UnicodeEncodeError):
            accumulator.save(path)
        assert path.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == [path]


class TestLibrarySerialisationGoldenFile:
    """Pin the on-disk library JSON against a committed golden file.

    The distributed-calibration CI jobs verify `merge-fingerprints` output
    with a plain `diff` against single-machine training, so any drift in the
    serialisation (key order, indentation, field names) silently breaks that
    equality out in CI.  Schema changes are fine — but they must be made
    deliberately, by regenerating this golden file in the same commit.
    """

    GOLDEN = Path(__file__).parent / "data" / "fingerprint_library.golden.json"

    def _golden_library(self) -> FingerprintLibrary:
        library = FingerprintLibrary()
        library.add(
            RecordLengthFingerprint(
                condition_key="windows/firefox",
                type1_band=LengthBand(low=201, high=233),
                type2_band=LengthBand(low=618, high=642),
                training_records=48,
            )
        )
        library.add(
            RecordLengthFingerprint(
                condition_key="linux/firefox",
                type1_band=LengthBand(low=196, high=228),
                type2_band=LengthBand(low=611, high=637),
                training_records=52,
            )
        )
        return library

    def test_save_matches_golden_bytes(self, tmp_path):
        path = tmp_path / "library.json"
        self._golden_library().save(path)
        assert path.read_bytes() == self.GOLDEN.read_bytes(), (
            "FingerprintLibrary.save output drifted from the golden file; "
            "if the schema change is intentional, regenerate "
            "tests/data/fingerprint_library.golden.json in this commit"
        )

    def test_insertion_order_cannot_leak_into_the_bytes(self, tmp_path):
        # The golden library inserts windows before linux; reversing the
        # insertion order must not change a byte (keys are sorted on save).
        library = FingerprintLibrary()
        for key in sorted(self._golden_library().condition_keys):
            library.add(self._golden_library().get(key))
        path = tmp_path / "library.json"
        library.save(path)
        assert path.read_bytes() == self.GOLDEN.read_bytes()

    def test_golden_file_loads_back(self):
        restored = FingerprintLibrary.load(self.GOLDEN)
        assert set(restored.condition_keys) == {"windows/firefox", "linux/firefox"}
        assert restored.get("linux/firefox").training_records == 52
