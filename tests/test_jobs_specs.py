"""Job-spec serialization: the round-trip property and its failure modes.

The specs are the jobs layer's wire format — a fleet coordinator must be
able to serialise a spec on one machine and rebuild it bit-for-bit on
another.  The property test drives seeded-random specs of every class
through ``to_dict -> json -> from_dict -> to_dict`` and demands a fixed
point; the failure-mode tests pin that a wrong schema version, kind,
field set or payload type fails loudly, naming the problem.
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from repro.exceptions import JobError, ReproError
from repro.ingest.fleet import DEFAULT_QUEUE_HIGH
from repro.jobs import (
    SCHEMA_VERSION,
    SPEC_CLASSES,
    GenerateJob,
    TrainJob,
    WatchJob,
    job_from_dict,
)
from repro.jobs.specs import JobSpec

CASES_PER_CLASS = 25


def _random_value(rng: random.Random, field: dataclasses.Field) -> object:
    """A plausible random value for one spec field, by type annotation."""
    annotation = str(field.type)
    optional = "None" in annotation
    if optional and rng.random() < 0.3:
        return None
    if "tuple" in annotation:
        return tuple(
            f"state-{rng.randrange(1000)}.json" for _ in range(rng.randrange(1, 4))
        )
    if "bool" in annotation:
        return rng.random() < 0.5
    if "float" in annotation:
        return round(rng.uniform(0.01, 0.99), 3)
    if "int" in annotation:
        return rng.randrange(0, 64)
    return f"path-{rng.randrange(10_000)}"


def _random_spec(rng: random.Random, spec_class: type[JobSpec]) -> JobSpec:
    kwargs = {
        field.name: _random_value(rng, field)
        for field in dataclasses.fields(spec_class)
    }
    return spec_class(**kwargs)


@pytest.mark.parametrize("spec_class", SPEC_CLASSES, ids=lambda cls: cls.KIND)
def test_round_trip_is_a_fixed_point(spec_class):
    rng = random.Random(f"roundtrip-{spec_class.KIND}")
    for _ in range(CASES_PER_CLASS):
        spec = _random_spec(rng, spec_class)
        data = spec.to_dict()
        # The wire form itself survives JSON (tuples already lowered).
        wire = json.loads(json.dumps(data, sort_keys=True))
        rebuilt = job_from_dict(wire)
        assert rebuilt == spec
        assert rebuilt.to_dict() == data


@pytest.mark.parametrize("spec_class", SPEC_CLASSES, ids=lambda cls: cls.KIND)
def test_serialisation_is_deterministic(spec_class):
    # Identical specs must serialise to identical bytes: sorted keys, no
    # dict-ordering leakage.
    rng_a = random.Random(f"bytes-{spec_class.KIND}")
    rng_b = random.Random(f"bytes-{spec_class.KIND}")
    spec_a = _random_spec(rng_a, spec_class)
    spec_b = _random_spec(rng_b, spec_class)
    assert json.dumps(spec_a.to_dict()) == json.dumps(spec_b.to_dict())
    assert list(spec_a.to_dict()) == sorted(spec_a.to_dict())


def test_unknown_schema_version_fails_naming_the_version():
    data = GenerateJob(output="x").to_dict()
    data["schema"] = 99
    with pytest.raises(JobError, match=r"unsupported job spec schema version 99"):
        job_from_dict(data)
    with pytest.raises(JobError, match=rf"speaks schema version {SCHEMA_VERSION}"):
        job_from_dict(data)


def test_missing_schema_version_fails():
    data = GenerateJob(output="x").to_dict()
    del data["schema"]
    with pytest.raises(JobError, match=r"unsupported job spec schema version None"):
        job_from_dict(data)


def test_unknown_kind_fails_listing_known_kinds():
    data = {"job": "frobnicate", "schema": SCHEMA_VERSION}
    with pytest.raises(JobError, match=r"unknown job kind 'frobnicate'") as excinfo:
        job_from_dict(data)
    assert "generate" in str(excinfo.value)
    assert "watch" in str(excinfo.value)


def test_unknown_field_fails_naming_it():
    data = TrainJob(dataset="d", output="o").to_dict()
    data["sharded_workers"] = 2
    with pytest.raises(JobError, match=r"unknown field\(s\) \['sharded_workers'\]"):
        TrainJob.from_dict(data)


def test_wrong_kind_for_class_fails():
    data = GenerateJob(output="x").to_dict()
    with pytest.raises(JobError, match=r"cannot build a 'train' job"):
        TrainJob.from_dict(data)


def test_non_mapping_payload_fails():
    with pytest.raises(JobError, match=r"must be a JSON object, got list"):
        job_from_dict(["generate"])


def test_validate_runs_on_the_runner_path():
    # Validation errors keep their historical CLI wording.
    with pytest.raises(ReproError, match=r"--resume requires --shards"):
        GenerateJob(output="x", resume=True).validate()


def test_watch_low_watermark_defaults_to_half_the_high():
    assert WatchJob().queue_high == DEFAULT_QUEUE_HIGH
    assert WatchJob().low_watermark == DEFAULT_QUEUE_HIGH // 2
    assert WatchJob(queue_high=9).low_watermark == 4
    assert WatchJob(queue_high=9, queue_low=0).low_watermark == 0


def test_the_runner_dispatches_every_spec_kind():
    # JobRunner keys its handlers by ``spec.KIND``; an unknown kind is refused
    # with the list of kinds it does run, which must be exactly the specs'.
    from repro.jobs import EventBus, JobRunner

    @dataclasses.dataclass(frozen=True)
    class UnknownJob(JobSpec):
        KIND = "unknown"

    with pytest.raises(JobError) as error:
        JobRunner(EventBus()).run(UnknownJob())
    kinds = sorted(spec_class.KIND for spec_class in SPEC_CLASSES)
    assert str(error.value) == f"no runner for job spec UnknownJob; known kinds: {kinds}"
