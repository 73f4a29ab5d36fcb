"""Unit tests for the coordinator's plan, ledger and wire layers.

The service-level (HTTP) behaviour and the byte-identity end-to-end run
live in ``tests/test_coordinator_service.py``; everything here drives the
pieces directly — deterministically, with injected clocks.
"""

from __future__ import annotations

import json

import pytest

from repro.coordinator.ledger import (
    COMPLETE,
    LEASED,
    LEDGER_VERSION,
    PENDING,
    LeaseLedger,
)
from repro.coordinator.plan import FleetPlan
from repro.coordinator.wire import (
    WIRE_VERSION,
    dump_body,
    error_body,
    parse_body,
    require_field,
)
from repro.exceptions import CoordinatorError, LeaseExpired, ReproError
from repro.jobs.specs import GenerateJob, TrainJob, job_from_dict


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- exceptions -------------------------------------------------------------


def test_coordinator_error_is_a_repro_error_with_field_and_status():
    error = CoordinatorError("nope", field="shards")
    assert isinstance(error, ReproError)
    assert error.field == "shards"
    assert error.status == 400


def test_lease_expired_is_a_coordinator_error_with_gone_status():
    error = LeaseExpired("gone", field="lease")
    assert isinstance(error, CoordinatorError)
    assert error.status == 410


# -- wire -------------------------------------------------------------------


def test_wire_bodies_round_trip_with_version_stamp():
    body = parse_body(dump_body({"worker": "w1"}))
    assert body == {"wire": WIRE_VERSION, "worker": "w1"}


def test_wire_rejects_non_json_naming_the_body():
    with pytest.raises(CoordinatorError) as caught:
        parse_body(b"not json")
    assert caught.value.field == "body"


def test_wire_rejects_non_object_naming_the_body():
    with pytest.raises(CoordinatorError) as caught:
        parse_body(b"[1, 2]")
    assert caught.value.field == "body"


def test_wire_rejects_other_versions_by_name():
    with pytest.raises(CoordinatorError) as caught:
        parse_body(json.dumps({"wire": 99}).encode())
    assert caught.value.field == "wire"
    assert "99" in str(caught.value)
    assert str(WIRE_VERSION) in str(caught.value)


def test_require_field_names_the_missing_field():
    with pytest.raises(CoordinatorError) as caught:
        require_field({"wire": 1}, "worker", str)
    assert caught.value.field == "worker"


def test_require_field_rejects_empty_strings():
    with pytest.raises(CoordinatorError) as caught:
        require_field({"worker": ""}, "worker", str)
    assert caught.value.field == "worker"


def test_error_body_always_names_a_field():
    payload = json.loads(error_body(CoordinatorError("boom")))
    assert payload["error"] == {"message": "boom", "field": "request"}
    payload = json.loads(error_body(CoordinatorError("boom", field="lease")))
    assert payload["error"]["field"] == "lease"


# -- plan -------------------------------------------------------------------


def test_plan_round_trips_through_its_dict_form():
    plan = FleetPlan(viewers=6, shards=3, seed=7, margin=4)
    assert FleetPlan.from_dict(plan.to_dict()) == plan


def test_plan_rejects_unknown_fields_by_name():
    data = FleetPlan().to_dict()
    data["viewer_count"] = 5
    with pytest.raises(CoordinatorError) as caught:
        FleetPlan.from_dict(data)
    assert caught.value.field == "viewer_count"


def test_plan_rejects_missing_fields_by_name():
    data = FleetPlan().to_dict()
    del data["seed"]
    with pytest.raises(CoordinatorError) as caught:
        FleetPlan.from_dict(data)
    assert caught.value.field == "seed"


def test_plan_validation_names_the_bad_field():
    with pytest.raises(CoordinatorError) as caught:
        FleetPlan(shards=0).validate()
    assert caught.value.field == "shards"
    with pytest.raises(CoordinatorError) as caught:
        FleetPlan(viewers=0).validate()
    assert caught.value.field == "viewers"


def test_plan_unit_ids_follow_shard_directory_names():
    assert FleetPlan(shards=3).unit_ids() == ("shard-000", "shard-001", "shard-002")


def test_unit_jobs_are_wire_safe_specs_with_workspace_relative_paths():
    plan = FleetPlan(viewers=10, shards=4, seed=5, margin=6, write_pcaps=True)
    generate, train = plan.unit_jobs(2)
    assert isinstance(generate, GenerateJob)
    assert isinstance(train, TrainJob)
    # The exact flags a human would pass for the manual distributed flow.
    assert generate.only_shards == "2"
    assert generate.shards == 4
    assert generate.seed == 5
    assert train.sharded and train.save_state == "state.json"
    for spec in (generate, train):
        rebuilt = job_from_dict(spec.to_dict())
        assert rebuilt == spec


def test_unit_uploads_declare_the_shard_tree_and_the_state_blob():
    uploads = FleetPlan(shards=2).unit_uploads(1)
    assert [upload["name"] for upload in uploads] == ["shard", "state"]
    assert uploads[0] == {
        "name": "shard",
        "path": "dataset/shard-001",
        "kind": "directory",
    }
    assert uploads[1]["kind"] == "file"


def test_out_of_range_shard_is_refused():
    with pytest.raises(CoordinatorError) as caught:
        FleetPlan(shards=2).unit_jobs(2)
    assert caught.value.field == "shard"


# -- ledger -----------------------------------------------------------------


@pytest.fixture()
def plan() -> FleetPlan:
    return FleetPlan(viewers=4, shards=2, seed=1)


def test_ledger_leases_units_in_shard_order(tmp_path, plan):
    ledger = LeaseLedger(tmp_path / "ledger.json", plan, clock=FakeClock())
    first = ledger.lease("w1", ttl=60)
    second = ledger.lease("w2", ttl=60)
    assert (first.unit, second.unit) == ("shard-000", "shard-001")
    assert first.lease == "lease-000001"
    assert second.lease == "lease-000002"
    assert ledger.lease("w3", ttl=60) is None
    assert ledger.counts() == {PENDING: 0, LEASED: 2, COMPLETE: 0}


def test_expired_leases_return_to_the_pool_and_die(tmp_path, plan):
    clock = FakeClock()
    ledger = LeaseLedger(tmp_path / "ledger.json", plan, clock=clock)
    unit = ledger.lease("w1", ttl=30)
    assert ledger.reclaim_expired() == ()  # still live
    clock.advance(31)
    reclaimed = ledger.reclaim_expired()
    assert [entry.unit for entry in reclaimed] == [unit.unit]
    assert reclaimed[0].worker == "w1"
    # The dead lease can no longer complete anything.
    with pytest.raises(LeaseExpired) as caught:
        ledger.unit_for_lease(unit.lease)
    assert caught.value.field == "lease"
    # The unit leases again, to a fresh lease id, counting the attempt.
    again = ledger.lease("w2", ttl=30)
    assert again.unit == unit.unit
    assert again.lease != unit.lease
    assert again.attempts == 2


def test_completion_records_fingerprints(tmp_path, plan):
    ledger = LeaseLedger(tmp_path / "ledger.json", plan, clock=FakeClock())
    first = ledger.lease("w1", ttl=60)
    second = ledger.lease("w1", ttl=60)
    ledger.complete(first.lease, {"shard": "a" * 64})
    assert not ledger.all_complete()
    ledger.complete(second.lease, {"shard": "b" * 64})
    assert ledger.all_complete()
    assert ledger.units()[0].fingerprints == {"shard": "a" * 64}


def test_ledger_survives_a_coordinator_restart(tmp_path, plan):
    path = tmp_path / "ledger.json"
    clock = FakeClock()
    ledger = LeaseLedger(path, plan, clock=clock)
    leased = ledger.lease("w1", ttl=60)
    ledger.complete(leased.lease, {"shard": "a" * 64})
    ledger.lease("w2", ttl=60)

    reloaded = LeaseLedger(path, plan, clock=clock)
    statuses = {unit.unit: unit.status for unit in reloaded.units()}
    assert statuses == {"shard-000": COMPLETE, "shard-001": LEASED}
    # The lease counter also survives: no id is ever reused.
    clock.advance(61)
    reloaded.reclaim_expired()
    fresh = reloaded.lease("w3", ttl=60)
    assert fresh.lease == "lease-000003"


def test_ledger_refuses_a_different_plan_naming_the_field(tmp_path, plan):
    path = tmp_path / "ledger.json"
    LeaseLedger(path, plan, clock=FakeClock())
    other = FleetPlan(viewers=4, shards=2, seed=99)
    with pytest.raises(CoordinatorError) as caught:
        LeaseLedger(path, other, clock=FakeClock())
    assert caught.value.field == "seed"
    assert "99" in str(caught.value)


def test_ledger_refuses_other_ledger_versions(tmp_path, plan):
    path = tmp_path / "ledger.json"
    LeaseLedger(path, plan, clock=FakeClock())
    data = json.loads(path.read_text())
    data["ledger"] = LEDGER_VERSION + 1
    path.write_text(json.dumps(data))
    with pytest.raises(CoordinatorError) as caught:
        LeaseLedger(path, plan, clock=FakeClock())
    assert caught.value.field == "ledger"


def test_ledger_writes_are_atomic(tmp_path, plan):
    path = tmp_path / "ledger.json"
    ledger = LeaseLedger(path, plan, clock=FakeClock())
    ledger.lease("w1", ttl=60)
    # The write-temp-then-rename idiom never leaves a scratch file.
    assert sorted(tmp_path.iterdir()) == [path]
    assert json.loads(path.read_text())["lease_counter"] == 1
