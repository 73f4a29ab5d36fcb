"""Service-level tests: the wire API over HTTP, and fleet byte-identity.

The load-bearing assertion of the whole coordinator: a plan distributed
across pull workers — including a worker whose lease expires mid-unit and
is reassigned — publishes a dataset root and merged library byte-identical
to one machine running the plan serially.  (CI repeats the kill-a-worker
variant with real processes and SIGKILL; here the dead worker is simulated
by taking a lease over HTTP and never completing it.)
"""

from __future__ import annotations

import base64
import http.client
import io
import json
import socket
import tarfile
import threading
import urllib.error
import urllib.request

import pytest

from repro.coordinator import Coordinator, FleetPlan, PullWorker
from repro.coordinator import wire
from repro.dataset.format import snapshot_dataset_files
from repro.exceptions import CoordinatorError, LeaseExpired
from repro.jobs import EventBus, JobRunner, Workspace
from repro.jobs.events import EVENT_SCHEMA_VERSION
from repro.jobs.specs import GenerateJob, TrainJob

PLAN = dict(viewers=2, shards=2, seed=9, margin=8, cross_traffic=False)


class Recorder:
    """An event sink that remembers every (kind, data) it sees."""

    def __init__(self) -> None:
        self.events: list[tuple[str, dict]] = []

    def handle(self, event) -> None:
        self.events.append((event.kind, dict(event.data)))

    def kinds(self) -> list[str]:
        return [kind for kind, _data in self.events]


def _post(url: str, path: str, payload: dict | None = None, raw: bytes | None = None):
    body = raw if raw is not None else wire.dump_body(payload or {})
    request = urllib.request.Request(url + path, data=body, method="POST")
    with urllib.request.urlopen(request, timeout=30) as reply:
        return json.loads(reply.read())


def _get(url: str, path: str):
    with urllib.request.urlopen(url + path, timeout=30) as reply:
        return json.loads(reply.read())


def _error_of(call):
    with pytest.raises(urllib.error.HTTPError) as caught:
        call()
    payload = json.loads(caught.value.read())
    return caught.value.code, payload["error"]


def _reference_run(root_directory):
    """One machine running the whole plan serially: the gold bytes."""
    workspace = Workspace(root_directory)
    runner = JobRunner(EventBus(), workspace)
    runner.run(
        GenerateJob(
            output="dataset",
            viewers=PLAN["viewers"],
            seed=PLAN["seed"],
            shards=PLAN["shards"],
            cross_traffic=PLAN["cross_traffic"],
        )
    )
    runner.run(
        TrainJob(
            dataset="dataset",
            output="library.json",
            sharded=True,
            margin=PLAN["margin"],
        )
    )
    return root_directory / "dataset", root_directory / "library.json"


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    return _reference_run(tmp_path_factory.mktemp("fleet-reference"))


@pytest.fixture(scope="module")
def fleet_run(tmp_path_factory):
    """Two pull workers draining a coordinator, plus the recorded events."""
    base = tmp_path_factory.mktemp("fleet-run")
    recorder = Recorder()
    coordinator = Coordinator(
        FleetPlan(**PLAN),
        EventBus(recorder),
        root=base / "dataset",
        library=base / "library.json",
        lease_ttl=300.0,
        linger=0.2,
    )
    host, port = coordinator.start()
    url = f"http://{host}:{port}"
    failures: list[BaseException] = []

    def pull(name: str) -> None:
        try:
            PullWorker(
                url,
                EventBus(),
                worker_id=name,
                scratch=base / f"scratch-{name}",
                poll_interval=0.05,
            ).run()
        except BaseException as error:  # noqa: BLE001 - reported by the test
            failures.append(error)

    threads = [
        threading.Thread(target=pull, args=(f"w{index}",)) for index in range(2)
    ]
    for thread in threads:
        thread.start()
    summary = coordinator.serve_until_complete()
    for thread in threads:
        thread.join(timeout=60)
    assert not failures, failures
    return base / "dataset", base / "library.json", summary, recorder


def test_fleet_run_is_byte_identical_to_the_serial_run(reference, fleet_run):
    reference_root, reference_library = reference
    fleet_root, fleet_library, _summary, _recorder = fleet_run
    assert snapshot_dataset_files(fleet_root) == snapshot_dataset_files(
        reference_root
    )
    assert fleet_library.read_bytes() == reference_library.read_bytes()


def test_fleet_run_summary_counts_units_and_workers(fleet_run):
    _root, _library, summary, _recorder = fleet_run
    assert summary["units"] == PLAN["shards"]
    assert 1 <= summary["workers"] <= 2


def test_coordinator_narrates_the_whole_plan(fleet_run):
    _root, _library, _summary, recorder = fleet_run
    kinds = recorder.kinds()
    assert kinds[0] == "serve-started"
    # plan-complete closes publication; a worker's last event-feed flush
    # may still trickle in after it, so order is pinned only up to here.
    assert "plan-complete" in kinds
    assert kinds.index("plan-complete") > kinds.index("unit-complete")
    assert kinds.count("lease-granted") == PLAN["shards"]
    assert kinds.count("unit-complete") == PLAN["shards"]
    # Worker narration was ingested over /v1/events and re-emitted here.
    assert "work-started" in kinds
    assert "generation-started" in kinds
    # Publication reuses the stock stitch/train narration.
    assert "stitch-started" in kinds and "fingerprints" in kinds


def test_state_directory_stays_out_of_the_published_root(fleet_run):
    root, _library, _summary, _recorder = fleet_run
    assert not (root / "ledger.json").exists()
    sibling = root.parent / (root.name + ".coordinator")
    assert (sibling / "ledger.json").exists()


def test_expired_lease_is_reassigned_and_bytes_still_match(
    tmp_path_factory, reference
):
    """A worker dies mid-unit: its lease expires, the unit is redone."""
    reference_root, reference_library = reference
    base = tmp_path_factory.mktemp("fleet-reassign")
    recorder = Recorder()

    # An injected clock makes expiry deterministic: the doomed worker's
    # lease is pushed past its TTL in one step, then time freezes so the
    # survivor's own leases never expire mid-unit.
    now = [1000.0]
    coordinator = Coordinator(
        FleetPlan(**PLAN),
        EventBus(recorder),
        root=base / "dataset",
        library=base / "library.json",
        lease_ttl=60.0,
        linger=0.2,
        clock=lambda: now[0],
    )
    host, port = coordinator.start()
    url = f"http://{host}:{port}"
    # The doomed worker takes a lease and is never heard from again.
    doomed = _post(url, wire.LEASE_PATH, {"worker": "doomed"})
    assert doomed["lease"]["unit"] == "shard-000"
    now[0] += 61.0

    worker = PullWorker(
        url,
        EventBus(),
        worker_id="survivor",
        scratch=base / "scratch",
        poll_interval=0.05,
    )
    thread = threading.Thread(target=worker.run)
    thread.start()
    coordinator.serve_until_complete()
    thread.join(timeout=120)

    assert "lease-reclaimed" in recorder.kinds()
    status = [
        data for kind, data in recorder.events if kind == "lease-reclaimed"
    ][0]
    assert status["worker"] == "doomed"
    assert snapshot_dataset_files(base / "dataset") == snapshot_dataset_files(
        reference_root
    )
    assert (base / "library.json").read_bytes() == reference_library.read_bytes()


# -- wire API pins (no work executed) ---------------------------------------


@pytest.fixture()
def api(tmp_path):
    recorder = Recorder()
    coordinator = Coordinator(
        FleetPlan(**PLAN),
        EventBus(recorder),
        root=tmp_path / "dataset",
        library=tmp_path / "library.json",
        lease_ttl=300.0,
    )
    host, port = coordinator.start()
    yield f"http://{host}:{port}", recorder
    coordinator.close()


def test_start_announces_serving_before_any_lease(api):
    # start() narrates serve-started itself, before its serving thread can
    # grant (and narrate) a lease: it is the first event with or without
    # a worker racing it.
    _url, recorder = api
    assert recorder.kinds() == ["serve-started"]


def test_plan_endpoint_is_wire_stamped(api):
    url, _recorder = api
    body = _get(url, wire.PLAN_PATH)
    assert body["wire"] == wire.WIRE_VERSION
    assert body["plan"]["viewers"] == PLAN["viewers"]
    assert body["units"] == ["shard-000", "shard-001"]


def test_status_endpoint_reports_unit_dispositions(api):
    url, _recorder = api
    _post(url, wire.LEASE_PATH, {"worker": "w1"})
    body = _get(url, wire.STATUS_PATH)
    assert body["done"] is False
    assert body["counts"] == {"pending": 1, "leased": 1, "complete": 0}
    assert body["units"][0]["worker"] == "w1"


def test_unknown_endpoint_is_a_404_naming_the_path(api):
    url, _recorder = api
    code, error = _error_of(lambda: _get(url, "/v1/nope"))
    assert code == 404
    assert error["field"] == "path"
    assert wire.LEASE_PATH in error["message"]


def test_unexpected_handler_failure_is_a_500_naming_internal(api, monkeypatch):
    def broken(self):
        raise RuntimeError("ledger on fire")

    monkeypatch.setattr(Coordinator, "api_status", broken)
    url, _recorder = api
    code, error = _error_of(lambda: _get(url, wire.STATUS_PATH))
    assert code == 500
    assert error["field"] == "internal"
    assert "ledger on fire" in error["message"]


def test_malformed_content_length_is_a_400_before_any_route(api):
    url, recorder = api
    connection = http.client.HTTPConnection(url.removeprefix("http://"), timeout=30)
    try:
        connection.putrequest("POST", wire.LEASE_PATH)
        connection.putheader("Content-Length", "-5")
        connection.endheaders()
        assert connection.getresponse().status == 400
    finally:
        connection.close()
    assert recorder.kinds() == ["serve-started"]


def test_wrong_wire_version_is_refused_by_name(api):
    url, _recorder = api
    code, error = _error_of(
        lambda: _post(
            url, wire.LEASE_PATH, raw=json.dumps({"wire": 9, "worker": "w"}).encode()
        )
    )
    assert code == 400
    assert error["field"] == "wire"


def test_lease_without_a_worker_names_the_field(api):
    url, _recorder = api
    code, error = _error_of(lambda: _post(url, wire.LEASE_PATH, {}))
    assert code == 400
    assert error["field"] == "worker"


def test_completing_a_dead_lease_is_410_gone(api):
    url, _recorder = api
    code, error = _error_of(
        lambda: _post(
            url,
            wire.COMPLETE_PATH,
            {"worker": "w", "lease": "lease-999999", "uploads": []},
        )
    )
    assert code == 410
    assert error["field"] == "lease"


def test_upload_shape_errors_name_the_exact_field(api):
    url, _recorder = api
    lease = _post(url, wire.LEASE_PATH, {"worker": "w"})["lease"]
    code, error = _error_of(
        lambda: _post(
            url,
            wire.COMPLETE_PATH,
            {
                "worker": "w",
                "lease": lease["id"],
                "uploads": [
                    {"name": "shard", "kind": "directory", "fingerprint": "x"},
                    {"name": "state", "kind": "file", "fingerprint": "y", "data": "eA=="},
                ],
            },
        )
    )
    assert code == 400
    assert error["field"] == "uploads[0].data"


def test_fingerprint_mismatch_is_409_naming_the_upload(api):
    url, _recorder = api
    lease = _post(url, wire.LEASE_PATH, {"worker": "w"})["lease"]
    buffer = io.BytesIO()
    with tarfile.open(fileobj=buffer, mode="w") as archive:
        member = tarfile.TarInfo("./poison.txt")
        member.size = 4
        archive.addfile(member, io.BytesIO(b"oops"))
    uploads = [
        {
            "name": "shard",
            "kind": "directory",
            "fingerprint": "0" * 64,
            "data": base64.b64encode(buffer.getvalue()).decode(),
        },
        {
            "name": "state",
            "kind": "file",
            "fingerprint": "0" * 64,
            "data": base64.b64encode(b"{}").decode(),
        },
    ]
    code, error = _error_of(
        lambda: _post(
            url,
            wire.COMPLETE_PATH,
            {"worker": "w", "lease": lease["id"], "uploads": uploads},
        )
    )
    assert code == 409
    assert error["field"] == "uploads[0].fingerprint"
    assert "0" * 12 in error["message"]


def test_events_feed_is_re_emitted_on_the_coordinator_bus(api):
    url, recorder = api
    line = json.dumps(
        {"event": "note", "schema": EVENT_SCHEMA_VERSION, "text": "hi"}
    )
    body = _post(url, wire.EVENTS_PATH, raw=(line + "\n").encode())
    assert body["accepted"] == 1
    assert ("note", {"text": "hi"}) in recorder.events


def test_events_feed_refuses_other_schema_versions(api):
    url, _recorder = api
    line = json.dumps({"event": "note", "schema": 99, "text": "hi"})
    code, error = _error_of(
        lambda: _post(url, wire.EVENTS_PATH, raw=line.encode())
    )
    assert code == 400
    assert error["field"] == "schema"


def test_events_feed_refuses_non_json_lines(api):
    url, _recorder = api
    code, error = _error_of(
        lambda: _post(url, wire.EVENTS_PATH, raw=b"not json\n")
    )
    assert code == 400
    assert error["field"] == "events"


# -- the server stops on every exit ------------------------------------------


def _idle_coordinator(tmp_path) -> Coordinator:
    return Coordinator(
        FleetPlan(**PLAN),
        EventBus(),
        root=tmp_path / "dataset",
        library=tmp_path / "library.json",
        lease_ttl=300.0,
    )


def _still_serving(address) -> bool:
    try:
        socket.create_connection(address, timeout=5).close()
    except OSError:
        return False
    return True


def test_a_failed_publish_leaves_no_server(tmp_path, monkeypatch):
    coordinator = _idle_coordinator(tmp_path)
    address = coordinator.start()

    def publish():
        raise CoordinatorError("publish failed")

    monkeypatch.setattr(coordinator, "_publish", publish)
    coordinator._complete.set()
    try:
        with pytest.raises(CoordinatorError, match="publish failed"):
            coordinator.serve_until_complete()
        serving = _still_serving(address)
    finally:
        coordinator.close()
    assert not serving


def test_an_interrupted_serve_leaves_no_server(tmp_path, monkeypatch):
    coordinator = _idle_coordinator(tmp_path)
    address = coordinator.start()

    class Interrupted:
        def wait(self, timeout):
            raise KeyboardInterrupt

    monkeypatch.setattr(coordinator, "_complete", Interrupted())
    try:
        with pytest.raises(KeyboardInterrupt):
            coordinator.serve_until_complete()
        serving = _still_serving(address)
    finally:
        coordinator.close()
    assert not serving


# -- worker-side guards -----------------------------------------------------


def test_worker_refuses_an_unreachable_coordinator_by_url():
    worker = PullWorker(
        "http://127.0.0.1:1", EventBus(), worker_id="w", poll_interval=0.01
    )
    with pytest.raises(CoordinatorError) as caught:
        worker.run()
    assert caught.value.field == "url"


def test_worker_leaves_the_bus_sinks_as_it_found_them(api):
    url, _recorder = api
    local = Recorder()
    bus = EventBus(local)
    finished = PullWorker(url, bus, worker_id="w", max_units=0)
    assert finished.run() == {"worker": "w", "units": 0}
    assert bus._sinks == [local]
    unreachable = PullWorker(
        "http://127.0.0.1:1", bus, worker_id="w", poll_interval=0.01
    )
    with pytest.raises(CoordinatorError):
        unreachable.run()
    assert bus._sinks == [local]
    assert local.kinds() == ["work-started", "work-finished", "work-started"]


def test_worker_rejection_rebuilds_the_typed_error(api):
    url, _recorder = api
    worker = PullWorker(url, EventBus(), worker_id="w")
    with pytest.raises(LeaseExpired) as caught:
        worker._post_json(
            wire.COMPLETE_PATH,
            {"worker": "w", "lease": "lease-424242", "uploads": []},
        )
    assert caught.value.status == 410
    assert caught.value.field == "lease"


# -- publication narration pins ---------------------------------------------

#: What the coordinator itself emits while it publishes; worker narration
#: that trickles in after the last upload (``unit-uploaded``,
#: ``work-finished``) is left out.
PUBLICATION_KINDS = (
    "state-folded",
    "stitch-started",
    "shard-complete",
    "artifact-written",
    "fingerprints",
    "table",
    "plan-complete",
)


def _publication(recorder: Recorder, base, first: str) -> list:
    """The publish tail from ``first`` through ``plan-complete``, with the
    run's temporary directory replaced by ``<base>`` in every string."""

    def normalise(value):
        if isinstance(value, str):
            return value.replace(str(base), "<base>")
        if isinstance(value, list):
            return [normalise(item) for item in value]
        if isinstance(value, dict):
            return {key: normalise(item) for key, item in value.items()}
        return value

    kinds = recorder.kinds()
    start = kinds.index(first)
    stop = kinds.index("plan-complete", start)
    return [
        [kind, normalise(data)]
        for kind, data in recorder.events[start : stop + 1]
        if kind in PUBLICATION_KINDS
    ]


@pytest.fixture(scope="module")
def arena_run(tmp_path_factory):
    """One pull worker draining a two-cell arena plan, events recorded."""
    from repro.coordinator import ArenaPlan

    base = tmp_path_factory.mktemp("arena-run")
    recorder = Recorder()
    coordinator = Coordinator(
        ArenaPlan(
            defenses=("pad-to-multiple:block_bytes=64",),
            classifiers=("interval:margin=8",),
            conditions=("linux/desktop/firefox/wired/noon",),
            train_count=1,
            test_count=1,
            seed=11,
        ),
        EventBus(recorder),
        root=base / "arena",
        library=base / "report.json",
        linger=0.0,
    )
    host, port = coordinator.start()
    worker = threading.Thread(
        target=PullWorker(
            f"http://{host}:{port}",
            EventBus(),
            worker_id="w1",
            scratch=base / "scratch",
            poll_interval=0.05,
        ).run
    )
    worker.start()
    coordinator.serve_until_complete()
    worker.join(timeout=60)
    return base, recorder


def test_fleet_publication_narration_is_pinned(fleet_run):
    """``serve`` publishes with the stock stitch/train narration, in order."""
    root, _library, summary, recorder = fleet_run
    assert _publication(recorder, root.parent, "state-folded") == [
        [
            "state-folded",
            {
                "path": "<base>/dataset.coordinator/states/shard-000.json",
                "environments": 1,
                "records": 114,
            },
        ],
        [
            "state-folded",
            {
                "path": "<base>/dataset.coordinator/states/shard-001.json",
                "environments": 1,
                "records": 131,
            },
        ],
        ["stitch-started", {"root": "<base>/dataset"}],
        [
            "shard-complete",
            {"shard": "shard-000", "viewers": 1, "state": "verified"},
        ],
        [
            "shard-complete",
            {"shard": "shard-001", "viewers": 1, "state": "verified"},
        ],
        ["artifact-written", {"path": "<base>/dataset/shards.json"}],
        [
            "fingerprints",
            {
                "rows": [
                    {
                        "environment": "linux/firefox",
                        "type1_band": "2203-2221",
                        "type2_band": "2993-3019",
                        "training_records": 114,
                    },
                    {
                        "environment": "windows/firefox",
                        "type1_band": "2333-2351",
                        "type2_band": "3111-3153",
                        "training_records": 131,
                    },
                ],
                "output": "<base>/library.json",
            },
        ],
        # Either worker may drain both units, so the count is the summary's.
        ["plan-complete", {"units": 2, "workers": summary["workers"]}],
    ]


def test_arena_publication_narration_is_pinned(arena_run):
    """``serve --arena`` publishes with the stock arena narration."""
    base, recorder = arena_run
    assert _publication(recorder, base, "table") == [
        [
            "table",
            {
                "title": "Arena — defense × classifier sweep",
                "rows": [
                    {
                        "cell": "cell-0000",
                        "condition": "linux/desktop/firefox/wired/noon",
                        "defense": "no defense",
                        "classifier": "interval(margin=8)",
                        "choice_accuracy": 1.0,
                        "overhead_bytes": 0.0,
                        "timing_recall": 0.8,
                        "pareto": "*",
                    },
                    {
                        "cell": "cell-0001",
                        "condition": "linux/desktop/firefox/wired/noon",
                        "defense": "pad-to-multiple(block_bytes=64)",
                        "classifier": "interval(margin=8)",
                        "choice_accuracy": 1.0,
                        "overhead_bytes": 4369.0,
                        "timing_recall": 0.8,
                        "pareto": "",
                    },
                ],
                "blank_after": True,
            },
        ],
        [
            "artifact-written",
            {"path": "<base>/report.json", "label": "arena-report"},
        ],
        ["plan-complete", {"units": 2, "workers": 1}],
    ]
