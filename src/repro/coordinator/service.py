"""The coordinator service: ``repro serve`` behind the jobs wire API.

One :class:`Coordinator` owns one :class:`~repro.coordinator.plan.FleetPlan`
and drives it to publication:

* ``GET /v1/plan`` and ``GET /v1/status`` describe the plan and the
  ledger's current unit dispositions;
* ``POST /v1/lease`` hands the next pending unit — a pair of ordinary
  :mod:`repro.jobs` specs in their wire form — to a pulling worker, after
  sweeping expired leases back into the pool;
* ``POST /v1/complete`` accepts a worker's upload (shard directory as a
  tar, accumulator state as a file, both base64 in the JSON body), verifies
  every blob against its claimed sha256 content fingerprint *before* any of
  it reaches the dataset root, and marks the unit complete;
* ``POST /v1/events`` ingests a worker's JSONL event feed and re-emits it
  on the coordinator's own bus, so fleet progress renders through the
  stock renderers exactly like a local run.

When the last unit completes, the serve loop publishes with the job
runner's own closing steps: it folds the collected accumulator states in
unit order (:func:`~repro.jobs.runner.fold_state_files`, as ``repro
merge-fingerprints`` does), validates and publishes the stitched manifest
(:func:`~repro.jobs.runner.stitch_dataset_root`, as ``repro stitch``
does), and writes the merged library atomically.  The published root and
library are byte-identical to a single-machine ``generate-dataset
--shards`` + ``train --sharded`` run.

All coordinator-local bookkeeping (ledger, collected states, staged
uploads) lives in a ``<root>.coordinator`` sibling directory, so the
dataset root itself stays byte-comparable with ``diff -r``.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import io
import json
import os
import tarfile
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.coordinator import wire
from repro.coordinator.ledger import LeaseLedger, WorkUnit
from repro.coordinator.plan import (
    UPLOAD_DIRECTORY,
    UPLOAD_FILE,
    ArenaPlan,
    FleetPlan,
)
from repro.core.fingerprint import FingerprintLibrary
from repro.exceptions import CoordinatorError, JobError
from repro.jobs import events as ev
from repro.jobs.artifacts import fingerprint_path
from repro.jobs.events import EVENT_SCHEMA_VERSION, EventBus
from repro.jobs.runner import (
    fingerprint_rows,
    fold_state_files,
    publish_arena_report,
    stitch_dataset_root,
)
from repro.utils.atomic import write_atomic
from repro.utils.jsonhttp import JsonHttpServer


class Coordinator:
    """Serves one fleet plan until its artifacts are published.

    ``clock`` is injectable for deterministic lease-expiry tests; ``linger``
    is how long the server stays up after publication so workers polling
    for their next lease observe ``done`` instead of a vanished socket
    (idle workers also tolerate the vanished socket — belt and braces).
    """

    def __init__(
        self,
        plan: FleetPlan | ArenaPlan,
        bus: EventBus,
        *,
        root: str | Path,
        library: str | Path,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_ttl: float = 60.0,
        linger: float = 0.5,
        clock: Callable[[], float] = time.time,
    ) -> None:
        plan.validate()
        self._plan = plan
        self._bus = bus
        self._root = Path(root)
        self._library_path = Path(library)
        self._host = host
        self._port = port
        self._lease_ttl = lease_ttl
        self._linger = linger
        self._clock = clock
        self._state_dir = self._root.parent / (self._root.name + ".coordinator")
        self._states_dir = self._state_dir / "states"
        self._incoming_dir = self._state_dir / "incoming"
        for directory in (
            self._root,
            self._state_dir,
            self._states_dir,
            self._incoming_dir,
        ):
            directory.mkdir(parents=True, exist_ok=True)
        self._ledger = LeaseLedger(
            self._state_dir / "ledger.json", plan, clock=clock
        )
        self._lock = threading.RLock()
        self._emit_lock = threading.Lock()
        self._complete = threading.Event()
        if self._ledger.all_complete():
            # A restart after every upload landed but before (or during)
            # publication: republish — stitch and the library write are
            # idempotent.
            self._complete.set()
        self._done = False
        self._server: JsonHttpServer | None = None

    # -- narration ---------------------------------------------------------

    def _emit(self, kind: str, **data: object) -> None:
        # Handler threads and the serve loop share the renderers; one event
        # at a time keeps console lines whole.
        with self._emit_lock:
            self._bus.emit(kind, **data)

    def _sweep_expired(self) -> None:
        with self._lock:
            reclaimed = self._ledger.reclaim_expired()
        for unit in reclaimed:
            self._emit(
                ev.LEASE_RECLAIMED,
                unit=unit.unit,
                worker=unit.worker,
                lease=unit.lease,
            )

    # -- wire API ----------------------------------------------------------

    def api_plan(self) -> dict[str, Any]:
        return {
            "plan": self._plan.to_dict(),
            "units": list(self._plan.unit_ids()),
            "lease_ttl": self._lease_ttl,
        }

    def api_status(self) -> dict[str, Any]:
        with self._lock:
            units = [
                {
                    "unit": unit.unit,
                    "status": unit.status,
                    "worker": unit.worker,
                    "lease": unit.lease,
                    "attempts": unit.attempts,
                }
                for unit in self._ledger.units()
            ]
            counts = self._ledger.counts()
        return {"done": self._done, "counts": counts, "units": units}

    def api_lease(self, body: Mapping[str, Any]) -> dict[str, Any]:
        worker = wire.require_field(body, "worker", str)
        self._sweep_expired()
        if self._done:
            return {"lease": None, "done": True}
        with self._lock:
            unit = self._ledger.lease(worker, self._lease_ttl)
        if unit is None:
            # Nothing pending: either everything is leased out and this
            # worker should poll again, or everything is complete and
            # publication is in flight — done flips once it lands.
            return {"lease": None, "done": False}
        self._emit(
            ev.LEASE_GRANTED, unit=unit.unit, worker=worker, lease=unit.lease
        )
        return {
            "lease": {
                "id": unit.lease,
                "unit": unit.unit,
                "ttl": self._lease_ttl,
                "jobs": [
                    spec.to_dict() for spec in self._plan.unit_jobs(unit.shard)
                ],
                "uploads": [
                    dict(upload) for upload in self._plan.unit_uploads(unit.shard)
                ],
            },
            "done": False,
        }

    def api_complete(self, body: Mapping[str, Any]) -> dict[str, Any]:
        lease_id = wire.require_field(body, "lease", str)
        worker = wire.require_field(body, "worker", str)
        uploads = body.get("uploads")
        if not isinstance(uploads, list):
            raise CoordinatorError(
                "completion needs an 'uploads' list (shard directory + "
                "accumulator state)",
                field="uploads",
            )
        self._sweep_expired()
        with self._lock:
            unit = self._ledger.unit_for_lease(lease_id)
            expected = self._plan.unit_uploads(unit.shard)
        _check_upload_shape(uploads, expected)
        # Decode, verify and stage outside the ledger lock: uploads are the
        # slow part and must not block lease polls.
        staged = [
            self._materialise(unit, index, upload)
            for index, upload in enumerate(uploads)
        ]
        with self._lock:
            # The lease may have expired while the upload was verified; a
            # dead lease means the unit was reassigned and this copy is
            # redundant — refuse it rather than racing the replacement.
            unit = self._ledger.unit_for_lease(lease_id)
            for place in staged:
                place()
            self._ledger.complete(
                lease_id,
                {upload["name"]: upload["fingerprint"] for upload in uploads},
            )
            all_complete = self._ledger.all_complete()
        self._emit(
            ev.UNIT_COMPLETE,
            unit=unit.unit,
            worker=worker,
            fingerprint=uploads[0]["fingerprint"],
        )
        if all_complete:
            self._complete.set()
        return {"accepted": True, "done": self._done}

    def api_events(self, raw: bytes) -> dict[str, Any]:
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as error:
            raise CoordinatorError(
                f"event feed is not UTF-8: {error}", field="events"
            ) from error
        accepted = 0
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as error:
                raise CoordinatorError(
                    f"event feed line is not JSON: {error}", field="events"
                ) from error
            if not isinstance(payload, dict):
                raise CoordinatorError(
                    "event feed lines must be JSON objects", field="events"
                )
            schema = payload.get("schema")
            if schema != EVENT_SCHEMA_VERSION:
                raise CoordinatorError(
                    f"unsupported event schema version {schema!r} (this "
                    f"build speaks event schema {EVENT_SCHEMA_VERSION})",
                    field="schema",
                )
            kind = payload.get("event")
            if not isinstance(kind, str) or not kind:
                raise CoordinatorError(
                    "event feed line has no 'event' kind", field="event"
                )
            data = {
                key: value
                for key, value in payload.items()
                if key not in ("event", "schema")
            }
            try:
                self._emit(kind, **data)
            except JobError as error:
                raise CoordinatorError(str(error), field="event") from error
            accepted += 1
        return {"accepted": accepted}

    def _route(self, method: str, path: str, body: bytes) -> tuple[int, bytes]:
        """One HTTP request → ``(status, wire body)``; errors name a field."""
        try:
            payload = self._dispatch(method, path, body)
        except CoordinatorError as error:
            return error.status, wire.error_body(error)
        except Exception as error:  # noqa: BLE001 - the API boundary
            fault = CoordinatorError(
                f"internal coordinator error: {error!r}",
                field="internal",
                status=500,
            )
            return 500, wire.error_body(fault)
        return 200, wire.dump_body(payload)

    def _dispatch(self, method: str, path: str, body: bytes) -> dict[str, Any]:
        if method == "GET" and path == wire.PLAN_PATH:
            return self.api_plan()
        if method == "GET" and path == wire.STATUS_PATH:
            return self.api_status()
        if method == "POST" and path == wire.LEASE_PATH:
            return self.api_lease(wire.parse_body(body))
        if method == "POST" and path == wire.COMPLETE_PATH:
            return self.api_complete(wire.parse_body(body))
        if method == "POST" and path == wire.EVENTS_PATH:
            return self.api_events(body)
        raise CoordinatorError(
            f"unknown wire endpoint {method} {path} (endpoints: "
            f"GET {wire.PLAN_PATH}, POST {wire.LEASE_PATH}, "
            f"POST {wire.COMPLETE_PATH}, POST {wire.EVENTS_PATH}, "
            f"GET {wire.STATUS_PATH})",
            field="path",
            status=404,
        )

    # -- upload materialisation --------------------------------------------

    def _materialise(
        self, unit: WorkUnit, index: int, upload: Mapping[str, Any]
    ) -> Callable[[], None]:
        """Decode + fingerprint-verify one upload; returns its placement.

        Verification happens against *staged* bytes in the coordinator's
        sibling state directory; nothing touches the dataset root until the
        whole completion is accepted under the ledger lock.
        """
        try:
            blob = base64.b64decode(upload["data"], validate=True)
        except (binascii.Error, TypeError) as error:
            raise CoordinatorError(
                f"upload {upload['name']!r} carries undecodable base64 data: "
                f"{error}",
                field=f"uploads[{index}].data",
            ) from error
        claimed = upload["fingerprint"]
        if upload["kind"] == UPLOAD_FILE:
            actual = hashlib.sha256(blob).hexdigest()
            if actual != claimed:
                raise CoordinatorError(
                    f"upload {upload['name']!r} fingerprint mismatch: worker "
                    f"claimed {claimed[:12]} but the bytes hash to "
                    f"{actual[:12]}",
                    field=f"uploads[{index}].fingerprint",
                    status=409,
                )
            destination = self._states_dir / f"{unit.unit}.json"
            return lambda: write_atomic(destination, blob)
        staging = Path(
            tempfile.mkdtemp(prefix=f"{unit.unit}-", dir=self._incoming_dir)
        )
        _extract_tar(blob, staging, name=upload["name"])
        actual = fingerprint_path(staging)
        if actual != claimed:
            raise CoordinatorError(
                f"upload {upload['name']!r} fingerprint mismatch: worker "
                f"claimed {claimed[:12]} but the extracted tree fingerprints "
                f"to {actual[:12]}",
                field=f"uploads[{index}].fingerprint",
                status=409,
            )
        destination = self._root / unit.unit

        def place_directory() -> None:
            if destination.exists():
                # A unit completed twice can only mean a reassignment race
                # the ledger already lost track of; identical bytes are
                # harmlessly redundant, anything else must fail loudly.
                if fingerprint_path(destination) == claimed:
                    return
                raise CoordinatorError(
                    f"{destination} already holds different bytes than this "
                    f"upload claims ({claimed[:12]})",
                    field=f"uploads[{index}].fingerprint",
                    status=409,
                )
            os.replace(staging, destination)

        return place_directory

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind the wire API, announce it, and serve it from a daemon thread.

        ``serve-started`` is emitted after the bind and before serving
        starts, so no lease can be granted (and narrated) ahead of it.
        """
        self._server = JsonHttpServer(
            self._route, self._host, self._port, name="repro-coordinator"
        )
        host, port = self._server.address
        if isinstance(self._plan, ArenaPlan):
            self._emit(
                ev.SERVE_STARTED,
                cells=len(self._plan.unit_ids()),
                seed=self._plan.seed,
                host=host,
                port=port,
                lease_ttl=self._lease_ttl,
            )
        else:
            self._emit(
                ev.SERVE_STARTED,
                viewers=self._plan.viewers,
                seed=self._plan.seed,
                shards=self._plan.shards,
                host=host,
                port=port,
                lease_ttl=self._lease_ttl,
            )
        return self._server.start()

    def serve_until_complete(self) -> dict[str, object]:
        """Serve leases until every unit is in, then publish and stop."""
        if self._server is None:
            self.start()
        # Short waits keep the loop interruptible (Ctrl-C stops a serve).
        while not self._complete.wait(0.1):
            pass
        summary = self._publish()
        self._done = True
        time.sleep(self._linger)
        self.close()
        return summary

    def close(self) -> None:
        if self._server is not None:
            self._server.stop()
            self._server = None

    def _publish(self) -> dict[str, object]:
        """Merge states, stitch the root, write the library.

        The steps are the job runner's own (``merge-fingerprints``'s fold,
        ``stitch``'s stitch), narrated through this coordinator's
        lock-guarded emit.  Everything is a pure function of the verified
        uploads and every write is atomic, so a crash between any two steps
        republishes identically on restart.
        """
        if isinstance(self._plan, ArenaPlan):
            return self._publish_arena()
        merged = fold_state_files(
            [
                str(self._states_dir / f"{unit.unit}.json")
                for unit in self._ledger.units()
            ],
            self._emit,
        )
        library = FingerprintLibrary()
        merged.finalize_into(library, margin=self._plan.margin)
        stitch_dataset_root(str(self._root), self._emit)
        library.save(self._library_path)
        self._emit(
            ev.FINGERPRINTS,
            rows=fingerprint_rows(library),
            output=str(self._library_path),
        )
        return self._plan_complete(environments=len(library.condition_keys))

    def _publish_arena(self) -> dict[str, object]:
        """Place the verified cell bytes and write the arena report.

        The staged uploads *are* the canonical cell files (workers write
        them with :func:`repro.arena.cell.cell_to_json`), so publication
        copies bytes verbatim into ``<root>/cells/`` and rebuilds the
        report from them with ``repro arena``'s own closing step
        (:func:`~repro.jobs.runner.publish_arena_report`) — byte-identical
        to a local run of the same grid, and idempotent on restart.
        """
        cells_dir = self._root / "cells"
        cells_dir.mkdir(parents=True, exist_ok=True)
        results = []
        for unit in self._ledger.units():
            payload = (self._states_dir / f"{unit.unit}.json").read_bytes()
            write_atomic(cells_dir / f"{unit.unit}.json", payload)
            results.append(json.loads(payload.decode("utf-8")))
        report = publish_arena_report(results, str(self._library_path), self._emit)
        return self._plan_complete(
            cells=len(results), frontier=len(report.frontier)
        )

    def _plan_complete(self, **summary: object) -> dict[str, object]:
        """Announce publication; returns the serve summary."""
        units = self._ledger.units()
        workers = {unit.worker for unit in units if unit.worker}
        self._emit(ev.PLAN_COMPLETE, units=len(units), workers=len(workers))
        return {"units": len(units), "workers": len(workers), **summary}


def _check_upload_shape(
    uploads: list[Any], expected: tuple[dict[str, str], ...]
) -> None:
    """The uploads list must match the lease's declared artifact set."""
    if len(uploads) != len(expected):
        raise CoordinatorError(
            f"completion carries {len(uploads)} upload(s), the lease "
            f"declared {len(expected)}",
            field="uploads",
        )
    for index, (upload, declared) in enumerate(zip(uploads, expected)):
        if not isinstance(upload, dict):
            raise CoordinatorError(
                "each upload must be a JSON object",
                field=f"uploads[{index}]",
            )
        for key in ("name", "kind", "fingerprint", "data"):
            if not isinstance(upload.get(key), str) or not upload[key]:
                raise CoordinatorError(
                    f"upload {index} needs a non-empty string {key!r}",
                    field=f"uploads[{index}].{key}",
                )
        for key in ("name", "kind"):
            if upload[key] != declared[key]:
                raise CoordinatorError(
                    f"upload {index} {key} is {upload[key]!r}, the lease "
                    f"declared {declared[key]!r}",
                    field=f"uploads[{index}].{key}",
                )


def _extract_tar(blob: bytes, destination: Path, *, name: str) -> None:
    """Extract a directory upload, refusing anything but plain members."""
    try:
        archive = tarfile.open(fileobj=io.BytesIO(blob), mode="r:")
    except tarfile.TarError as error:
        raise CoordinatorError(
            f"upload {name!r} is not a readable tar archive: {error}",
            field="uploads",
        ) from error
    with archive:
        for member in archive.getmembers():
            member_path = Path(member.name)
            if member_path.is_absolute() or ".." in member_path.parts:
                raise CoordinatorError(
                    f"upload {name!r} names an unsafe member {member.name!r}",
                    field="uploads",
                )
            if not (member.isreg() or member.isdir()):
                raise CoordinatorError(
                    f"upload {name!r} member {member.name!r} is not a plain "
                    "file or directory",
                    field="uploads",
                )
        archive.extractall(destination)
