"""The pull worker: ``repro work URL`` against a coordinator's wire API.

A :class:`PullWorker` is deliberately dumb: it polls ``/v1/lease``, runs
whatever :mod:`repro.jobs` specs the lease carries through the ordinary
:class:`~repro.jobs.runner.JobRunner` in a scratch workspace, verifies the
produced artifacts by re-fingerprinting them (a changed fingerprint means a
partial write or concurrent modification — never upload it), and posts the
declared uploads back base64-encoded with their content fingerprints for
the coordinator to verify independently.  Its event bus streams to the
coordinator through a :class:`RemoteEventSink` as the same JSONL lines
``--jsonl`` writes locally, so fleet narration reuses the stock renderers
end to end.

Crash safety is the coordinator's job, not the worker's: a worker that
dies mid-unit simply never completes its lease, and the unit is re-leased
after the TTL.  The worker's matching obligation is to *discard* work when
its lease has died under it (:class:`~repro.exceptions.LeaseExpired` from
``/v1/complete``) rather than fight the reassignment.
"""

from __future__ import annotations

import base64
import io
import json
import os
import tarfile
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.coordinator import wire
from repro.exceptions import CoordinatorError, LeaseExpired
from repro.jobs import events as ev
from repro.jobs.artifacts import Workspace, fingerprint_path
from repro.jobs.events import EventBus, JobEvent
from repro.jobs.runner import JobResult, JobRunner
from repro.jobs.specs import job_from_dict


class RemoteEventSink:
    """Buffers a bus's events and ships them to ``/v1/events`` as JSONL.

    Lines are exactly :meth:`~repro.jobs.events.JobEvent.to_json` — schema
    stamp included — batched so a chatty progress loop does not become one
    HTTP round trip per packet.
    """

    def __init__(
        self, post: Callable[[str, bytes], Mapping[str, Any]], batch_size: int = 64
    ) -> None:
        self._post = post
        self._batch_size = batch_size
        self._buffer: list[str] = []

    def handle(self, event: JobEvent) -> None:
        self._buffer.append(event.to_json())
        if len(self._buffer) >= self._batch_size:
            self.flush()

    def flush(self) -> None:
        if not self._buffer:
            return
        body = ("\n".join(self._buffer) + "\n").encode("utf-8")
        self._buffer.clear()
        self._post(wire.EVENTS_PATH, body)


class PullWorker:
    """Pulls leases from one coordinator until the plan is done.

    ``max_units`` bounds how many units this worker will run (tests and
    examples use it to interleave workers deterministically); ``sleep`` is
    injectable so tests poll without wall-clock waits.
    """

    def __init__(
        self,
        url: str,
        bus: EventBus,
        *,
        worker_id: str | None = None,
        scratch: str | Path | None = None,
        poll_interval: float = 0.5,
        max_units: int | None = None,
        timeout: float = 60.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._url = url.rstrip("/")
        self._bus = bus
        self._worker_id = worker_id or f"worker-{os.getpid()}"
        if scratch is None:
            self._scratch = Path(tempfile.mkdtemp(prefix="repro-work-"))
        else:
            self._scratch = Path(scratch)
            self._scratch.mkdir(parents=True, exist_ok=True)
        self._poll_interval = poll_interval
        self._max_units = max_units
        self._timeout = timeout
        self._sleep = sleep
        self._contacted = False
        self._sink = RemoteEventSink(self._post_raw)

    # -- transport ---------------------------------------------------------

    def _post_raw(
        self, path: str, body: bytes, content_type: str = "application/x-ndjson"
    ) -> dict[str, Any]:
        request = urllib.request.Request(
            self._url + path,
            data=body,
            headers={"Content-Type": content_type},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=self._timeout) as reply:
                raw = reply.read()
        except urllib.error.HTTPError as error:
            raise _rejection(error) from error
        except (urllib.error.URLError, OSError) as error:
            raise CoordinatorError(
                f"cannot reach coordinator at {self._url}: {error}",
                field="url",
            ) from error
        self._contacted = True
        return _parse_reply(raw)

    def _post_json(self, path: str, payload: Mapping[str, Any]) -> dict[str, Any]:
        return self._post_raw(
            path, wire.dump_body(payload), content_type="application/json"
        )

    # -- the pull loop -----------------------------------------------------

    def run(self) -> dict[str, object]:
        """Pull, run and upload units until the coordinator says done.

        The remote sink listens on the bus only while this runs: it is
        attached before ``work-started`` and detached on every exit, so
        later events on the bus never queue for a coordinator that may
        be gone.
        """
        self._bus.attach(self._sink)
        try:
            return self._pull_units()
        finally:
            self._bus.detach(self._sink)

    def _pull_units(self) -> dict[str, object]:
        self._bus.emit(
            ev.WORK_STARTED, url=self._url, worker=self._worker_id
        )
        completed = 0
        while self._max_units is None or completed < self._max_units:
            try:
                reply = self._post_json(
                    wire.LEASE_PATH, {"worker": self._worker_id}
                )
            except CoordinatorError as error:
                if error.field == "url" and self._contacted:
                    # The coordinator publishes and exits once the plan is
                    # done; an idle worker that loses the socket after
                    # having worked the plan treats that as completion.
                    break
                raise
            if reply.get("done"):
                break
            lease = reply.get("lease")
            if lease is None:
                self._sleep(self._poll_interval)
                continue
            try:
                self._run_unit(lease)
            except LeaseExpired:
                # Too slow: the unit was reclaimed and reassigned.  The
                # replacement produces identical bytes, so just drop ours.
                self._bus.emit(
                    ev.LEASE_RECLAIMED,
                    unit=lease["unit"],
                    worker=self._worker_id,
                    lease=lease["id"],
                )
                continue
            completed += 1
        try:
            self._sink.flush()
        except CoordinatorError:
            # A final flush may race the coordinator's exit; local sinks
            # already rendered these events, so losing the copy is fine.
            pass
        self._bus.emit(ev.WORK_FINISHED, units=completed)
        return {"worker": self._worker_id, "units": completed}

    def _run_unit(self, lease: Mapping[str, Any]) -> None:
        unit = lease["unit"]
        lease_id = lease["id"]
        self._bus.emit(ev.UNIT_LEASED, unit=unit, lease=lease_id)
        # A fresh directory per lease: a re-leased unit must never see a
        # previous attempt's partial writes.
        workdir = self._scratch / f"{unit}-{lease_id}"
        workdir.mkdir(parents=True)
        workspace = Workspace(workdir)
        runner = JobRunner(self._bus, workspace)
        results = [runner.run(job_from_dict(spec)) for spec in lease["jobs"]]
        verify_artifacts(workspace, results)
        uploads = []
        for declared in lease["uploads"]:
            path = workspace.resolve(declared["path"])
            fingerprint = fingerprint_path(path)
            if declared["kind"] == "directory":
                blob = pack_directory(path)
            else:
                blob = path.read_bytes()
            uploads.append(
                {
                    "name": declared["name"],
                    "kind": declared["kind"],
                    "fingerprint": fingerprint,
                    "data": base64.b64encode(blob).decode("ascii"),
                }
            )
        # The coordinator folds a unit's event feed before announcing its
        # completion; ship buffered narration ahead of the upload.
        self._sink.flush()
        self._post_json(
            wire.COMPLETE_PATH,
            {"worker": self._worker_id, "lease": lease_id, "uploads": uploads},
        )
        self._bus.emit(
            ev.UNIT_UPLOADED,
            unit=unit,
            uploads=len(uploads),
            fingerprint=uploads[0]["fingerprint"],
        )


def verify_artifacts(workspace: Workspace, results: list[JobResult]) -> None:
    """Re-fingerprint every result artifact before anything is uploaded.

    The recorded fingerprint was taken when the job finished; a mismatch
    now means the bytes changed under us — a partial write, a concurrent
    process in the scratch directory — and uploading them would poison the
    fleet's dataset root, so fail the unit loudly instead.
    """
    for result in results:
        for artifact in result.artifacts:
            actual = fingerprint_path(workspace.resolve(artifact.path))
            if actual != artifact.fingerprint:
                raise CoordinatorError(
                    f"artifact {artifact.name!r} at {artifact.path} changed "
                    f"after its job finished: {artifact.fingerprint[:12]} "
                    f"recorded, {actual[:12]} now — refusing to upload",
                    field="artifact",
                )


def pack_directory(path: Path) -> bytes:
    """Tar a directory for upload, members rooted at ``.``."""
    buffer = io.BytesIO()
    with tarfile.open(fileobj=buffer, mode="w") as archive:
        archive.add(path, arcname=".")
    return buffer.getvalue()


def _parse_reply(raw: bytes) -> dict[str, Any]:
    try:
        return wire.parse_body(raw)
    except CoordinatorError as error:
        raise CoordinatorError(
            f"coordinator reply is not a wire body: {error}", field="reply"
        ) from error


def _rejection(error: urllib.error.HTTPError) -> CoordinatorError:
    """Rebuild the coordinator's typed error from an HTTP error reply."""
    message = f"coordinator rejected the request (HTTP {error.code})"
    field = None
    try:
        body = json.loads(error.read().decode("utf-8"))
        detail = body.get("error", {})
        message = detail.get("message", message)
        field = detail.get("field")
    except (ValueError, UnicodeDecodeError, AttributeError):
        pass
    kind = LeaseExpired if error.code == 410 else CoordinatorError
    return kind(message, field=field, status=error.code)
