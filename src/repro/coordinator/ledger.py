"""The durable lease ledger: which unit is where, across crashes.

Every transition — lease granted, lease reclaimed, unit completed — is
written to one JSON file with :func:`repro.utils.atomic.write_atomic`, the
same publication the dataset layer uses for ``metadata.json``, so a
coordinator that is killed and restarted resumes exactly where it stopped:
completed units keep their verified uploads, leased units whose TTL has
passed return to the pool on the next reclaim sweep, and a ledger recorded
for a *different* plan refuses to load, naming the mismatched field.

Leases are the crash-safety seam: a worker that goes silent (SIGKILL,
network partition) simply stops renewing the only thing that kept its unit
assigned, and the unit is re-leased to the next puller.  Work is
deterministic and uploads are verified by content fingerprint, so
reassignment can never change the published bytes — the worst a dead
worker costs is its unit's wall-clock time.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.coordinator.plan import FleetPlan
from repro.exceptions import CoordinatorError, LeaseExpired
from repro.utils.atomic import write_atomic

#: Unit lifecycle states.
PENDING = "pending"
LEASED = "leased"
COMPLETE = "complete"

#: Version of the ledger file layout.
LEDGER_VERSION = 1


@dataclass
class WorkUnit:
    """One leasable shard of the plan and its current disposition."""

    unit: str
    shard: int
    status: str = PENDING
    lease: str | None = None
    worker: str | None = None
    expires_at: float | None = None
    attempts: int = 0
    fingerprints: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "unit": self.unit,
            "shard": self.shard,
            "status": self.status,
            "lease": self.lease,
            "worker": self.worker,
            "expires_at": self.expires_at,
            "attempts": self.attempts,
            "fingerprints": dict(sorted(self.fingerprints.items())),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkUnit":
        return cls(
            unit=data["unit"],
            shard=data["shard"],
            status=data["status"],
            lease=data["lease"],
            worker=data["worker"],
            expires_at=data["expires_at"],
            attempts=data["attempts"],
            fingerprints=dict(data["fingerprints"]),
        )


class LeaseLedger:
    """Durable unit/lease state for one plan, saved on every transition.

    ``clock`` is injectable (tests drive expiry deterministically); the
    default is wall-clock :func:`time.time`, because deadlines must stay
    meaningful across a coordinator restart.
    """

    def __init__(
        self,
        path: str | Path,
        plan: FleetPlan,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.path = Path(path)
        self._plan = plan
        self._clock = clock
        self._lease_counter = 0
        self._units: dict[str, WorkUnit] = {
            unit: WorkUnit(unit=unit, shard=shard)
            for shard, unit in enumerate(plan.unit_ids())
        }
        if self.path.exists():
            self._load()
        else:
            self._save()

    # -- persistence -------------------------------------------------------

    def _load(self) -> None:
        with open(self.path, encoding="utf-8") as handle:
            data = json.load(handle)
        version = data.get("ledger")
        if version != LEDGER_VERSION:
            raise CoordinatorError(
                f"unsupported ledger version {version!r} in {self.path} "
                f"(this build speaks ledger version {LEDGER_VERSION})",
                field="ledger",
            )
        recorded = data.get("plan", {})
        current = self._plan.to_dict()
        for name in sorted(set(recorded) | set(current)):
            if recorded.get(name) != current.get(name):
                raise CoordinatorError(
                    f"ledger {self.path} was recorded for a different plan: "
                    f"field {name!r} is {recorded.get(name)!r} there but "
                    f"{current.get(name)!r} now (point the coordinator at a "
                    "fresh root, or re-serve the original plan)",
                    field=name,
                )
        units = [WorkUnit.from_dict(entry) for entry in data["units"]]
        if [unit.unit for unit in units] != list(self._units):
            raise CoordinatorError(
                f"ledger {self.path} names different units than the plan",
                field="units",
            )
        self._units = {unit.unit: unit for unit in units}
        self._lease_counter = int(data["lease_counter"])

    def _save(self) -> None:
        payload = {
            "ledger": LEDGER_VERSION,
            "plan": self._plan.to_dict(),
            "lease_counter": self._lease_counter,
            "units": [unit.to_dict() for unit in self._units.values()],
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(self.path, json.dumps(payload, sort_keys=True, indent=2) + "\n")

    # -- queries -----------------------------------------------------------

    def units(self) -> tuple[WorkUnit, ...]:
        """Every unit, in shard order."""
        return tuple(self._units.values())

    def counts(self) -> dict[str, int]:
        counts = {PENDING: 0, LEASED: 0, COMPLETE: 0}
        for unit in self._units.values():
            counts[unit.status] += 1
        return counts

    def all_complete(self) -> bool:
        return all(unit.status == COMPLETE for unit in self._units.values())

    # -- transitions -------------------------------------------------------

    def reclaim_expired(self) -> tuple[WorkUnit, ...]:
        """Return expired leases' units to the pool; reports what moved."""
        now = self._clock()
        reclaimed = []
        for unit in self._units.values():
            if unit.status == LEASED and unit.expires_at is not None:
                if unit.expires_at <= now:
                    # Snapshot the expired assignment for reporting before
                    # the unit forgets who held it.
                    reclaimed.append(WorkUnit.from_dict(unit.to_dict()))
                    unit.status = PENDING
                    unit.lease = None
                    unit.worker = None
                    unit.expires_at = None
        if reclaimed:
            self._save()
        return tuple(reclaimed)

    def lease(self, worker: str, ttl: float) -> WorkUnit | None:
        """Lease the first pending unit (shard order) to ``worker``.

        Returns a snapshot, not the live record: later transitions must
        not mutate what a caller already handed out.
        """
        for unit in self._units.values():
            if unit.status == PENDING:
                self._lease_counter += 1
                unit.status = LEASED
                unit.lease = f"lease-{self._lease_counter:06d}"
                unit.worker = worker
                unit.expires_at = self._clock() + ttl
                unit.attempts += 1
                self._save()
                return WorkUnit.from_dict(unit.to_dict())
        return None

    def unit_for_lease(self, lease: str) -> WorkUnit:
        """The unit a live lease covers; a dead lease fails loudly.

        A lease can be dead because it expired and was reclaimed (possibly
        re-leased — even completed — by another worker since) or because it
        never existed; either way the holder must drop its work, not
        upload it.
        """
        for unit in self._units.values():
            if unit.status == LEASED and unit.lease == lease:
                return unit
        raise LeaseExpired(
            f"lease {lease!r} is not live: it expired and was reclaimed, or "
            "never existed (the unit may have been reassigned; discard this "
            "work and pull a fresh lease)",
            field="lease",
        )

    def complete(self, lease: str, fingerprints: Mapping[str, str]) -> WorkUnit:
        """Mark a live lease's unit complete, recording upload fingerprints."""
        unit = self.unit_for_lease(lease)
        unit.status = COMPLETE
        unit.expires_at = None
        unit.fingerprints = dict(fingerprints)
        self._save()
        return unit
