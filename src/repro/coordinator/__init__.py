"""Fleet coordination: ``repro serve`` + pull workers over a wire API.

The coordinator turns the manual distributed flow (per-machine
``generate-dataset --only-shards`` + ``train --sharded --save-state``,
rsync, ``stitch-dataset``, ``merge-fingerprints``) into a service:

* :mod:`repro.coordinator.plan` — the logical plans, cut into leasable
  units of ordinary :mod:`repro.jobs` specs: per-shard generate+train
  pairs (:class:`FleetPlan`) or per-cell arena sweeps
  (:class:`ArenaPlan`, ``repro serve --arena``);
* :mod:`repro.coordinator.wire` — the versioned JSON envelope those specs
  and event feeds travel in;
* :mod:`repro.coordinator.ledger` — durable lease state, crash-safe via
  atomic rewrites, with TTL-based reassignment;
* :mod:`repro.coordinator.service` — the HTTP coordinator itself;
* :mod:`repro.coordinator.worker` — the pull worker (``repro work URL``).

Publication reuses the job runner's closing steps (state fold, stitch,
arena report), so a fleet has no merge or stitch code of its own.

The invariant the whole package answers to: a fleet run's published
dataset root and fingerprint library are byte-identical to one machine
running the same plan serially.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        ".ledger": "LeaseLedger WorkUnit",
        ".plan": "ArenaPlan FleetPlan",
        ".service": "Coordinator",
        ".wire": "WIRE_VERSION",
        ".worker": "PullWorker RemoteEventSink",
    },
)
