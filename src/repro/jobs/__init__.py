"""The jobs application layer: typed specs, an artifact-aware runner,
and a structured event bus.

This package is the seam between *what a run is* and *how it is invoked*:

* :mod:`repro.jobs.specs` — frozen, schema-versioned job specifications
  that round-trip through ``to_dict``/``from_dict`` (the wire format a
  fleet coordinator would lease to workers);
* :mod:`repro.jobs.runner` — :class:`JobRunner` executes a spec against a
  :class:`~repro.jobs.artifacts.Workspace`, returning a typed
  :class:`~repro.jobs.runner.JobResult` that names every durable output as
  a content-fingerprinted :class:`~repro.jobs.artifacts.Artifact`;
* :mod:`repro.jobs.events` / :mod:`repro.jobs.renderers` — runners emit
  semantic :class:`~repro.jobs.events.JobEvent`\\ s instead of printing;
  the console renderer reproduces the historical terminal output
  byte-for-byte and the JSONL renderer feeds machine consumers
  (``repro --log-format jsonl``); :mod:`repro.jobs.metrics` is the sink
  behind ``repro watch --metrics-port``.

The CLI in :mod:`repro.cli` is a thin adapter over this layer: parse
arguments, build a spec, run it, let the chosen renderer narrate.

Names load their modules on first access, and the runner dispatches on
``spec.KIND`` to a handler that imports its own kind's modules, so
``from repro.jobs import EventBus, JobRunner`` loads the runner's shared
core and nothing of the simulator, the arena or the coordinator.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        ".artifacts": "Artifact Workspace fingerprint_path",
        ".events": "EVENT_SCHEMA_VERSION EventBus EventSink JobEvent",
        ".metrics": "IngestMetrics",
        ".renderers": "ConsoleRenderer JsonlRenderer renderer_for",
        ".runner": "JobResult JobRunner",
        ".specs": "SCHEMA_VERSION SPEC_CLASSES ArenaCellJob ArenaJob AttackJob"
            " GenerateJob InspectJob JobSpec MergeFingerprintsJob ReproduceJob ServeJob"
            " StitchJob TrainJob WatchJob WorkJob job_from_dict",
    },
)
