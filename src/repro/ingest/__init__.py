"""Live capture ingest: tail pcap drop directories and attack as captures land.

The online front end the paper's threat model implies — an eavesdropper
classifies a viewer's choices as the encrypted traffic arrives, not from an
archived corpus.  :class:`CaptureWatcher` detects *finished* captures,
:class:`StreamingAttackService` attacks them through the engine's streaming
fan-out and appends durable verdicts to a resumable :class:`ResultsLog`.

One watch loop, :class:`FleetWatchService`, drives every capture source —
one unlabelled directory or N labelled ones (validated and canonically
ordered by :func:`validate_sources`) — through a :class:`BoundedIngestQueue`
that deduplicates arrivals, keeps canonical order and applies explicit
backpressure.  It hot-reloads the fingerprint library via
:class:`LibraryReloadWatcher`.  Surfaced on the command line as ``repro
watch`` (one positional directory, or ``--source`` repeated); its
``/metrics`` view is :class:`repro.jobs.metrics.IngestMetrics`, an event
sink on the watch run's bus.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        ".fleet": "DEFAULT_QUEUE_HIGH DEFAULT_QUEUE_LOW BoundedIngestQueue FleetSource"
            " FleetWatchService LibraryReloadWatcher validate_sources"
            " validate_watermarks",
        ".log": "RESULTS_LOG_VERSION CaptureVerdict ResultsLog canonical_log_bytes"
            " capture_fingerprint merge_results_logs",
        ".service": "SKIP_ALREADY_ATTACKED SKIP_UNREADABLE StreamingAttackService",
        ".tasks": "DEFAULT_CLIENT_IP build_pcap_task entry_environment entry_truth"
            " metadata_entries_near",
        ".watcher": "CAPTURE_PATTERN DEFAULT_QUIET_SECONDS INPROGRESS_SUFFIX"
            " CaptureWatcher",
    },
)
