"""Event sinks: the console renderer and the JSONL renderer.

:class:`ConsoleRenderer` maps every event kind to the exact line(s) the
pre-jobs-layer CLI printed — the mapping is pinned byte-for-byte by
``tests/test_cli_golden.py``, so moving the orchestration out of the CLI
could not change what a terminal user sees.  :class:`JsonlRenderer` writes
one ``{"event": ..., ...}`` JSON line per event (``repro --log-format
jsonl``) so pipelines and services can consume runs without scraping
tables.

A console formatter that is missing for an emitted kind raises — renderer
drift must fail a test, not silently swallow output.  Machine-only kinds
(the final :data:`~repro.jobs.events.RESULT` payload, the watch loop's
:data:`~repro.jobs.events.CAPTURE_QUEUED` arrivals) are deliberately not
rendered to the console.
"""

from __future__ import annotations

import sys
from typing import Callable, Mapping, TextIO

from repro.exceptions import JobError
from repro.jobs import events as ev
from repro.jobs.events import JobEvent
from repro.utils.tables import format_table

#: Kinds that only machine consumers see; the console stays quiet.
MACHINE_ONLY_KINDS = frozenset({ev.RESULT, ev.CAPTURE_QUEUED})


def renderer_for(log_format: str) -> "ConsoleRenderer | JsonlRenderer":
    """The sink behind a ``--log-format`` value."""
    if log_format == "console":
        return ConsoleRenderer()
    if log_format == "jsonl":
        return JsonlRenderer()
    raise JobError(f"unknown log format {log_format!r} (choose console or jsonl)")


class JsonlRenderer:
    """One JSON line per event, flushed eagerly for live consumers."""

    def __init__(self, stream: TextIO | None = None) -> None:
        self._stream = stream if stream is not None else sys.stdout

    def handle(self, event: JobEvent) -> None:
        print(event.to_json(), file=self._stream, flush=True)


class ConsoleRenderer:
    """Renders events exactly as the historical CLI printed them."""

    def __init__(self, stream: TextIO | None = None) -> None:
        self._stream = stream if stream is not None else sys.stdout
        self._formatters: Mapping[str, Callable[[Mapping[str, object]], None]] = {
            ev.GENERATION_STARTED: self._generation_started,
            ev.PROGRESS: self._progress,
            ev.PROGRESS_FINISHED: self._progress_finished,
            ev.SHARD_COMPLETE: self._shard_complete,
            ev.SUBSET_WRITTEN: self._subset_written,
            ev.DATASET_SUMMARY: self._dataset_summary,
            ev.TRAINING_STARTED: self._training_started,
            ev.SIDECAR_FOLDED: self._sidecar_folded,
            ev.FINGERPRINTS: self._fingerprints,
            ev.STITCH_STARTED: self._stitch_started,
            ev.STATE_FOLDED: self._state_folded,
            ev.ARTIFACT_WRITTEN: self._artifact_written,
            ev.CHOICES_RECOVERED: self._choices_recovered,
            ev.PROFILE: self._profile,
            ev.CAPTURE_SKIPPED: self._capture_skipped,
            ev.VERDICT: self._verdict,
            ev.AGGREGATE: self._aggregate,
            ev.RESUMED: self._resumed,
            ev.WARNING: self._warning,
            ev.STOPPED: self._stopped,
            ev.RESULTS_LOG: self._results_log,
            ev.QUEUE_SATURATED: self._queue_saturated,
            ev.LIBRARY_RELOADED: self._library_reloaded,
            ev.METRICS_SERVING: self._metrics_serving,
            ev.FLOWS: self._flows,
            ev.RECORD_STATS: self._record_stats,
            ev.TABLE: self._table,
            ev.NOTE: self._note,
            ev.FIGURE1: self._figure1,
            ev.HEADLINE: self._headline,
            ev.ARENA_STARTED: self._arena_started,
            ev.CELL_COMPLETE: self._cell_complete,
            ev.SERVE_STARTED: self._serve_started,
            ev.LEASE_GRANTED: self._lease_granted,
            ev.LEASE_RECLAIMED: self._lease_reclaimed,
            ev.UNIT_COMPLETE: self._unit_complete,
            ev.PLAN_COMPLETE: self._plan_complete,
            ev.WORK_STARTED: self._work_started,
            ev.UNIT_LEASED: self._unit_leased,
            ev.UNIT_UPLOADED: self._unit_uploaded,
            ev.WORK_FINISHED: self._work_finished,
        }

    def handle(self, event: JobEvent) -> None:
        if event.kind in MACHINE_ONLY_KINDS:
            return
        formatter = self._formatters.get(event.kind)
        if formatter is None:
            raise JobError(
                f"no console rendering for event kind {event.kind!r}; "
                "add a formatter (and a golden test) before emitting it"
            )
        formatter(event.data)

    # -- helpers -----------------------------------------------------------

    def _print(self, text: str = "", end: str = "\n") -> None:
        print(text, end=end, file=self._stream)

    # -- formatters (one per kind; strings are golden-pinned) --------------

    def _generation_started(self, data: Mapping[str, object]) -> None:
        if data.get("selection") is not None:
            selection = ",".join(str(index) for index in data["selection"])
            self._print(
                f"{data['verb']} shards {selection} of "
                f"{data['viewers']} viewers (seed {data['seed']}) "
                f"across {data['shards']} shards..."
            )
        elif data.get("shards") is not None:
            self._print(
                f"{data['verb']} {data['viewers']} viewers (seed {data['seed']}) "
                f"across {data['shards']} shards..."
            )
        else:
            self._print(
                f"{data['verb']} {data['viewers']} viewers (seed {data['seed']})..."
            )

    def _progress(self, data: Mapping[str, object]) -> None:
        if data.get("unit") == "resimulated-sessions":
            self._print(f"  {data['completed']} session(s) re-simulated", end="\r")
        else:
            self._print(
                f"  {data['completed']}/{data['total']} sessions", end="\r"
            )

    def _progress_finished(self, data: Mapping[str, object]) -> None:
        self._print()

    def _shard_complete(self, data: Mapping[str, object]) -> None:
        self._print(
            f"  {data['shard']}: viewers={data['viewers']} [{data['state']}]"
        )

    def _subset_written(self, data: Mapping[str, object]) -> None:
        self._print(
            f"wrote {data['written']} of {data['planned']} shards under "
            f"{data['root']} (no manifest; once every machine's "
            "shards sit under one root, publish it with `repro stitch`)"
        )

    def _dataset_summary(self, data: Mapping[str, object]) -> None:
        self._print(
            f"viewers={data['viewers']} conditions={data['conditions']} "
            f"choices={data['choices']} packets={data['packets']}"
        )

    def _training_started(self, data: Mapping[str, object]) -> None:
        if data.get("subset"):
            self._print(
                f"incrementally training on {data['viewers']} viewers across "
                f"{data['shards']} local shard(s) of an unstitched subset root..."
            )
        else:
            self._print(
                f"incrementally training on {data['viewers']} viewers across "
                f"{data['shards']} shards..."
            )

    def _sidecar_folded(self, data: Mapping[str, object]) -> None:
        self._print(
            f"  folded {data['folded']}/{data['shards']} shard(s) from "
            f"columnar sidecars ({data['records']} records, no re-simulation)"
        )

    def _fingerprints(self, data: Mapping[str, object]) -> None:
        self._print(format_table(data["rows"], "Learned fingerprints"))
        self._print(f"wrote {data['output']}")

    def _stitch_started(self, data: Mapping[str, object]) -> None:
        self._print(f"stitching shards under {data['root']}...")

    def _state_folded(self, data: Mapping[str, object]) -> None:
        self._print(
            f"  folded {data['path']}: {data['environments']} environment(s), "
            f"{data['records']} records"
        )

    def _artifact_written(self, data: Mapping[str, object]) -> None:
        label = data.get("label")
        if label == "accumulator-state":
            self._print(f"wrote accumulator state to {data['path']}")
        elif label == "merged-accumulator-state":
            self._print(f"wrote merged accumulator state to {data['path']}")
        elif label == "results-log":
            self._print(f"wrote verdicts to {data['path']}")
        else:
            self._print(f"wrote {data['path']}")

    def _choices_recovered(self, data: Mapping[str, object]) -> None:
        if data.get("capture") is None:
            title = f"Recovered choices ({data['condition_key']})"
            self._print(format_table(data["rows"], title))
        else:
            title = (
                f"Recovered choices — {data['capture']} "
                f"({data['condition_key']})"
            )
            self._print(format_table(data["rows"], title))
            self._print()

    def _profile(self, data: Mapping[str, object]) -> None:
        self._print()
        self._print(
            format_table(
                data["rows"], "Behavioural profile implied by the recovered path"
            )
        )

    def _capture_skipped(self, data: Mapping[str, object]) -> None:
        self._print(f"skipping {data['capture']}: {data['reason']}")

    def _verdict(self, data: Mapping[str, object]) -> None:
        pattern = "".join("d" if choice else "N" for choice in data["pattern"])
        scored = (
            f", {data['correct']}/{data['questions']} correct"
            if data.get("truth") is not None
            else ""
        )
        # Fleet verdicts carry a source label; single-directory verdicts
        # omit the key entirely so the legacy line stays golden-pinned.
        attribution = f"[{data['source']}] " if "source" in data else ""
        self._print(
            f"verdict: {attribution}{data['capture']} ({data['condition_key']}) "
            f"pattern={pattern or '-'}{scored}"
        )

    def _aggregate(self, data: Mapping[str, object]) -> None:
        if "rows" in data:
            self._print(format_table(data["rows"], "Running aggregate accuracy"))
            self._print()
            return
        aggregate = (
            f"aggregate: attacked {data['attacked']}/{data['total']} captures, "
            f"recovered {data['choices']} choices"
        )
        questions = data["questions"]
        if questions:
            accuracy = data["correct"] / questions
            aggregate += (
                f", choice accuracy {data['correct']}/{questions} "
                f"({accuracy:.1%})"
            )
        else:
            aggregate += " (no ground truth available)"
        self._print(aggregate)

    def _resumed(self, data: Mapping[str, object]) -> None:
        self._print(
            f"resuming: {data['count']} verdict(s) already in {data['path']}"
        )

    def _warning(self, data: Mapping[str, object]) -> None:
        self._print(str(data["text"]))

    def _stopped(self, data: Mapping[str, object]) -> None:
        self._print("\nstopped")

    def _results_log(self, data: Mapping[str, object]) -> None:
        self._print(
            f"results log: {data['path']} "
            f"({data['total']} verdict(s) total)"
        )

    def _queue_saturated(self, data: Mapping[str, object]) -> None:
        self._print(
            f"queue saturated at {data['depth']} capture(s) "
            f"(high watermark {data['high_watermark']}); parking new "
            f"arrivals from {data['source']} until it drains below "
            f"{data['low_watermark']}"
        )

    def _library_reloaded(self, data: Mapping[str, object]) -> None:
        self._print(
            f"reloaded fingerprint library from {data['path']} "
            f"[{data['fingerprint'][:12]}]"
        )

    def _metrics_serving(self, data: Mapping[str, object]) -> None:
        self._print(
            f"metrics: http://{data['host']}:{data['port']}{data['path']}"
        )

    def _flows(self, data: Mapping[str, object]) -> None:
        self._print(format_table(data["rows"], f"Flows in {data['pcap']}"))

    def _record_stats(self, data: Mapping[str, object]) -> None:
        self._print()
        self._print(
            f"client TLS records on the largest flow: {data['count']}"
        )
        self._print(
            f"record lengths: min={data['minimum']:.0f} "
            f"median={data['median']:.0f} "
            f"p95={data['p95']:.0f} max={data['maximum']:.0f}"
        )

    def _table(self, data: Mapping[str, object]) -> None:
        self._print(format_table(data["rows"], data["title"]))
        if data.get("blank_after"):
            self._print()

    def _note(self, data: Mapping[str, object]) -> None:
        self._print(str(data["text"]))

    def _figure1(self, data: Mapping[str, object]) -> None:
        self._print("Figure 1 — streaming process walkthrough")
        self._print("=" * 41)
        for kind, detail in data["events"]:
            self._print(f"  {kind:<22s} {detail}")
        self._print(f"matches the paper's description: {data['matches']}")
        self._print()

    def _arena_started(self, data: Mapping[str, object]) -> None:
        self._print(
            f"arena: {data['cells']} cell(s) — {data['defenses']} defense(s) "
            f"(+ undefended) × {data['classifiers']} classifier(s) × "
            f"{data['conditions']} condition(s), seed {data['seed']}..."
        )

    def _cell_complete(self, data: Mapping[str, object]) -> None:
        self._print(
            f"  {data['cell']}: {data['defense']} vs {data['classifier']} "
            f"acc={data['choice_accuracy']:.4f} "
            f"overhead={data['overhead_bytes']:.1f}B [{data['state']}]"
        )

    def _serve_started(self, data: Mapping[str, object]) -> None:
        if "cells" in data:
            self._print(
                f"serving arena plan: {data['cells']} cell(s) "
                f"(seed {data['seed']}) at http://{data['host']}:{data['port']} "
                f"(lease ttl {data['lease_ttl']:g}s)"
            )
            return
        self._print(
            f"serving plan: {data['viewers']} viewers (seed {data['seed']}) "
            f"across {data['shards']} shards at "
            f"http://{data['host']}:{data['port']} "
            f"(lease ttl {data['lease_ttl']:g}s)"
        )

    def _lease_granted(self, data: Mapping[str, object]) -> None:
        self._print(
            f"  {data['unit']}: leased to {data['worker']} ({data['lease']})"
        )

    def _lease_reclaimed(self, data: Mapping[str, object]) -> None:
        self._print(
            f"  {data['unit']}: reclaimed from {data['worker']} "
            f"({data['lease']} expired); unit returns to the pool"
        )

    def _unit_complete(self, data: Mapping[str, object]) -> None:
        self._print(
            f"  {data['unit']}: verified upload from {data['worker']} "
            f"[{data['fingerprint'][:12]}]"
        )

    def _plan_complete(self, data: Mapping[str, object]) -> None:
        self._print(
            f"plan complete: {data['units']} unit(s) from "
            f"{data['workers']} worker(s)"
        )

    def _work_started(self, data: Mapping[str, object]) -> None:
        self._print(f"pulling work from {data['url']} as {data['worker']}")

    def _unit_leased(self, data: Mapping[str, object]) -> None:
        self._print(f"  {data['unit']}: leased ({data['lease']})")

    def _unit_uploaded(self, data: Mapping[str, object]) -> None:
        self._print(
            f"  {data['unit']}: uploaded {data['uploads']} artifact(s) "
            f"[{data['fingerprint'][:12]}]"
        )

    def _work_finished(self, data: Mapping[str, object]) -> None:
        self._print(f"done: {data['units']} unit(s) completed")

    def _headline(self, data: Mapping[str, object]) -> None:
        if "training_sessions" in data:
            self._print(
                f"calibrated on {data['training_sessions']} sessions, evaluated "
                f"{data['evaluated_sessions']}; worst case: "
                f"{data['worst_case']:.4f} "
                f"(paper: {data['paper_worst_case']:.2f})"
            )
        else:
            self._print(
                f"worst case: {data['worst_case']:.4f} "
                f"(paper: {data['paper_worst_case']:.2f})"
            )
            self._print()
