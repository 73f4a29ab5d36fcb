"""One measuring process: set a workload up, signal ``ready``, measure it.

``run.py`` starts this file in a fresh interpreter, so imports and set-up
are part of what it times, and ``ru_maxrss`` covers this run alone.  The
process prints ``ready`` once set-up is done, then (unless ``--setup-only``)
runs the workload and prints one JSON line with its raw results.

Every workload runs the engine serially (``workers=None``) in this one
process and thread.

* ``drain-parse``: whole passes over the corpus in drop directories
  without a sidecar, each pass a fresh service and results log, which then
  holds exactly what ``repro attack DIR --results-log`` writes.  A closed
  loop: each capture is handed to ``process`` when the previous verdict is
  logged, and its latency runs from that call.
* ``generate-train``: cycles of rounds, each round a ``GenerateJob`` and a
  ``TrainJob`` through ``JobRunner`` that re-derive one pool batch, then an
  in-place ``repro watch --once`` of the fresh dataset, one fleet source per
  shard, whose fresh sidecars serve the records, checked against the
  parse-path reference.

Each workload repeats one fixed piece of work (a pass, a cycle) for the
run's seconds and reports every operation's best time over the repeats.
Interference from other tenants of a shared machine only ever adds time, and
it comes in stretches of seconds; the best of many short repeats is what
survives it.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import fixture  # noqa: E402
from tracing import GROUPS, Tracer  # noqa: E402

from repro.core.fingerprint import FingerprintLibrary  # noqa: E402
from repro.dataset.collection import default_study_script  # noqa: E402
from repro.ingest.fleet import FleetWatchService, validate_sources  # noqa: E402
from repro.ingest.service import StreamingAttackService  # noqa: E402
from repro.jobs import EventBus, JobRunner  # noqa: E402

#: Captures in the ``drain-parse`` corpus (a pass takes about 3 s).
DRAIN_CAPTURES = 16


@dataclass
class Measure:
    """What one unit (or a whole untraced run) of a workload measured."""

    operations: int = 0
    failed: int = 0
    #: Seconds the program was busy on the measured operations.
    busy: float = 0.0
    #: Seconds of the whole unit that tracing overhead is judged on: ``busy``
    #: plus, for ``generate-train``, the in-place attack of each round.
    wall: float = 0.0
    #: Items counted toward throughput over ``busy``.
    items: int = 0
    sessions: int = 0
    latencies: list[float] = field(default_factory=list)
    correct_questions: int = 0
    questions: int = 0
    problems: list[str] = field(default_factory=list)
    #: Seconds from each capture's arrival in the fleet queue to the start of
    #: the ``process`` call that carries it.
    queue_waits: list[float] = field(default_factory=list)
    peak_depth: int = 0

    def add(self, other: "Measure") -> None:
        self.operations += other.operations
        self.failed += other.failed
        self.busy += other.busy
        self.wall += other.wall
        self.items += other.items
        self.sessions += other.sessions
        self.latencies.extend(other.latencies)
        self.correct_questions += other.correct_questions
        self.questions += other.questions
        self.problems.extend(other.problems)
        self.queue_waits.extend(other.queue_waits)
        self.peak_depth = max(self.peak_depth, other.peak_depth)

    def skip(self, path: Path, reason: str) -> None:
        """The ``on_skip`` callback: a skipped capture is a failed one."""
        self.failed += 1
        self.problems.append(f"skipped {path.name}: {reason}")

    def score(self, service: StreamingAttackService) -> None:
        """Add the service's aggregate accuracy (the last row of the table)."""
        accuracy = str(service.aggregate_rows()[-1]["accuracy"])
        correct, _, questions = accuracy.split(" ", 1)[0].partition("/")
        self.correct_questions += int(correct)
        self.questions += int(questions)


class Workload:
    """Shared plumbing: where things are, and the per-run scratch space."""

    def __init__(self, checkout: Path, seed: int, scratch: Path) -> None:
        self.checkout = checkout
        self.seed = seed
        self.scratch = scratch
        self.counter = 0

    def fresh(self, prefix: str) -> Path:
        self.counter += 1
        path = self.scratch / f"{prefix}-{self.counter}"
        path.mkdir(parents=True)
        return path

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self) -> Measure:
        """One whole, fixed piece of work (a pass, a cycle)."""
        raise NotImplementedError

    def run(self, seconds: float) -> Measure:
        """Whole units until ``seconds`` have passed."""
        raise NotImplementedError


class Drain(Workload):
    """A serial drain of the corpus, parsed from drop directories."""

    def setup(self) -> None:
        self.captures = fixture.middle_captures(self.checkout, DRAIN_CAPTURES)
        random.Random(self.seed).shuffle(self.captures)
        lines = fixture.reference_lines(self.checkout)
        self.reference = b"".join(lines[capture] for capture in self.captures)
        self.library = FingerprintLibrary.load(fixture.library_path(self.checkout))
        self.graph = default_study_script()
        self.next_service = self.service()

    def service(self) -> tuple[StreamingAttackService, Path]:
        log = self.fresh("drain") / "results.jsonl"
        return StreamingAttackService(self.library, log, graph=self.graph), log

    def run(self, seconds: float) -> Measure:
        """Passes until ``seconds`` have passed; each capture's latency is
        its best over the passes, and throughput follows from those."""
        total = combine(repeat(self.unit, seconds))
        total.items = len(total.latencies)
        total.busy = sum(total.latencies)
        return total

    def unit(self) -> Measure:
        """One pass over the corpus with a fresh service and results log."""
        measure = Measure()
        service, log = self.next_service or self.service()
        self.next_service = None
        clock = time.perf_counter
        started = arrived = clock()

        def on_verdict(verdict: object, result: object) -> None:
            measure.latencies.append(clock() - arrived)

        for capture in self.captures:
            arrived = clock()
            service.process([capture], on_verdict=on_verdict, on_skip=measure.skip)
        measure.busy = measure.wall = clock() - started
        measure.operations = measure.items = len(self.captures)
        measure.score(service)
        if log.read_bytes() != self.reference:
            measure.problems.append(
                f"results log {log} differs from the parse-path reference"
            )
        shutil.rmtree(log.parent)
        return measure


class TimedService:
    """The fleet's attack service, with the start of each ``process`` call
    recorded per capture."""

    def __init__(self, service: StreamingAttackService) -> None:
        self.service = service
        self.started: dict[tuple[str | None, str], float] = {}

    def process(self, paths, on_verdict=None, on_skip=None, source=None):
        paths = list(paths)
        started = time.perf_counter()
        for path in paths:
            self.started[(source, Path(path).name)] = started
        return self.service.process(
            paths, on_verdict=on_verdict, on_skip=on_skip, source=source
        )

    def replace_library(self, library: FingerprintLibrary) -> None:
        self.service.replace_library(library)


class GenerateTrain(Workload):
    def setup(self) -> None:
        self.runner = JobRunner(EventBus())
        self.graph = default_study_script()
        self.library = FingerprintLibrary.load(fixture.library_path(self.checkout))
        self.order = fixture.generate_batches(self.seed)
        self.references = {
            batch: [
                json.loads(line)
                for line in fixture.reference_log(self.checkout, [batch]).splitlines()
            ]
            for batch in self.order
        }
        self.expected = {
            batch: (fixture.batch_dir(self.checkout, batch) / "digest.txt")
            .read_text()
            .strip()
            for batch in self.order
        }

    def round(self, batch: int) -> Measure:
        measure = Measure()
        output = self.fresh(f"batch-{batch:02d}")
        clock = time.perf_counter
        started = clock()
        for spec in fixture.batch_jobs(batch, output):
            self.runner.run(spec)
        measure.busy = clock() - started
        measure.operations = measure.items = measure.sessions = fixture.BATCH_VIEWERS
        log = output / "verdicts.jsonl"
        service = TimedService(
            StreamingAttackService(self.library, log, graph=self.graph)
        )
        arrived: dict[tuple[str, str], float] = {}

        def on_arrival(source: str, path: Path) -> None:
            arrived[(source, path.name)] = clock()

        def on_verdict(verdict, result) -> None:
            measure.latencies.append(clock() - started)

        fleet = FleetWatchService(
            service=service,
            sources=validate_sources(
                [str(traces) for traces in (output / "dataset").glob("shard-*/traces")]
            ),
            on_arrival=on_arrival,
        )
        fleet.run(on_verdict=on_verdict, on_skip=measure.skip)
        measure.wall = clock() - started
        measure.score(service.service)
        measure.queue_waits = [
            service.started[key] - arrived[key] for key in arrived if key in service.started
        ]
        measure.peak_depth = fleet.queue.peak_depth
        # The fleet stamps each verdict with its source; the rest of each
        # line must equal the parse path's, in canonical source order.
        logged = [json.loads(line) for line in log.read_bytes().splitlines()]
        sources = [entry.pop("source", None) for entry in logged]
        expected_sources = [
            source.label
            for source in fleet.sources
            for _ in sorted(source.directory.glob("*.pcap"))
        ]
        if logged != self.references[batch] or sources != expected_sources:
            measure.problems.append(
                f"batch {batch}: sidecar-served verdicts differ from the parse path"
            )
        digest = fixture.tree_digest(output / "dataset", output / "library.json")
        if digest != self.expected[batch]:
            measure.problems.append(
                f"batch {batch} regenerated with digest {digest}, "
                f"expected {self.expected[batch]}"
            )
        shutil.rmtree(output)
        return measure

    def unit(self) -> Measure:
        """One cycle: every batch of the generate pool once."""
        total = Measure()
        for batch in self.order:
            total.add(self.round(batch))
        return total

    def run(self, seconds: float) -> Measure:
        """Whole cycles until ``seconds`` have passed; each verdict's latency
        is its best over the cycles, and throughput is the best cycle's."""
        cycles = repeat(self.unit, seconds)
        total = combine(cycles)
        total.items = cycles[0].items
        total.busy = min(cycle.busy for cycle in cycles)
        return total


def repeat(step: Callable[[], Measure], seconds: float) -> list[Measure]:
    """Whole steps while the next one, as long as the longest so far, still
    ends within ``seconds`` (at least one step)."""
    done: list[Measure] = []
    started = time.perf_counter()
    longest = 0.0
    while True:
        begun = time.perf_counter()
        done.append(step())
        ended = time.perf_counter()
        longest = max(longest, ended - begun)
        if ended + longest - started > seconds:
            return done


def combine(repeats: list[Measure]) -> Measure:
    """Sum repeats of the same operations; each operation's latency becomes
    its best over the repeats, so a stall in one repeat does not move the
    percentiles.  Repeats that failed a check keep every latency."""
    total = Measure()
    for measure in repeats:
        total.add(measure)
    if not total.problems:
        total.latencies = [
            min(slot) for slot in zip(*(measure.latencies for measure in repeats))
        ]
    return total


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def make(name: str, checkout: Path, seed: int, scratch: Path) -> Workload:
    if name == "drain-parse":
        return Drain(checkout, seed, scratch)
    if name == "generate-train":
        return GenerateTrain(checkout, seed, scratch)
    raise SystemExit(f"unknown workload {name}")


def end_to_end(measure: Measure) -> dict[str, float]:
    """The end-to-end metrics.  Latency is reported as a median only: a run
    times 16 captures or 8 verdicts, too few for a higher percentile."""
    rate = measure.items / measure.busy if measure.busy else 0.0
    return {
        "captures_per_s": rate,
        "sessions_per_s": rate,
        "verdict_latency_p50_s": percentile(measure.latencies, 50),
        "choice_accuracy": (
            measure.correct_questions / measure.questions if measure.questions else 0.0
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer: Tracer, traced: Measure, untraced: Measure) -> dict[str, float]:
    """The per-layer metrics: ``_ms`` is self time per capture or session."""
    stats = tracer.summary()

    def self_s(*spans: str) -> float:
        return sum(stats[span].self_seconds for span in spans if span in stats)

    def count(span: str) -> int:
        return stats[span].count if span in stats else 0

    def calls(span: str) -> int:
        return stats[span].calls if span in stats else 0

    def ratio(span: str) -> float:
        return count(span) / calls(span) if calls(span) else 0.0

    captures = traced.operations
    sessions = traced.sessions

    def per_capture(*spans: str) -> float:
        return 1e3 * self_s(*spans) / captures if captures else 0.0

    def per_session(*spans: str) -> float:
        return 1e3 * self_s(*spans) / sessions if sessions else 0.0

    covered = sum(
        stat.self_seconds for span, stat in stats.items() if span not in GROUPS
    )
    traced_cost = traced.wall / traced.operations
    untraced_cost = untraced.wall / untraced.operations
    decode = self_s("CapturedTrace.from_pcap")
    return {
        "ingest.log.fingerprint_ms": per_capture("capture_fingerprint"),
        "ingest.log.bytes_hashed": count("capture_fingerprint"),
        "ingest.log.append_ms": per_capture("ResultsLog.append"),
        "ingest.tasks.resolve_ms": per_capture("metadata_entries_near", "build_pcap_task"),
        "dataset.sidecar.lookup_ms": per_capture("capture_records_for"),
        "dataset.sidecar.hit_ratio": ratio("capture_records_for"),
        "net.pcap.read_ms": per_capture("PcapReader.read_columns"),
        "net.pcap.packets": count("PcapReader.read_columns"),
        "net.capture.decode_ms": per_capture("CapturedTrace.from_pcap"),
        "net.capture.packets_per_s": (
            count("CapturedTrace.from_pcap") / decode if decode else 0.0
        ),
        "core.features.select_flow_ms": per_capture("select_streaming_flow"),
        "core.features.extract_ms": per_capture("extract_client_records"),
        "core.features.records": count("extract_client_records"),
        "core.kernel.fast_path_ratio": ratio("tls_record_spans"),
        "core.classifier.classify_ms": per_capture("RecordTypeClassifier.classify"),
        "core.inference.infer_ms": per_capture(
            "infer_choices", "reconstruct_path", "profile_from_path"
        ),
        "ingest.watcher.scan_ms": per_capture("CaptureWatcher.scan"),
        "ingest.fleet.queue_wait_p90_s": percentile(traced.queue_waits, 90),
        "ingest.fleet.peak_depth": traced.peak_depth,
        "streaming.session.simulate_ms": per_session("SessionPlan.execute"),
        "net.capture.to_pcap_ms": per_session("CapturedTrace.to_pcap"),
        "net.packet.serialize_ms": per_session("Packet.serialize_frame"),
        "net.headers.checksum_ms": per_session("checksum16"),
        "net.headers.checksum_bytes": count("checksum16"),
        "dataset.sidecar.entry_ms": per_session("sidecar_entry_for"),
        "dataset.format.close_ms": per_session("DatasetWriter.close"),
        "dataset.sidecar.fold_ms": per_session("fold_shard_sidecar"),
        "core.fingerprint.finalize_ms": per_session(
            "FingerprintAccumulator.finalize_into"
        ),
        "trace.coverage_ratio": covered / traced.wall if traced.wall else 0.0,
        "trace.overhead_ratio": traced_cost / untraced_cost - 1.0,
    }


def validity(name: str, metrics: dict[str, float]) -> list[str]:
    """Checks that the traced run exercised the layers its workload claims."""
    problems = []
    hit_ratio = metrics["dataset.sidecar.hit_ratio"]
    expected = 1.0 if name == "generate-train" else 0.0
    if hit_ratio != expected:
        problems.append(f"sidecar hit ratio {hit_ratio} on {name}, expected {expected}")
    return problems


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--checkout", type=Path, default=Path.cwd())
    args = parser.parse_args()
    checkout = args.checkout.resolve()
    scratch = fixture.cache_root(checkout) / "runs" / str(os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        workload = make(args.workload, checkout, args.seed, scratch)
        workload.setup()
        print("ready", flush=True)
        if args.setup_only:
            return
        if args.trace:
            # Untraced units before and after the traced one, so warm-up
            # does not pass for tracing overhead.
            untraced = workload.unit()
            with Tracer() as tracer:
                traced = workload.unit()
            untraced.add(workload.unit())
            tracer.save(
                fixture.cache_root(checkout)
                / "traces"
                / f"{args.workload}-seed{args.seed}.npz"
            )
            measure = traced
            metrics = per_layer(tracer, traced, untraced)
            measure.problems.extend(validity(args.workload, metrics))
            measure.problems.extend(untraced.problems)
        else:
            measure = workload.run(args.seconds)
            metrics = end_to_end(measure)
        print(
            json.dumps(
                {
                    "operations": measure.operations,
                    "failed": measure.failed,
                    "problems": measure.problems,
                    "metrics": metrics,
                }
            ),
            flush=True,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    main()
