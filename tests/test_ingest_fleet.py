"""Stress, fault-injection and byte-identity tests for the watch fleet.

The tentpole guarantees under test:

* **Bounded backpressure** — a multi-threaded publisher flooding eight
  sources with hundreds of tiny captures never pushes the bounded queue
  past its high watermark, and every capture is processed exactly once.
* **Merge canonicalization** — any partition of a verdict set into
  per-source segments, in any arrival order, merges to the same canonical
  bytes, with torn trailing lines repaired exactly as ``ResultsLog.load``
  repairs them.
* **Hot reload** — the fingerprint library is swapped between batches on a
  content change, never mid-attack; corrupt staged bytes are reported once
  and ignored.
* **The hard wall** — a multi-source ``--once`` results log is
  byte-identical to serial single-source fleet runs concatenated in
  canonical source order, under different worker counts, tiny queue
  bounds, and a SIGKILL/restart schedule.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.cli.main import main
from repro.core.fingerprint import FingerprintLibrary
from repro.core.pipeline import WhiteMirrorAttack
from repro.dataset.collection import default_study_script
from repro.dataset.shards import iter_shard_training_sessions
from repro.exceptions import IngestError
from repro.ingest.fleet import (
    BoundedIngestQueue,
    FleetSource,
    FleetWatchService,
    LibraryReloadWatcher,
    validate_sources,
)
from repro.ingest.log import (
    CaptureVerdict,
    ResultsLog,
    canonical_log_bytes,
    merge_results_logs,
    parse_results_log_bytes,
    verdict_line,
)
from repro.jobs import EventBus, JobRunner
from repro.jobs import events as ev
from repro.jobs.events import JobEvent
from repro.jobs.metrics import METRICS_PATH, IngestMetrics
from repro.jobs.specs import WatchJob
from repro.utils.jsonhttp import JsonHttpServer


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory) -> Path:
    """A small generated dataset whose pcaps double as 'live' captures."""
    directory = tmp_path_factory.mktemp("fleet-dataset")
    assert (
        main(
            [
                "generate-dataset",
                str(directory),
                "--viewers",
                "3",
                "--seed",
                "11",
                "--no-cross-traffic",
            ]
        )
        == 0
    )
    return directory


@pytest.fixture(scope="module")
def library_path(dataset_dir, tmp_path_factory) -> Path:
    """Fingerprints trained on every viewer, so no capture is skipped."""
    attack = WhiteMirrorAttack(graph=default_study_script())
    attack.train(iter_shard_training_sessions(dataset_dir))
    path = tmp_path_factory.mktemp("fleet-lib") / "library.json"
    attack.library.save(path)
    return path


def _make_source(dataset_dir: Path, destination: Path, pcaps=None) -> list[Path]:
    """Replay dataset captures (and metadata) into one source directory."""
    destination.mkdir(parents=True, exist_ok=True)
    shutil.copy(dataset_dir / "metadata.json", destination / "metadata.json")
    chosen = (
        pcaps
        if pcaps is not None
        else sorted((dataset_dir / "traces").glob("*.pcap"))
    )
    return [Path(shutil.copy(p, destination / p.name)) for p in chosen]


def _fleet_argv(sources, library, log, *extra) -> list[str]:
    argv = ["watch", "--library", str(library), "--once", "--results-log", str(log)]
    for source in sources:
        argv += ["--source", str(source)]
    return argv + list(extra)


def _serial_reference(sources, library, tmp: Path) -> bytes:
    """N single-source fleet runs, concatenated in canonical label order."""
    chunks = []
    for source in sorted(sources, key=str):
        segment = tmp / f"serial-{Path(source).name}.jsonl"
        assert main(_fleet_argv([source], library, segment)) == 0
        chunks.append(segment.read_bytes())
    return b"".join(chunks)


# ---------------------------------------------------------------------------
# Bounded queue semantics
# ---------------------------------------------------------------------------


class TestBoundedIngestQueue:
    def _drain_all(self, queue: BoundedIngestQueue) -> list[tuple[str, str]]:
        order = []
        while True:
            batch = queue.drain_next_batch()
            if batch is None:
                return order
            source, paths = batch
            order.extend((source, path.name) for path in paths)

    def test_drain_order_is_canonical_under_any_bound(self):
        offers = [
            (label, [Path(f"{label}-{index:03d}.pcap") for index in range(7)])
            for label in ("src-a", "src-b", "src-c")
        ]
        orders = []
        for high, low in ((3, 1), (5, 2), (1000, 500)):
            queue = BoundedIngestQueue(high_watermark=high, low_watermark=low)
            for label, paths in offers:
                queue.offer(label, paths)
            orders.append(self._drain_all(queue))
            assert queue.peak_depth <= high
        assert orders[0] == orders[1] == orders[2]
        assert orders[0] == sorted(orders[0])  # canonical (source, name) order

    def test_arrivals_never_overtake_parked_captures(self):
        saturated = []
        queue = BoundedIngestQueue(
            high_watermark=2,
            low_watermark=1,
            on_saturated=lambda source, depth: saturated.append((source, depth)),
        )
        queue.offer("a", [Path(f"a-{i}.pcap") for i in range(5)])
        # The queue is saturated: a later source's arrival must park even
        # though its label sorts after everything pending.
        queue.offer("b", [Path("b-0.pcap")])
        assert queue.saturated
        assert saturated == [("a", 2)]
        order = self._drain_all(queue)
        assert order == [
            ("a", "a-0.pcap"),
            ("a", "a-1.pcap"),
            ("a", "a-2.pcap"),
            ("a", "a-3.pcap"),
            ("a", "a-4.pcap"),
            ("b", "b-0.pcap"),
        ]
        assert not queue.saturated
        assert queue.parked_count == 0

    def test_duplicate_offers_are_dropped(self):
        queue = BoundedIngestQueue(high_watermark=8, low_watermark=4)
        first = queue.offer("a", [Path("x.pcap")])
        second = queue.offer("a", [Path("x.pcap")])
        other_source = queue.offer("b", [Path("x.pcap")])
        assert [p.name for p in first] == ["x.pcap"]
        assert second == []
        assert [p.name for p in other_source] == ["x.pcap"]  # per-source key

    def test_saturation_episodes_are_counted_once_each(self):
        queue = BoundedIngestQueue(high_watermark=2, low_watermark=0)
        queue.offer("a", [Path(f"a-{i}.pcap") for i in range(4)])
        assert queue.saturation_events == 1
        self._drain_all(queue)
        assert not queue.saturated
        queue.offer("a", [Path(f"b-{i}.pcap") for i in range(4)])
        assert queue.saturation_events == 2


# ---------------------------------------------------------------------------
# Stress harness: a seeded multi-threaded flood through a stub service
# ---------------------------------------------------------------------------


class _RecordingService:
    """AttackServiceLike stub: records calls instead of attacking pcaps."""

    def __init__(self):
        self.processed: list[tuple[str, str]] = []
        self.replaced: list[FingerprintLibrary] = []
        self.calls: list[tuple[str, object]] = []

    def process(self, paths, on_verdict=None, on_skip=None, source=None, on_error=None):
        batch = [(source, Path(path).name) for path in paths]
        self.processed.extend(batch)
        self.calls.append(("process", batch))
        return []

    def replace_library(self, library):
        self.replaced.append(library)
        self.calls.append(("reload", library))


def _publish(directory: Path, name: str, payload: bytes) -> None:
    """The cooperative marker protocol: stage, then atomic rename."""
    staged = directory / (name + ".inprogress")
    staged.write_bytes(payload)
    os.replace(staged, directory / name)


class TestFleetStressFlood:
    SOURCES = 8
    PER_SOURCE = 30
    HIGH, LOW = 16, 8

    def test_flood_is_bounded_and_processed_exactly_once(self, tmp_path):
        roots = []
        for index in range(self.SOURCES):
            root = tmp_path / f"box-{index}"
            root.mkdir()
            roots.append(root)
        total = self.SOURCES * self.PER_SOURCE
        # Half the flood is already on disk when the fleet starts (so the
        # first offers overrun the watermark deterministically); seeded
        # publisher threads land the rest while the fleet is draining.
        for index, root in enumerate(roots):
            for capture in range(self.PER_SOURCE // 2):
                _publish(root, f"cap-{capture:03d}.pcap", b"x" * 64)

        def flood(root: Path, seed: int) -> None:
            rng = random.Random(seed)
            for capture in range(self.PER_SOURCE // 2, self.PER_SOURCE):
                time.sleep(rng.random() * 0.002)
                _publish(root, f"cap-{capture:03d}.pcap", b"x" * 64)

        threads = [
            threading.Thread(target=flood, args=(root, 1000 + index))
            for index, root in enumerate(roots)
        ]
        service = _RecordingService()
        fleet = FleetWatchService(
            service=service,
            sources=validate_sources([str(root) for root in roots]),
            queue_high=self.HIGH,
            queue_low=self.LOW,
            quiet_seconds=0.0,
        )
        for thread in threads:
            thread.start()
        deadline = time.time() + 60

        def should_stop() -> bool:
            done = all(not thread.is_alive() for thread in threads)
            return (done and len(service.processed) >= total) or (
                time.time() > deadline
            )

        fleet.run(follow=True, poll_interval=0.005, should_stop=should_stop)
        for thread in threads:
            thread.join()
        assert time.time() < deadline, "flood did not drain within 60s"
        # Exactly once: every published capture, no duplicates, no gaps.
        expected = {
            (str(root), f"cap-{capture:03d}.pcap")
            for root in roots
            for capture in range(self.PER_SOURCE)
        }
        assert len(service.processed) == total
        assert set(service.processed) == expected
        # Bounded memory: the pending queue never overran the watermark,
        # and the flood demonstrably hit it.
        assert fleet.queue.peak_depth <= self.HIGH
        assert fleet.queue.saturation_events >= 1
        assert fleet.queue.parked_count == 0


# ---------------------------------------------------------------------------
# Merge canonicalization properties
# ---------------------------------------------------------------------------


def _verdict(index: int, source: str | None) -> CaptureVerdict:
    return CaptureVerdict(
        capture=f"cap-{index:04d}.pcap",
        fingerprint=f"{index:064x}",
        condition_key="linux/firefox",
        client_ip="192.168.1.23",
        server_ip="198.51.100.7",
        pattern=(index % 2 == 0, True),
        truth=(True, True),
        source=source,
    )


class TestMergeCanonicalization:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_any_partition_and_arrival_order_merges_identically(
        self, seed, tmp_path
    ):
        rng = random.Random(seed)
        sources = ["src-a", "src-b", "src-c", None]
        verdicts = [
            _verdict(index, rng.choice(sources)) for index in range(30)
        ]
        reference = canonical_log_bytes(verdicts)
        # Shuffle arrivals and deal them into a random number of segments.
        rng.shuffle(verdicts)
        segments = [tmp_path / f"seg-{i}.jsonl" for i in range(rng.randint(1, 5))]
        for segment in segments:
            segment.write_text("")
        for verdict in verdicts:
            segment = rng.choice(segments)
            with open(segment, "a", encoding="utf-8") as handle:
                handle.write(verdict_line(verdict))
        merged = merge_results_logs(segments, output=tmp_path / "merged.jsonl")
        assert merged == reference
        assert (tmp_path / "merged.jsonl").read_bytes() == reference
        # Canonicalization is idempotent: merging the merge is a no-op.
        assert merge_results_logs([tmp_path / "merged.jsonl"]) == reference

    def test_torn_trailing_line_is_repaired_exactly_like_load(self, tmp_path):
        verdicts = [_verdict(index, "src-a") for index in range(3)]
        torn = tmp_path / "torn.jsonl"
        torn.write_text(
            "".join(verdict_line(v) for v in verdicts) + '{"version":1,"cap'
        )
        raw = torn.read_bytes()
        parsed, consumed = parse_results_log_bytes(raw, torn)
        assert parsed == verdicts
        assert raw[:consumed].endswith(b"}\n")
        # merge drops the debris without touching the segment...
        assert merge_results_logs([torn]) == canonical_log_bytes(verdicts)
        assert torn.read_bytes() == raw
        # ...and ResultsLog.load repairs the same prefix in place.
        assert ResultsLog(torn).load() == verdicts
        assert torn.read_bytes() == raw[:consumed]

    def test_terminated_garbage_is_not_mistaken_for_crash_debris(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json at all\n")
        with pytest.raises(IngestError, match="corrupt at byte 0"):
            merge_results_logs([bad])

    def test_merge_dedupes_on_source_and_fingerprint(self, tmp_path):
        verdict = _verdict(7, "src-a")
        duplicate = tmp_path / "dup.jsonl"
        duplicate.write_text(verdict_line(verdict) * 3)
        other_source = _verdict(7, "src-b")  # same content, other source
        second = tmp_path / "other.jsonl"
        second.write_text(verdict_line(other_source))
        merged = merge_results_logs([duplicate, second])
        assert merged == canonical_log_bytes([verdict, other_source])
        assert merged.count(b"\n") == 2

    def test_missing_segments_are_silent_empty_sources(self, tmp_path):
        verdict = _verdict(1, "src-a")
        present = tmp_path / "present.jsonl"
        present.write_text(verdict_line(verdict))
        merged = merge_results_logs([present, tmp_path / "never-wrote.jsonl"])
        assert merged == canonical_log_bytes([verdict])


# ---------------------------------------------------------------------------
# Hot library reload
# ---------------------------------------------------------------------------


def _restaged_bytes(library_path: Path) -> bytes:
    """The same library with different bytes (re-indented JSON)."""
    payload = json.loads(library_path.read_text())
    return json.dumps(payload, indent=4).encode("utf-8")


class TestHotReload:
    def test_missing_stage_fails_loudly_at_startup(self, tmp_path):
        with pytest.raises(IngestError, match="cannot read --reload-library"):
            LibraryReloadWatcher(tmp_path / "missing.json")

    def test_corrupt_stage_fails_loudly_at_startup(self, tmp_path):
        stage = tmp_path / "stage.json"
        stage.write_text("{broken")
        with pytest.raises(
            IngestError, match="not a loadable fingerprint library"
        ):
            LibraryReloadWatcher(stage)

    def test_reload_keys_on_content_not_mtime(self, library_path, tmp_path):
        stage = tmp_path / "stage.json"
        shutil.copy(library_path, stage)
        watcher = LibraryReloadWatcher(stage)
        first = watcher.fingerprint
        # A touch with identical bytes is a no-op.
        os.utime(stage)
        assert watcher.poll() is None
        # Different bytes, same library: a real reload.
        stage.write_bytes(_restaged_bytes(library_path))
        assert watcher.poll() is not None
        assert watcher.fingerprint != first

    def test_corrupt_stage_is_reported_once_and_ignored(
        self, library_path, tmp_path
    ):
        stage = tmp_path / "stage.json"
        shutil.copy(library_path, stage)
        watcher = LibraryReloadWatcher(stage)
        before = watcher.library
        errors = []
        stage.write_text("{torn mid-copy")
        assert watcher.poll(on_error=errors.append) is None
        assert watcher.poll(on_error=errors.append) is None  # no storm
        assert len(errors) == 1
        assert "keeping the current library" in str(errors[0])
        assert watcher.library is before
        # The writer finishes the stage: the next poll swaps it in.
        stage.write_bytes(_restaged_bytes(library_path))
        assert watcher.poll(on_error=errors.append) is not None
        assert len(errors) == 1

    def test_a_rewrite_between_hash_and_parse_cannot_poison_the_stage(
        self, library_path, tmp_path, monkeypatch
    ):
        stage = tmp_path / "stage.json"
        shutil.copy(library_path, stage)
        watcher = LibraryReloadWatcher(stage)
        staged = _restaged_bytes(library_path)
        stage.write_bytes(staged)
        # A writer re-copying the same bytes truncates the file just after
        # the watcher's read: a second read would see an empty stage.
        read_bytes = Path.read_bytes

        def read_then_truncate(path):
            raw = read_bytes(path)
            if path == stage:
                stage.write_bytes(b"")
            return raw

        monkeypatch.setattr(Path, "read_bytes", read_then_truncate)
        errors = []
        watcher.poll(on_error=errors.append)
        monkeypatch.undo()
        stage.write_bytes(staged)  # the writer finishes
        watcher.poll(on_error=errors.append)
        # The staged bytes were valid throughout, so they are served.
        assert watcher.fingerprint == hashlib.sha256(staged).hexdigest()
        assert not errors

    def test_fleet_swaps_the_library_between_batches_never_mid_attack(
        self, library_path, tmp_path
    ):
        source = tmp_path / "box"
        source.mkdir()
        for index in range(3):
            _publish(source, f"cap-{index}.pcap", b"x" * 32)
        stage = tmp_path / "stage.json"
        shutil.copy(library_path, stage)
        watcher = LibraryReloadWatcher(stage)
        stage.write_bytes(_restaged_bytes(library_path))  # staged pre-run
        reloads = []
        service = _RecordingService()
        fleet = FleetWatchService(
            service=service,
            sources=validate_sources([str(source)]),
            reload_watcher=watcher,
            on_reloaded=lambda path, fingerprint: reloads.append(fingerprint),
        )
        fleet.run(follow=False)
        assert reloads == [watcher.fingerprint]
        assert len(service.replaced) == 1
        # The swap happened strictly before the batch was attacked.
        assert [kind for kind, _ in service.calls] == ["reload", "process"]


class _FourKeywordService(_RecordingService):
    """A service whose ``process`` predates the ``on_error`` keyword, as a
    timing wrapper written against the older protocol would."""

    def process(self, paths, on_verdict=None, on_skip=None, source=None):
        return super().process(paths, on_verdict, on_skip, source)


def test_one_shot_run_drains_a_service_without_on_error(tmp_path):
    source = tmp_path / "box"
    source.mkdir()
    for index in range(3):
        _publish(source, f"cap-{index}.pcap", b"x" * 32)
    service = _FourKeywordService()
    fleet = FleetWatchService(service=service, sources=validate_sources([str(source)]))
    fleet.run(follow=False)
    assert sorted(name for _, name in service.processed) == [
        f"cap-{index}.pcap" for index in range(3)
    ]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class _Recorder(list):
    """An event sink that keeps every event it sees."""

    def handle(self, event) -> None:
        self.append(event)

    def of(self, kind: str) -> list:
        return [event for event in self if event.kind == kind]


class TestMetrics:
    def test_latency_percentiles_from_a_fake_clock(self):
        now = {"t": 100.0}
        metrics = IngestMetrics(clock=lambda: now["t"])
        bus = EventBus(metrics)
        for index, latency in enumerate((0.1, 0.2, 0.4)):
            bus.emit(ev.CAPTURE_QUEUED, source="src-a", capture=f"cap-{index}.pcap")
            now["t"] += latency
            bus.emit(ev.VERDICT, source="src-a", capture=f"cap-{index}.pcap")
        snapshot = metrics.snapshot()
        assert snapshot["verdicts"] == 3
        latency = snapshot["latency_s"]
        assert latency["count"] == 3
        assert latency["p50"] == pytest.approx(0.2)
        assert latency["mean"] == pytest.approx(0.7 / 3)
        assert latency["p99"] <= 0.4 + 1e-9

    def test_snapshots_stay_consistent_under_concurrent_events(self):
        metrics = IngestMetrics()
        torn: list[dict] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def publish(source: str) -> None:
            for index in range(500):
                capture = f"cap-{index}.pcap"
                for kind in (ev.CAPTURE_QUEUED, ev.VERDICT):
                    metrics.handle(JobEvent(kind, {"source": source, "capture": capture}))
                # Every verdict closes a latency window; a torn read would not.
                snapshot = metrics.snapshot()
                if snapshot["verdicts"] != snapshot["latency_s"]["count"]:
                    torn.append(snapshot)

        try:
            threads = [
                threading.Thread(target=publish, args=(f"src-{n}",)) for n in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert torn == []
        snapshot = metrics.snapshot()
        assert snapshot["verdicts"] == snapshot["latency_s"]["count"] == 8 * 500

    def test_endpoint_serves_the_snapshot_as_json(self):
        bus = EventBus()
        queue = BoundedIngestQueue(
            high_watermark=8,
            low_watermark=4,
            on_saturated=lambda source, depth: bus.emit(
                ev.QUEUE_SATURATED, source=source, depth=depth
            ),
        )
        metrics = IngestMetrics(queue)
        bus.attach(metrics)
        queue.offer("src-a", [Path(f"cap-{index:02d}.pcap") for index in range(10)])
        bus.emit(ev.CAPTURE_SKIPPED, capture="bad.pcap", reason="unreadable")
        bus.emit(ev.VERDICT, source="src-a", capture="cap-00.pcap")
        server = JsonHttpServer(metrics.route)
        host, port = server.start()
        try:
            with urllib.request.urlopen(
                f"http://{host}:{port}{METRICS_PATH}"
            ) as response:
                assert response.status == 200
                payload = json.loads(response.read())
            assert payload["skips"] == 1
            assert payload["queue"] == {
                "depth": 8,
                "parked": 2,
                "peak_depth": 8,
                "high_watermark": 8,
                "low_watermark": 4,
                "saturation_events": 1,
            }
            assert payload["latency_s"] == {"count": 0}
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"http://{host}:{port}/nope")
            assert excinfo.value.code == 404
            # The endpoint is read-only: a POST gets the JSON 404 naming
            # the one endpoint, not the stdlib's 501.
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    urllib.request.Request(
                        f"http://{host}:{port}{METRICS_PATH}",
                        data=b"{}",
                        method="POST",
                    )
                )
            assert excinfo.value.code == 404
            assert f"GET {METRICS_PATH}" in json.loads(excinfo.value.read())["error"]
        finally:
            server.stop()

    def test_sink_agrees_with_a_real_fleet_watch(
        self, fleet_sources, library_path, tmp_path
    ):
        # A byte-identical copy of a capture already in the same batch is
        # skipped as already attacked.
        first = sorted(fleet_sources[0].glob("*.pcap"))[0]
        shutil.copy(first, fleet_sources[0] / "zz-duplicate.pcap")
        log = tmp_path / "fleet.jsonl"
        metrics = IngestMetrics()
        recorder = _Recorder()
        JobRunner(EventBus(recorder, metrics)).run(
            WatchJob(
                sources=tuple(str(source) for source in fleet_sources),
                library=str(library_path),
                follow=False,
                results_log=str(log),
            )
        )
        snapshot = metrics.snapshot()
        assert snapshot["verdicts"] == len(log.read_bytes().splitlines()) > 0
        assert snapshot["latency_s"]["count"] == snapshot["verdicts"]
        assert snapshot["sources"] == recorder.of(ev.AGGREGATE)[-1].data["rows"]
        assert len(snapshot["sources"]) == len(fleet_sources)
        assert snapshot["skips"] == len(recorder.of(ev.CAPTURE_SKIPPED)) == 1
        assert len(recorder.of(ev.CAPTURE_QUEUED)) == snapshot["verdicts"] + 1

    def test_watch_announces_the_metrics_endpoint(
        self, dataset_dir, library_path, tmp_path, capsys
    ):
        source = tmp_path / "box"
        _make_source(dataset_dir, source)
        log = tmp_path / "log.jsonl"
        assert (
            main(
                _fleet_argv([source], library_path, log, "--metrics-port", "0")
            )
            == 0
        )
        assert "metrics: http://127.0.0.1:" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# The hard wall: fleet --once vs concatenated serial reference
# ---------------------------------------------------------------------------


@pytest.fixture()
def fleet_sources(dataset_dir, tmp_path) -> list[Path]:
    """Three source directories, the dataset's pcaps dealt round-robin."""
    pcaps = sorted((dataset_dir / "traces").glob("*.pcap"))
    sources = []
    for index, name in enumerate(["box-a", "box-b", "box-c"]):
        root = tmp_path / name
        _make_source(dataset_dir, root, pcaps[index::3])
        sources.append(root)
    return sources


class TestFleetByteIdentity:
    def test_fleet_once_equals_serial_concatenation_under_any_knobs(
        self, fleet_sources, library_path, tmp_path, capsys
    ):
        reference = _serial_reference(fleet_sources, library_path, tmp_path)
        assert reference  # the serial runs produced verdicts
        for index, extra in enumerate(
            (
                ("--workers", "1"),
                ("--workers", "2"),
                ("--workers", "2", "--queue-high", "2", "--queue-low", "1"),
                ("--queue-high", "1", "--queue-low", "0"),
            )
        ):
            log = tmp_path / f"fleet-{index}.jsonl"
            # Sources deliberately offered out of canonical order.
            shuffled = [fleet_sources[1], fleet_sources[2], fleet_sources[0]]
            assert main(_fleet_argv(shuffled, library_path, log, *extra)) == 0
            assert log.read_bytes() == reference
        output = capsys.readouterr().out
        assert "verdict: [" in output  # source attribution on the console
        assert "| source" in output  # per-source aggregate table

    def test_every_fleet_verdict_is_attributed_to_its_source(
        self, fleet_sources, library_path, tmp_path
    ):
        log = tmp_path / "fleet.jsonl"
        assert main(_fleet_argv(fleet_sources, library_path, log)) == 0
        records = [
            json.loads(line) for line in log.read_text().splitlines()
        ]
        assert records
        assert [r["source"] for r in records] == sorted(
            str(s) for s in fleet_sources
        )

    def test_recursive_sources_find_nested_captures(
        self, dataset_dir, library_path, tmp_path
    ):
        root = tmp_path / "box"
        captures = _make_source(dataset_dir, root)
        nested = root / "day-1"
        nested.mkdir()
        os.replace(captures[0], nested / captures[0].name)
        log = tmp_path / "log.jsonl"
        assert (
            main(_fleet_argv([root], library_path, log, "--recursive")) == 0
        )
        assert len(log.read_text().splitlines()) == len(captures)

    def test_sigkilled_fleet_restart_converges_on_the_reference_bytes(
        self, dataset_dir, library_path, tmp_path
    ):
        """The acceptance scenario: SIGKILL a follow-mode fleet after its
        first verdict, restart with ``--once``, and require the log to be
        byte-identical to the uninterrupted serial reference."""
        pcaps = sorted((dataset_dir / "traces").glob("*.pcap"))
        sources = []
        for name in ("box-a", "box-b"):
            root = tmp_path / name
            _make_source(dataset_dir, root, pcaps)  # full copy per source
            sources.append(root)
        reference = _serial_reference(sources, library_path, tmp_path)
        log = tmp_path / "fleet.jsonl"
        environment = dict(os.environ)
        environment["PYTHONPATH"] = (
            str(Path(__file__).resolve().parents[1] / "src")
            + os.pathsep
            + environment.get("PYTHONPATH", "")
        )
        argv = [
            sys.executable, "-m", "repro", "watch",
            "--source", str(sources[0]), "--source", str(sources[1]),
            "--library", str(library_path),
            "--follow", "--poll-interval", "0.1",
            "--results-log", str(log),
        ]
        process = subprocess.Popen(
            argv,
            env=environment,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.time() + 60
            while time.time() < deadline:
                if log.exists() and len(log.read_bytes().splitlines()) >= 1:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("follow-mode fleet produced no verdict in 60s")
        finally:
            process.kill()
            process.wait(timeout=30)
        assert main(_fleet_argv(sources, library_path, log)) == 0
        assert log.read_bytes() == reference
        # Exactly one verdict per (source, capture): no duplicates, no gaps.
        keys = [
            (record["source"], record["fingerprint"])
            for record in map(json.loads, log.read_text().splitlines())
        ]
        assert len(keys) == len(set(keys)) == 2 * len(pcaps)


# ---------------------------------------------------------------------------
# Source validation details not reachable through the CLI error table
# ---------------------------------------------------------------------------


class TestSourceValidation:
    def test_symlinked_duplicate_is_detected_by_resolution(self, tmp_path):
        real = tmp_path / "real"
        real.mkdir()
        alias = tmp_path / "alias"
        alias.symlink_to(real)
        with pytest.raises(IngestError, match="resolves to the same directory"):
            validate_sources([str(real), str(alias)])

    def test_sources_come_back_in_canonical_label_order(self, tmp_path):
        for name in ("zeta", "alpha"):
            (tmp_path / name).mkdir()
        ordered = validate_sources(
            [str(tmp_path / "zeta"), str(tmp_path / "alpha")]
        )
        assert [Path(source.label).name for source in ordered] == [
            "alpha",
            "zeta",
        ]
        assert all(isinstance(source, FleetSource) for source in ordered)
