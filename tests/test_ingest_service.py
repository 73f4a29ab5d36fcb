"""End-to-end tests of the streaming attack service and ``repro watch``.

Covers the tentpole guarantees: the online (watch) and offline (batch
attack) paths share one code path and write byte-identical results logs; a
killed-and-restarted watcher converges on exactly one verdict per capture
(no duplicates, no gaps), whether the kill hit mid-capture or mid-append.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli.main import main
from repro.exceptions import ReproError
from repro.core.pipeline import WhiteMirrorAttack
from repro.dataset.collection import default_study_script
from repro.dataset.shards import iter_shard_training_sessions
from repro.ingest.fleet import FleetSource, FleetWatchService
from repro.ingest.log import ResultsLog, capture_fingerprint
from repro.ingest.service import StreamingAttackService
from repro.ingest.watcher import INPROGRESS_SUFFIX


def _single_source_fleet(service, directory):
    """The watch loop as ``repro watch DIR`` runs it: one unlabelled source."""
    return FleetWatchService(
        service=service, sources=(FleetSource(None, Path(directory)),)
    )


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory) -> Path:
    """A small generated dataset whose pcaps double as 'live' captures."""
    directory = tmp_path_factory.mktemp("ingest-dataset")
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
    path = tmp_path_factory.mktemp("ingest-lib") / "library.json"
    attack.library.save(path)
    return path


def _make_drop_directory(dataset_dir: Path, destination: Path) -> list[Path]:
    """Replay a dataset's captures (and its metadata) into a drop directory."""
    destination.mkdir(parents=True, exist_ok=True)
    shutil.copy(dataset_dir / "metadata.json", destination / "metadata.json")
    copied = []
    for pcap in sorted((dataset_dir / "traces").glob("*.pcap")):
        copied.append(Path(shutil.copy(pcap, destination / pcap.name)))
    return copied


def _log_captures(log_path: Path) -> list[str]:
    return [
        json.loads(line)["capture"]
        for line in log_path.read_text().splitlines()
    ]


class TestWatchMatchesBatchAttack:
    def test_once_log_is_byte_identical_to_batch_attack_log(
        self, dataset_dir, library_path, tmp_path, capsys
    ):
        drop = tmp_path / "drop"
        _make_drop_directory(dataset_dir, drop)
        watch_log = tmp_path / "watch.jsonl"
        attack_log = tmp_path / "attack.jsonl"
        assert (
            main(
                [
                    "watch",
                    str(drop),
                    "--library",
                    str(library_path),
                    "--once",
                    "--results-log",
                    str(watch_log),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "attack",
                    str(drop),
                    str(library_path),
                    "--results-log",
                    str(attack_log),
                ]
            )
            == 0
        )
        assert watch_log.read_bytes() == attack_log.read_bytes()
        assert len(_log_captures(watch_log)) == 3
        output = capsys.readouterr().out
        assert "Running aggregate accuracy" in output
        assert "aggregate: attacked" in output

    def test_bounded_once_log_is_byte_identical_to_batch_attack_log(
        self, dataset_dir, library_path, tmp_path, capsys
    ):
        # The positional watch honours the queue watermarks; a bound that
        # parks captures mid-drain changes batching, never the log bytes.
        drop = tmp_path / "drop"
        captures = _make_drop_directory(dataset_dir, drop)
        assert len(captures) >= 3
        watch_log = tmp_path / "watch.jsonl"
        attack_log = tmp_path / "attack.jsonl"
        assert (
            main(
                [
                    "watch", str(drop), "--library", str(library_path),
                    "--once", "--results-log", str(watch_log),
                    "--queue-high", "2", "--queue-low", "0",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert f"parking new arrivals from {drop} " in output
        assert (
            main(
                [
                    "attack", str(drop), str(library_path),
                    "--results-log", str(attack_log),
                ]
            )
            == 0
        )
        assert watch_log.read_bytes() == attack_log.read_bytes()
        records = [json.loads(line) for line in watch_log.read_text().splitlines()]
        assert len(records) == len(captures)
        assert all("source" not in record for record in records)

    def test_watch_default_log_lives_in_the_drop_directory(
        self, dataset_dir, library_path, tmp_path, capsys
    ):
        drop = tmp_path / "drop"
        _make_drop_directory(dataset_dir, drop)
        assert (
            main(["watch", str(drop), "--library", str(library_path), "--once"])
            == 0
        )
        assert (drop / "results.jsonl").exists()
        # The log itself must not be mistaken for a capture on a second run.
        assert (
            main(["watch", str(drop), "--library", str(library_path), "--once"])
            == 0
        )
        assert len(_log_captures(drop / "results.jsonl")) == 3

    def test_batch_attack_resumes_from_the_log_too(
        self, dataset_dir, library_path, tmp_path, capsys
    ):
        drop = tmp_path / "drop"
        _make_drop_directory(dataset_dir, drop)
        log = tmp_path / "log.jsonl"
        main(["attack", str(drop), str(library_path), "--results-log", str(log)])
        reference = log.read_bytes()
        capsys.readouterr()
        # A second batch run appends nothing and reports the skips.
        assert (
            main(
                ["attack", str(drop), str(library_path), "--results-log", str(log)]
            )
            == 0
        )
        assert log.read_bytes() == reference
        assert "already attacked" in capsys.readouterr().out


class TestServiceResumption:
    def test_restart_skips_by_content_fingerprint_not_name(
        self, dataset_dir, library_path, tmp_path
    ):
        from repro.core.fingerprint import FingerprintLibrary

        drop = tmp_path / "drop"
        captures = _make_drop_directory(dataset_dir, drop)
        log = tmp_path / "log.jsonl"
        library = FingerprintLibrary.load(library_path)
        service = StreamingAttackService(library=library, log_path=log)
        service.process(captures)
        assert len(service.verdicts) == 3
        # The same bytes under a new name are recognised and skipped...
        renamed = drop / "renamed-copy.pcap"
        shutil.copy(captures[0], renamed)
        skips = []
        restarted = StreamingAttackService(library=library, log_path=log)
        fresh = restarted.process(
            [renamed], on_skip=lambda path, reason: skips.append((path.name, reason))
        )
        assert fresh == []
        assert skips and "already attacked" in skips[0][1]
        # The restarted service still knows every logged verdict.
        assert len(restarted.verdicts) == 3
        assert ResultsLog(log).load() == list(restarted.verdicts)

    def test_unknown_environment_captures_are_skipped_not_fatal(
        self, dataset_dir, library_path, tmp_path
    ):
        from repro.core.fingerprint import FingerprintLibrary

        drop = tmp_path / "drop"
        captures = _make_drop_directory(dataset_dir, drop)
        # A foreign capture with no metadata entry: environment unknowable.
        # Distinct content, or the content-fingerprint dedup would fire
        # first (it is checked before environment resolution — cheaper).
        foreign = drop / "zz-foreign.pcap"
        foreign.write_bytes(captures[0].read_bytes() + b"trailer")
        library = FingerprintLibrary.load(library_path)
        service = StreamingAttackService(library=library, log_path=None)
        skips = []
        fresh = service.process(
            captures + [foreign],
            on_skip=lambda path, reason: skips.append((path.name, reason)),
        )
        assert len(fresh) == 3
        assert [name for name, _ in skips] == ["zz-foreign.pcap"]
        assert "environment" in skips[0][1]


class TestCrashSafety:
    def test_kill_mid_jsonl_append_repairs_and_converges(
        self, dataset_dir, library_path, tmp_path
    ):
        """Truncating the last line (crash mid-append) loses exactly one
        verdict, and the restart re-attacks exactly that capture."""
        drop = tmp_path / "drop"
        _make_drop_directory(dataset_dir, drop)
        log = tmp_path / "log.jsonl"
        reference = tmp_path / "reference.jsonl"
        main(["watch", str(drop), "--library", str(library_path), "--once",
              "--results-log", str(reference)])
        shutil.copy(reference, log)
        # Simulate the kill: the final verdict line persisted only partially.
        raw = log.read_bytes()
        lines = raw.splitlines(keepends=True)
        with open(log, "rb+") as handle:
            handle.truncate(len(raw) - len(lines[-1]) + 9)
        assert (
            main(["watch", str(drop), "--library", str(library_path), "--once",
                  "--results-log", str(log)])
            == 0
        )
        # Converged: byte-identical to the uninterrupted run — one verdict
        # per capture, no duplicates, no gaps.
        assert log.read_bytes() == reference.read_bytes()

    def test_kill_mid_capture_is_invisible_until_the_capture_finishes(
        self, dataset_dir, library_path, tmp_path, capsys
    ):
        """A capture whose writer died mid-copy (marker still present) is
        not attacked; finishing the rename later yields exactly one verdict."""
        drop = tmp_path / "drop"
        captures = _make_drop_directory(dataset_dir, drop)
        log = tmp_path / "log.jsonl"
        # The last capture is still being written when the watcher runs.
        unfinished = captures[-1]
        staged = drop / (unfinished.name + INPROGRESS_SUFFIX)
        os.replace(unfinished, staged)
        main(["watch", str(drop), "--library", str(library_path), "--once",
              "--results-log", str(log)])
        attacked = _log_captures(log)
        assert unfinished.name not in attacked
        assert len(attacked) == 2
        # The writer restarts and completes the capture atomically.
        os.replace(staged, unfinished)
        main(["watch", str(drop), "--library", str(library_path), "--once",
              "--results-log", str(log)])
        attacked = _log_captures(log)
        assert attacked.count(unfinished.name) == 1
        assert len(attacked) == 3

    def test_sigkilled_follow_watcher_restarts_without_dupes_or_gaps(
        self, dataset_dir, library_path, tmp_path
    ):
        """The acceptance-criterion scenario, for real: SIGKILL a follow-mode
        ``repro watch`` subprocess after its first verdict, restart with
        ``--once``, and require exactly one verdict per capture."""
        drop = tmp_path / "drop"
        captures = _make_drop_directory(dataset_dir, drop)
        log = tmp_path / "log.jsonl"
        environment = dict(os.environ)
        environment["PYTHONPATH"] = (
            str(Path(__file__).resolve().parents[1] / "src")
            + os.pathsep
            + environment.get("PYTHONPATH", "")
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "watch", str(drop),
                "--library", str(library_path),
                "--follow", "--poll-interval", "0.1",
                "--results-log", str(log),
            ],
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
                pytest.fail("follow-mode watcher produced no verdict in 60s")
        finally:
            process.kill()
            process.wait(timeout=30)
        # Restart over the same directory: only the unattacked remainder runs.
        assert (
            main(["watch", str(drop), "--library", str(library_path), "--once",
                  "--results-log", str(log)])
            == 0
        )
        attacked = _log_captures(log)
        assert sorted(attacked) == sorted(p.name for p in captures)
        assert len(attacked) == len(set(attacked))
        # And the converged log carries every capture's fingerprint exactly
        # once — the restart keyed on content, not on luck.
        fingerprints = [
            json.loads(line)["fingerprint"] for line in log.read_text().splitlines()
        ]
        assert sorted(fingerprints) == sorted(
            capture_fingerprint(path) for path in captures
        )


class TestServiceRobustness:
    """Review-hardened behaviours: the long-running service must outlive
    bad captures, and the batch CLI must keep its actionable errors."""

    def test_capture_deleted_between_scan_and_read_is_skipped(
        self, dataset_dir, library_path, tmp_path
    ):
        from repro.core.fingerprint import FingerprintLibrary

        drop = tmp_path / "drop"
        captures = _make_drop_directory(dataset_dir, drop)
        ghost = drop / "rotated-away.pcap"  # reported by a scan, then deleted
        service = StreamingAttackService(
            library=FingerprintLibrary.load(library_path), log_path=None
        )
        skips = []
        fresh = service.process(
            [ghost] + captures,
            on_skip=lambda path, reason: skips.append((path.name, reason)),
        )
        assert len(fresh) == 3
        assert skips[0][0] == "rotated-away.pcap"
        assert "unreadable" in skips[0][1]

    def test_follow_mode_survives_a_corrupt_capture(
        self, dataset_dir, library_path, tmp_path
    ):
        from repro.core.fingerprint import FingerprintLibrary

        drop = tmp_path / "drop"
        drop.mkdir()
        (drop / "corrupt.pcap").write_bytes(b"not a pcap at all")
        errors: list[Exception] = []
        service = StreamingAttackService(
            library=FingerprintLibrary.load(library_path),
            log_path=tmp_path / "log.jsonl",
            environment="linux/firefox",
        )
        _single_source_fleet(service, drop).run(
            follow=True,
            poll_interval=0.01,
            on_error=errors.append,
            should_stop=lambda: bool(errors),
        )
        assert len(errors) == 1
        assert "corrupt.pcap" in str(errors[0])
        # Nothing was logged for the failed capture: a restart re-examines it.
        assert ResultsLog(tmp_path / "log.jsonl").load() == []

    def test_follow_mode_attacks_the_captures_queued_behind_a_corrupt_one(
        self, dataset_dir, library_path, tmp_path
    ):
        from repro.core.fingerprint import FingerprintLibrary

        drop = tmp_path / "drop"
        drop.mkdir()
        # The corrupt capture sorts first, so the good one shares its batch
        # and is queued behind it.
        (drop / "aa-corrupt.pcap").write_bytes(b"not a pcap at all")
        good = sorted((dataset_dir / "traces").glob("*.pcap"))[0]
        shutil.copy(good, drop / good.name)
        errors: list[Exception] = []
        verdicts = []
        service = StreamingAttackService(
            library=FingerprintLibrary.load(library_path),
            log_path=tmp_path / "log.jsonl",
            environment="linux/firefox",
        )
        deadline = time.monotonic() + 60
        _single_source_fleet(service, drop).run(
            follow=True,
            poll_interval=0.01,
            on_verdict=lambda verdict, result: verdicts.append(verdict),
            on_error=errors.append,
            should_stop=lambda: bool(verdicts) or time.monotonic() > deadline,
        )
        assert len(errors) == 1
        assert "aa-corrupt.pcap" in str(errors[0])
        assert [verdict.capture for verdict in verdicts] == [good.name]
        logged = ResultsLog(tmp_path / "log.jsonl").load()
        assert [verdict.capture for verdict in logged] == [good.name]

    @pytest.mark.parametrize("workers", [None, 2])
    def test_on_error_reports_a_failed_capture_and_attacks_the_rest(
        self, dataset_dir, library_path, tmp_path, workers
    ):
        from repro.core.fingerprint import FingerprintLibrary

        drop = tmp_path / "drop"
        captures = _make_drop_directory(dataset_dir, drop)
        corrupt = drop / "viewer-001b.pcap"  # sorts between two good captures
        corrupt.write_bytes(b"not a pcap at all")
        batch = sorted(captures + [corrupt])
        errors: list[Exception] = []
        service = StreamingAttackService(
            library=FingerprintLibrary.load(library_path),
            log_path=tmp_path / "log.jsonl",
            workers=workers,
            environment="linux/firefox",
        )
        fresh = service.process(batch, on_error=errors.append)
        assert [verdict.capture for verdict in fresh] == [p.name for p in captures]
        assert len(errors) == 1 and "viewer-001b.pcap" in str(errors[0])
        logged = ResultsLog(tmp_path / "log.jsonl").load()
        assert [verdict.capture for verdict in logged] == [p.name for p in captures]

    def test_once_mode_still_fails_loudly_on_a_corrupt_capture(
        self, library_path, tmp_path
    ):
        from repro.core.fingerprint import FingerprintLibrary
        from repro.exceptions import ReproError

        drop = tmp_path / "drop"
        drop.mkdir()
        (drop / "corrupt.pcap").write_bytes(b"not a pcap at all")
        service = StreamingAttackService(
            library=FingerprintLibrary.load(library_path),
            log_path=None,
            environment="linux/firefox",
        )
        with pytest.raises(ReproError, match="corrupt.pcap"):
            _single_source_fleet(service, drop).run(follow=False)

    def test_duplicate_content_without_a_log_is_attacked_twice(
        self, dataset_dir, library_path, tmp_path
    ):
        from repro.core.fingerprint import FingerprintLibrary

        drop = tmp_path / "drop"
        captures = _make_drop_directory(dataset_dir, drop)
        twin = drop / "twin.pcap"
        shutil.copy(captures[0], twin)
        # No results log: there is no resume state to protect, so a batch
        # caller gets every named capture attacked, duplicates included.
        # (--environment override: the twin has no metadata entry.)
        service = StreamingAttackService(
            library=FingerprintLibrary.load(library_path),
            log_path=None,
            environment="linux/firefox",
        )
        fresh = service.process(captures + [twin])
        assert len(fresh) == 4

    def test_results_log_in_a_missing_directory_fails_before_attacking(
        self, library_path, tmp_path
    ):
        from repro.core.fingerprint import FingerprintLibrary
        from repro.exceptions import IngestError

        with pytest.raises(IngestError, match="does not exist"):
            StreamingAttackService(
                library=FingerprintLibrary.load(library_path),
                log_path=tmp_path / "no" / "such" / "dir" / "log.jsonl",
            )

    def test_attack_directory_without_metadata_names_the_environment_flag(
        self, dataset_dir, library_path, tmp_path, capsys
    ):
        # Bare pcaps, no metadata.json, no --environment: the old actionable
        # error must survive the refactor onto the service.
        drop = tmp_path / "drop"
        drop.mkdir()
        for pcap in sorted((dataset_dir / "traces").glob("*.pcap")):
            shutil.copy(pcap, drop / pcap.name)
        exit_code = main(["attack", str(drop), str(library_path)])
        assert exit_code == 1
        assert "--environment" in capsys.readouterr().err


class TestForeignMetadataAndFlagMisuse:
    def test_malformed_metadata_entry_is_skipped_not_fatal(
        self, dataset_dir, library_path, tmp_path
    ):
        from repro.core.fingerprint import FingerprintLibrary

        drop = tmp_path / "drop"
        captures = _make_drop_directory(dataset_dir, drop)
        # Break one capture's ground-truth record: foreign/hand-edited
        # metadata must not kill the service (KeyError would escape the
        # follow loop's ReproError handling).
        metadata_path = drop / "metadata.json"
        metadata = json.loads(metadata_path.read_text())
        del metadata["entries"][0]["choices"]
        metadata_path.write_text(json.dumps(metadata))
        service = StreamingAttackService(
            library=FingerprintLibrary.load(library_path), log_path=None
        )
        skips = []
        fresh = service.process(
            captures,
            on_skip=lambda path, reason: skips.append((path.name, reason)),
        )
        assert len(fresh) == 2
        assert [name for name, _ in skips] == [captures[0].name]
        assert "ground-truth" in skips[0][1]

    def test_single_file_attack_rejects_results_log(
        self, dataset_dir, library_path, capsys
    ):
        pcap = sorted((dataset_dir / "traces").glob("*.pcap"))[0]
        exit_code = main(
            ["attack", str(pcap), str(library_path), "--results-log", "/tmp/x.jsonl"]
        )
        assert exit_code == 1
        assert "--results-log" in capsys.readouterr().err

    def test_duplicate_content_dedup_is_identical_serial_and_parallel(
        self, dataset_dir, library_path, tmp_path
    ):
        from repro.core.fingerprint import FingerprintLibrary

        # The dedup decision is taken when each verdict is recorded, in
        # capture order: the parallel pull-ahead window attacks both copies,
        # and the copy recorded second must still be skipped.
        library = FingerprintLibrary.load(library_path)
        logs = {}
        for label, workers in (("serial", None), ("parallel", 2)):
            drop = tmp_path / f"drop-{label}"
            captures = _make_drop_directory(dataset_dir, drop)
            # aa-twin sorts *before* its original, so the twin is attacked
            # and the original becomes the in-batch duplicate.
            twin = drop / "aa-twin.pcap"
            shutil.copy(captures[0], twin)
            log = tmp_path / f"{label}.jsonl"
            service = StreamingAttackService(
                library=library,
                log_path=log,
                workers=workers,
                environment="linux/firefox",
            )
            fresh = service.process(sorted(drop.glob("*.pcap")))
            assert len(fresh) == 3  # twin attacked once, duplicate skipped
            logs[label] = log.read_bytes()
        assert logs["serial"] == logs["parallel"]
        fingerprints = [
            json.loads(line)["fingerprint"]
            for line in logs["serial"].decode().splitlines()
        ]
        assert len(fingerprints) == len(set(fingerprints))


class TestDedupeWhenRecorded:
    """The resume check runs when a verdict is recorded, against the
    fingerprint of the bytes the attack read: "already attacked" wins over
    every other reason to pass a capture over, callbacks arrive in capture
    order, and the serial and pool paths agree byte for byte."""

    @staticmethod
    def _service(library_path, log, workers=None, **overrides):
        from repro.core.fingerprint import FingerprintLibrary

        return StreamingAttackService(
            library=FingerprintLibrary.load(library_path),
            log_path=log,
            workers=workers,
            **overrides,
        )

    @staticmethod
    def _events(service, paths):
        events = []
        service.process(
            paths,
            on_verdict=lambda verdict, result: events.append(("verdict", verdict.capture)),
            on_skip=lambda path, reason: events.append(("skip", path.name, reason)),
        )
        return events

    @pytest.mark.parametrize("workers", [None, 2])
    def test_restart_appends_nothing_and_skips_each_capture_once(
        self, dataset_dir, library_path, tmp_path, workers
    ):
        drop = tmp_path / "drop"
        captures = _make_drop_directory(dataset_dir, drop)
        log = tmp_path / "log.jsonl"
        self._service(library_path, log).process(captures)
        reference = log.read_bytes()
        events = self._events(self._service(library_path, log, workers), captures)
        assert log.read_bytes() == reference
        assert events == [
            ("skip", path.name, "already attacked (content fingerprint in the results log)")
            for path in captures
        ]

    @pytest.mark.parametrize("workers", [None, 2])
    def test_already_attacked_wins_over_an_environment_error(
        self, dataset_dir, library_path, tmp_path, workers
    ):
        # Bare pcaps: only the --environment override resolves them.
        drop = tmp_path / "drop"
        drop.mkdir()
        captures = [
            Path(shutil.copy(pcap, drop / pcap.name))
            for pcap in sorted((dataset_dir / "traces").glob("*.pcap"))
        ]
        log = tmp_path / "log.jsonl"
        self._service(library_path, log, environment="linux/firefox").process(captures)
        reference = log.read_bytes()
        events = self._events(self._service(library_path, log, workers), captures)
        assert log.read_bytes() == reference
        assert [event[2] for event in events] == [
            "already attacked (content fingerprint in the results log)"
        ] * len(captures)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_already_attacked_wins_over_an_attack_error(
        self, dataset_dir, library_path, tmp_path, workers
    ):
        drop = tmp_path / "drop"
        captures = _make_drop_directory(dataset_dir, drop)
        log = tmp_path / "log.jsonl"
        self._service(library_path, log).process(captures)
        reference = log.read_bytes()
        # No flow of these captures has this client, so every decode fails;
        # a logged capture is skipped, not raised.
        service = self._service(library_path, log, workers, client_ip="10.0.0.1")
        events = self._events(service, captures)
        assert log.read_bytes() == reference
        assert [event[:2] for event in events] == [
            ("skip", path.name) for path in captures
        ]
        # The same decode error still surfaces where the log lacks the content.
        service = self._service(
            library_path, tmp_path / "other.jsonl", workers, client_ip="10.0.0.1"
        )
        with pytest.raises(ReproError, match="no client-side TLS records"):
            service.process(captures)

    def test_mixed_batch_reports_in_capture_order_serial_and_parallel(
        self, dataset_dir, library_path, tmp_path
    ):
        results = {}
        for label, workers in (("serial", None), ("parallel", 2)):
            drop = tmp_path / f"drop-{label}"
            first, second, third = _make_drop_directory(dataset_dir, drop)
            # Neither extra file has a metadata entry: the copy's content is
            # attacked earlier in the batch, the foreign file's never was.
            copy = Path(shutil.copy(second, drop / "copy-of-second.pcap"))
            foreign = drop / "foreign.pcap"
            foreign.write_bytes(b"not a pcap at all")
            log = tmp_path / f"{label}.jsonl"
            self._service(library_path, log).process([first])
            events = self._events(
                self._service(library_path, log, workers),
                [first, second, copy, third, foreign],
            )
            assert [event[:2] for event in events] == [
                ("skip", first.name),
                ("verdict", second.name),
                ("skip", copy.name),
                ("verdict", third.name),
                ("skip", foreign.name),
            ]
            assert "already attacked" in events[0][2]
            assert "already attacked" in events[2][2]
            assert "environment" in events[4][2]
            # Reasons name the capture's path; only its directory differs.
            events = [
                tuple(part.replace(str(drop), "DROP") for part in event)
                for event in events
            ]
            results[label] = (events, log.read_bytes())
        assert results["serial"] == results["parallel"]

    @pytest.mark.parametrize("workers", [None, 2])
    def test_process_leaves_no_thread_behind(
        self, dataset_dir, library_path, tmp_path, workers
    ):
        drop = tmp_path / "drop"
        captures = _make_drop_directory(dataset_dir, drop)
        service = self._service(library_path, tmp_path / "log.jsonl", workers)
        threads = threading.active_count()
        assert len(service.process(captures)) == len(captures)
        assert threading.active_count() == threads
