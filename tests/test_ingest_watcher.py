"""Tests for the capture-ingest front end's watcher, queue and results log."""

from __future__ import annotations

import json
import os

import pytest

from repro.exceptions import IngestError
from repro.ingest.log import CaptureVerdict, ResultsLog, capture_fingerprint
from repro.ingest.fleet import BoundedIngestQueue
from repro.ingest.watcher import INPROGRESS_SUFFIX, CaptureWatcher


def _drop(directory, name, payload=b"pcap-bytes"):
    path = directory / name
    path.write_bytes(payload)
    return path


def _backdate(path):
    # Push the mtime far into the past so the stable-stat fallback's quiet
    # window (mtime age) is satisfied and only scan-to-scan stability gates.
    os.utime(path, ns=(0, 0))


class TestCaptureWatcher:
    def test_requires_an_existing_directory(self, tmp_path):
        with pytest.raises(IngestError, match="does not exist"):
            CaptureWatcher(tmp_path / "missing")

    def test_stable_stat_fallback_needs_two_scans(self, tmp_path):
        watcher = CaptureWatcher(tmp_path)
        _backdate(_drop(tmp_path, "a.pcap"))
        # First sighting records the stat; the capture is not yet trusted.
        assert watcher.scan() == []
        # Unchanged across a second scan: finished.
        assert [p.name for p in watcher.scan()] == ["a.pcap"]
        # Never re-reported.
        assert watcher.scan() == []

    def test_growing_capture_is_held_back(self, tmp_path):
        watcher = CaptureWatcher(tmp_path)
        path = _drop(tmp_path, "a.pcap", b"first")
        assert watcher.scan() == []
        # The writer appended between scans: the stat changed, so the
        # stability clock restarts.
        with open(path, "ab") as handle:
            handle.write(b"more")
        os.utime(path, ns=(1, 2))  # force a distinct mtime_ns deterministically
        assert watcher.scan() == []
        assert [p.name for p in watcher.scan()] == ["a.pcap"]

    def test_stable_but_recent_capture_waits_for_the_quiet_window(self, tmp_path):
        """The tcpdump race, pinned: a burst writer flushes, looks stable
        across two fast polls, then writes again — matching stats alone must
        not trigger the attack."""
        clock = {"now": 1000.0}
        watcher = CaptureWatcher(
            tmp_path, quiet_seconds=1.0, clock=lambda: clock["now"]
        )
        path = _drop(tmp_path, "a.pcap", b"burst-one")
        os.utime(path, ns=(int(999.95e9), int(999.95e9)))  # 0.05s old
        # Two scans see identical stats, but the file is too young: held.
        assert watcher.scan() == []
        assert watcher.scan() == []
        # The writer's next burst lands — early trust would have truncated it.
        with open(path, "ab") as handle:
            handle.write(b"burst-two")
        clock["now"] = 1000.5
        os.utime(path, ns=(int(1000.4e9), int(1000.4e9)))
        assert watcher.scan() == []  # stat changed: stability restarts
        clock["now"] = 1000.6
        assert watcher.scan() == []  # stable again, but still too young
        clock["now"] = 1002.0  # the capture has now been quiet for 1.6s
        assert [p.name for p in watcher.scan()] == ["a.pcap"]

    def test_quiet_window_zero_restores_two_scan_behaviour(self, tmp_path):
        watcher = CaptureWatcher(tmp_path, quiet_seconds=0.0)
        _drop(tmp_path, "a.pcap")  # fresh mtime, no backdating
        assert watcher.scan() == []
        assert [p.name for p in watcher.scan()] == ["a.pcap"]

    def test_recursive_watching_keys_by_relative_path(self, tmp_path):
        (tmp_path / "box-a").mkdir()
        (tmp_path / "box-b").mkdir()
        _backdate(_drop(tmp_path / "box-a", "x.pcap", b"from-a"))
        _backdate(_drop(tmp_path / "box-b", "x.pcap", b"from-b"))
        _backdate(_drop(tmp_path, "top.pcap"))
        flat = CaptureWatcher(tmp_path)
        assert [p.name for p in flat.scan(assume_quiescent=True)] == ["top.pcap"]
        deep = CaptureWatcher(tmp_path, recursive=True)
        found = deep.scan(assume_quiescent=True)
        # Same basename under two subdirectories: both reported, exactly once.
        assert [p.relative_to(tmp_path).as_posix() for p in found] == [
            "box-a/x.pcap",
            "box-b/x.pcap",
            "top.pcap",
        ]
        assert deep.scan(assume_quiescent=True) == []

    def test_recursive_marker_blocks_its_own_subdirectory_capture(self, tmp_path):
        nested = tmp_path / "box-a"
        nested.mkdir()
        _backdate(_drop(nested, "x.pcap"))
        _drop(nested, "x.pcap" + INPROGRESS_SUFFIX)
        watcher = CaptureWatcher(tmp_path, recursive=True)
        assert watcher.scan(assume_quiescent=True) == []
        (nested / ("x.pcap" + INPROGRESS_SUFFIX)).unlink()
        assert [p.name for p in watcher.scan(assume_quiescent=True)] == ["x.pcap"]

    def test_inprogress_marker_blocks_then_rename_is_trusted_immediately(
        self, tmp_path
    ):
        watcher = CaptureWatcher(tmp_path)
        marker = _drop(tmp_path, "a.pcap" + INPROGRESS_SUFFIX)
        assert watcher.scan() == []
        # The cooperative writer finishes: rename to the final name.  No
        # stability wait — the rename is the completion signal.
        os.replace(marker, tmp_path / "a.pcap")
        assert [p.name for p in watcher.scan()] == ["a.pcap"]

    def test_marker_alongside_final_name_blocks_the_capture(self, tmp_path):
        watcher = CaptureWatcher(tmp_path)
        _drop(tmp_path, "a.pcap")
        _drop(tmp_path, "a.pcap" + INPROGRESS_SUFFIX)
        assert watcher.scan() == []
        assert watcher.scan() == []  # still marked: never trusted
        (tmp_path / ("a.pcap" + INPROGRESS_SUFFIX)).unlink()
        assert [p.name for p in watcher.scan()] == ["a.pcap"]

    def test_quiescent_scan_trusts_unmarked_captures_immediately(self, tmp_path):
        watcher = CaptureWatcher(tmp_path)
        _drop(tmp_path, "b.pcap")
        _drop(tmp_path, "a.pcap")
        _drop(tmp_path, "c.pcap" + INPROGRESS_SUFFIX)
        # Name-sorted, marker-protected capture excluded.
        assert [p.name for p in watcher.scan(assume_quiescent=True)] == [
            "a.pcap",
            "b.pcap",
        ]

    def test_non_pcap_files_are_ignored(self, tmp_path):
        watcher = CaptureWatcher(tmp_path)
        _drop(tmp_path, "results.jsonl")
        _drop(tmp_path, "notes.txt")
        assert watcher.scan(assume_quiescent=True) == []


class TestUnlabelledQueue:
    """The watch loop's queue as the positional ``repro watch DIR`` uses it:
    one unlabelled (``None``) source."""

    def test_offer_dedupes_and_orders(self, tmp_path):
        queue = BoundedIngestQueue()
        first = _drop(tmp_path, "b.pcap")
        second = _drop(tmp_path, "a.pcap")
        accepted = queue.offer(None, [first, second])
        # Name-sorted within one batch.
        assert [p.name for p in accepted] == ["a.pcap", "b.pcap"]
        # Re-offering is a no-op, even after draining.
        assert queue.offer(None, [first]) == []
        source, batch = queue.drain_next_batch()
        assert source is None
        assert [p.name for p in batch] == ["a.pcap", "b.pcap"]
        assert queue.offer(None, [second]) == []
        assert queue.drain_next_batch() is None

    def test_arrival_order_is_preserved_across_batches(self, tmp_path):
        queue = BoundedIngestQueue()
        late = _drop(tmp_path, "a-late.pcap")
        early = _drop(tmp_path, "z-early.pcap")
        queue.offer(None, [early])
        queue.offer(None, [late])
        # First-seen order wins over name order across offers.
        _source, batch = queue.drain_next_batch()
        assert [p.name for p in batch] == ["z-early.pcap", "a-late.pcap"]

    def test_len_counts_pending_only(self, tmp_path):
        queue = BoundedIngestQueue()
        queue.offer(None, [_drop(tmp_path, "a.pcap")])
        assert len(queue) == 1
        queue.drain_next_batch()
        assert len(queue) == 0


def _verdict(capture="v.pcap", fingerprint="f" * 64, truth=(True, False)):
    return CaptureVerdict(
        capture=capture,
        fingerprint=fingerprint,
        condition_key="linux/firefox",
        client_ip="192.168.1.23",
        server_ip=None,
        pattern=(True, False),
        truth=truth,
    )


class TestCaptureVerdict:
    def test_record_roundtrip(self):
        verdict = _verdict()
        assert CaptureVerdict.from_record(verdict.as_record()) == verdict

    def test_scoring_properties(self):
        verdict = _verdict(truth=(True, True, False))
        assert verdict.choice_count == 2
        assert verdict.question_count == 3
        # Question 1 correct, question 2 wrong, question 3 not recovered.
        assert verdict.correct_questions == 1

    def test_no_truth_scores_zero_questions(self):
        verdict = _verdict(truth=None)
        assert verdict.question_count == 0
        assert verdict.correct_questions == 0

    def test_from_record_rejects_missing_fields(self):
        record = _verdict().as_record()
        del record["fingerprint"]
        with pytest.raises(IngestError, match="fingerprint"):
            CaptureVerdict.from_record(record)

    def test_from_record_rejects_unknown_version(self):
        record = _verdict().as_record()
        record["version"] = 99
        with pytest.raises(IngestError, match="version"):
            CaptureVerdict.from_record(record)


class TestResultsLog:
    def test_missing_log_loads_empty(self, tmp_path):
        assert ResultsLog(tmp_path / "results.jsonl").load() == []

    def test_append_then_load_roundtrips(self, tmp_path):
        log = ResultsLog(tmp_path / "results.jsonl")
        first = _verdict("a.pcap", "a" * 64)
        second = _verdict("b.pcap", "b" * 64)
        log.append(first)
        log.append(second)
        assert log.load() == [first, second]

    def test_lines_are_deterministic(self, tmp_path):
        log_a = ResultsLog(tmp_path / "a.jsonl")
        log_b = ResultsLog(tmp_path / "b.jsonl")
        log_a.append(_verdict())
        log_b.append(_verdict())
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_partial_trailing_line_is_repaired(self, tmp_path):
        path = tmp_path / "results.jsonl"
        log = ResultsLog(path)
        keep = _verdict("a.pcap", "a" * 64)
        lost = _verdict("b.pcap", "b" * 64)
        log.append(keep)
        intact = path.read_bytes()
        log.append(lost)
        # A crash mid-append persists only a prefix of the last line.
        with open(path, "rb+") as handle:
            handle.truncate(len(intact) + 17)
        assert log.load() == [keep]
        # The debris is gone from disk; the log is append-ready again.
        assert path.read_bytes() == intact

    def test_partial_line_raises_without_repair(self, tmp_path):
        path = tmp_path / "results.jsonl"
        log = ResultsLog(path)
        log.append(_verdict())
        with open(path, "ab") as handle:
            handle.write(b'{"version": 1, "trunc')
        with pytest.raises(IngestError, match="partial line"):
            log.load(repair=False)

    def test_mid_file_corruption_is_not_silently_dropped(self, tmp_path):
        path = tmp_path / "results.jsonl"
        log = ResultsLog(path)
        log.append(_verdict("a.pcap", "a" * 64))
        with open(path, "ab") as handle:
            handle.write(b"garbage line\n")
        log.append(_verdict("b.pcap", "b" * 64))
        with pytest.raises(IngestError, match="corrupt"):
            log.load()

    def test_terminated_garbage_tail_is_corruption_not_debris(self, tmp_path):
        # Each append persists as a prefix of one write whose *last* byte is
        # the terminator, so a terminated line that does not parse cannot be
        # crash debris — silently truncating it would delete a real verdict.
        path = tmp_path / "results.jsonl"
        log = ResultsLog(path)
        log.append(_verdict())
        with open(path, "ab") as handle:
            handle.write(b'{"not": "a verdict"}\n')
        with pytest.raises(IngestError, match="corrupt"):
            log.load()


class TestCaptureFingerprint:
    def test_fingerprint_is_content_addressed(self, tmp_path):
        first = _drop(tmp_path, "one.pcap", b"same bytes")
        renamed = _drop(tmp_path, "two.pcap", b"same bytes")
        other = _drop(tmp_path, "three.pcap", b"different bytes")
        assert capture_fingerprint(first) == capture_fingerprint(renamed)
        assert capture_fingerprint(first) != capture_fingerprint(other)
        # Stable hex digest (what the results log stores).
        assert json.dumps(capture_fingerprint(first))  # serialisable string
        assert len(capture_fingerprint(first)) == 64

    def test_missing_file_fails_loudly(self, tmp_path):
        with pytest.raises(IngestError, match="cannot fingerprint"):
            capture_fingerprint(tmp_path / "missing.pcap")


class TestAtomicPcapPublication:
    """``CapturedTrace.to_pcap_atomic`` writes the convention the watcher trusts."""

    def test_bytes_match_plain_to_pcap_and_no_marker_remains(
        self, tmp_path, ubuntu_session
    ):
        plain = tmp_path / "plain.pcap"
        atomic = tmp_path / "atomic.pcap"
        written_plain = ubuntu_session.trace.to_pcap(plain)
        written_atomic = ubuntu_session.trace.to_pcap_atomic(atomic)
        assert written_atomic == written_plain
        assert atomic.read_bytes() == plain.read_bytes()
        assert not (tmp_path / ("atomic.pcap" + INPROGRESS_SUFFIX)).exists()

    def test_watcher_trusts_an_atomically_published_capture(
        self, tmp_path, ubuntu_session
    ):
        drop = tmp_path / "drop"
        drop.mkdir()
        watcher = CaptureWatcher(drop)
        assert watcher.scan() == []
        ubuntu_session.trace.to_pcap_atomic(drop / "session.pcap")
        # No marker was ever observed mid-write here, so the stable-stat
        # fallback applies: two scans (and the quiet window), then trusted.
        os.utime(drop / "session.pcap", ns=(0, 0))
        assert watcher.scan() == []
        assert [p.name for p in watcher.scan()] == ["session.pcap"]
