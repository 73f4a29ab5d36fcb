#!/usr/bin/env python3
"""The online attack: captures land in a drop directory and are attacked live.

The paper's eavesdropper is fundamentally *online* — verdicts should follow
captures as they are recorded, not wait for an archived corpus.  This example
walks the whole live-ingest story:

1. a small dataset of viewing sessions is generated and fingerprints are
   calibrated from the attacker's own labelled sessions;
2. a background "capture box" thread publishes the victims' pcaps into a
   drop directory one at a time, using the atomic ``.inprogress``-then-rename
   convention (:meth:`CapturedTrace.to_pcap_atomic` writes the same way);
3. a follow-mode :class:`FleetWatchService` over one unlabelled source —
   what ``repro watch DIR`` runs — tails the directory, and its
   :class:`StreamingAttackService` attacks each capture as it finishes
   landing and appends one durable verdict line per capture to the results
   log;
4. the watch is then re-run in ``--once`` mode to show the resume
   property: every capture is recognised by content fingerprint and skipped,
   and a batch ``repro attack --results-log`` over the same directory writes
   a byte-identical log.

Run with ``python examples/live_ingest.py``.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from pathlib import Path

from repro.core.pipeline import WhiteMirrorAttack
from repro.dataset.iitm import IITMBandersnatchDataset
from repro.dataset.shards import iter_shard_training_sessions
from repro.experiments.report import format_table
from repro.ingest import (
    INPROGRESS_SUFFIX,
    FleetSource,
    FleetWatchService,
    StreamingAttackService,
)
from repro.streaming.session import SessionConfig


def publish_capture_atomically(source: Path, drop: Path) -> None:
    """Copy one pcap into the drop directory the way a cooperative writer would."""
    staged = drop / (source.name + INPROGRESS_SUFFIX)
    shutil.copy(source, staged)
    os.replace(staged, drop / source.name)


def watch(service: StreamingAttackService, drop: Path) -> FleetWatchService:
    """The watch loop over one unlabelled drop directory (``repro watch DIR``)."""
    return FleetWatchService(service=service, sources=(FleetSource(None, drop),))


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="white-mirror-ingest-"))
    print(f"working directory: {workdir}")

    print()
    print("=== 1. calibrate fingerprints from the attacker's own sessions ===")
    dataset_dir = workdir / "dataset"
    IITMBandersnatchDataset.generate_streaming(
        dataset_dir,
        viewer_count=4,
        seed=23,
        config=SessionConfig(cross_traffic_enabled=False),
    )
    attack = WhiteMirrorAttack()
    attack.train(iter_shard_training_sessions(dataset_dir))
    print(f"fingerprints for: {', '.join(sorted(attack.library.condition_keys))}")

    print()
    print("=== 2. a capture box starts dropping victim pcaps ===")
    drop = workdir / "drop"
    drop.mkdir()
    shutil.copy(dataset_dir / "metadata.json", drop / "metadata.json")
    captures = sorted((dataset_dir / "traces").glob("*.pcap"))

    def capture_box() -> None:
        for pcap in captures:
            time.sleep(0.3)  # a new viewing session ends every so often
            publish_capture_atomically(pcap, drop)

    publisher = threading.Thread(target=capture_box, daemon=True)
    publisher.start()

    print()
    print("=== 3. follow-mode ingest: verdicts as captures land ===")
    log_path = workdir / "results.jsonl"
    service = StreamingAttackService(library=attack.library, log_path=log_path)
    watch(service, drop).run(
        follow=True,
        poll_interval=0.1,
        on_verdict=lambda verdict, result: print(
            f"  verdict: {verdict.capture} ({verdict.condition_key}) "
            f"{verdict.correct_questions}/{verdict.question_count} correct"
        ),
        # Stop once the publisher is done and every capture has a verdict.
        should_stop=lambda: not publisher.is_alive()
        and len(service.verdicts) == len(captures),
    )
    print(format_table(service.aggregate_rows(), "Aggregate accuracy (live run)"))

    print()
    print("=== 4. restart + batch path: resume skips, logs byte-identical ===")
    resumed = StreamingAttackService(library=attack.library, log_path=log_path)
    skips: list[str] = []
    watch(resumed, drop).run(
        follow=False, on_skip=lambda path, reason: skips.append(path.name)
    )
    print(f"restart skipped {len(skips)} already-attacked captures")

    batch_log = workdir / "batch.jsonl"
    batch = StreamingAttackService(library=attack.library, log_path=batch_log)
    batch.process(sorted(drop.glob("*.pcap")))
    identical = log_path.read_bytes() == batch_log.read_bytes()
    print(f"batch attack log byte-identical to the live log: {identical}")
    assert identical


if __name__ == "__main__":
    main()
