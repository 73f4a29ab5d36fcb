"""Build the inputs the workloads run on, once per checkout.

Inputs come from one *pool* of small generated datasets (batches), built
through the program's own jobs: ``GenerateJob`` writes a sharded dataset and
``TrainJob --sharded --save-state`` folds its sidecars into a library and an
accumulator state.  Each batch records the digest of its dataset tree and
library bytes, which ``generate-train`` later re-derives.

``MergeFingerprintsJob`` then merges every batch's state into the library
the attack workloads classify with.  Every shard's captures are hard-linked
into a drop directory that holds ``metadata.json`` but no ``records.npz``,
and each drop directory is drained once through the parse path; its results
log lines are the reference every attack workload is checked against.

A seed picks only orders (of captures, of batches), so building a seed
costs nothing.  The pool is the only cost, and it is not
timed.  Run this file to build it ahead of time::

    PYTHONPATH=src python3 perfbench/fixture.py
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import shutil
from pathlib import Path

#: Where the pool, scratch runs and traces live, relative to the checkout.
CACHE_DIRNAME = ".perfbench"
#: Pool shape: every batch is a 2-shard dataset of 4 viewers.
POOL_BATCHES = 16
BATCH_VIEWERS = 4
BATCH_SHARDS = 2
BATCH_SEED_BASE = 7100
#: ``generate-train`` cycles through the first batches of the pool, in an
#: order the seed picks, so every run regenerates the same sessions; a
#: cycle is short enough that a run holds four or more.
GENERATE_BATCHES = 2
FORMAT = 2


def cache_root(checkout: Path) -> Path:
    return checkout / CACHE_DIRNAME


def pool_dir(checkout: Path) -> Path:
    return cache_root(checkout) / f"pool-v{FORMAT}"


def batch_dir(checkout: Path, batch: int) -> Path:
    return pool_dir(checkout) / f"batch-{batch:02d}"


def library_path(checkout: Path) -> Path:
    return pool_dir(checkout) / "library.json"


def generate_batches(seed: int) -> list[int]:
    """The pool batches ``generate-train`` regenerates, in cycle order."""
    return random.Random(seed).sample(range(GENERATE_BATCHES), GENERATE_BATCHES)


def shard_names(batches: list[int]) -> list[str]:
    return [
        f"batch-{batch:02d}-shard-{shard:03d}"
        for batch in batches
        for shard in range(BATCH_SHARDS)
    ]


def middle_captures(checkout: Path, count: int) -> list[Path]:
    """The ``count`` pool captures nearest the median size, as paths in the
    drop directories, sorted.

    Pool captures range from about 4 to 11 MB, so a seed-drawn sample would
    move the figures more than the program does; every seed works on these
    captures and picks only their order.
    """
    captures = sorted(
        pool_dir(checkout).glob("drop/*/*.pcap"),
        key=lambda path: (path.stat().st_size, str(path)),
    )
    start = (len(captures) - count) // 2
    return sorted(captures[start : start + count])


def reference_lines(checkout: Path) -> dict[Path, bytes]:
    """Each drop-directory capture's reference results-log line."""
    lines = {}
    for log in sorted((pool_dir(checkout) / "reference").glob("*.jsonl")):
        captures = sorted((pool_dir(checkout) / "drop" / log.stem).glob("*.pcap"))
        logged = log.read_bytes().splitlines(keepends=True)
        if len(logged) != len(captures):
            raise SystemExit(f"{log}: {len(logged)} lines for {len(captures)} captures")
        lines.update(zip(captures, logged))
    return lines


def reference_log(checkout: Path, batches: list[int]) -> bytes:
    """The results log a serial drain of these batches' shards, in order and
    with the pool library, must write."""
    reference = pool_dir(checkout) / "reference"
    return b"".join(
        (reference / f"{name}.jsonl").read_bytes() for name in shard_names(batches)
    )


def tree_digest(dataset: Path, library: Path) -> str:
    """SHA-256 over a dataset tree's files (path and bytes) and a library."""
    from repro.dataset.format import snapshot_dataset_files

    digest = hashlib.sha256()
    for relative, data in sorted(snapshot_dataset_files(dataset).items()):
        digest.update(relative.encode() + b"\0" + hashlib.sha256(data).digest())
    digest.update(b"library\0" + hashlib.sha256(library.read_bytes()).digest())
    return digest.hexdigest()


def batch_jobs(batch: int, output: Path) -> tuple[object, object]:
    """The generate and train specs that build (or rebuild) one batch."""
    from repro.jobs import GenerateJob, TrainJob

    generate = GenerateJob(
        output=str(output / "dataset"),
        viewers=BATCH_VIEWERS,
        seed=BATCH_SEED_BASE + batch,
        shards=BATCH_SHARDS,
    )
    train = TrainJob(
        dataset=str(output / "dataset"),
        output=str(output / "library.json"),
        sharded=True,
        save_state=str(output / "state.json"),
    )
    return generate, train


def build_pool(checkout: Path) -> None:
    """Build the pool under a staging name and publish it by one rename."""
    from repro.core.fingerprint import FingerprintLibrary
    from repro.ingest.service import StreamingAttackService
    from repro.jobs import EventBus, JobRunner, MergeFingerprintsJob

    final = pool_dir(checkout)
    if final.is_dir():
        return
    staging = final.with_name(f"{final.name}.tmp-{os.getpid()}")
    shutil.rmtree(staging, ignore_errors=True)
    runner = JobRunner(EventBus())
    for batch in range(POOL_BATCHES):
        output = staging / f"batch-{batch:02d}"
        output.mkdir(parents=True)
        for spec in batch_jobs(batch, output):
            runner.run(spec)
        (output / "digest.txt").write_text(
            tree_digest(output / "dataset", output / "library.json") + "\n"
        )
    runner.run(
        MergeFingerprintsJob(
            states=tuple(
                str(staging / f"batch-{batch:02d}" / "state.json")
                for batch in range(POOL_BATCHES)
            ),
            output=str(staging / "library.json"),
        )
    )
    library = FingerprintLibrary.load(staging / "library.json")
    (staging / "reference").mkdir()
    for name in shard_names(list(range(POOL_BATCHES))):
        batch, shard = name.split("-shard-")
        traces = staging / batch / "dataset" / f"shard-{shard}" / "traces"
        drop = staging / "drop" / name
        drop.mkdir(parents=True)
        shutil.copy(traces.parent / "metadata.json", drop / "metadata.json")
        for pcap in sorted(traces.glob("*.pcap")):
            os.link(pcap, drop / pcap.name)
        service = StreamingAttackService(
            library, log_path=staging / "reference" / f"{name}.jsonl"
        )
        service.process(sorted(drop.glob("*.pcap")))
    try:
        os.rename(staging, final)
    except OSError:
        # Another process published the pool first; keep theirs.
        shutil.rmtree(staging, ignore_errors=True)
        if not final.is_dir():
            raise


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--checkout", type=Path, default=Path.cwd())
    build_pool(parser.parse_args().checkout.resolve())


if __name__ == "__main__":
    main()
