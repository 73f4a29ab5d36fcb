"""The benchmark's own tests: traced runs repeat their counts exactly.

For each workload, two traced runs on one seed must both pass their output
checks (the first run's result is printed) and report identical work counts (packets read, records extracted,
bytes hashed, bytes checksummed, ...), so a later change can cite a count
as evidence.  The sidecar hit ratio must be 1 where the sidecar serves and
0 where captures are parsed.  Run from the root of a checkout::

    python3 perfbench/selftest.py [--seed 1] [--workload drain-parse ...]

It takes a few minutes; it is not part of the unit-test suite.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402

#: Counts each workload must repeat exactly, run to run.
EXACT = {
    "drain-parse": (
        "net.pcap.packets", "core.features.records", "ingest.log.bytes_hashed",
    ),
    "generate-train": (
        "net.pcap.packets", "core.features.records", "ingest.log.bytes_hashed",
        "net.headers.checksum_bytes",
    ),
}
HIT_RATIO = {
    "drain-parse": 0.0,
    "generate-train": 1.0,
}


def traced(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "1",
        ],
        capture_output=True,
        text=True,
        check=False,
    )
    if completed.returncode != 0:
        raise AssertionError(
            f"{workload}: traced run exited {completed.returncode}\n{completed.stderr}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def check(workload: str, seed: int, seconds: int) -> list[str]:
    first, second = traced(workload, seed, seconds), traced(workload, seed, seconds)
    print(json.dumps({"workload": workload, "seed": seed, **first}), flush=True)
    failures = []
    for result in (first, second):
        if not result["correct"] or result["failed"]:
            failures.append(f"{workload}: output checks failed")
    for metric in EXACT[workload]:
        values = [result["metrics"][metric]["value"] for result in (first, second)]
        if values[0] != values[1] or values[0] <= 0:
            failures.append(f"{workload}: {metric} did not repeat: {values}")
    ratio = first["metrics"]["dataset.sidecar.hit_ratio"]["value"]
    if ratio != HIT_RATIO[workload]:
        failures.append(f"{workload}: sidecar hit ratio {ratio}")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    failures = []
    for workload in args.workload or WORKLOADS:
        found = check(workload, args.seed, args.seconds)
        print(f"{workload}: {'ok' if not found else 'FAILED'}", flush=True)
        failures.extend(found)
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
