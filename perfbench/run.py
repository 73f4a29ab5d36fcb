"""The repo benchmark: capture -> verdict and session -> library, end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload drain-parse --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` they are the
per-layer ones, from a run that times one unit of work untraced, the same
unit with spans around every layer's public calls, and the unit untraced
again (the untraced pair gives the tracing overhead).

This file only orchestrates, with the standard library: it builds the
input pool in a child process (untimed, once per checkout, under
``.perfbench/``), starts a few fresh interpreters that only set the
workload up, to time set-up, and then one that sets up and measures.  The
exit code is non-zero when an output check failed or when the program under
test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("drain-parse", "generate-train")
#: Set-up is timed in this many fresh interpreters besides the measuring one.
SETUP_PROBES = 6
FIXTURE_TIMEOUT_S = 800
WORKER_TIMEOUT_S = 150


def worker_command(args: argparse.Namespace, *extra: str) -> list[str]:
    return [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]


def start_and_wait_ready(command: list[str], env: dict[str, str]):
    """Start a worker; return it, its stdout and the seconds until ``ready``."""
    started = time.perf_counter()
    process = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, text=True)
    line = process.stdout.readline()
    ready = time.perf_counter() - started
    if line.strip() != "ready":
        process.kill()
        process.wait()
        raise SystemExit(f"worker failed during set-up: {line!r}")
    return process, ready


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    checkout = Path.cwd()
    if not (checkout / "src" / "repro" / "__init__.py").is_file():
        print(
            "error: run from the root of a checkout (src/repro is missing)",
            file=sys.stderr,
        )
        return 2
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))

    subprocess.run(
        [sys.executable, str(HERE / "fixture.py")],
        env=env,
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=FIXTURE_TIMEOUT_S,
    )

    setup_samples = []
    for _ in range(SETUP_PROBES):
        probe, ready = start_and_wait_ready(worker_command(args, "--setup-only"), env)
        probe.communicate(timeout=WORKER_TIMEOUT_S)
        setup_samples.append(ready)

    process, ready = start_and_wait_ready(worker_command(args), env)
    setup_samples.append(ready)
    try:
        output, _ = process.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        print("error: the measuring process timed out", file=sys.stderr)
        return 3
    if process.returncode != 0 or not output.strip():
        print(f"error: the measuring process exited {process.returncode}", file=sys.stderr)
        return 3
    result = json.loads(output.strip().splitlines()[-1])

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup_samples)
    declared = json.loads((checkout / "BENCHMARK.json").read_text())
    units = {
        metric["name"]: metric["unit"]
        for metric in declared["per_layer" if args.trace else "end_to_end"]
    }
    if set(units) != set(metrics):
        print(
            f"error: measured {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}",
            file=sys.stderr,
        )
        return 3
    problems = result["problems"]
    attempted = max(1, int(result["operations"]))
    failed = attempted if problems else int(result["failed"])
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {attempted} operations, "
        f"failed_ratio {failed / attempted:.4f}",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())
                },
            }
        )
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
