"""Argument parsing and dispatch for the ``python -m repro`` command.

Each sub-command's argparse dests are the field names of its job spec
(:mod:`repro.jobs.specs`), and its parser suppresses every default, so a
flag left unset falls back to the spec field's default.  :func:`main`
builds the spec with the same ``from_dict`` the wire uses and runs it.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro import __version__
from repro.ingest.fleet import DEFAULT_QUEUE_HIGH
from repro.ingest.tasks import DEFAULT_CLIENT_IP
from repro.jobs import (
    ArenaJob,
    AttackJob,
    EventBus,
    GenerateJob,
    InspectJob,
    JobRunner,
    MergeFingerprintsJob,
    ReproduceJob,
    ServeJob,
    StitchJob,
    TrainJob,
    WatchJob,
    WorkJob,
    renderer_for,
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser with all sub-commands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "White Mirror reproduction: simulate interactive-streaming traffic, "
            "build the IITM-Bandersnatch-style dataset, and run the record-length "
            "traffic-analysis attack."
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "architecture:\n"
            "  every sub-command is a thin adapter over the repro.jobs layer:\n"
            "  argv builds a typed, serialisable job spec (repro.jobs.specs),\n"
            "  a JobRunner executes it against a workspace and names each\n"
            "  durable output as a content-fingerprinted artifact, and the\n"
            "  run narrates through a structured event bus instead of\n"
            "  printing.  --log-format picks the renderer: the default\n"
            "  `console` reproduces the classic terminal output byte for\n"
            "  byte, `jsonl` emits one {\"event\": ...} JSON line per event\n"
            "  for pipelines and services.  written artifacts (datasets,\n"
            "  libraries, results logs) are byte-identical either way\n"
            "\n"
            "distributed generation:\n"
            "  split one generation plan across machines, then stitch:\n"
            "    machine A: repro generate-dataset ROOT --viewers 1000 "
            "--shards 10 --only-shards 0-4 --seed 7\n"
            "    machine B: repro generate-dataset ROOT --viewers 1000 "
            "--shards 10 --only-shards 5-9 --seed 7\n"
            "    rsync both ROOTs under one directory, then:  repro stitch ROOT\n"
            "  one machine, all cores: add --shard-workers N (whole shards in "
            "parallel,\n"
            "  output byte-identical to the serial run)\n"
            "\n"
            "distributed calibration:\n"
            "    per machine: repro train ROOT lib.json --sharded "
            "--save-state state.json\n"
            "    merge:       repro merge-fingerprints state-a.json "
            "state-b.json -o lib.json\n"
            "  the merged library is byte-identical to single-machine "
            "training over\n"
            "  the stitched dataset (see examples/generate_dataset.py "
            "stitch-demo)\n"
            "\n"
            "fleet coordination:\n"
            "  the distributed flows above, as a service (no rsync, no "
            "manual merge):\n"
            "    coordinator: repro serve ROOT lib.json --viewers 1000 "
            "--shards 10 --seed 7\n"
            "    each worker: repro work http://COORDINATOR:PORT\n"
            "  the coordinator leases one shard-sized unit at a time over "
            "a versioned\n"
            "  JSON wire API (/v1/plan /v1/lease /v1/complete /v1/events "
            "/v1/status);\n"
            "  workers run the leased job specs in a scratch workspace, "
            "verify the\n"
            "  artifacts by content fingerprint and upload them; the "
            "coordinator\n"
            "  verifies the fingerprints again, re-leases units whose "
            "workers go\n"
            "  silent past --lease-ttl (kill -9 a worker and its unit is "
            "simply\n"
            "  redone), folds the accumulator states as merge-fingerprints "
            "does\n"
            "  and atomically publishes the stitched manifest + merged "
            "library —\n"
            "  byte-identical to one machine running the whole plan "
            "(see\n"
            "  examples/fleet_coordinator.py)\n"
            "\n"
            "attack-vs-defense arena:\n"
            "  sweep defense x classifier x condition cells and publish the\n"
            "  Pareto frontier of (overhead, leakage):\n"
            "    repro arena OUT --defenses pad-to-multiple:block_bytes=64 "
            "\\\n"
            "      pad-to-constant:target_bytes=4096 --classifiers "
            "interval:margin=8 knn:k=7\n"
            "  sweep entries are declarative component specs "
            "(name[:key=value,...])\n"
            "  resolved through the defense/classifier registries — a typo "
            "fails at\n"
            "  parse time naming the bad entry.  each cell retrains its "
            "classifier on\n"
            "  the defended traffic (an adaptive attacker) and scores "
            "overhead and\n"
            "  leakage; cells land atomically under OUT/cells/ and the "
            "report at\n"
            "  OUT/report.json.  --shard-workers N scores cells in a "
            "process pool,\n"
            "  --resume reuses cells whose files match the grid (kill -9 "
            "mid-sweep and\n"
            "  re-run: only missing cells are re-scored), and `repro serve "
            "--arena` +\n"
            "  `repro work` lease cells across machines — the published "
            "report is\n"
            "  byte-identical in every mode\n"
            "\n"
            "live capture ingest:\n"
            "  tail a pcap drop directory and attack captures as they "
            "finish landing:\n"
            "    repro watch DROP_DIR --library lib.json "
            "[--results-log results.jsonl]\n"
            "  --once drains the directory and exits; its results log is "
            "byte-identical\n"
            "  to `repro attack DROP_DIR lib.json --results-log ...` over "
            "the same pcaps.\n"
            "  verdicts append durably (one JSON line per capture); a "
            "restarted watch\n"
            "  resumes from the log, skipping captures already attacked "
            "(by content\n"
            "  fingerprint), so kill-and-restart never duplicates or "
            "drops a verdict.\n"
            "  repeat --source to watch a fleet of capture directories "
            "through one\n"
            "  bounded queue (--queue-high/--queue-low watermarks park "
            "overflow per\n"
            "  source), with per-source verdict attribution, hot library "
            "reload\n"
            "  (--reload-library, swapped between captures) and a "
            "--metrics-port\n"
            "  /metrics JSON endpoint; a fleet --once log is "
            "byte-identical to the\n"
            "  single-source runs concatenated in sorted source order\n"
            "\n"
            "performance:\n"
            "  captures decode columnar: Ethernet/IPv4/TCP header fields "
            "are read as\n"
            "  numpy columns, the streaming flow is picked from them and "
            "its uplink\n"
            "  payloads are framed in one pass — no per-packet objects.  "
            "Any frame\n"
            "  the columns cannot vouch for sends the whole capture "
            "through the\n"
            "  per-packet parser, which stays the definition of correct.\n"
            "  generated shards also carry a columnar sidecar "
            "(traces/records.npz):\n"
            "  the client-record columns of every capture — timestamps, "
            "wire lengths,\n"
            "  content types, ground-truth label codes — packed at "
            "generation time.\n"
            "  `repro attack` serves records from it, skipping even the "
            "decode, and\n"
            "  `repro train --sharded` folds it instead of re-simulating, "
            "with\n"
            "  byte-identical output; the pcaps stay the source of truth, "
            "and a\n"
            "  missing or stale sidecar (pcap resized or newer than it) "
            "falls back\n"
            "  to decoding transparently.\n"
            "  start-up: importing repro loads only numpy and the standard "
            "library;\n"
            "  the HTTP server, the process pool and the experiments "
            "package load\n"
            "  only when a command uses them.\n"
            "  pcap reading and record classification are vectorized; CI's\n"
            "  perf-ratchet job replays benchmarks/bench_hotpath.py,\n"
            "  benchmarks/bench_ingest_latency.py and "
            "benchmarks/bench_arena_sweep.py\n"
            "  against the floors in benchmarks/BENCH_baselines.json and "
            "fails on\n"
            "  regression.  After a legitimate speedup, re-baseline with one "
            "line and\n"
            "  commit the result:\n"
            "    python benchmarks/check_perf_ratchet.py --update "
            "BENCH_results.json\n"
        ),
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    parser.add_argument(
        "--log-format",
        choices=["console", "jsonl"],
        default="console",
        help=(
            "how to narrate the run: 'console' (default) prints the classic "
            "human-readable output; 'jsonl' emits one JSON line per "
            "structured job event for machine consumers"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_log_format_argument(subparser: argparse.ArgumentParser) -> None:
        # Registered per sub-command too (default suppressed, so it never
        # clobbers the top-level value) purely so the flag may also appear
        # after the sub-command name.
        subparser.add_argument(
            "--log-format",
            choices=["console", "jsonl"],
            help=argparse.SUPPRESS,
        )

    def add_workers_argument(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--workers",
            type=int,
            help=(
                "engine worker processes: omit or 1 for serial, 0 for all "
                "cores, N for a pool of N (results are identical either way)"
            ),
        )

    generate = subparsers.add_parser(
        "generate-dataset",
        argument_default=argparse.SUPPRESS,
        help="generate a synthetic dataset (metadata.json + per-viewer pcaps)",
    )
    generate.add_argument("output", help="directory to write the dataset into")
    generate.add_argument("--viewers", type=int, help="number of viewers (default 20)")
    generate.add_argument("--seed", type=int, help="dataset seed (default 0)")
    generate.add_argument(
        "--no-pcaps",
        dest="write_pcaps",
        action="store_false",
        help="write only metadata, skip the pcap files",
    )
    generate.add_argument(
        "--no-cross-traffic",
        dest="cross_traffic",
        action="store_false",
        help="disable background cross traffic",
    )
    generate.add_argument(
        "--shards",
        type=int,
        help=(
            "split the population into N on-disk shards (shard-000/, ...), "
            "generated one at a time with bounded memory; omit for a single "
            "dataset directory"
        ),
    )
    generate.add_argument(
        "--resume",
        action="store_true",
        help=(
            "pick an interrupted sharded run back up: skip shards that "
            "finalised cleanly, quarantine partial ones and regenerate only "
            "the missing work (run with the same flags as the interrupted "
            "run and the result is byte-identical to an uninterrupted one); "
            "requires --shards"
        ),
    )
    generate.add_argument(
        "--shard-workers",
        type=int,
        help=(
            "generate whole shards in a process pool of N (0 for all cores), "
            "multiplying the per-session --workers fan-out; output is "
            "byte-identical to the serial run; requires --shards"
        ),
    )
    generate.add_argument(
        "--only-shards",
        metavar="SELECTION",
        help=(
            "generate only the named shards of the plan, e.g. '0,3-5' "
            "(inclusive ranges): several machines run the same plan with "
            "disjoint selections, rsync the shard directories under one root "
            "and publish the merged manifest with `repro stitch`; requires "
            "--shards"
        ),
    )
    add_workers_argument(generate)
    add_log_format_argument(generate)
    generate.set_defaults(spec=GenerateJob)

    stitch = subparsers.add_parser(
        "stitch",
        argument_default=argparse.SUPPRESS,
        help=(
            "verify shard directories rsync'd together from --only-shards "
            "runs and publish the merged shards.json manifest"
        ),
    )
    stitch.add_argument(
        "root",
        help=(
            "directory holding the shard-NNN directories of one generation "
            "plan (the union of every machine's --only-shards output)"
        ),
    )
    add_log_format_argument(stitch)
    stitch.set_defaults(spec=StitchJob)

    train = subparsers.add_parser(
        "train",
        argument_default=argparse.SUPPRESS,
        help="learn record-length fingerprints from a saved dataset",
    )
    train.add_argument("dataset", help="dataset directory written by generate-dataset")
    train.add_argument("output", help="path of the fingerprint library JSON to write")
    train.add_argument(
        "--train-fraction",
        type=float,
        help=(
            "fraction of viewers used for calibration (default 0.5; "
            "incompatible with --sharded, which uses every viewer)"
        ),
    )
    train.add_argument(
        "--sharded",
        action="store_true",
        help=(
            "treat the dataset as a sharded root (shards.json + shard-*/) "
            "and fold its shards into the fingerprints one at a time with "
            "bounded memory"
        ),
    )
    train.add_argument("--margin", type=int, help="band widening margin in bytes")
    train.add_argument(
        "--save-state",
        metavar="PATH",
        help=(
            "also write the raw fingerprint-accumulator state (requires "
            "--sharded): one machine's running calibration, combined across "
            "machines with `repro merge-fingerprints`"
        ),
    )
    add_workers_argument(train)
    add_log_format_argument(train)
    train.set_defaults(spec=TrainJob)

    merge = subparsers.add_parser(
        "merge-fingerprints",
        argument_default=argparse.SUPPRESS,
        help=(
            "merge per-machine fingerprint-accumulator states (train "
            "--sharded --save-state) into one fingerprint library"
        ),
    )
    merge.add_argument(
        "states",
        nargs="+",
        help="accumulator state JSON files, one per machine",
    )
    merge.add_argument(
        "-o",
        "--output",
        required=True,
        help="path of the merged fingerprint library JSON to write",
    )
    merge.add_argument(
        "--margin",
        type=int,
        help="band widening margin in bytes (match the train run's value)",
    )
    merge.add_argument(
        "--save-state",
        metavar="PATH",
        help=(
            "also write the merged accumulator state, for hierarchical "
            "merges (merge the merges)"
        ),
    )
    add_log_format_argument(merge)
    merge.set_defaults(spec=MergeFingerprintsJob)

    attack = subparsers.add_parser(
        "attack",
        argument_default=argparse.SUPPRESS,
        help="run the attack on a pcap (or a directory of pcaps) using a fingerprint library",
    )
    attack.add_argument(
        "target",
        metavar="pcap",
        help=(
            "capture file of the victim session, or a directory of .pcap "
            "files (e.g. a dataset's traces/ directory) to attack in batch"
        ),
    )
    attack.add_argument(
        "library",
        metavar="fingerprints",
        help="fingerprint library JSON written by 'train'",
    )
    attack.add_argument(
        "--environment",
        help=(
            "victim environment key, e.g. linux/firefox; optional when the "
            "captures sit next to their dataset metadata.json, which records "
            "each viewer's environment"
        ),
    )
    attack.add_argument(
        "--client-ip",
        help=f"viewer's IP in the capture (default: from metadata, else {DEFAULT_CLIENT_IP})",
    )
    attack.add_argument(
        "--server-ip",
        help="streaming server IP (default: from metadata, else the largest flow)",
    )
    attack.add_argument(
        "--results-log",
        metavar="PATH",
        help=(
            "append one durable JSON verdict line per attacked capture "
            "(directory targets only); byte-identical to the log `repro "
            "watch --once` writes over the same pcaps, and re-running skips "
            "captures already in the log"
        ),
    )
    add_workers_argument(attack)
    add_log_format_argument(attack)
    attack.set_defaults(spec=AttackJob)

    watch = subparsers.add_parser(
        "watch",
        argument_default=argparse.SUPPRESS,
        help=(
            "tail a pcap drop directory and attack captures as they finish "
            "landing (the online attack front end)"
        ),
    )
    watch.add_argument(
        "directory",
        nargs="?",
        help=(
            "capture drop directory to watch; a capture counts as finished "
            "once its .inprogress marker is renamed away, or once its size "
            "and mtime hold still across two polls and a quiet window; "
            "omit it and repeat --source to watch a fleet instead"
        ),
    )
    watch.add_argument(
        "--library",
        required=True,
        help="fingerprint library JSON written by 'train'",
    )
    watch.add_argument(
        "--source",
        dest="sources",
        action="append",
        metavar="DIR",
        help=(
            "fleet mode: a capture source directory (repeatable, replaces "
            "the positional directory); every verdict is stamped with the "
            "source that produced it, and sources are processed in sorted "
            "label order so --once output is reproducible"
        ),
    )
    watch.add_argument(
        "--recursive",
        action="store_true",
        help=(
            "fleet mode: watch each --source directory recursively, keying "
            "captures by their relative path"
        ),
    )
    watch.add_argument(
        "--queue-high",
        type=int,
        metavar="N",
        help=(
            "high watermark of the bounded ingest queue — at "
            f"most N captures pending at once (default "
            f"{DEFAULT_QUEUE_HIGH}); overflow parks per source "
            "and a queue-saturated event is emitted"
        ),
    )
    watch.add_argument(
        "--queue-low",
        type=int,
        metavar="N",
        help=(
            "low watermark — parked captures are promoted once "
            "the queue drains to N (default: half of --queue-high)"
        ),
    )
    watch.add_argument(
        "--reload-library",
        metavar="PATH",
        help=(
            "fleet mode: hot-reload staging path for the fingerprint "
            "library; when its content changes the new library is swapped "
            "in between captures (never mid-attack), and a corrupt stage "
            "is reported and ignored"
        ),
    )
    watch.add_argument(
        "--metrics-port",
        type=int,
        metavar="PORT",
        help=(
            "fleet mode: serve GET /metrics JSON (arrival-to-verdict "
            "latency percentiles, queue depth, per-source accuracy) on "
            "127.0.0.1:PORT; 0 picks a free port"
        ),
    )
    mode = watch.add_mutually_exclusive_group()
    mode.add_argument(
        "--follow",
        action="store_true",
        help="keep polling for new captures until interrupted (default)",
    )
    mode.add_argument(
        "--once",
        dest="follow",
        action="store_false",
        help=(
            "drain the captures already in the (quiescent) directory, then "
            "exit; the results log is byte-identical to batch `repro attack "
            "--results-log` over the same pcaps"
        ),
    )
    watch.add_argument(
        "--results-log",
        metavar="PATH",
        help=(
            "append-only JSONL verdict log (default: results.jsonl inside "
            "the watched directory); restarts resume from it"
        ),
    )
    watch.add_argument(
        "--poll-interval",
        type=float,
        help="seconds between directory polls in follow mode (default 0.5)",
    )
    watch.add_argument(
        "--environment",
        help=(
            "victim environment key applied to every capture; optional when "
            "captures sit next to their dataset metadata.json"
        ),
    )
    watch.add_argument(
        "--client-ip",
        help=f"viewer's IP in the captures (default: from metadata, else {DEFAULT_CLIENT_IP})",
    )
    watch.add_argument(
        "--server-ip",
        help="streaming server IP (default: from metadata, else the largest flow)",
    )
    add_workers_argument(watch)
    add_log_format_argument(watch)
    watch.set_defaults(spec=WatchJob)

    arena = subparsers.add_parser(
        "arena",
        argument_default=argparse.SUPPRESS,
        help=(
            "sweep defense × classifier × condition cells (adaptive "
            "attacker) and publish the overhead/leakage Pareto report"
        ),
    )
    arena.add_argument(
        "output",
        help="directory cell results land in (cells/ + report.json)",
    )
    arena.add_argument(
        "--report",
        metavar="PATH",
        help="where to write the report (default: <output>/report.json)",
    )
    arena.add_argument(
        "--defenses",
        nargs="+",
        metavar="SPEC",
        help=(
            "defense sweep entries, name[:key=value,...] resolved through "
            "the defense registry (default: the standard defense suite); "
            "the undefended baseline is always added"
        ),
    )
    arena.add_argument(
        "--classifiers",
        nargs="+",
        metavar="SPEC",
        help=(
            "classifier sweep entries, name[:key=value,...] resolved "
            "through the classifier registry (default: interval:margin=8 "
            "knn:k=7)"
        ),
    )
    arena.add_argument(
        "--conditions",
        nargs="+",
        metavar="KEY",
        help=(
            "operational conditions to sweep, os/platform/browser/"
            "connection/traffic (default: linux/desktop/firefox/wired/noon)"
        ),
    )
    arena.add_argument(
        "--train-count",
        type=int,
        help="training sessions per cell (default 2)",
    )
    arena.add_argument(
        "--test-count",
        type=int,
        help="attacked sessions per cell (default 2)",
    )
    arena.add_argument("--seed", type=int, help="sweep seed (default 0)")
    arena.add_argument(
        "--shard-workers",
        type=int,
        help=(
            "score cells in a process pool of N; the report is "
            "byte-identical to the serial run"
        ),
    )
    arena.add_argument(
        "--resume",
        action="store_true",
        help=(
            "reuse cell files that match the current grid and re-score "
            "only the missing or mismatched cells"
        ),
    )
    add_log_format_argument(arena)
    arena.set_defaults(spec=ArenaJob)

    serve = subparsers.add_parser(
        "serve",
        argument_default=argparse.SUPPRESS,
        help=(
            "coordinate a sharded generate+train plan across pull workers "
            "(repro work) and publish the stitched dataset + merged library"
        ),
    )
    serve.add_argument("output", help="directory to publish the dataset into")
    serve.add_argument(
        "library", help="path of the merged fingerprint library JSON to write"
    )
    serve.add_argument("--viewers", type=int, help="number of viewers (default 20)")
    serve.add_argument(
        "--shards",
        type=int,
        help=(
            "shards in the plan; each shard is one leasable work unit "
            "(default 2)"
        ),
    )
    serve.add_argument("--seed", type=int, help="dataset seed (default 0)")
    serve.add_argument(
        "--margin",
        type=int,
        help="band widening margin in bytes for the merged library",
    )
    serve.add_argument(
        "--no-pcaps",
        dest="write_pcaps",
        action="store_false",
        help="workers write only metadata, skipping the pcap files",
    )
    serve.add_argument(
        "--no-cross-traffic",
        dest="cross_traffic",
        action="store_false",
        help="disable background cross traffic in generated sessions",
    )
    serve.add_argument(
        "--host",
        help="address to bind the wire API on (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        help="port to bind (default 0: pick a free port and announce it)",
    )
    serve.add_argument(
        "--lease-ttl",
        type=float,
        help=(
            "seconds before a silent worker's unit returns to the pool "
            "(default 60)"
        ),
    )
    serve.add_argument(
        "--arena",
        action="store_true",
        help=(
            "serve an arena sweep instead of a generate+train plan: each "
            "grid cell is one leasable unit, LIBRARY is the arena report "
            "path, and --defenses/--classifiers/--conditions/--train-count/"
            "--test-count describe the grid (--viewers/--shards/--margin "
            "are ignored)"
        ),
    )
    serve.add_argument(
        "--defenses",
        nargs="+",
        metavar="SPEC",
        help="arena defense sweep entries (requires --arena)",
    )
    serve.add_argument(
        "--classifiers",
        nargs="+",
        metavar="SPEC",
        help="arena classifier sweep entries (requires --arena)",
    )
    serve.add_argument(
        "--conditions",
        nargs="+",
        metavar="KEY",
        help="arena conditions to sweep (requires --arena)",
    )
    serve.add_argument(
        "--train-count",
        type=int,
        help="arena training sessions per cell (default 2)",
    )
    serve.add_argument(
        "--test-count",
        type=int,
        help="arena attacked sessions per cell (default 2)",
    )
    add_log_format_argument(serve)
    serve.set_defaults(spec=ServeJob)

    work = subparsers.add_parser(
        "work",
        argument_default=argparse.SUPPRESS,
        help=(
            "pull leased work units from a `repro serve` coordinator, run "
            "them and upload the fingerprint-verified results"
        ),
    )
    work.add_argument("url", help="coordinator base URL, e.g. http://127.0.0.1:8400")
    work.add_argument(
        "--worker-id",
        help="name this worker reports (default: worker-<pid>)",
    )
    work.add_argument(
        "--scratch",
        metavar="DIR",
        help=(
            "directory for per-lease scratch workspaces (default: a fresh "
            "temporary directory)"
        ),
    )
    work.add_argument(
        "--poll-interval",
        type=float,
        help="seconds between lease polls while idle (default 0.5)",
    )
    work.add_argument(
        "--max-units",
        type=int,
        help="stop after completing N units (default: work until done)",
    )
    add_log_format_argument(work)
    work.set_defaults(spec=WorkJob)

    reproduce = subparsers.add_parser(
        "reproduce",
        argument_default=argparse.SUPPRESS,
        help="run the paper-reproduction experiments and print the report",
    )
    reproduce.add_argument(
        "--experiment",
        choices=["all", "table1", "figure1", "figure2", "headline", "baselines", "defenses"],
        help="which artefact to reproduce (default: all)",
    )
    reproduce.add_argument(
        "--quick",
        action="store_true",
        help="use reduced session counts for a fast smoke run",
    )
    reproduce.add_argument(
        "--dataset",
        help=(
            "run the headline experiment over a sharded dataset root written "
            "by `generate-dataset --shards N` (incremental training + "
            "streaming evaluation) instead of simulating the condition grid"
        ),
    )
    add_workers_argument(reproduce)
    add_log_format_argument(reproduce)
    reproduce.set_defaults(spec=ReproduceJob)

    inspect = subparsers.add_parser(
        "inspect",
        argument_default=argparse.SUPPRESS,
        help="summarise a pcap: flows, volumes and client record lengths",
    )
    inspect.add_argument("pcap", help="capture file to inspect")
    inspect.add_argument("--client-ip", help="viewer's IP in the capture")
    add_log_format_argument(inspect)
    inspect.set_defaults(spec=InspectJob)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    arguments = vars(build_parser().parse_args(argv))
    spec_class = arguments.pop("spec")
    del arguments["command"]
    log_format = arguments.pop("log_format")
    try:
        spec = spec_class.from_dict(
            {"job": spec_class.KIND, "schema": spec_class.SCHEMA, **arguments}
        )
        JobRunner(bus=EventBus(renderer_for(log_format))).run(spec)
    except Exception as error:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0
