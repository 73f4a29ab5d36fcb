"""perfbench's layer spans still record what the program runs.

``perfbench/tracing.py`` wraps each layer's public function at the name its
caller looks it up under.  A caller that imports such a name inside a
function, or from another module, still resolves it, but the span then
records nothing and its ``per_layer`` metric silently reads 0.  This test
enters the tracer, runs one small generate, sharded train and serial attack
through the program's own entry points, and checks that every span the
benchmark relies on records at least one call.
"""

from __future__ import annotations

import importlib.util
import shutil
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Spans that a generate + sharded train + serial attack of one capture
#: without a sidecar record at least once.
RECORDED_SPANS = frozenset(
    {
        "CapturedTrace.to_pcap",
        "DatasetWriter.close",
        "FingerprintAccumulator.finalize_into",
        "PcapReader.read_columns",
        "RecordTypeClassifier.classify",
        "ResultsLog.append",
        "SessionPlan.execute",
        "build_pcap_task",
        "capture",
        "capture_fingerprint",
        "capture_records_for",
        "fold_shard_sidecar",
        "infer_choices",
        "metadata_entries_near",
        "profile_from_path",
        "reconstruct_path",
        "session-write",
        "sidecar_entry_for",
        "tls_record_spans",
    }
)


def _tracing_module():
    """``perfbench/tracing.py``, loaded under its own name without touching
    ``sys.path``."""
    name = "perfbench_tracing"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, REPO / "perfbench" / "tracing.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def test_hooked_spans_record_calls(tmp_path):
    from repro.core.fingerprint import FingerprintLibrary
    from repro.ingest.service import StreamingAttackService
    from repro.jobs import EventBus, GenerateJob, JobRunner, TrainJob

    dataset = tmp_path / "dataset"
    library = tmp_path / "library.json"
    runner = JobRunner(EventBus())
    with _tracing_module().Tracer() as tracer:
        runner.run(GenerateJob(output=str(dataset), viewers=2, seed=5, shards=2))
        runner.run(TrainJob(dataset=str(dataset), output=str(library), sharded=True))
        # A drop directory holds the metadata but no records.npz, so the
        # capture is parsed, not served by the sidecar.  A copy that the
        # metadata does not list has no environment; it is skipped, and
        # hashed on this thread on the way.
        shard = dataset / "shard-000"
        drop = tmp_path / "drop"
        drop.mkdir()
        shutil.copy(shard / "metadata.json", drop / "metadata.json")
        capture = sorted((shard / "traces").glob("*.pcap"))[0]
        shutil.copy(capture, drop / capture.name)
        shutil.copy(capture, drop / "unlisted.pcap")
        service = StreamingAttackService(
            FingerprintLibrary.load(library), tmp_path / "results.jsonl"
        )
        skipped = []
        verdicts = service.process(
            [drop / capture.name, drop / "unlisted.pcap"],
            on_skip=lambda path, reason: skipped.append(path.name),
        )
    assert len(verdicts) == 1 and skipped == ["unlisted.pcap"]
    stats = tracer.summary()
    silent = sorted(span for span in RECORDED_SPANS if stats[span].calls == 0)
    assert not silent, f"hooked spans that recorded no call: {silent}"
