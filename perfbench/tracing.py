"""Spans around the public calls of each layer, recorded from outside.

The benchmark never edits the program: a traced run replaces each layer's
public function at the name its caller looks it up under (a module global
such as ``repro.net.headers.checksum16`` or a class attribute such as
``CapturedTrace.from_pcap``) with a wrapper that records one span per call.
A span holds its name, start, end, parent span, the capture or session it
belongs to, and one count (bytes hashed, packets read, a cache hit, ...).
Spans stay in memory until the run ends; :meth:`Tracer.save` writes them out
and :meth:`Tracer.summary` reduces them to per-name self time and counts.

Only the thread that installed the tracer records spans: a second thread's
calls would break the parent stack.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np


def _path_name(args: tuple, kwargs: dict, index: int = 0, key: str = "path") -> str:
    value = kwargs[key] if key in kwargs else args[index]
    return os.path.basename(str(value))


def _file_size(args: tuple, kwargs: dict, result: Any) -> int:
    return os.path.getsize(kwargs.get("path", args[0]))


def _packets_read(args: tuple, kwargs: dict, result: Any) -> int:
    return int(result.packet_count)


def _packets_decoded(args: tuple, kwargs: dict, result: Any) -> int:
    return len(result.packets)


def _records(args: tuple, kwargs: dict, result: Any) -> int:
    return len(result)


def _hit(args: tuple, kwargs: dict, result: Any) -> int:
    return int(result is not None)


def _checksum_bytes(args: tuple, kwargs: dict, result: Any) -> int:
    return len(kwargs.get("data", args[0]))


@dataclass(frozen=True)
class Hook:
    """One name to wrap: ``owner`` is ``module`` or ``module:Class``."""

    span: str
    owner: str
    attribute: str
    #: Capture or session id taken from the call's arguments; spans without
    #: one inherit their parent's.
    item: Callable[[tuple, dict], str] | None = None
    #: The span's count, computed from the arguments and the result.
    count: Callable[[tuple, dict, Any], int] | None = None


#: Grouping spans: not a layer, but they carry the capture or session id
#: that every span beneath them inherits.
GROUPS = ("capture", "session-write")

HOOKS: tuple[Hook, ...] = (
    Hook("capture", "repro.core.pipeline:WhiteMirrorAttack", "attack_pcap",
         item=lambda a, k: _path_name(a, k, 1)),
    Hook("session-write", "repro.dataset.format:DatasetWriter", "add",
         item=lambda a, k: str(a[1].viewer.viewer_id)),
    # capture -> verdict
    Hook("capture_fingerprint", "repro.ingest.service", "capture_fingerprint",
         item=lambda a, k: _path_name(a, k), count=_file_size),
    Hook("ResultsLog.append", "repro.ingest.log:ResultsLog", "append",
         item=lambda a, k: str(a[1].capture)),
    Hook("metadata_entries_near", "repro.ingest.service", "metadata_entries_near"),
    Hook("build_pcap_task", "repro.ingest.service", "build_pcap_task",
         item=lambda a, k: _path_name(a, k, 0, "pcap")),
    Hook("capture_records_for", "repro.dataset.sidecar", "capture_records_for",
         count=_hit),
    Hook("PcapReader.read_columns", "repro.net.pcap:PcapReader", "read_columns",
         count=_packets_read),
    Hook("CapturedTrace.from_pcap", "repro.net.capture:CapturedTrace", "from_pcap",
         count=_packets_decoded),
    Hook("select_streaming_flow", "repro.core.features", "select_streaming_flow"),
    Hook("select_streaming_flow", "repro.core.pipeline", "select_streaming_flow"),
    Hook("extract_client_records", "repro.core.features", "extract_client_records",
         count=_records),
    Hook("extract_client_records", "repro.dataset.sidecar", "extract_client_records",
         count=_records),
    Hook("tls_record_spans", "repro.core.kernel", "tls_record_spans", count=_hit),
    Hook("RecordTypeClassifier.classify", "repro.core.classifier:RecordTypeClassifier",
         "classify"),
    Hook("infer_choices", "repro.core.pipeline", "infer_choices"),
    Hook("reconstruct_path", "repro.core.pipeline", "reconstruct_path"),
    Hook("profile_from_path", "repro.core.pipeline", "profile_from_path"),
    Hook("CaptureWatcher.scan", "repro.ingest.watcher:CaptureWatcher", "scan"),
    # session -> dataset -> library
    Hook("SessionPlan.execute", "repro.engine.plan:SessionPlan", "execute",
         item=lambda a, k: str(a[0].session_id or a[0].seed)),
    Hook("CapturedTrace.to_pcap", "repro.net.capture:CapturedTrace", "to_pcap"),
    Hook("Packet.serialize_frame", "repro.net.packet:Packet", "serialize_frame"),
    Hook("checksum16", "repro.net.headers", "checksum16", count=_checksum_bytes),
    Hook("sidecar_entry_for", "repro.dataset.sidecar", "sidecar_entry_for"),
    Hook("DatasetWriter.close", "repro.dataset.format:DatasetWriter", "close"),
    Hook("fold_shard_sidecar", "repro.jobs.runner", "fold_shard_sidecar"),
    Hook("FingerprintAccumulator.finalize_into",
         "repro.core.fingerprint:FingerprintAccumulator", "finalize_into"),
)


@dataclass
class SpanStats:
    """Per-name reduction of the recorded spans."""

    calls: int = 0
    self_seconds: float = 0.0
    count: int = 0


class Tracer:
    """Installs the hooks, records spans, and restores every name on exit."""

    def __init__(self, hooks: tuple[Hook, ...] = HOOKS) -> None:
        self._hooks = hooks
        self._names: dict[str, int] = {}
        self._items: dict[str, int] = {}
        self._name: list[int] = []
        self._start: list[float] = []
        self._end: list[float] = []
        self._parent: list[int] = []
        self._item: list[int] = []
        self._count: list[int] = []
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._restore: list[tuple[Any, str, Any]] = []

    # -- installation --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for hook in self._hooks:
            module_name, _, class_name = hook.owner.partition(":")
            owner: Any = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
                raw = owner.__dict__[hook.attribute]
            else:
                raw = getattr(owner, hook.attribute)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(hook, raw.__func__))
            else:
                wrapped = self._wrap(hook, raw)
            self._restore.append((owner, hook.attribute, raw))
            setattr(owner, hook.attribute, wrapped)
        return self

    def __exit__(self, *exc_info: object) -> None:
        for owner, attribute, raw in reversed(self._restore):
            setattr(owner, attribute, raw)
        self._restore.clear()

    def _wrap(self, hook: Hook, function: Callable) -> Callable:
        name = self._names.setdefault(hook.span, len(self._names))
        item_of, count_of = hook.item, hook.count
        clock = time.perf_counter
        stack = self._stack
        thread = self._thread
        get_ident = threading.get_ident

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if get_ident() != thread:
                return function(*args, **kwargs)
            index = len(self._name)
            parent = stack[-1] if stack else -1
            if item_of is not None:
                item = self._items.setdefault(item_of(args, kwargs), len(self._items))
            else:
                item = self._item[parent] if parent >= 0 else -1
            self._name.append(name)
            self._parent.append(parent)
            self._item.append(item)
            self._count.append(0)
            self._end.append(0.0)
            stack.append(index)
            self._start.append(clock())
            try:
                result = function(*args, **kwargs)
            finally:
                self._end[index] = clock()
                stack.pop()
            if count_of is not None:
                self._count[index] = count_of(args, kwargs, result)
            return result

        return traced

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """The recorded spans as parallel arrays (one entry per span)."""
        return {
            "name": np.asarray(self._name, dtype=np.int32),
            "start": np.asarray(self._start, dtype=np.float64),
            "end": np.asarray(self._end, dtype=np.float64),
            "parent": np.asarray(self._parent, dtype=np.int64),
            "item": np.asarray(self._item, dtype=np.int64),
            "count": np.asarray(self._count, dtype=np.int64),
        }

    def save(self, path: Path) -> None:
        """Write every span plus the name and item tables to one npz file."""
        arrays = self.arrays()
        arrays["names"] = np.asarray(sorted(self._names, key=self._names.get))
        arrays["items"] = np.asarray(sorted(self._items, key=self._items.get))
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **arrays)

    def summary(self) -> dict[str, SpanStats]:
        """Calls, self time and summed count per span name.

        Self time is a span's duration minus the durations of its direct
        children; spans on one thread nest, so children never overlap.
        """
        arrays = self.arrays()
        duration = arrays["end"] - arrays["start"]
        parent = arrays["parent"]
        children = np.zeros(duration.size, dtype=np.float64)
        nested = parent >= 0
        np.add.at(children, parent[nested], duration[nested])
        self_time = duration - children
        stats: dict[str, SpanStats] = {}
        for span, code in self._names.items():
            mask = arrays["name"] == code
            stats[span] = SpanStats(
                calls=int(mask.sum()),
                self_seconds=float(self_time[mask].sum()),
                count=int(arrays["count"][mask].sum()),
            )
        return stats
