"""The ``/metrics`` view of a watch run, derived from its event stream.

:class:`IngestMetrics` is an event sink like the renderers: attached to a
run's bus, it counts ``verdict``, ``capture-skipped``, ``queue-saturated``
and ``library-reloaded`` events, times arrival→verdict latency from the
machine-only ``capture-queued`` event to the matching ``verdict``, and keeps
the latest ``aggregate`` rows.  :meth:`IngestMetrics.route` answers
``GET /metrics`` with a JSON snapshot through
:class:`~repro.utils.jsonhttp.JsonHttpServer`.

All numbers are observational: nothing here participates in the
byte-identity contract, which is why wall-clock time is allowed in this
module and nowhere near the results log.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Callable, Mapping

from repro.ingest.fleet import BoundedIngestQueue
from repro.jobs import events as ev
from repro.jobs.events import JobEvent
from repro.utils.stats import mean, percentile

#: Path the metrics endpoint answers on.
METRICS_PATH = "/metrics"


class IngestMetrics:
    """Counters and gauges for one watch run, fed by its event bus.

    ``queue`` is the fleet's bounded queue; its gauges are read as each
    verdict lands.  Without one the queue gauges stay at zero.
    """

    def __init__(
        self,
        queue: BoundedIngestQueue | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self._queue = queue
        self._clock = clock
        self._lock = threading.Lock()
        self._arrivals: dict[tuple[object, object], float] = {}
        self._latencies: list[float] = []
        self._counts = {
            ev.VERDICT: 0,
            ev.CAPTURE_SKIPPED: 0,
            ev.QUEUE_SATURATED: 0,
            ev.LIBRARY_RELOADED: 0,
        }
        self._gauges: dict[str, int | None] = {
            "depth": 0,
            "parked": 0,
            "peak_depth": 0,
            "high_watermark": None,
            "low_watermark": None,
        }
        self._source_rows: list[dict[str, object]] = []

    def handle(self, event: JobEvent) -> None:
        data = event.data
        key = (data.get("source"), data.get("capture"))
        now = self._clock()
        with self._lock:
            if event.kind in self._counts:
                self._counts[event.kind] += 1
            if event.kind == ev.CAPTURE_QUEUED:
                self._arrivals[key] = now
            elif event.kind == ev.AGGREGATE:
                self._source_rows = [dict(row) for row in data["rows"]]
            elif event.kind == ev.VERDICT:
                arrived = self._arrivals.pop(key, None)
                if arrived is not None:
                    self._latencies.append(now - arrived)
                if self._queue is not None:
                    self._read_queue(self._queue)

    def _read_queue(self, queue: BoundedIngestQueue) -> None:
        self._gauges = {
            "depth": len(queue),
            "parked": queue.parked_count,
            "peak_depth": queue.peak_depth,
            "high_watermark": queue.high_watermark,
            "low_watermark": queue.low_watermark,
        }

    def snapshot(self) -> dict[str, object]:
        """One consistent JSON-friendly view of everything above."""
        with self._lock:
            latencies = list(self._latencies)
            return {
                "verdicts": self._counts[ev.VERDICT],
                "skips": self._counts[ev.CAPTURE_SKIPPED],
                "latency_s": (
                    {
                        "count": len(latencies),
                        "mean": mean(latencies),
                        "p50": percentile(latencies, 50),
                        "p90": percentile(latencies, 90),
                        "p99": percentile(latencies, 99),
                    }
                    if latencies
                    else {"count": 0}
                ),
                "queue": {
                    **self._gauges,
                    "saturation_events": self._counts[ev.QUEUE_SATURATED],
                },
                "library_reloads": self._counts[ev.LIBRARY_RELOADED],
                "sources": [dict(row) for row in self._source_rows],
            }

    def route(self, method: str, path: str, body: bytes) -> tuple[int, bytes]:
        """The :class:`~repro.utils.jsonhttp.JsonHttpServer` route."""
        if (method, path) == ("GET", METRICS_PATH):
            return 200, _json(self.snapshot())
        return 404, _json(
            {
                "error": (
                    f"unknown metrics endpoint {method} {path} "
                    f"(endpoints: GET {METRICS_PATH})"
                )
            }
        )


def _json(payload: Mapping[str, object]) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")
