"""The end-to-end eavesdropper pipeline.

:class:`WhiteMirrorAttack` is the library's headline public API.  The attacker

1. **trains** on viewing sessions they performed themselves (so the choices —
   the labels — are known) under each client environment they want to cover;
2. **attacks** a victim's captured trace: extract client records, classify
   them with the environment's fingerprint, decode the choice sequence and,
   if the story graph is known, reconstruct the exact path and a behavioural
   profile.

Each use of a trace extracts its records afresh, in one pass over the
trace's columns (:func:`repro.core.features.extract_client_records`), and
batch evaluation can fan out over the engine's process pool
(:meth:`WhiteMirrorAttack.evaluate_sessions` with ``workers``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from repro.core.classifier import MLRecordClassifier, RecordTypeClassifier
from repro.core.features import (
    ClientRecord,
    columnar_client_records,
    extract_client_records,
    select_streaming_flow,
)
from repro.core.fingerprint import FingerprintAccumulator, FingerprintLibrary
from repro.core.inference import InferredChoices, infer_choices, reconstruct_path
from repro.core.profiling import BehavioralProfile, profile_from_path
from repro.engine.executor import BatchExecutor
from repro.exceptions import AttackError, PcapError
from repro.narrative.graph import StoryGraph
from repro.narrative.path import ViewingPath
from repro.net.capture import CapturedTrace
from repro.net.columnar import decode_tcp_columns
from repro.net.pcap import BufferFingerprint, PcapReader, file_fingerprint, map_capture

if TYPE_CHECKING:
    from repro.core.evaluation import AttackEvaluation
    from repro.streaming.session import SessionResult


@dataclass(frozen=True)
class AttackResult:
    """What the attack recovered from one victim trace."""

    condition_key: str
    records: tuple[ClientRecord, ...]
    predicted_labels: tuple[str, ...]
    inferred: InferredChoices
    reconstructed_path: ViewingPath | None
    profile: BehavioralProfile | None
    #: SHA-256 hex digest of the capture file the records came from, when
    #: :meth:`WhiteMirrorAttack.attack_pcap` was asked for it.
    fingerprint: str | None = None

    @property
    def recovered_pattern(self) -> tuple[bool, ...]:
        """The recovered default/non-default pattern."""
        return self.inferred.default_pattern

    def evaluate_against(self, result: SessionResult) -> AttackEvaluation:
        """Score this attack result against the session's ground truth."""
        from repro.core.evaluation import evaluate_attack_result

        return evaluate_attack_result(
            records=self.records,
            predicted_labels=self.predicted_labels,
            inferred=self.inferred,
            ground_truth_path=result.path,
        )


def load_attack_trace(
    path: str | Path, client_ip: str, server_ip: str | None = None
) -> CapturedTrace:
    """Parse a victim pcap, resolving the streaming server address **once**.

    When the observer does not know the server address, the streaming
    connection is identified by the largest-downlink-flow heuristic and the
    trace's ``server_ip`` is set to that flow's server — so every later stage
    (record extraction, reporting) sees the same resolved address
    instead of each re-deciding which flow is the streaming flow.
    """
    trace = CapturedTrace.from_pcap(
        path, client_ip=client_ip, server_ip=server_ip or "0.0.0.0"
    )
    if server_ip is None:
        flow = select_streaming_flow(trace)
        trace = replace(trace, server_ip=flow.five_tuple.server.ip)
    return trace


def capture_client_records(
    path: str | Path,
    client_ip: str,
    server_ip: str | None = None,
    data: memoryview | None = None,
) -> tuple[ClientRecord, ...]:
    """The application-data records of a capture file's streaming flow.

    Decodes the capture as header columns (:mod:`repro.net.columnar`) and
    extracts the records from them (:func:`columnar_client_records`);
    ``data`` is the file's bytes if the caller already mapped them.  When
    the columns cannot prove the answer — a frame ``parse_frame`` would
    reject, a non-canonical address, no flow or no records — the whole
    capture goes through the oracle instead, :func:`load_attack_trace` plus
    :func:`extract_client_records`, which also raises its own errors.  The
    records are the oracle's either way.
    """
    columns = decode_tcp_columns(PcapReader(path).read_columns(data), client_ip)
    records = (
        columnar_client_records(columns, server_ip) if columns is not None else None
    )
    if records is None:
        trace = load_attack_trace(path, client_ip=client_ip, server_ip=server_ip)
        records = extract_client_records(trace, server_ip=trace.server_ip)
    return tuple(records)


@dataclass(frozen=True)
class PcapAttackTask:
    """One capture file to attack: where it is and how to read it."""

    path: str
    condition_key: str
    client_ip: str
    server_ip: str | None = None

    def describe(self) -> str:
        """Short identity used in engine error messages."""
        return f"{Path(self.path).name} ({self.condition_key})"


def _sidecar_capture_records(
    path: str | Path, client_ip: str, server_ip: str | None
) -> tuple[ClientRecord, ...] | None:
    """The capture's records from a fresh shard sidecar, when provably the
    records :func:`capture_client_records` would return.

    The shortcut engages only when the task's addresses match the ones the
    sidecar recorded at generation time: a different ``client_ip`` (or an
    unknown ``server_ip``, which the decode path resolves by the
    largest-flow heuristic) could legitimately change flow selection, and an
    empty column set must fall back so the decode path's "no records" error
    surfaces from there.  Every other case decodes the pcap.  Since the
    columnar decoder, the shortcut saves only that decode; ROADMAP records
    its measured worth.
    """
    # Imported lazily: the dataset layer builds on core, not the reverse;
    # only this acceleration hook reaches back into it.
    from repro.dataset.sidecar import capture_records_for

    columns = capture_records_for(path)
    if columns is None:
        return None
    if columns.client_ip != client_ip:
        return None
    if server_ip is None or columns.server_ip != server_ip:
        return None
    if columns.record_count == 0:
        return None
    return columns.client_records()


def _attack_pcap_task(attack: "WhiteMirrorAttack", task: PcapAttackTask) -> AttackResult:
    """Module-level worker task for parallel pcap attacks (must be picklable)."""
    return attack.attack_pcap(
        task.path,
        condition_key=task.condition_key,
        client_ip=task.client_ip,
        server_ip=task.server_ip,
        fingerprint=True,
    )


def _describe_pcap_task(task: PcapAttackTask) -> str:
    return task.describe()


def _attack_chunk(
    attack: "WhiteMirrorAttack", sessions: Sequence[SessionResult]
) -> list[AttackResult]:
    """Module-level worker task for parallel attacking (must be picklable)."""
    return [attack.attack_session(session) for session in sessions]


def _evaluate_chunk(
    attack: "WhiteMirrorAttack", sessions: Sequence[SessionResult]
) -> list[AttackEvaluation]:
    """Module-level worker task for parallel evaluation (must be picklable)."""
    return [
        attack.attack_session(session).evaluate_against(session)
        for session in sessions
    ]


def _chunked(items: list, chunks: int) -> list[list]:
    """Split into at most ``chunks`` contiguous, order-preserving slices."""
    chunks = max(1, min(chunks, len(items)))
    size, remainder = divmod(len(items), chunks)
    slices: list[list] = []
    start = 0
    for index in range(chunks):
        end = start + size + (1 if index < remainder else 0)
        slices.append(items[start:end])
        start = end
    return slices


class WhiteMirrorAttack:
    """Passive traffic-analysis attack on interactive viewing sessions.

    Parameters
    ----------
    graph:
        The interactive title's story graph, if known to the attacker (it is
        public information — anyone can map it by watching the title).  When
        provided, attacks also reconstruct the concrete path and behavioural
        profile; without it only the default/non-default pattern is recovered.
    band_margin:
        Widening applied to learned record-length bands, absorbing a little
        jitter unseen in training.  The default (8 bytes) comfortably covers
        the residual variability of the state reports even when only a couple
        of labelled sessions are available for an environment, while staying
        far from the nearest "other" traffic band (100+ bytes away).
    library:
        Optional pre-trained fingerprint library (e.g. loaded from the JSON
        the CLI's ``train`` command writes).  When supplied the attack is
        ready to use without calling :meth:`train`; further training adds to
        the given library in place.
    """

    def __init__(
        self,
        graph: StoryGraph | None = None,
        band_margin: int = 8,
        library: FingerprintLibrary | None = None,
    ) -> None:
        if band_margin < 0:
            raise AttackError("band margin must be non-negative")
        self._graph = graph
        self._margin = band_margin
        self._library = library if library is not None else FingerprintLibrary()

    # -- training ------------------------------------------------------------

    @property
    def library(self) -> FingerprintLibrary:
        """The per-environment fingerprints learned so far."""
        return self._library

    @property
    def classifier(self) -> RecordTypeClassifier:
        """A band classifier over the current fingerprint library."""
        return RecordTypeClassifier(self._library)

    def _records_for(
        self, trace: CapturedTrace, server_ip: str | None = None
    ) -> tuple[ClientRecord, ...]:
        return tuple(
            extract_client_records(trace, server_ip=server_ip or trace.server_ip)
        )

    def train(self, sessions: Iterable[SessionResult]) -> FingerprintLibrary:
        """Learn fingerprints from labelled (self-collected) sessions.

        Sessions are grouped by their condition's fingerprint key (operating
        system × browser); each group must contain at least one type-1 and
        one type-2 record.
        """
        grouped: dict[str, list[ClientRecord]] = {}
        for session in sessions:
            key = session.condition.fingerprint_key
            records = self._records_for(session.trace)
            grouped.setdefault(key, []).extend(records)
        if not grouped:
            raise AttackError("no training sessions supplied")
        for key, records in grouped.items():
            self._library.learn(key, records, margin=self._margin)
        return self._library

    def train_incremental(
        self,
        shards: Iterable[Iterable[SessionResult]],
        progress: Callable[[int], None] | None = None,
        accumulator: FingerprintAccumulator | None = None,
    ) -> FingerprintLibrary:
        """Learn fingerprints by folding labelled sessions in shard by shard.

        The streaming counterpart of :meth:`train` for calibration corpora
        that do not fit in memory: ``shards`` yields one batch of labelled
        sessions per shard (e.g.
        :meth:`repro.dataset.shards.ShardedDataset.iter_shard_training_sessions`),
        and each session's records are folded into a running
        :class:`~repro.core.fingerprint.FingerprintAccumulator` — only the
        per-environment min/max/count state survives a shard, so peak memory
        is O(shard), not O(corpus).  The finalised fingerprints are identical
        to calling :meth:`train` once over the concatenation of every shard:
        a band depends only on the extreme labelled lengths, which fold.

        ``progress``, when given, is invoked with the running session count
        after each session is folded (the job runner adapts it onto the
        structured event bus as unsized ``progress`` events, so incremental
        training narrates identically to a terminal or a JSONL consumer).
        ``accumulator`` lets the caller supply
        (and keep) the running state — a machine participating in distributed
        calibration folds its local shards in, serialises the accumulator
        (:meth:`FingerprintAccumulator.save`), and the per-machine states are
        later merged into one library (``repro merge-fingerprints``); state
        accumulated before the call (e.g. a previous machine's folded
        records) contributes to the finalised fingerprints exactly as if its
        sessions had been part of ``shards``.
        """
        accumulator = accumulator if accumulator is not None else FingerprintAccumulator()
        folded = 0
        for shard_sessions in shards:
            for session in shard_sessions:
                accumulator.observe(
                    session.condition.fingerprint_key,
                    self._records_for(session.trace),
                )
                folded += 1
                if progress is not None:
                    progress(folded)
        if folded == 0:
            raise AttackError("no training sessions supplied")
        return accumulator.finalize_into(self._library, margin=self._margin)

    def train_ml_classifier(
        self, sessions: Iterable[SessionResult], classifier: MLRecordClassifier
    ) -> MLRecordClassifier:
        """Train a generic ML record classifier on the same labelled sessions.

        Used by the ablation benchmarks; the main pipeline uses the band
        fingerprints.
        """
        records: list[ClientRecord] = []
        for session in sessions:
            records.extend(self._records_for(session.trace))
        if not records:
            raise AttackError("no training sessions supplied")
        return classifier.fit(records)

    # -- attacking -------------------------------------------------------------

    def attack_trace(
        self,
        trace: CapturedTrace,
        condition_key: str,
        server_ip: str | None = None,
    ) -> AttackResult:
        """Run the full attack on one captured trace."""
        records = self._records_for(trace, server_ip=server_ip)
        return self._attack_records(records, condition_key)

    def _attack_records(
        self, records: Sequence[ClientRecord], condition_key: str
    ) -> AttackResult:
        """Classify → infer → reconstruct: the tail every attack path shares.

        The verdict depends only on the extracted records, which is what
        lets the sidecar fast path of :meth:`attack_pcap` skip the parse
        stage yet produce byte-identical results.
        """
        labels = self.classifier.classify(records, condition_key)
        inferred = infer_choices(records, labels)
        path: ViewingPath | None = None
        profile: BehavioralProfile | None = None
        if self._graph is not None and inferred.choice_count > 0:
            path = reconstruct_path(self._graph, inferred)
            profile = profile_from_path(path)
        return AttackResult(
            condition_key=condition_key,
            records=tuple(records),
            predicted_labels=tuple(labels),
            inferred=inferred,
            reconstructed_path=path,
            profile=profile,
        )

    def attack_session(self, session: SessionResult) -> AttackResult:
        """Attack a simulated session (condition taken from its metadata)."""
        return self.attack_trace(
            session.trace,
            condition_key=session.condition.fingerprint_key,
            server_ip=session.trace.server_ip,
        )

    def attack_pcap(
        self,
        path: str | Path,
        condition_key: str,
        client_ip: str,
        server_ip: str | None = None,
        fingerprint: bool = False,
    ) -> AttackResult:
        """Run the full attack on one capture file.

        When the capture's directory carries a fresh columnar sidecar
        (:mod:`repro.dataset.sidecar`) recorded for exactly this client and
        server address, the records stream straight out of it.  Otherwise
        (no sidecar, stale sidecar, different addresses, unknown server) the
        capture is decoded as header columns by
        :func:`capture_client_records` — no per-packet objects, no flow
        table — which resolves the streaming flow once and falls back to
        the ``parse_frame`` oracle for anything it cannot prove.  Both
        paths feed :meth:`_attack_records`, so the verdict is byte-identical
        whichever served the records.

        ``fingerprint=True`` also fills :attr:`AttackResult.fingerprint`
        with the SHA-256 of the capture.  On the decode path the file is
        mapped once: a :class:`~repro.net.pcap.BufferFingerprint` hashes the
        mapping on a helper thread while this thread decodes and classifies
        the same bytes, and is joined before the method returns or raises.
        A sidecar-served capture is not decoded, so it is hashed with
        bounded block reads instead of being mapped for the hash alone.
        """
        records = _sidecar_capture_records(
            path, client_ip=client_ip, server_ip=server_ip
        )
        if records is not None:
            result = self._attack_records(records, condition_key)
            if not fingerprint:
                return result
            try:
                return replace(result, fingerprint=file_fingerprint(path))
            except OSError as error:
                raise PcapError(f"cannot read pcap file {path}: {error}") from error
        data = map_capture(path)
        hasher = BufferFingerprint(data) if fingerprint else None
        try:
            records = capture_client_records(
                path, client_ip=client_ip, server_ip=server_ip, data=data
            )
            result = self._attack_records(records, condition_key)
        finally:
            digest = hasher.result() if hasher is not None else None
        return result if digest is None else replace(result, fingerprint=digest)

    def iter_attack_pcaps(
        self,
        tasks: Iterable[PcapAttackTask],
        workers: int | None = None,
        progress: Callable[[int, int | None], None] | None = None,
    ) -> Iterator[AttackResult]:
        """Attack a batch of capture files, yielding results in task order,
        each with the fingerprint of the bytes its worker read
        (:meth:`attack_pcap` with ``fingerprint=True``).

        Fans record extraction + classification out through the engine's
        streaming :meth:`repro.engine.BatchExecutor.imap` path: with
        ``workers > 1`` each pcap is parsed and attacked in a worker process,
        and results stream back as their input slot completes, so a directory
        of thousands of captures never materialises in memory.  Serial and
        parallel iteration yield identical results.

        ``tasks`` may be any iterable: the live ingest service feeds a lazy
        generator whose production (metadata resolution) pipelines with
        the attacking of earlier captures, and ``imap`` never
        materialises it.  An empty *sequence* is rejected loudly (a batch
        caller that found no captures made an error upstream); an empty lazy
        iterable simply yields nothing — "no new arrivals" is a normal state
        for a live source.

        Unlike :meth:`attack_batch` (whose payloads are whole in-memory
        traces, hence its one-chunk-per-worker shipping), a pcap task is
        just a path: the attack state pickled with each submission is a few
        KB against the hundreds of KB of capture parsing it buys, so
        per-task submission — and with it per-capture streaming granularity
        — is the better trade here.
        """
        if isinstance(tasks, Sequence) and not tasks:
            raise AttackError("no capture files to attack")
        executor = BatchExecutor(workers)
        yield from executor.imap(
            partial(_attack_pcap_task, self),
            tasks,
            progress=progress,
            label=_describe_pcap_task,
        )

    def attack_batch(
        self,
        sessions: Sequence[SessionResult],
        workers: int | None = None,
    ) -> list[AttackResult]:
        """Attack a batch of sessions, in order.

        ``workers`` follows :class:`repro.engine.BatchExecutor` semantics:
        ``None``/``1`` run serially, ``0`` uses every core, ``N > 1`` a pool
        of ``N`` processes.  Sessions are shipped to the pool in one
        contiguous chunk per worker, so the attack state (fingerprints,
        graph) is pickled once per worker rather than once per session.
        """
        sessions = list(sessions)
        if not sessions:
            raise AttackError("no sessions to attack")
        executor = BatchExecutor(workers)
        if executor.parallel:
            chunks = executor.map(
                partial(_attack_chunk, self), _chunked(sessions, executor.workers)
            )
            return [result for chunk in chunks for result in chunk]
        return [self.attack_session(session) for session in sessions]

    def evaluate_sessions(
        self,
        sessions: Sequence[SessionResult],
        workers: int | None = None,
    ) -> list[AttackEvaluation]:
        """Attack and score a batch of sessions with ground truth.

        A ``workers`` count fans the per-session work out over the engine's
        process pool with :class:`BatchExecutor` semantics (``0`` means
        every core).  Results are identical to the serial path and returned
        in input order.
        """
        sessions = list(sessions)
        if not sessions:
            raise AttackError("no sessions to evaluate")
        executor = BatchExecutor(workers)
        if executor.parallel:
            chunks = executor.map(
                partial(_evaluate_chunk, self), _chunked(sessions, executor.workers)
            )
            return [result for chunk in chunks for result in chunk]
        return [
            self.attack_session(session).evaluate_against(session)
            for session in sessions
        ]
