"""The end-to-end interactive streaming session simulator.

:func:`simulate_session` is the main entry point of the simulation half of
the library: given a story graph, an operational condition and a viewer
behaviour model it produces a :class:`SessionResult` containing

* the captured packet trace (what the eavesdropper sees),
* the viewing path and choice records (ground truth),
* the state messages that were actually transmitted, and
* the full session event log (used by the Figure 1 reproduction).

The time model is a logical clock: playback time advances as segments play,
and network interactions around each instant (chunk requests, state reports,
acknowledgements) are stamped with small serialization/propagation offsets
from the condition model.  That is faithful enough for every observable the
paper's attack uses — record lengths, directions, ordering and coarse timing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

from repro.client.json_state import (
    JSON_TYPE_1,
    StateMessage,
    build_type1_message,
    build_type2_message,
)
from repro.client.profiles import ClientProfile, OperationalCondition, profile_for
from repro.client.viewer import ViewerBehavior, ViewerChoiceModel
from repro.exceptions import StreamingError
from repro.media.manifest import build_manifest
from repro.narrative.choices import ChoiceRecord
from repro.narrative.graph import StoryGraph
from repro.narrative.path import ViewingPath
from repro.net.capture import CaptureSink, CapturedTrace
from repro.net.conditions import conditions_for
from repro.net.endpoints import DEFAULT_CLIENT_IP, Endpoint, FiveTuple
from repro.net.packet import Direction
from repro.net.tcp import TCPSender
from repro.streaming.abr import AdaptiveBitrateController
from repro.streaming.buffer import PlaybackBuffer
from repro.streaming.events import EventKind, EventLog
from repro.streaming.prefetch import Prefetcher
from repro.streaming.server import StreamingServer
from repro.tls.ciphers import cipher_by_name
from repro.tls.handshake import simulate_handshake
from repro.tls.session import TLSSession
from repro.utils.rng import RandomSource

#: Annotation keys attached to packets for ground-truth evaluation only.
ANNOTATION_KIND = "kind"
ANNOTATION_QUESTION = "question_id"
ANNOTATION_RECORD_INDEX = "record_index"


@dataclass(frozen=True)
class SessionConfig:
    """Tunable parameters of a simulated viewing session."""

    content_seed: int = 20181228
    chunk_duration_seconds: float = 4.0
    playback_speedup: float = 60.0
    media_scale: float = 0.01
    telemetry_enabled: bool = True
    bulk_report_probability: float = 0.25
    cross_traffic_enabled: bool = True
    interactive: bool = True
    cipher_suite: str = "TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256"
    #: When set, the client pads every state report (type-1 and type-2) to
    #: this many plaintext bytes before encryption — the deployable version
    #: of the paper's Section VI countermeasure, applied at the source.
    state_report_pad_to: int | None = None
    client_ip: str = DEFAULT_CLIENT_IP
    server_ip: str = "198.51.100.7"
    client_port: int = 51_742
    server_port: int = 443

    def __post_init__(self) -> None:
        if self.chunk_duration_seconds <= 0:
            raise StreamingError("chunk duration must be positive")
        if self.playback_speedup <= 0:
            raise StreamingError("playback speedup must be positive")
        if not 0.0 < self.media_scale <= 1.0:
            raise StreamingError("media scale must be within (0, 1]")
        if not 0.0 <= self.bulk_report_probability <= 1.0:
            raise StreamingError("bulk report probability must be within [0, 1]")
        if self.state_report_pad_to is not None and self.state_report_pad_to <= 0:
            raise StreamingError("state report padding target must be positive")
        # Validate the suite name eagerly so a typo fails at configuration
        # time, not in the middle of a simulated session.
        cipher_by_name(self.cipher_suite)


@dataclass(frozen=True)
class SessionResult:
    """Everything produced by one simulated viewing session."""

    trace: CapturedTrace
    path: ViewingPath
    condition: OperationalCondition
    profile: ClientProfile
    state_messages: tuple[StateMessage, ...]
    events: tuple[object, ...]
    session_id: str

    @property
    def choice_count(self) -> int:
        """Number of questions the viewer answered."""
        return self.path.choice_count

    @property
    def ground_truth_pattern(self) -> tuple[bool, ...]:
        """Default/non-default pattern of the viewer's choices."""
        return self.path.default_pattern

    def fingerprint(self) -> str:
        """Stable digest of everything observable in this result.

        Covers every captured packet (timing, direction, sequencing, payload
        bytes), the ground-truth path and the transmitted state messages.
        Two results with the same fingerprint are byte-identical for every
        purpose the attack and the experiments care about — the engine's
        serial/parallel equivalence tests compare these instead of deep
        structures.
        """
        hasher = hashlib.sha256()
        segments = self.trace.segments
        payload = memoryview(segments.payload)
        directions = (Direction.SERVER_TO_CLIENT.value, Direction.CLIENT_TO_SERVER.value)
        for timestamp, uplink, sequence, wire_length, retransmission, start, length in zip(
            segments.timestamps.tolist(),
            segments.uplink.tolist(),
            segments.sequence_numbers.tolist(),
            segments.wire_lengths.tolist(),
            segments.retransmissions.tolist(),
            segments.payload_offsets.tolist(),
            segments.payload_lengths.tolist(),
        ):
            hasher.update(
                f"{timestamp!r}|{directions[uplink]}|{sequence}|{wire_length}|"
                f"{int(retransmission)}\n".encode("utf-8")
            )
            hasher.update(payload[start : start + length])
        hasher.update("|".join(self.path.segment_ids).encode("utf-8"))
        for choice in self.path.choices:
            hasher.update(
                f"{choice.question_id}|{choice.selected_label}|"
                f"{int(choice.took_default)}|{choice.decision_time_seconds!r}\n".encode("utf-8")
            )
        for message in self.state_messages:
            hasher.update(
                f"{message.kind}|{message.question_id}|{message.size_bytes}\n".encode("utf-8")
            )
        return hasher.hexdigest()


class InteractiveStreamingSession:
    """Simulates one viewing session of an interactive title."""

    def __init__(
        self,
        graph: StoryGraph,
        condition: OperationalCondition,
        behavior: ViewerBehavior,
        rng: RandomSource,
        config: SessionConfig | None = None,
        forced_choices: Sequence[bool] | None = None,
    ) -> None:
        self._graph = graph
        self._condition = condition
        self._behavior = behavior
        self._rng = rng
        self._config = config or SessionConfig()
        self._profile = profile_for(condition)
        self._network = conditions_for(condition)
        self._manifest = build_manifest(
            graph,
            content_seed=self._config.content_seed,
            chunk_duration_seconds=self._config.chunk_duration_seconds,
        )
        self._forced_choices = list(forced_choices) if forced_choices is not None else None
        self._choice_model = ViewerChoiceModel(behavior)
        self._events = EventLog()
        self._clock = 0.0
        # Session-wide counters feeding RNG child-stream names; they must
        # never reset mid-session, otherwise random draws would repeat.
        self._state_attempts = 0
        self._telemetry_sent = 0

    # -- public API --------------------------------------------------------

    def run(self, session_id: str = "session-0") -> SessionResult:
        """Execute the session and return its result."""
        graph = self._graph
        graph.validate()
        config = self._config
        profile = self._profile

        five_tuple = FiveTuple(
            client=Endpoint(ip=config.client_ip, port=config.client_port),
            server=Endpoint(ip=config.server_ip, port=config.server_port),
        )
        capture = CaptureSink(
            conditions=self._network,
            rng=self._rng.child("capture"),
            client_ip=config.client_ip,
            server_ip=config.server_ip,
        )
        uplink = TCPSender(five_tuple, Direction.CLIENT_TO_SERVER, mss=profile.mss)
        downlink = TCPSender(five_tuple, Direction.SERVER_TO_CLIENT, mss=profile.mss)
        cipher = cipher_by_name(config.cipher_suite)
        client_tls = TLSSession(key_id=f"{session_id}/client", cipher=cipher)
        server_tls = TLSSession(key_id=f"{session_id}/server", cipher=cipher)
        server = StreamingServer(self._manifest)
        buffer = PlaybackBuffer()
        abr = AdaptiveBitrateController(self._manifest.ladder)
        prefetcher = Prefetcher()

        self._events.record(self._clock, EventKind.SESSION_STARTED, session_id=session_id)
        self._do_handshake(capture, uplink, downlink)

        state_messages: list[StateMessage] = []
        records: list[ChoiceRecord] = []
        segments = [graph.root_segment.segment_id]
        next_telemetry = self._rng.child("telemetry").exponential(
            profile.telemetry_interval_seconds
        )

        current_segment = graph.root_segment.segment_id
        answered = 0
        max_questions = 2 * max(1, graph.choice_point_count)
        while True:
            self._stream_segment(
                current_segment,
                capture,
                uplink,
                downlink,
                client_tls,
                server_tls,
                server,
                buffer,
                abr,
                profile,
                next_telemetry_ref := [next_telemetry],
                state_messages,
            )
            next_telemetry = next_telemetry_ref[0]
            choice_point = (
                graph.choice_point_after(current_segment) if config.interactive else None
            )
            if choice_point is None or answered >= max_questions:
                break

            # -- question shown: type-1 state report ------------------------
            self._events.record(
                self._clock, EventKind.QUESTION_SHOWN, question_id=choice_point.question_id
            )
            type1 = build_type1_message(
                profile,
                choice_point.question_id,
                self._clock,
                self._rng.child(("type1", answered)),
            )
            self._send_state_message(
                type1, capture, uplink, downlink, client_tls, server_tls, state_messages
            )

            # -- prefetch the default branch while the viewer decides -------
            default_segment = choice_point.default_choice.target_segment_id
            quality = abr.select_profile(buffer)
            default_chunks = self._manifest.segment_chunks(default_segment, quality.name)
            plan = prefetcher.plan(choice_point.question_id, default_chunks)
            self._events.record(
                self._clock,
                EventKind.PREFETCH_STARTED,
                question_id=choice_point.question_id,
                segment_id=default_segment,
                planned_chunks=len(plan.chunks),
            )
            if self._forced_choices is not None and answered < len(self._forced_choices):
                takes_default = bool(self._forced_choices[answered])
            else:
                takes_default = self._choice_model.decide(
                    choice_point, self._rng.child(("choice", answered))
                )
            decision_delay = self._choice_model.decision_delay(
                choice_point, self._rng.child(("delay", answered))
            )
            chunk_fetch_seconds = max(
                0.2,
                self._network.serialization_delay(
                    default_chunks[0].size_bytes, uplink=False
                )
                + self._network.base_rtt_seconds,
            )
            fetched = prefetcher.fetchable_during(plan, decision_delay, chunk_fetch_seconds)
            fetch_clock = self._clock
            for chunk in fetched:
                fetch_clock += chunk_fetch_seconds
                self._transfer_chunk(
                    chunk.segment_id,
                    chunk.index,
                    quality.name,
                    fetch_clock,
                    capture,
                    uplink,
                    downlink,
                    client_tls,
                    server_tls,
                    server,
                    kind="prefetch_chunk",
                )
                self._events.record(
                    fetch_clock,
                    EventKind.PREFETCH_CHUNK,
                    question_id=choice_point.question_id,
                    chunk_id=chunk.chunk_id,
                )
            prefetcher.mark_fetched(plan, fetched)
            self._clock += decision_delay

            # -- the decision ------------------------------------------------
            selected = choice_point.choice_for(takes_default)
            records.append(
                ChoiceRecord(
                    question_id=choice_point.question_id,
                    selected_label=selected.label,
                    took_default=takes_default,
                    decision_time_seconds=decision_delay,
                )
            )
            self._events.record(
                self._clock,
                EventKind.CHOICE_MADE,
                question_id=choice_point.question_id,
                selected_label=selected.label,
                took_default=takes_default,
            )
            if takes_default:
                buffer.add(plan.fetched_seconds)
            else:
                discarded = prefetcher.discard(plan)
                self._events.record(
                    self._clock,
                    EventKind.PREFETCH_DISCARDED,
                    question_id=choice_point.question_id,
                    discarded_bytes=discarded,
                )
                type2 = build_type2_message(
                    profile,
                    choice_point.question_id,
                    self._clock,
                    self._rng.child(("type2", answered)),
                )
                self._send_state_message(
                    type2, capture, uplink, downlink, client_tls, server_tls, state_messages
                )

            answered += 1
            current_segment = selected.target_segment_id
            segments.append(current_segment)

        self._events.record(self._clock, EventKind.SESSION_FINISHED)
        if config.cross_traffic_enabled:
            capture.add_cross_traffic(self._clock, self._rng.child("cross"))
        trace = capture.trace()
        path = ViewingPath(segment_ids=tuple(segments), choices=tuple(records))
        return SessionResult(
            trace=trace,
            path=path,
            condition=self._condition,
            profile=profile,
            state_messages=tuple(state_messages),
            events=self._events.events,
            session_id=session_id,
        )

    # -- internal helpers ---------------------------------------------------

    def _do_handshake(self, capture: CaptureSink, uplink: TCPSender, downlink: TCPSender) -> None:
        handshake_rng = self._rng.child("handshake")
        for entry in simulate_handshake(TLSSession(key_id="hs").cipher, handshake_rng):
            sender = uplink if entry.from_client else downlink
            payload = entry.record.serialize()
            delay = self._network.one_way_delay(handshake_rng)
            self._clock += delay
            capture.write(
                sender, payload, self._clock, annotations={ANNOTATION_KIND: "handshake"}
            )
        self._events.record(self._clock, EventKind.HANDSHAKE_COMPLETED)

    def _send_application_payload(
        self,
        payload: bytes,
        kind: str,
        capture: CaptureSink,
        sender: TCPSender,
        tls: TLSSession,
        timestamp: float,
        question_id: str | None = None,
    ) -> None:
        """Protect a payload with TLS and emit its TCP segments."""
        annotations: dict[str, object] = {ANNOTATION_KIND: kind}
        if question_id is not None:
            annotations[ANNOTATION_QUESTION] = question_id
        for index, record in enumerate(tls.protect(payload)):
            record_annotations = dict(annotations)
            record_annotations[ANNOTATION_RECORD_INDEX] = index
            capture.write(sender, record.serialize(), timestamp, record_annotations)

    def _send_state_message(
        self,
        message: StateMessage,
        capture: CaptureSink,
        uplink: TCPSender,
        downlink: TCPSender,
        client_tls: TLSSession,
        server_tls: TLSSession,
        state_messages: list[StateMessage],
    ) -> None:
        """Transmit a state report (unless it is lost before the capture point)."""
        kind_event = EventKind.TYPE1_SENT if message.kind == JSON_TYPE_1 else EventKind.TYPE2_SENT
        # The counter tracks *attempted* reports (not delivered ones) so every
        # report gets an independent loss draw even after a loss occurred.
        self._state_attempts += 1
        if self._rng.child(("state-loss", self._state_attempts)).bernoulli(
            self._profile.state_loss_probability
        ):
            self._events.record(
                self._clock,
                EventKind.STATE_MESSAGE_LOST,
                question_id=message.question_id,
                message_kind=message.kind,
            )
            return
        self._clock += self._network.one_way_delay(self._rng.child("state-delay"))
        payload = message.payload
        pad_to = self._config.state_report_pad_to
        if pad_to is not None and len(payload) < pad_to:
            # Source-level countermeasure: both report types go out at one
            # constant plaintext size, so their ciphertext lengths coincide.
            payload = payload + b" " * (pad_to - len(payload))
        self._send_application_payload(
            payload,
            kind=message.kind,
            capture=capture,
            sender=uplink,
            tls=client_tls,
            timestamp=self._clock,
            question_id=message.question_id,
        )
        state_messages.append(message)
        self._events.record(
            self._clock, kind_event, question_id=message.question_id, size=message.size_bytes
        )
        # Server acknowledges the report with a small response.
        ack_bytes = StreamingServer(self._manifest).acknowledge_state_report()
        ack_payload = self._rng.child("ack").random_bytes(ack_bytes)
        self._send_application_payload(
            ack_payload,
            kind="state_ack",
            capture=capture,
            sender=downlink,
            tls=server_tls,
            timestamp=self._clock + self._network.base_rtt_seconds,
        )

    def _transfer_chunk(
        self,
        segment_id: str,
        chunk_index: int,
        profile_name: str,
        timestamp: float,
        capture: CaptureSink,
        uplink: TCPSender,
        downlink: TCPSender,
        client_tls: TLSSession,
        server_tls: TLSSession,
        server: StreamingServer,
        kind: str = "chunk",
    ) -> int:
        """Request and receive one media chunk; returns its total bytes."""
        request_rng = self._rng.child(("request", segment_id, chunk_index))
        request_size = request_rng.jittered(
            self._profile.request_payload_bytes, self._profile.request_payload_jitter
        )
        request_payload = request_rng.random_bytes(request_size)
        self._send_application_payload(
            request_payload,
            kind="chunk_request",
            capture=capture,
            sender=uplink,
            tls=client_tls,
            timestamp=timestamp,
        )
        self._events.record(
            timestamp, EventKind.CHUNK_REQUESTED, segment_id=segment_id, chunk_index=chunk_index
        )
        response = server.serve_chunk(segment_id, chunk_index, profile_name)
        # The transmitted payload is scaled down by ``media_scale`` so traces
        # stay a tractable size; the *timing* and the event log use the real
        # chunk size, so throughput estimation and the baselines see realistic
        # relative structure.
        transmitted_bytes = max(64, int(response.total_bytes * self._config.media_scale))
        response_payload = request_rng.random_bytes(transmitted_bytes)
        arrival = timestamp + self._network.base_rtt_seconds
        self._send_application_payload(
            response_payload,
            kind=kind,
            capture=capture,
            sender=downlink,
            tls=server_tls,
            timestamp=arrival,
        )
        self._events.record(
            arrival,
            EventKind.CHUNK_RECEIVED,
            segment_id=segment_id,
            chunk_index=chunk_index,
            size_bytes=response.total_bytes,
            transmitted_bytes=transmitted_bytes,
        )
        return response.total_bytes

    def _maybe_send_telemetry(
        self,
        capture: CaptureSink,
        uplink: TCPSender,
        client_tls: TLSSession,
        next_telemetry_ref: list[float],
    ) -> None:
        """Send periodic player telemetry if its timer has elapsed."""
        if not self._config.telemetry_enabled:
            return
        while self._clock >= next_telemetry_ref[0]:
            telemetry_rng = self._rng.child(("telemetry", self._telemetry_sent))
            if telemetry_rng.bernoulli(self._profile.band_collision_probability):
                # Occasionally a telemetry upload happens to be the same size
                # as a state report: the main source of attack false positives.
                target_band = telemetry_rng.choice(["type1", "type2"])
                if target_band == "type1":
                    size = telemetry_rng.jittered(
                        self._profile.type1_payload_bytes, self._profile.type1_payload_jitter
                    )
                else:
                    size = telemetry_rng.jittered(
                        self._profile.type2_payload_bytes, self._profile.type2_payload_jitter
                    )
            elif telemetry_rng.bernoulli(self._config.bulk_report_probability):
                size = telemetry_rng.jittered(
                    self._profile.bulk_report_payload_bytes,
                    self._profile.bulk_report_payload_jitter,
                )
            else:
                size = telemetry_rng.jittered(
                    self._profile.telemetry_payload_bytes,
                    self._profile.telemetry_payload_jitter,
                )
            payload = telemetry_rng.random_bytes(size)
            # The upload is stamped at the current clock (not the scheduled
            # instant) so packet timestamps stay monotone within the TCP
            # stream even when a chunk download overshot the telemetry timer.
            self._send_application_payload(
                payload,
                kind="telemetry",
                capture=capture,
                sender=uplink,
                tls=client_tls,
                timestamp=self._clock,
            )
            event_kind = (
                EventKind.BULK_REPORT_SENT
                if size >= self._profile.bulk_report_payload_bytes - self._profile.bulk_report_payload_jitter
                else EventKind.TELEMETRY_SENT
            )
            self._events.record(self._clock, event_kind, size=size)
            next_telemetry_ref[0] += self._rng.child(
                ("telemetry-gap", self._telemetry_sent)
            ).exponential(self._profile.telemetry_interval_seconds)
            self._telemetry_sent += 1

    def _stream_segment(
        self,
        segment_id: str,
        capture: CaptureSink,
        uplink: TCPSender,
        downlink: TCPSender,
        client_tls: TLSSession,
        server_tls: TLSSession,
        server: StreamingServer,
        buffer: PlaybackBuffer,
        abr: AdaptiveBitrateController,
        profile: ClientProfile,
        next_telemetry_ref: list[float],
        state_messages: list[StateMessage],
    ) -> None:
        """Stream and 'play' one segment, advancing the session clock."""
        segment = self._graph.segment(segment_id)
        self._events.record(self._clock, EventKind.SEGMENT_STARTED, segment_id=segment_id)
        quality = abr.select_profile(buffer)
        chunk_map = self._manifest.segment_chunks(segment_id, quality.name)
        already_buffered = min(buffer.level_seconds, chunk_map.total_seconds)
        skip_chunks = int(already_buffered // self._manifest.chunk_duration_seconds)
        for chunk in chunk_map.chunks[skip_chunks:]:
            quality = abr.select_profile(buffer)
            actual_map = self._manifest.segment_chunks(segment_id, quality.name)
            actual_chunk = actual_map[min(chunk.index, len(actual_map) - 1)]
            total = self._transfer_chunk(
                segment_id,
                actual_chunk.index,
                quality.name,
                self._clock,
                capture,
                uplink,
                downlink,
                client_tls,
                server_tls,
                server,
            )
            download_seconds = max(
                1e-3,
                self._network.serialization_delay(total, uplink=False)
                + self._network.base_rtt_seconds,
            )
            abr.observe_download(total, download_seconds)
            buffer.add(actual_chunk.duration_seconds)
            # Playback (and therefore wall-clock progress between network
            # events) is compressed by the speedup factor so simulating a
            # ~90-minute film stays cheap; ordering of events is unaffected.
            played = actual_chunk.duration_seconds / self._config.playback_speedup
            buffer.play(actual_chunk.duration_seconds)
            self._clock += max(download_seconds, played)
            self._maybe_send_telemetry(capture, uplink, client_tls, next_telemetry_ref)
        self._events.record(self._clock, EventKind.SEGMENT_FINISHED, segment_id=segment_id)


def simulate_session(
    graph: StoryGraph,
    condition: OperationalCondition,
    behavior: ViewerBehavior,
    seed: int,
    config: SessionConfig | None = None,
    forced_choices: Sequence[bool] | None = None,
    session_id: str | None = None,
) -> SessionResult:
    """Convenience wrapper: build and run one session from a seed."""
    rng = RandomSource(seed, ("session",))
    session = InteractiveStreamingSession(
        graph=graph,
        condition=condition,
        behavior=behavior,
        rng=rng,
        config=config,
        forced_choices=forced_choices,
    )
    return session.run(session_id=session_id or f"session-{seed}")
