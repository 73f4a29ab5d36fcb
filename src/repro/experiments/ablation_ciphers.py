"""Ablation E: robustness of the side-channel to the negotiated cipher suite.

The record length visible on the wire is the plaintext size plus a
cipher-suite-dependent expansion.  The paper's captures all negotiated the
AEAD suites typical of Netflix-era stacks; this ablation asks two questions
the paper leaves open:

1. **Non-adaptive attacker** — fingerprints trained under AES-128-GCM (the
   calibration suite): do they still work when the victim's connection
   negotiates ChaCha20-Poly1305, TLS 1.3 AES-GCM, or an old CBC suite?
   AEAD suites differ by only a few bytes of overhead, so the (margin-widened)
   bands should still catch the reports; CBC's 16-byte padding quantisation
   shifts lengths further and should break a GCM-trained fingerprint.
2. **Adaptive attacker** — fingerprints re-trained per suite: the type-1 and
   type-2 payloads are ~800 bytes apart, so even CBC's quantisation cannot
   merge the bands and the attack should recover fully.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.client.profiles import OperationalCondition
from repro.client.viewer import ViewerBehavior
from repro.core.evaluation import aggregate_json_identification_accuracy, evaluate_attack_result
from repro.core.features import ClientRecord, extract_client_records
from repro.core.inference import infer_choices
from repro.core.pipeline import WhiteMirrorAttack
from repro.engine.executor import BatchExecutor
from repro.engine.plan import SessionPlan
from repro.exceptions import AttackError
from repro.narrative.bandersnatch import build_bandersnatch_script
from repro.narrative.graph import StoryGraph
from repro.streaming.session import SessionConfig, SessionResult
from repro.tls.ciphers import DEFAULT_CIPHER_SUITE
from repro.utils.rng import derive_seed

#: The suites swept by the ablation (calibration suite first).
ABLATION_CIPHER_SUITES: tuple[str, ...] = (
    "TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256",
    "TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305_SHA256",
    "TLS_AES_128_GCM_SHA256",
    "TLS_ECDHE_RSA_WITH_AES_256_CBC_SHA",
)


@dataclass(frozen=True)
class CipherScore:
    """Scores for one victim cipher suite."""

    cipher_suite: str
    non_adaptive_accuracy: float
    adaptive_accuracy: float

    def as_row(self) -> dict[str, object]:
        """One row of the ablation table."""
        return {
            "victim_cipher_suite": self.cipher_suite,
            "gcm_trained_fingerprint": round(self.non_adaptive_accuracy, 4),
            "per_suite_fingerprint": round(self.adaptive_accuracy, 4),
        }


@dataclass(frozen=True)
class CipherAblationResult:
    """Outcome of the cipher-suite robustness sweep."""

    scores: list[CipherScore]
    condition_key: str
    sessions_per_suite: int

    def rows(self) -> list[dict[str, object]]:
        """Table rows, one per victim suite."""
        return [score.as_row() for score in self.scores]

    def score_for(self, cipher_suite: str) -> CipherScore:
        """Look up one suite's scores."""
        for score in self.scores:
            if score.cipher_suite == cipher_suite:
                return score
        raise AttackError(f"no score recorded for cipher suite {cipher_suite!r}")

    @property
    def aead_suites_survive_without_retraining(self) -> bool:
        """Whether AEAD suite changes leave the GCM-trained fingerprint working."""
        aead = [score for score in self.scores if "CBC" not in score.cipher_suite]
        return all(score.non_adaptive_accuracy >= 0.9 for score in aead)

    @property
    def cbc_breaks_without_retraining(self) -> bool:
        """Whether the CBC suite defeats the GCM-trained fingerprint."""
        return self.score_for("TLS_ECDHE_RSA_WITH_AES_256_CBC_SHA").non_adaptive_accuracy <= 0.5

    @property
    def adaptive_attacker_always_wins(self) -> bool:
        """Whether per-suite re-training restores the attack for every suite."""
        return all(score.adaptive_accuracy >= 0.9 for score in self.scores)


def reproduce_cipher_ablation(
    sessions_per_suite: int = 3,
    training_sessions: int = 3,
    seed: int = 9,
    graph: StoryGraph | None = None,
    condition: OperationalCondition | None = None,
    workers: int | None = None,
) -> CipherAblationResult:
    """Sweep the victim's cipher suite against fixed and re-trained fingerprints."""
    if sessions_per_suite <= 0 or training_sessions <= 0:
        raise AttackError("session counts must be positive")
    graph = graph or build_bandersnatch_script(
        trunk_segment_minutes=1.5, branch_segment_minutes=1.0, ending_minutes=2.0
    )
    condition = condition or OperationalCondition(
        "linux", "desktop", "firefox", "wired", "noon"
    )
    behavior = ViewerBehavior("20-25", "male", "centrist", "happy")

    def _plans(cipher_suite: str, count: int, tag: str) -> list[SessionPlan]:
        config = SessionConfig(cipher_suite=cipher_suite, cross_traffic_enabled=False)
        return [
            SessionPlan(
                graph=graph,
                condition=condition,
                behavior=behavior,
                seed=derive_seed(seed, tag, cipher_suite, index),
                config=config,
                session_id=f"{tag}-{index}",
            )
            for index in range(count)
        ]

    # The whole suite sweep — GCM calibration, per-suite victims and
    # per-suite adaptive training — goes to the engine as one batch.
    batches: dict[str, list[SessionPlan]] = {
        "train-gcm": _plans(DEFAULT_CIPHER_SUITE, training_sessions, "cipher-train-gcm")
    }
    for cipher_suite in ABLATION_CIPHER_SUITES:
        batches[f"victim/{cipher_suite}"] = _plans(
            cipher_suite, sessions_per_suite, "cipher-victim"
        )
        batches[f"adaptive/{cipher_suite}"] = _plans(
            cipher_suite, training_sessions, "cipher-train-adaptive"
        )
    flat_plans = [plan for group in batches.values() for plan in group]
    flat_sessions = BatchExecutor(workers).execute(flat_plans)
    sessions_by_group: dict[str, list[SessionResult]] = {}
    cursor = 0
    for name, group in batches.items():
        sessions_by_group[name] = flat_sessions[cursor : cursor + len(group)]
        cursor += len(group)

    def _accuracy(
        attack: WhiteMirrorAttack,
        victims: list[tuple[SessionResult, list[ClientRecord]]],
    ) -> float:
        fingerprint = attack.library.get(condition.fingerprint_key)
        evaluations = []
        for session, records in victims:
            labels = fingerprint.classify(records)
            inferred = infer_choices(records, labels)
            evaluations.append(
                evaluate_attack_result(
                    records=records,
                    predicted_labels=labels,
                    inferred=inferred,
                    ground_truth_path=session.path,
                )
            )
        return aggregate_json_identification_accuracy(evaluations)

    # Non-adaptive attacker: trained once under the calibration suite.
    gcm_attack = WhiteMirrorAttack(graph=graph)
    gcm_attack.train(sessions_by_group["train-gcm"])

    scores: list[CipherScore] = []
    for cipher_suite in ABLATION_CIPHER_SUITES:
        # Each victim trace is extracted once, though both the non-adaptive
        # and the adaptive fingerprints attack it.
        victims = [
            (session, extract_client_records(session.trace, server_ip=session.trace.server_ip))
            for session in sessions_by_group[f"victim/{cipher_suite}"]
        ]
        non_adaptive = _accuracy(gcm_attack, victims)
        adaptive_attack = WhiteMirrorAttack(graph=graph)
        adaptive_attack.train(sessions_by_group[f"adaptive/{cipher_suite}"])
        adaptive = _accuracy(adaptive_attack, victims)
        scores.append(
            CipherScore(
                cipher_suite=cipher_suite,
                non_adaptive_accuracy=non_adaptive,
                adaptive_accuracy=adaptive,
            )
        )
    return CipherAblationResult(
        scores=scores, condition_key=condition.key, sessions_per_suite=sessions_per_suite
    )
