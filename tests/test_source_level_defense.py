"""Tests for the source-level countermeasure (padding the reports before TLS).

The paper's suggested fix is for the *service* to make the state reports
indistinguishable.  ``SessionConfig.state_report_pad_to`` applies that fix
inside the simulated client, which lets us check the strongest claim: once
the two report types leave the client at one constant size, even an adaptive
attacker who trains on defended traffic cannot separate them by length.
"""

from __future__ import annotations

import pytest

from repro.client.profiles import figure2_conditions
from repro.client.viewer import ViewerBehavior
from repro.core.features import LABEL_TYPE1, LABEL_TYPE2, extract_client_records
from repro.core.pipeline import WhiteMirrorAttack
from repro.exceptions import FingerprintError, StreamingError
from repro.streaming.session import SessionConfig, simulate_session

from helpers import transmitted_state_message_kinds

_PAD_TO = 3400  # larger than any unpadded report under every profile


@pytest.fixture(scope="module")
def padded_sessions(study_graph):
    condition = figure2_conditions()[0]
    behavior = ViewerBehavior("20-25", "undisclosed", "undisclosed", "happy")
    config = SessionConfig(state_report_pad_to=_PAD_TO, cross_traffic_enabled=False)
    return [
        simulate_session(
            study_graph,
            condition,
            behavior,
            seed=4000 + index,
            config=config,
            session_id=f"padded-{index}",
        )
        for index in range(2)
    ]


class TestSourceLevelPadding:
    def test_invalid_padding_target_rejected(self):
        with pytest.raises(StreamingError):
            SessionConfig(state_report_pad_to=0)

    def test_both_report_types_share_one_wire_length(self, padded_sessions):
        for session in padded_sessions:
            records = extract_client_records(
                session.trace, server_ip=session.trace.server_ip
            )
            report_lengths = {
                record.wire_length
                for record in records
                if record.label in (LABEL_TYPE1, LABEL_TYPE2)
            }
            assert len(report_lengths) == 1
            # plaintext pad target + AES-128-GCM expansion (24) + header (5)
            assert report_lengths == {_PAD_TO + 29}

    def test_streaming_protocol_is_unchanged(self, padded_sessions):
        for session in padded_sessions:
            kinds = transmitted_state_message_kinds(session)
            assert kinds.count("type1") == session.path.choice_count
            assert kinds.count("type2") == session.path.non_default_count

    def test_adaptive_band_attacker_cannot_train_on_padded_traffic(
        self, study_graph, padded_sessions
    ):
        attack = WhiteMirrorAttack(graph=study_graph)
        # The two report types now occupy the same lengths, so no separating
        # band fingerprint exists and training must refuse rather than
        # silently produce a bogus fingerprint.
        with pytest.raises(FingerprintError):
            attack.train(padded_sessions)

    def test_unpadded_training_does_not_transfer_to_padded_victims(
        self, trained_attack, padded_sessions
    ):
        for session in padded_sessions:
            result = trained_attack.attack_session(session)
            evaluation = result.evaluate_against(session)
            # Every state report now falls outside the learned bands, so the
            # attack recovers nothing (no false "choices" are invented either).
            assert evaluation.correct_json_records == 0
            assert result.inferred.choice_count == 0
