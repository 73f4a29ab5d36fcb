"""Tests for client-record feature extraction (the side-channel observable)."""

from __future__ import annotations

import pytest

from repro.core.features import (
    LABEL_OTHER,
    LABEL_TYPE1,
    LABEL_TYPE2,
    ClientRecord,
    extract_client_records,
    labelled_lengths,
    select_streaming_flow,
)
from repro.exceptions import AttackError
from repro.net.capture import CapturedTrace

from helpers import record_length_series


class TestClientRecord:
    def test_properties(self):
        record = ClientRecord(timestamp=1.0, wire_length=2212, content_type=23, label=LABEL_TYPE1)
        assert record.is_application_data
        assert record.payload_length == 2207

    def test_rejects_tiny_record(self):
        with pytest.raises(AttackError):
            ClientRecord(timestamp=1.0, wire_length=3, content_type=23)


class TestExtraction:
    def test_extracts_expected_state_reports(self, minimal_session):
        records = extract_client_records(
            minimal_session.trace, server_ip=minimal_session.trace.server_ip
        )
        labels = [record.label for record in records]
        assert labels.count(LABEL_TYPE1) == 2
        assert labels.count(LABEL_TYPE2) == 1
        assert labels.count(LABEL_OTHER) > 10

    def test_records_are_time_ordered(self, minimal_session):
        records = extract_client_records(
            minimal_session.trace, server_ip=minimal_session.trace.server_ip
        )
        timestamps = [record.timestamp for record in records]
        assert timestamps == sorted(timestamps)

    def test_handshake_records_excluded_by_default(self, minimal_session):
        records = extract_client_records(
            minimal_session.trace, server_ip=minimal_session.trace.server_ip
        )
        assert all(record.is_application_data for record in records)

    def test_handshake_records_present_when_requested(self, minimal_session):
        records = extract_client_records(
            minimal_session.trace,
            server_ip=minimal_session.trace.server_ip,
            application_data_only=False,
        )
        assert any(not record.is_application_data for record in records)

    def test_state_report_lengths_fall_in_figure2_bands(self, minimal_session):
        records = extract_client_records(
            minimal_session.trace, server_ip=minimal_session.trace.server_ip
        )
        type1_lengths = [r.wire_length for r in records if r.label == LABEL_TYPE1]
        type2_lengths = [r.wire_length for r in records if r.label == LABEL_TYPE2]
        assert all(2211 <= length <= 2213 for length in type1_lengths)
        assert all(2992 <= length <= 3017 for length in type2_lengths)

    def test_flow_selection_by_largest_when_server_unknown(self, ubuntu_session):
        records_known = extract_client_records(
            ubuntu_session.trace, server_ip=ubuntu_session.trace.server_ip
        )
        records_heuristic = extract_client_records(ubuntu_session.trace, server_ip=None)
        assert record_length_series(records_known) == record_length_series(records_heuristic)

    def test_unknown_server_ip_rejected(self, minimal_session):
        with pytest.raises(AttackError):
            extract_client_records(minimal_session.trace, server_ip="203.0.113.99")

    def test_pcap_round_trip_preserves_lengths_but_not_labels(self, tmp_path, minimal_session):
        path = tmp_path / "capture.pcap"
        minimal_session.trace.to_pcap(path)
        restored = CapturedTrace.from_pcap(
            path,
            client_ip=minimal_session.trace.client_ip,
            server_ip=minimal_session.trace.server_ip,
        )
        original = extract_client_records(
            minimal_session.trace, server_ip=minimal_session.trace.server_ip
        )
        recovered = extract_client_records(restored, server_ip=restored.server_ip)
        assert record_length_series(recovered) == record_length_series(original)
        assert all(record.label is None for record in recovered)

    def test_labelled_lengths_requires_labels(self, minimal_session, tmp_path):
        records = extract_client_records(
            minimal_session.trace, server_ip=minimal_session.trace.server_ip
        )
        lengths, labels = labelled_lengths(records)
        assert len(lengths) == len(labels) == len(records)
        path = tmp_path / "capture.pcap"
        minimal_session.trace.to_pcap(path)
        restored = CapturedTrace.from_pcap(
            path,
            client_ip=minimal_session.trace.client_ip,
            server_ip=minimal_session.trace.server_ip,
        )
        unlabelled = extract_client_records(restored, server_ip=restored.server_ip)
        with pytest.raises(AttackError):
            labelled_lengths(unlabelled)

    def test_select_streaming_flow_ignores_cross_traffic(self, ubuntu_session):
        flow = select_streaming_flow(ubuntu_session.trace)
        assert flow.five_tuple.server.ip == ubuntu_session.trace.server_ip
