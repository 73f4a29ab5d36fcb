"""Packet-level substrate: headers, segmentation, flows, pcap and conditions.

Everything the eavesdropper can see lives here.  The streaming simulator
writes TLS record bytes through a :class:`~repro.net.tcp.TCPSender` into a
:class:`~repro.net.capture.CaptureSink`, which records their IPv4/TCP
segments as columns (after the network-condition model has had its say);
the resulting trace can be persisted as a standards-compliant pcap file
that external tools can read.
"""

from repro.net.headers import (
    EthernetHeader,
    IPv4Header,
    TCPHeader,
    checksum16,
    format_ipv4,
    parse_ipv4,
)
from repro.net.packet import Direction, Packet
from repro.net.endpoints import Endpoint, FiveTuple
from repro.net.tcp import TCPSender, segment_payload
from repro.net.flow import Flow, FlowTable
from repro.net.pcap import PcapReader, PcapWriter, read_pcap, write_pcap
from repro.net.conditions import NetworkConditions, conditions_for
from repro.net.capture import CaptureSink, CapturedTrace

__all__ = [
    "EthernetHeader",
    "IPv4Header",
    "TCPHeader",
    "checksum16",
    "format_ipv4",
    "parse_ipv4",
    "Direction",
    "Packet",
    "Endpoint",
    "FiveTuple",
    "TCPSender",
    "segment_payload",
    "Flow",
    "FlowTable",
    "PcapReader",
    "PcapWriter",
    "read_pcap",
    "write_pcap",
    "NetworkConditions",
    "conditions_for",
    "CaptureSink",
    "CapturedTrace",
]
