"""Packet-level substrate: headers, segmentation, flows, pcap and conditions.

Everything the eavesdropper can see lives here.  The streaming simulator
writes TLS record bytes through a :class:`~repro.net.tcp.TCPSender` into a
:class:`~repro.net.capture.CaptureSink`, which records their IPv4/TCP
segments as columns (after the network-condition model has had its say);
the resulting trace can be persisted as a standards-compliant pcap file
that external tools can read.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        ".headers": "EthernetHeader IPv4Header TCPHeader checksum16 format_ipv4"
            " parse_ipv4",
        ".packet": "Direction Packet",
        ".endpoints": "Endpoint FiveTuple",
        ".tcp": "TCPSender segment_payload",
        ".flow": "Flow FlowTable",
        ".pcap": "PcapReader PcapWriter read_pcap write_pcap",
        ".conditions": "NetworkConditions conditions_for",
        ".capture": "CaptureSink CapturedTrace",
    },
)
