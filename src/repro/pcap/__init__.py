"""Packet-capture substrate: pcap files and Ethernet/IPv4/UDP/TCP codecs."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "ethernet": ("ETHERTYPE_IPV4", "EthernetFrame", "format_mac", "parse_mac"),
        "ip": ("PROTO_TCP", "PROTO_UDP", "IPv4Packet", "internet_checksum"),
        "packet": ("DissectedPacket", "build_tcp_packet", "build_udp_packet", "dissect"),
        "pcapfile": (
            "LINKTYPE_ETHERNET",
            "LINKTYPE_RAW_IP",
            "CapturedPacket",
            "PcapHeader",
            "PcapReader",
            "PcapWriter",
            "read_pcap",
            "write_pcap",
        ),
        "tcp": ("TCPFlags", "TCPSegment"),
        "udp": ("UDPDatagram",),
    },
)
