"""Passive monitor substrate: Zeek-style records, logs, capture, pcap ingest."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "binlog": (
            "iter_conn_binlog",
            "iter_dns_binlog",
            "load_conn_binlog",
            "load_dns_binlog",
            "save_conn_binlog",
            "save_dns_binlog",
            "sniff_binlog",
        ),
        "capture": ("MonitorCapture", "Trace", "merge_traces"),
        "logs": (
            "load_conn_log",
            "load_dns_log",
            "read_conn_log",
            "read_dns_log",
            "save_conn_log",
            "save_dns_log",
            "write_conn_log",
            "write_dns_log",
        ),
        "json_logs": ("read_conn_json", "read_dns_json", "write_conn_json", "write_dns_json"),
        "pcap_ingest": ("PcapIngest", "trace_from_pcap"),
        "records": (
            "ConnRecord",
            "DnsAnswer",
            "DnsRecord",
            "GroundTruth",
            "Proto",
            "TruthClass",
        ),
    },
)
