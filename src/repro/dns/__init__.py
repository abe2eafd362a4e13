"""DNS protocol substrate: names, records, messages, wire codec, caches,
authoritative zones, and resolver models.

This package is a from-scratch implementation of the DNS machinery the
paper's measured traffic flows through: stub resolvers with local caches,
shared recursive resolver platforms, and an authoritative hierarchy.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "cache": ("CacheEntry", "CacheLookup", "CacheStats", "DnsCache", "cache_key"),
        "message": (
            "Flags",
            "Message",
            "Opcode",
            "Question",
            "Rcode",
            "make_query",
            "make_response",
        ),
        "name": ("ROOT", "DomainName"),
        "resolver": (
            "RecursiveResolver",
            "ResolutionOutcome",
            "ResolverProfile",
            "StubLookup",
            "StubResolver",
            "build_platform_profiles",
        ),
        "rr": (
            "AAAARecordData",
            "ARecordData",
            "MXRecordData",
            "NameRecordData",
            "OpaqueRecordData",
            "ResourceRecord",
            "RRClass",
            "RRType",
            "SOARecordData",
            "SRVRecordData",
            "TXTRecordData",
            "a_record",
            "aaaa_record",
            "cname_record",
            "ns_record",
        ),
        "wire": (
            "decode_message",
            "decode_message_stream",
            "encode_message",
            "encode_message_tcp",
        ),
        "zone": ("AuthoritativeServer", "DnsHierarchy", "Zone"),
        "zonefile": ("load_zone_text", "parse_zone_text", "serialize_records"),
    },
)
