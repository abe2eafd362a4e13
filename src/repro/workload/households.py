"""Houses: NAT'd residences with a sampled device and resolver mix.

The sampler reproduces the resolver-platform structure of the paper's
Table 1: roughly 16% of houses funnel everything through the local ISP
resolvers (a forwarder intercepting DNS), most houses also carry Android
devices defaulting to Google Public DNS, a quarter use OpenDNS for their
non-Android devices, and a few percent use Cloudflare.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.dns.cache import CacheKey, DnsCache
from repro.dns.resolver import RecursiveResolver, StubResolver
from repro.errors import WorkloadError
from repro.simulation.faults import ConnectionBudget, RetryPolicy
from repro.simulation.random import lognormal
from repro.monitor.capture import MonitorCapture
from repro.workload.devices import Device
from repro.workload.namespace import NameUniverse

NAT_PORT_LOW = 32768
NAT_PORT_HIGH = 60999


@dataclass(frozen=True, slots=True)
class HousePlan:
    """Everything needed to build one house, fixed before any sharding.

    The plan phase consumes the shared ``"houses"`` stream exactly as
    the historical serial builder did — the quota/shuffle draws of
    :func:`_plan_kinds` followed by one 64-bit seed per
    house — so house composition is byte-identical no matter how the
    houses are later partitioned across shards: every draw a house makes
    derives from its own ``seed``, never from a shared stream.
    """

    index: int
    kind: str
    seed: int


@dataclass(frozen=True, slots=True)
class HouseholdMixConfig:
    """Knobs controlling the house/resolver sampling.

    Defaults are calibrated against Table 1 of the paper.
    """

    forwarder_fraction: float = 0.165
    googledns_fraction: float = 0.076
    opendns_fraction: float = 0.253
    cloudflare_fraction: float = 0.038
    ttl_violator_fraction: float = 0.26
    overstay_median: float = 1200.0
    overstay_sigma: float = 1.8
    overstay_cap: float = 60000.0
    favorite_site_count: int = 3
    # Fraction of houses whose devices resolve over encrypted DNS (DoT):
    # their lookups vanish from the monitor's view (§3 what-if; the
    # paper's 2019 dataset predates broad deployment, hence 0 default).
    encrypted_dns_fraction: float = 0.0
    min_laptops: int = 1
    max_laptops: int = 3
    min_androids: int = 1
    max_androids: int = 2
    max_iot: int = 2
    p2p_fraction: float = 0.30

    def __post_init__(self) -> None:
        for label, value in (
            ("forwarder_fraction", self.forwarder_fraction),
            ("googledns_fraction", self.googledns_fraction),
            ("opendns_fraction", self.opendns_fraction),
            ("cloudflare_fraction", self.cloudflare_fraction),
            ("ttl_violator_fraction", self.ttl_violator_fraction),
            ("p2p_fraction", self.p2p_fraction),
            ("encrypted_dns_fraction", self.encrypted_dns_fraction),
        ):
            if not 0.0 <= value <= 1.0:
                raise WorkloadError(f"{label} must be in [0, 1], got {value}")


class House:
    """One residence: an external IP, a NAT, and a set of devices."""

    def __init__(
        self,
        index: int,
        ip: str,
        capture: MonitorCapture,
        universe: NameUniverse,
        rng: random.Random,
    ):
        self.index = index
        self.ip = ip
        self.capture = capture
        self.universe = universe
        self.rng = rng
        self.devices: list[Device] = []
        self.resolver_platforms: set[str] = set()
        self.kind = "plain"
        # Sites/hosts the household keeps returning to; devices share
        # these, which is what gives a whole-house cache (§8) its value.
        self.favorite_sites: list = []
        self.favorite_apis: list = []
        self._next_nat_port = NAT_PORT_LOW + (index * 977) % (NAT_PORT_HIGH - NAT_PORT_LOW)

    def nat_port(self) -> int:
        """Allocate the next NAT source port (wraps within the NAT range)."""
        port = self._next_nat_port
        self._next_nat_port += 1
        if self._next_nat_port > NAT_PORT_HIGH:
            self._next_nat_port = NAT_PORT_LOW
        return port

    def __repr__(self) -> str:
        return f"House({self.index}, ip={self.ip!r}, kind={self.kind!r}, devices={len(self.devices)})"


def house_address(index: int) -> str:
    """The external (monitor-visible) IPv4 address of house *index*."""
    if index < 0 or index >= 200 * 200:
        raise WorkloadError(f"house index out of range: {index}")
    return f"10.77.{index // 200}.{10 + index % 200}"


class HouseholdBuilder:
    """Samples houses with devices, stub caches, and resolver choices."""

    def __init__(
        self,
        mix: HouseholdMixConfig,
        resolvers: dict[str, RecursiveResolver],
        universe: NameUniverse,
        capture: MonitorCapture,
        retry: RetryPolicy | None = None,
        stub_cache_capacity: int | None = None,
        stub_cache_policy: str = "lru",
        stub_stale_ttl_s: float = 0.0,
        stub_fd_budget: int | None = None,
        stub_max_queue_wait_s: float = 0.05,
    ):
        missing = {"local", "google", "opendns", "cloudflare"} - set(resolvers)
        if missing:
            raise WorkloadError(f"missing resolver platforms: {sorted(missing)}")
        self.mix = mix
        self.resolvers = resolvers
        self.universe = universe
        self.capture = capture
        self.retry = retry if retry is not None else RetryPolicy()
        # Stub pressure knobs arrive as plain values (not a
        # PressureConfig) to keep the households module import-free of
        # the scenario layer, which imports this one.
        self.stub_cache_capacity = (
            stub_cache_capacity if stub_cache_capacity is not None else 4096
        )
        self.stub_cache_policy = stub_cache_policy
        self.stub_stale_ttl_s = stub_stale_ttl_s
        self.stub_fd_budget = stub_fd_budget
        self.stub_max_queue_wait_s = stub_max_queue_wait_s

    # -- stub cache policies ----------------------------------------------

    def _overstay_policy(self, rng: random.Random):
        """Per-device TTL-violation policy (see §5.2 of the paper)."""
        if rng.random() >= self.mix.ttl_violator_fraction:
            return 0.0
        median = self.mix.overstay_median
        sigma = self.mix.overstay_sigma
        cap = self.mix.overstay_cap
        violator_rng = random.Random(rng.getrandbits(64))

        def overstay(key: CacheKey) -> float:
            return min(cap, lognormal(violator_rng, math.log(median), sigma))

        return overstay

    def _make_stub(
        self,
        upstreams: list[tuple[RecursiveResolver, float]],
        rng: random.Random,
    ) -> StubResolver:
        cache = DnsCache(
            capacity=self.stub_cache_capacity,
            overstay=self._overstay_policy(rng),
            policy=self.stub_cache_policy,
            stale_ttl_s=self.stub_stale_ttl_s,
        )
        budget = (
            ConnectionBudget(self.stub_fd_budget, self.stub_max_queue_wait_s)
            if self.stub_fd_budget is not None
            else None
        )
        return StubResolver(
            upstreams=upstreams,
            cache=cache,
            rng=rng,
            retry=self.retry,
            connection_budget=budget,
        )

    # -- house construction -------------------------------------------------

    def build_house_from_plan(self, plan: HousePlan) -> House:
        """Build one complete house entirely from its fixed plan.

        Every draw comes from ``random.Random(plan.seed)``, so two
        builders (in different shard processes, with different capture
        sinks and resolver views) construct byte-identical houses from
        the same plan.
        """
        index = plan.index
        rng = random.Random(plan.seed)
        house = House(
            index=index,
            ip=house_address(index),
            capture=self.capture,
            universe=self.universe,
            rng=rng,
        )
        house.kind = plan.kind

        # Favorites are drawn uniformly, not by popularity: a household's
        # recurring niche sites are exactly the names a whole-house cache
        # (§8) saves from repeated authoritative resolution.
        house.favorite_sites = [
            rng.choice(self.universe.sites) for _ in range(self.mix.favorite_site_count)
        ]
        house.favorite_apis = [self.universe.pick_api_host(rng) for _ in range(2)]

        laptop_count = rng.randint(self.mix.min_laptops, self.mix.max_laptops)
        android_count = rng.randint(self.mix.min_androids, self.mix.max_androids)
        iot_count = rng.randint(0, self.mix.max_iot)
        has_tv = rng.random() < 0.6

        for i in range(laptop_count):
            device = self._build_device(house, f"laptop{i}", "laptop", rng)
            house.devices.append(device)
        for i in range(android_count):
            device = self._build_device(house, f"android{i}", "android", rng)
            house.devices.append(device)
        for i in range(iot_count):
            device = self._build_device(house, f"iot{i}", "iot", rng)
            house.devices.append(device)
        if has_tv:
            house.devices.append(self._build_device(house, "tv0", "tv", rng))
        if rng.random() < self.mix.p2p_fraction:
            house.devices.append(self._build_device(house, "p2p0", "p2p", rng))

        if rng.random() < self.mix.encrypted_dns_fraction:
            for device in house.devices:
                device.encrypted_dns = True

        house.resolver_platforms = self._house_platforms(house)
        return house

    def _build_device(self, house: House, name: str, kind: str, house_rng: random.Random) -> Device:
        rng = random.Random(house_rng.getrandbits(64))
        upstreams = self._upstreams_for(house.kind, kind)
        stub = self._make_stub(upstreams, rng)
        return Device(
            name=f"h{house.index}-{name}",
            house=house,
            stub=stub,
            rng=rng,
            kind=kind,
        )

    def _upstreams_for(self, house_kind: str, device_kind: str) -> list[tuple[RecursiveResolver, float]]:
        local = self.resolvers["local"]
        google = self.resolvers["google"]
        opendns = self.resolvers["opendns"]
        cloudflare = self.resolvers["cloudflare"]
        if house_kind == "forwarder":
            # An in-home forwarder intercepts every query.
            return [(local, 1.0)]
        if house_kind == "googledns":
            # The router's DHCP hands out Google DNS: the house never
            # touches the ISP resolvers (the 7.6% of Table 1 houses that
            # use Google but not the local platform).
            return [(google, 1.0)]
        if device_kind == "android":
            if house_kind == "cloudflare":
                return [(cloudflare, 0.70), (google, 0.25), (local, 0.05)]
            return [(google, 0.88), (local, 0.12)]
        if house_kind == "opendns":
            return [(opendns, 0.62), (local, 0.38)]
        if house_kind == "cloudflare":
            return [(cloudflare, 0.88), (local, 0.12)]
        return [(local, 1.0)]

    def _house_platforms(self, house: House) -> set[str]:
        platforms: set[str] = set()
        for device in house.devices:
            for resolver, weight in device.stub._upstreams:  # noqa: SLF001 - builder introspection
                if weight > 0:
                    platforms.add(resolver.platform)
        return platforms


def _plan_kinds(mix: HouseholdMixConfig, rng: random.Random, count: int) -> list[str]:
    """Assign house kinds by quota (stratified), shuffled.

    Independent draws make the rare kinds (Cloudflare at 3.8%) far too
    noisy at realistic house counts; quotas keep every scenario faithful
    to Table 1's platform mix.
    """
    quotas = (
        ("forwarder", mix.forwarder_fraction),
        ("googledns", mix.googledns_fraction),
        ("cloudflare", mix.cloudflare_fraction),
        ("opendns", mix.opendns_fraction),
    )
    kinds: list[str] = []
    for kind, fraction in quotas:
        wanted = fraction * count
        n = int(wanted)
        if rng.random() < wanted - n:
            n += 1
        if kind == "cloudflare" and n == 0 and count >= 10:
            n = 1
        kinds.extend([kind] * n)
    kinds = kinds[:count]
    kinds.extend(["plain"] * (count - len(kinds)))
    rng.shuffle(kinds)
    return kinds


def plan_houses(mix: HouseholdMixConfig, rng: random.Random, count: int) -> list[HousePlan]:
    """Fix the composition of *count* houses before any of them is built.

    Consumes the shared stream in exactly the order the serial builder
    historically did — the kind quota draws, then one 64-bit seed per
    house in index order — and freezes the result into
    :class:`HousePlan` entries that shard workers can build from
    independently.
    """
    if count <= 0:
        raise WorkloadError(f"house count must be positive, got {count}")
    kinds = _plan_kinds(mix, rng, count)
    return [
        HousePlan(index=index, kind=kind, seed=rng.getrandbits(64))
        for index, kind in enumerate(kinds)
    ]
