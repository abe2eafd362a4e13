"""Application models: the traffic sources running on devices.

Each model schedules events on the simulation engine and uses the
device's ``resolve``/``open_connections`` primitives. Together they
produce the behavioural ingredients the paper measures:

* :class:`WebBrowsingModel` — sessions of page visits with parallel
  object fetches, shared third-party subresources (the local-cache mass),
  link prefetching (the `P` class and the unused-lookup economics of
  §5.2), and clicks on prefetched links.
* :class:`ApiPollingModel` — periodic polls against short-TTL API hosts
  (repeat lookups, shared-cache hits).
* :class:`VideoStreamingModel` — long, fat transfers that dilute DNS'
  relative contribution (§6).
* :class:`ConnectivityCheckModel` — Android captive-portal probes of
  ``connectivitycheck.gstatic.com`` via Google's resolver, the §7
  artifact that skews Google's throughput line.
* :class:`P2PModel` — high-port peer traffic with no DNS (class `N`).
* :class:`IoTHardcodedModel` — NTP/alarm traffic to hard-coded IPs
  (the §5.1 anatomy: retired NTP server, Ooma, AlarmNet).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.monitor.records import Proto
from repro.simulation.engine import SimulationEngine
from repro.simulation.random import lognormal
from repro.workload.devices import Device
from repro.workload.namespace import (
    ALARMNET_SERVERS,
    CONNECTIVITY_CHECK_HOST,
    OOMA_NTP_SERVERS,
    RETIRED_NTP_SERVER,
    NameUniverse,
    SiteProfile,
)

SECONDS_PER_DAY = 86400.0


def diurnal_factor(t: float) -> float:
    """Activity multiplier over the day: quiet nights, busy evenings."""
    # Peak around 20:00 local, trough around 08:00.
    phase = 2.0 * math.pi * ((t % SECONDS_PER_DAY) / SECONDS_PER_DAY - 0.58)
    return 0.35 + 0.65 * (1.0 + math.sin(phase)) / 2.0


def schedule_poisson(
    engine: SimulationEngine,
    rng: random.Random,
    peak_rate_per_hour: float,
    start: float,
    end: float,
    callback,
    diurnal: bool = True,
) -> int:
    """Schedule Poisson events, thinned by the diurnal curve.

    Returns the number of events scheduled.
    """
    if peak_rate_per_hour <= 0:
        return 0
    rate_per_second = peak_rate_per_hour / 3600.0
    scheduled = 0
    t = start
    while True:
        t += rng.expovariate(rate_per_second)
        if t >= end:
            return scheduled
        if diurnal and rng.random() > diurnal_factor(t):
            continue
        engine.schedule_at(t, callback)
        scheduled += 1


@dataclass(frozen=True, slots=True)
class BrowsingConfig:
    """Knobs of the web-browsing model (defaults calibrated to the paper)."""

    sessions_per_hour: float = 1.1
    pages_per_session_mean: float = 4.0
    interpage_median: float = 150.0
    interpage_sigma: float = 1.0
    primary_conns_min: int = 1
    primary_conns_max: int = 2
    subresources_min: int = 3
    subresources_max: int = 7
    prefetch_links_min: int = 4
    prefetch_links_max: int = 6
    click_probability: float = 0.95
    click_delay_median_s: float = 260.0
    click_delay_sigma: float = 1.1
    favorite_probability: float = 0.75


class WebBrowsingModel:
    """Sessions of page visits on one device."""

    def __init__(self, universe: NameUniverse, config: BrowsingConfig | None = None, rate_scale: float = 1.0):
        self.universe = universe
        self.config = config if config is not None else BrowsingConfig()
        self.rate_scale = rate_scale

    def schedule(
        self,
        device: Device,
        engine: SimulationEngine,
        start: float,
        end: float,
        rng: random.Random | None = None,
        diurnal: bool = True,
    ) -> None:
        """Schedule this device's browsing sessions over [start, end).

        ``rng`` overrides the arrival stream (the sessions themselves
        still draw from the device's stream); flash-crowd windows use a
        derived stream here so enabling them never perturbs the
        device's base schedule. ``diurnal=False`` skips the
        time-of-day thinning — a flash crowd is event-driven, not
        circadian.
        """
        schedule_poisson(
            engine,
            rng if rng is not None else device.rng,
            self.config.sessions_per_hour * self.rate_scale,
            start,
            end,
            lambda when: self._run_session(device, engine, when, end),
            diurnal=diurnal,
        )

    # -- session/page machinery -------------------------------------------

    def _run_session(self, device: Device, engine: SimulationEngine, when: float, end: float) -> None:
        favorites = device.house.favorite_sites
        if favorites and device.rng.random() < self.config.favorite_probability:
            site = device.rng.choice(favorites)
        else:
            site = self.universe.pick_site(device.rng)
        pages = 1 + _geometric(device.rng, self.config.pages_per_session_mean)
        self._visit_page(device, engine, site, when, end, pages_left=pages)

    def _visit_page(
        self,
        device: Device,
        engine: SimulationEngine,
        site: SiteProfile,
        when: float,
        end: float,
        pages_left: int,
        click_depth: int = 0,
        retried: bool = False,
    ) -> None:
        config = self.config
        rng = device.rng
        resolution = device.resolve(site.primary.hostname, when)
        if resolution.failed and resolution.hard_failure and not retried:
            # The lookup timed out or SERVFAILed with nothing cached to
            # fall back on: the user (or browser) reloads the page once a
            # few seconds later. A definitive NXDOMAIN is never retried.
            retry_at = resolution.completed_at + rng.uniform(1.0, 4.0)
            if retry_at < end:
                engine.schedule_at(
                    retry_at,
                    lambda when2: self._visit_page(
                        device,
                        engine,
                        site,
                        when2,
                        end,
                        pages_left=pages_left,
                        click_depth=click_depth,
                        retried=True,
                    ),
                )
            return
        if not resolution.failed:
            primary_conns = rng.randint(config.primary_conns_min, config.primary_conns_max)
            device.open_connections(site.primary, resolution, count=primary_conns, parallel=True)
            # Lazy-loaded objects and keep-alive re-opens arrive seconds
            # later off the now-cached mapping.
            if rng.random() < 0.55:
                device.followup_connections(
                    site.primary, resolution, count=1, delay_min_s=10.0, delay_max_s=150.0
                )
        # The parser discovers subresources shortly after the primary fetch.
        parse_at = resolution.completed_at + rng.uniform(0.08, 0.6)
        wanted = rng.randint(config.subresources_min, config.subresources_max)
        chosen = list(site.subresources)
        rng.shuffle(chosen)
        for host in chosen[:wanted]:
            sub_resolution = device.resolve(host.hostname, parse_at)
            if not sub_resolution.failed:
                device.open_connections(
                    host,
                    sub_resolution,
                    count=2 if rng.random() < 0.3 else 1,
                    parallel=True,
                )
                if rng.random() < 0.30:
                    device.followup_connections(
                        host, sub_resolution, count=1, delay_min_s=10.0, delay_max_s=150.0
                    )
            parse_at = max(parse_at + rng.uniform(0.01, 0.2), sub_resolution.completed_at)
        # Speculative DNS prefetching of outbound links (§5.2).
        link_count = rng.randint(config.prefetch_links_min, config.prefetch_links_max)
        links = self.universe.pick_link_targets(rng, link_count, exclude=site.primary.hostname)
        prefetch_at = parse_at + rng.uniform(0.05, 0.4)
        for link in links:
            device.prefetch(link.primary.hostname, prefetch_at)
        # Maybe click one prefetched link, starting a page visit there.
        # Click chains are depth-limited to keep the per-session branching
        # process subcritical (a session must not spawn sessions forever).
        if links and click_depth < 4 and rng.random() < config.click_probability:
            target = rng.choice(links)
            delay = lognormal(rng, math.log(config.click_delay_median_s), config.click_delay_sigma)
            click_at = prefetch_at + delay
            if click_at < end:
                engine.schedule_at(
                    click_at,
                    lambda when2: self._visit_page(
                        device,
                        engine,
                        target,
                        when2,
                        end,
                        pages_left=1,
                        click_depth=click_depth + 1,
                    ),
                )
        # Next page of this session, on the same site.
        if pages_left > 1:
            gap = lognormal(rng, math.log(config.interpage_median), config.interpage_sigma)
            next_at = when + gap
            if next_at < end:
                engine.schedule_at(
                    next_at,
                    lambda when2: self._visit_page(
                        device,
                        engine,
                        site,
                        when2,
                        end,
                        pages_left=pages_left - 1,
                        click_depth=click_depth,
                    ),
                )


class ApiPollingModel:
    """Periodic polling of an API endpoint (mobile apps, IoT clouds)."""

    def __init__(self, universe: NameUniverse, period_min: float = 180.0, period_max: float = 900.0):
        self.universe = universe
        self.period_min = period_min
        self.period_max = period_max

    def schedule(self, device: Device, engine: SimulationEngine, start: float, end: float) -> None:
        favorites = device.house.favorite_apis
        if favorites and device.rng.random() < 0.65:
            host = device.rng.choice(favorites)
        else:
            host = self.universe.pick_api_host(device.rng)
        period = device.rng.uniform(self.period_min, self.period_max)
        first = start + device.rng.uniform(0, period)

        def poll(when: float) -> None:
            resolution = device.resolve(host.hostname, when)
            if not resolution.failed:
                device.open_connections(host, resolution, count=1, size_scale=0.3)
            next_at = when + period * device.rng.uniform(0.9, 1.1)
            if next_at < end:
                engine.schedule_at(next_at, poll)

        if first < end:
            engine.schedule_at(first, poll)


class VideoStreamingModel:
    """Occasional long streaming sessions with chunked segment fetches."""

    def __init__(self, universe: NameUniverse, sessions_per_hour: float = 0.12):
        self.universe = universe
        self.sessions_per_hour = sessions_per_hour

    def schedule(self, device: Device, engine: SimulationEngine, start: float, end: float) -> None:
        schedule_poisson(
            engine,
            device.rng,
            self.sessions_per_hour,
            start,
            end,
            lambda when: self._stream(device, engine, when, end),
        )

    def _stream(self, device: Device, engine: SimulationEngine, when: float, end: float) -> None:
        host = self.universe.pick_video_host(device.rng)
        rng = device.rng
        resolution = device.resolve(host.hostname, when)
        if resolution.failed:
            return
        device.open_connections(host, resolution, count=1, size_scale=1.0)
        # Segment fetches continue on the (cached) mapping for a while.
        segments = rng.randint(2, 8)
        t = resolution.completed_at
        for _ in range(segments):
            t += rng.uniform(20.0, 120.0)
            if t >= end:
                break
            engine.schedule_at(t, lambda when2: self._segment(device, host, when2))

    def _segment(self, device: Device, host, when: float) -> None:
        resolution = device.resolve(host.hostname, when)
        if not resolution.failed:
            device.open_connections(host, resolution, count=1, size_scale=0.25)


class ConnectivityCheckModel:
    """Android captive-portal probing of connectivitycheck.gstatic.com."""

    def __init__(self, universe: NameUniverse, period_median: float = 420.0):
        self.universe = universe
        self.period_median = period_median

    def schedule(self, device: Device, engine: SimulationEngine, start: float, end: float) -> None:
        host = self.universe.host(CONNECTIVITY_CHECK_HOST)
        rng = device.rng

        def probe(when: float) -> None:
            resolution = device.resolve(host.hostname, when)
            if not resolution.failed:
                device.open_connections(host, resolution, count=1, size_scale=1.0, port=443)
            next_at = when + lognormal(rng, math.log(self.period_median), 0.5)
            if next_at < end:
                engine.schedule_at(next_at, probe)

        first = start + rng.uniform(0, self.period_median)
        if first < end:
            engine.schedule_at(first, probe)


class P2PModel:
    """Peer-to-peer traffic: high ports both sides, no DNS (class N)."""

    def __init__(self, bursts_per_hour: float = 11.0, peers_min: int = 3, peers_max: int = 12):
        self.bursts_per_hour = bursts_per_hour
        self.peers_min = peers_min
        self.peers_max = peers_max

    def schedule(self, device: Device, engine: SimulationEngine, start: float, end: float) -> None:
        schedule_poisson(
            engine,
            device.rng,
            self.bursts_per_hour,
            start,
            end,
            lambda when: self._burst(device, when),
            diurnal=False,
        )

    def _burst(self, device: Device, when: float) -> None:
        rng = device.rng
        peers = rng.randint(self.peers_min, self.peers_max)
        t = when
        for _ in range(peers):
            peer_ip = f"{rng.randint(70, 95)}.{rng.randint(1, 254)}.{rng.randint(1, 254)}.{rng.randint(1, 254)}"
            peer_port = rng.randint(10000, 65000)
            proto = Proto.UDP if rng.random() < 0.45 else Proto.TCP
            size = lognormal(rng, math.log(8e4), 1.6)
            duration = rng.uniform(1.0, 240.0)
            device.connect_hardcoded(
                now=t,
                address=peer_ip,
                port=peer_port,
                proto=proto,
                duration_s=duration,
                orig_bytes=int(size * rng.uniform(0.2, 1.0)),
                resp_bytes=int(size),
                service="-",
            )
            t += rng.uniform(0.05, 4.0)


class IoTHardcodedModel:
    """Small-device traffic to hard-coded IPs (§5.1's N-class anatomy)."""

    def __init__(self, flavor: str = "tplink"):
        if flavor not in ("tplink", "ooma", "alarmnet"):
            raise ValueError(f"unknown IoT flavor {flavor!r}")
        self.flavor = flavor

    def schedule(self, device: Device, engine: SimulationEngine, start: float, end: float) -> None:
        rng = device.rng
        if self.flavor == "tplink":
            period = rng.uniform(600.0, 1800.0)
            action = self._tplink_ntp
        elif self.flavor == "ooma":
            period = rng.uniform(1800.0, 5400.0)
            action = self._ooma_ntp
        else:
            period = rng.uniform(900.0, 3600.0)
            action = self._alarmnet

        def fire(when: float) -> None:
            action(device, when)
            next_at = when + period * rng.uniform(0.85, 1.15)
            if next_at < end:
                engine.schedule_at(next_at, fire)

        first = start + rng.uniform(0, period)
        if first < end:
            engine.schedule_at(first, fire)

    def _tplink_ntp(self, device: Device, when: float) -> None:
        # The retired public NTP server: queries go unanswered (state S0).
        device.connect_hardcoded(
            now=when,
            address=RETIRED_NTP_SERVER,
            port=123,
            proto=Proto.UDP,
            duration_s=0.0,
            orig_bytes=48,
            resp_bytes=0,
            service="ntp",
            conn_state="S0",
        )

    def _ooma_ntp(self, device: Device, when: float) -> None:
        device.connect_hardcoded(
            now=when,
            address=device.rng.choice(OOMA_NTP_SERVERS),
            port=123,
            proto=Proto.UDP,
            duration_s=device.rng.uniform(0.01, 0.08),
            orig_bytes=48,
            resp_bytes=48,
            service="ntp",
        )

    def _alarmnet(self, device: Device, when: float) -> None:
        device.connect_hardcoded(
            now=when,
            address=device.rng.choice(ALARMNET_SERVERS),
            port=443,
            proto=Proto.TCP,
            duration_s=device.rng.uniform(0.2, 3.0),
            orig_bytes=device.rng.randint(500, 4000),
            resp_bytes=device.rng.randint(500, 6000),
            service="ssl",
        )


def _geometric(rng: random.Random, mean: float) -> int:
    """A geometric draw with the given mean (support from 0)."""
    if mean <= 0:
        return 0
    p = 1.0 / (1.0 + mean)
    count = 0
    while rng.random() > p and count < 64:
        count += 1
    return count
