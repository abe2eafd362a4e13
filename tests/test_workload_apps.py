"""Unit tests for the application models in repro.workload.apps."""

import random

import pytest

from repro.dns.cache import DnsCache
from repro.dns.resolver import RecursiveResolver, ResolverProfile, StubResolver
from repro.monitor.capture import MonitorCapture
from repro.monitor.records import Proto
from repro.simulation.engine import SimulationEngine
from repro.simulation.latency import LatencyModel
from repro.workload.apps import (
    ApiPollingModel,
    BrowsingConfig,
    ConnectivityCheckModel,
    IoTHardcodedModel,
    P2PModel,
    VideoStreamingModel,
    WebBrowsingModel,
    schedule_poisson,
)
from repro.workload.devices import Device
from repro.workload.households import House
from repro.workload.namespace import (
    ALARMNET_SERVERS,
    CONNECTIVITY_CHECK_HOST,
    OOMA_NTP_SERVERS,
    RETIRED_NTP_SERVER,
    NameUniverse,
)


def quiet(base):
    return LatencyModel(base_rtt_s=base, jitter_median=0.0001, jitter_sigma=0.1)


@pytest.fixture()
def world():
    universe = NameUniverse(random.Random(5), site_count=15, cdn_host_count=4, ads_host_count=3)
    profile = ResolverProfile(
        platform="local", address="192.168.200.10",
        client_latency_model=quiet(0.002), auth_latency_model=quiet(0.02),
    )
    resolver = RecursiveResolver(profile, universe.hierarchy, rng=random.Random(6))
    capture = MonitorCapture()
    house = House(0, "10.77.0.10", capture, universe, random.Random(7))
    house.favorite_sites = [universe.sites[0], universe.sites[1]]
    house.favorite_apis = [universe.api_hosts[0]]
    stub = StubResolver([(resolver, 1.0)], cache=DnsCache(), rng=random.Random(8))
    device = Device("d0", house, stub, random.Random(9), kind="laptop")
    house.devices.append(device)
    engine = SimulationEngine()
    return universe, house, device, capture, engine


HORIZON = 4 * 3600.0


class TestSchedulePoisson:
    def test_rate_without_diurnal(self):
        engine = SimulationEngine()
        count = schedule_poisson(
            engine, random.Random(1), peak_rate_per_hour=10.0,
            start=0.0, end=3600.0, callback=lambda when: None, diurnal=False,
        )
        assert 4 <= count <= 20

    def test_diurnal_thinning_reduces_rate(self):
        engine = SimulationEngine()
        thinned = schedule_poisson(
            engine, random.Random(1), 10.0, 0.0, 36000.0, lambda when: None, diurnal=True
        )
        engine2 = SimulationEngine()
        full = schedule_poisson(
            engine2, random.Random(1), 10.0, 0.0, 36000.0, lambda when: None, diurnal=False
        )
        assert thinned < full

    def test_zero_rate(self):
        engine = SimulationEngine()
        assert schedule_poisson(engine, random.Random(1), 0.0, 0.0, 1000.0, lambda w: None) == 0


class TestWebBrowsing:
    def test_sessions_generate_traffic(self, world):
        universe, house, device, capture, engine = world
        model = WebBrowsingModel(universe, BrowsingConfig(sessions_per_hour=3.0))
        model.schedule(device, engine, 0.0, HORIZON)
        engine.run()
        assert len(capture.trace.conns) > 10
        assert len(capture.trace.dns) > 5

    def test_web_conns_target_https(self, world):
        universe, house, device, capture, engine = world
        model = WebBrowsingModel(universe, BrowsingConfig(sessions_per_hour=3.0))
        model.schedule(device, engine, 0.0, HORIZON)
        engine.run()
        assert all(c.resp_p == 443 for c in capture.trace.conns)

    def test_prefetching_produces_unused_lookups(self, world):
        universe, house, device, capture, engine = world
        config = BrowsingConfig(sessions_per_hour=3.0, click_probability=0.0)
        WebBrowsingModel(universe, config).schedule(device, engine, 0.0, HORIZON)
        engine.run()
        queried = {record.query for record in capture.trace.dns}
        contacted = {c.resp_h for c in capture.trace.conns}
        unused = 0
        for record in capture.trace.dns:
            if not (set(record.addresses()) & contacted):
                unused += 1
        assert unused > 0, f"expected speculative lookups among {len(queried)} names"

    def test_zero_rate_schedules_nothing(self, world):
        universe, house, device, capture, engine = world
        WebBrowsingModel(universe, BrowsingConfig(sessions_per_hour=0.0)).schedule(
            device, engine, 0.0, HORIZON
        )
        assert engine.run() == 0


class TestApiPolling:
    def test_polls_are_periodic(self, world):
        universe, house, device, capture, engine = world
        ApiPollingModel(universe, period_min=300.0, period_max=300.0).schedule(
            device, engine, 0.0, HORIZON
        )
        engine.run()
        conns = capture.trace.conns
        assert len(conns) >= 10
        gaps = [b.ts - a.ts for a, b in zip(conns, conns[1:])]
        assert all(240.0 < gap < 360.0 for gap in gaps)

    def test_polls_hit_one_host(self, world):
        universe, house, device, capture, engine = world
        ApiPollingModel(universe).schedule(device, engine, 0.0, HORIZON)
        engine.run()
        assert len({c.resp_h for c in capture.trace.conns}) <= 2


class TestVideo:
    def test_streaming_sessions_have_segments(self, world):
        universe, house, device, capture, engine = world
        VideoStreamingModel(universe, sessions_per_hour=2.0).schedule(device, engine, 0.0, HORIZON)
        engine.run()
        assert capture.trace.conns
        # Segments reuse the cached mapping: far fewer lookups than conns.
        assert len(capture.trace.dns) < len(capture.trace.conns)

    def test_video_bytes_are_large(self, world):
        universe, house, device, capture, engine = world
        VideoStreamingModel(universe, sessions_per_hour=2.0).schedule(device, engine, 0.0, HORIZON)
        engine.run()
        assert max(c.resp_bytes for c in capture.trace.conns) > 1_000_000


class TestConnectivityCheck:
    def test_probes_target_gstatic(self, world):
        universe, house, device, capture, engine = world
        ConnectivityCheckModel(universe, period_median=600.0).schedule(device, engine, 0.0, HORIZON)
        engine.run()
        assert capture.trace.dns
        assert all(r.query == CONNECTIVITY_CHECK_HOST for r in capture.trace.dns)
        assert all(c.resp_bytes < 20000 for c in capture.trace.conns)


class TestP2P:
    def test_high_ports_no_dns(self, world):
        universe, house, device, capture, engine = world
        P2PModel(bursts_per_hour=6.0).schedule(device, engine, 0.0, HORIZON)
        engine.run()
        assert capture.trace.dns == []
        assert capture.trace.conns
        assert all(c.is_high_port_pair() for c in capture.trace.conns)

    def test_mixed_protocols(self, world):
        universe, house, device, capture, engine = world
        P2PModel(bursts_per_hour=10.0).schedule(device, engine, 0.0, HORIZON)
        engine.run()
        protos = {c.proto for c in capture.trace.conns}
        assert protos == {Proto.TCP, Proto.UDP}


class TestIoT:
    def test_tplink_failed_ntp(self, world):
        universe, house, device, capture, engine = world
        IoTHardcodedModel("tplink").schedule(device, engine, 0.0, HORIZON)
        engine.run()
        assert capture.trace.conns
        for c in capture.trace.conns:
            assert c.resp_h == RETIRED_NTP_SERVER
            assert c.conn_state == "S0" and c.resp_bytes == 0

    def test_ooma_ntp_succeeds(self, world):
        universe, house, device, capture, engine = world
        IoTHardcodedModel("ooma").schedule(device, engine, 0.0, HORIZON)
        engine.run()
        for c in capture.trace.conns:
            assert c.resp_h in OOMA_NTP_SERVERS
            assert c.resp_bytes > 0

    def test_alarmnet_tls(self, world):
        universe, house, device, capture, engine = world
        IoTHardcodedModel("alarmnet").schedule(device, engine, 0.0, HORIZON)
        engine.run()
        for c in capture.trace.conns:
            assert c.resp_h in ALARMNET_SERVERS
            assert c.resp_p == 443

    def test_unknown_flavor_rejected(self):
        with pytest.raises(ValueError):
            IoTHardcodedModel("toaster")
