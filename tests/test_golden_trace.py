"""Golden trace-digest regression tests: generation is byte-frozen.

The digests below pin the *per-house decomposition* baseline: each house
simulates against its own resolver views (cross-house cache warming
folded into the statistical background model — see
``TrafficGenerator._view_profile``), which is what makes intra-scenario
sharding deterministic. They were re-pinned when that decomposition
landed (the previous pins froze the shared-resolver serial engine, whose
cross-house cache coupling made sharded generation impossible). The
digests cover the full record streams — every timestamp rendered with
``repr`` so even a last-bit float change flips the digest. Any future
change to generation that perturbs a single output byte for these fixed
seeds fails here immediately; intentional behaviour changes must re-pin
the digests and say so in the commit.

The scenarios are deliberately tiny (a few houses, one simulated hour,
a shrunken name universe) so all four run in well under a second. The
parity tests below additionally pin the sharding contract itself: the
digest is invariant across shard counts for default, fault, pressure
and warm-up scenario variants.
"""

import pytest

from repro.core.parallel import PressureStats
from repro.monitor.capture import trace_digest
from repro.workload.generate import generate_trace, generate_trace_with_pressure
from repro.workload.scenario import (
    FaultConfig,
    PressureConfig,
    ScenarioConfig,
    UniverseConfig,
)

#: Shrunken universe shared by all golden scenarios.
_UNIVERSE = UniverseConfig(site_count=30, cdn_host_count=8, ads_host_count=5)

#: Serve-stale caches on both sides under faults, fd budgets and flash
#: crowds: the only pin that reaches the serve-stale victim rule (the
#: pressure parity variant below runs LRU caches).
SERVE_STALE_PIN = (
    "seed42_serve_stale",
    ScenarioConfig(
        houses=3,
        duration=3600.0,
        seed=42,
        universe=_UNIVERSE,
        faults=FaultConfig(timeout_probability=0.02, servfail_probability=0.02),
        pressure=PressureConfig(
            stub_cache_capacity=16,
            stub_cache_policy="serve-stale",
            stub_stale_ttl_s=900.0,
            stub_fd_budget=3,
            resolver_cache_capacity=48,
            resolver_cache_policy="serve-stale",
            resolver_stale_ttl_s=900.0,
            resolver_fd_budget=8,
            flash_crowd_rate_per_hour=4.0,
            flash_crowd_duration_s=120.0,
            flash_crowd_intensity=4.0,
        ),
    ),
    "461b4c9ada06a87076b389db1790e6de40ef54312ab40b9373e6247cb5267f3f",
)

GOLDEN = (
    (
        "seed42",
        ScenarioConfig(houses=3, duration=3600.0, seed=42, universe=_UNIVERSE),
        "a6eeb124aeaa68d7c58b47ff8549a080eeb846d1d635643bb929f14ee0f8aa22",
    ),
    (
        "seed7_warmup",
        ScenarioConfig(
            houses=2, duration=3600.0, warmup=600.0, seed=7, universe=_UNIVERSE
        ),
        "fddff8f4672426315d81d1e0212c023ded41cec285ab21e8978095e3e840b4b7",
    ),
    (
        "seed11_faults",
        ScenarioConfig(
            houses=3,
            duration=3600.0,
            seed=11,
            universe=_UNIVERSE,
            faults=FaultConfig(
                timeout_probability=0.01,
                servfail_probability=0.01,
                nxdomain_probability=0.005,
                truncation_probability=0.005,
            ),
        ),
        "330b2275a973f79de2fb8bb2df11cbffc2f1c748e7c2ff032762dd9377b6ab3c",
    ),
    SERVE_STALE_PIN,
)

#: The pressure counters of ``seed42_serve_stale``: evictions, stale
#: serves and stale expirations count the victim rule's choices.
SERVE_STALE_STATS = PressureStats(
    stub_lookups=856,
    stub_hits=200,
    stub_evictions=475,
    stub_stale_serves=56,
    stub_stale_expirations=16,
    stub_admitted=568,
    stub_queued=80,
    stub_shed=8,
    resolver_lookups=1249,
    resolver_hits=882,
    resolver_evictions=874,
    resolver_admitted=666,
    resolver_queued=0,
    resolver_refused=0,
)


@pytest.mark.parametrize(
    "config,expected",
    [(config, expected) for _, config, expected in GOLDEN],
    ids=[name for name, _, _ in GOLDEN],
)
def test_generation_matches_pinned_digest(config, expected):
    assert trace_digest(generate_trace(config)) == expected


@pytest.mark.parametrize("shards", [None, 3])
def test_serve_stale_pin_holds_with_its_counters(shards):
    _, config, expected = SERVE_STALE_PIN
    trace, stats = generate_trace_with_pressure(config, shards=shards)
    assert trace_digest(trace) == expected
    assert stats == SERVE_STALE_STATS


def test_digest_is_stable_across_runs():
    config = GOLDEN[0][1]
    assert trace_digest(generate_trace(config)) == trace_digest(generate_trace(config))


def test_digest_distinguishes_seeds():
    base = GOLDEN[0][1]
    other = ScenarioConfig(
        houses=base.houses, duration=base.duration, seed=base.seed + 1, universe=_UNIVERSE
    )
    assert trace_digest(generate_trace(base)) != trace_digest(generate_trace(other))


# -- shard-count parity ------------------------------------------------------
#
# The tentpole contract of intra-scenario sharding: partitioning the
# houses into any number of shards — including more shards than a
# worker will ever run in parallel — produces the byte-identical trace.
# The 8-house config matches the benchmark's golden scenario shape
# (scaled down in duration so the whole grid runs in seconds); the
# variants cover the code paths that could plausibly diverge under
# sharding (fault plans, pressure slicing + flash crowds, the capture's
# warm-up).

_PARITY_VARIANTS = (
    (
        "default",
        ScenarioConfig(houses=8, duration=900.0, seed=1, universe=_UNIVERSE),
    ),
    (
        "faults",
        ScenarioConfig(
            houses=8,
            duration=900.0,
            seed=1,
            universe=_UNIVERSE,
            faults=FaultConfig(
                timeout_probability=0.01,
                servfail_probability=0.01,
                nxdomain_probability=0.005,
                truncation_probability=0.005,
            ),
        ),
    ),
    (
        "pressure",
        ScenarioConfig(
            houses=8,
            duration=900.0,
            seed=1,
            universe=_UNIVERSE,
            pressure=PressureConfig(
                stub_cache_capacity=4,
                resolver_cache_capacity=512,
                resolver_fd_budget=64,
                flash_crowd_rate_per_hour=1.0,
            ),
        ),
    ),
    (
        "warmup",
        ScenarioConfig(houses=8, duration=900.0, warmup=600.0, seed=1, universe=_UNIVERSE),
    ),
)


@pytest.mark.parametrize(
    "config", [config for _, config in _PARITY_VARIANTS],
    ids=[name for name, _ in _PARITY_VARIANTS],
)
def test_digest_invariant_across_shard_counts(config):
    serial = trace_digest(generate_trace(config))
    for shards in (1, 2, 4, 8):
        assert trace_digest(generate_trace(config, shards=shards)) == serial, (
            f"shards={shards} diverged from the serial digest"
        )


def test_pressure_stats_invariant_across_shard_counts():
    config = _PARITY_VARIANTS[2][1]
    serial_trace, serial_stats = generate_trace_with_pressure(config)
    for shards in (2, 8):
        trace, stats = generate_trace_with_pressure(config, shards=shards)
        assert trace_digest(trace) == trace_digest(serial_trace)
        assert stats == serial_stats


def test_sharded_fork_fanout_matches_serial(monkeypatch):
    """The fork worker pool produces the byte-identical merged trace."""
    import repro.core.parallel as parallel_mod

    config = _PARITY_VARIANTS[0][1]
    serial = trace_digest(generate_trace(config))
    monkeypatch.setattr(parallel_mod, "_available_cpus", lambda: 4)
    assert trace_digest(generate_trace(config, shards=4, workers=4)) == serial
