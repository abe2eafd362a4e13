"""Rewritten draws make the same draws.

The simulator's RNG draw sequence is its real API (DESIGN §12): every
golden digest rests on it. Two hot draws are written out by hand rather
than through the calls they replace, and these tests pin each against
its reference formula, float for float:

* :func:`repro.simulation.random.lognormal` against the interpreter's
  own ``random.Random.lognormvariate``, with equal generator state
  afterwards (so a future CPython that changes ``normalvariate`` fails
  here, not in a digest);
* :meth:`FaultPlan.decide`, which reseeds one generator of its own,
  against a fresh ``random.Random(derive_seed(...))`` per query split
  into the four bands.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.simulation.faults import FaultConfig, FaultKind, FaultPlan
from repro.simulation.random import derive_seed, lognormal


@pytest.mark.parametrize("seed", range(40))
def test_lognormal_is_lognormvariate_draw_for_draw(seed):
    params = random.Random(seed)
    mine, reference = random.Random(seed), random.Random(seed)
    for _ in range(500):
        mu = params.choice((0.0, params.uniform(-12.0, 12.0)))
        sigma = params.choice((params.uniform(0.01, 3.0), params.uniform(0.0, 0.01), 1.6))
        assert lognormal(mine, mu, sigma) == reference.lognormvariate(mu, sigma)
    assert mine.getstate() == reference.getstate()


def test_reseeding_one_generator_is_a_fresh_generator():
    """``seed(int)`` resets the whole state, at the 64-bit seed's edges too."""
    reused = random.Random(0)
    for seed in (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 12345678901234567):
        reused.random()
        reused.seed(seed)
        assert reused.random() == random.Random(seed).random()


def reference_decision(plan_seed, config, platform, qname, now, in_outage):
    """The verdict as ``(kind, during_outage)``, from the formula itself.

    Outage windows are the plan's own (:meth:`FaultPlan.in_outage`); the
    per-query draw is a fresh generator per query, as it once was.
    """
    if in_outage:
        return FaultKind.TIMEOUT, True
    bands = (
        (config.timeout_probability, FaultKind.TIMEOUT),
        (config.servfail_probability, FaultKind.SERVFAIL),
        (config.nxdomain_probability, FaultKind.NXDOMAIN),
        (config.truncation_probability, FaultKind.TRUNCATION),
    )
    if sum(width for width, _ in bands) <= 0:
        return FaultKind.NONE, False
    draw = random.Random(derive_seed(plan_seed, "query", platform, qname, f"{now:.6f}")).random()
    for width, kind in bands:
        if draw < width:
            return kind, False
        draw -= width
    return FaultKind.NONE, False


PLATFORMS = ("google", "local", "plätform-ü", "云")
CONFIGS = {
    "every-band": FaultConfig(
        timeout_probability=0.2,
        servfail_probability=0.15,
        nxdomain_probability=0.25,
        truncation_probability=0.1,
        outage_rate_per_hour=2.0,
        outage_duration_s=300.0,
    ),
    "all-faults": FaultConfig(timeout_probability=0.5, truncation_probability=0.5),
    "outages-only": FaultConfig(outage_rate_per_hour=6.0, outage_duration_s=600.0),
    "fault-free": FaultConfig(),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("plan_seed", [0, 7, 2**40 + 3])
def test_decide_follows_the_reference_formula(name, plan_seed):
    config = CONFIGS[name]
    horizon_s = 6 * 3600.0
    plan = FaultPlan(config, plan_seed, platforms=PLATFORMS, horizon_s=horizon_s)
    # A pickled plan (as a fork or spawn worker would hold) decides alike.
    copy = pickle.loads(pickle.dumps(plan))
    queries = random.Random(plan_seed)
    seen = set()
    for _ in range(1500):
        platform = queries.choice(PLATFORMS)
        qname = queries.choice(("www.example.com", "cdn.exämple.net", f"h{queries.randrange(99)}.io"))
        now = queries.choice(
            (
                queries.uniform(-3600.0, 0.0),  # warm-up lookups run at negative times
                queries.uniform(0.0, horizon_s),
                float(queries.randrange(int(horizon_s))),
                queries.randrange(int(horizon_s)) + 0.0000005,  # rounds at the sixth digit
            )
        )
        expected = reference_decision(
            plan_seed, config, platform, qname, now, plan.in_outage(platform, now)
        )
        for decider in (plan, copy):
            decision = decider.decide(platform, qname, now)
            assert (decision.kind, decision.during_outage) == expected
        seen.add(expected)
    if name == "every-band":
        assert {kind for kind, _ in seen} == set(FaultKind)
        assert (FaultKind.TIMEOUT, True) in seen
