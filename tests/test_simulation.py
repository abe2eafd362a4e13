"""Tests for repro.simulation: engine determinism, latency, RNG streams."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simulation.engine import SimulationEngine
from repro.simulation.latency import (
    LatencyModel,
    authoritative_latency,
    lan_latency,
    metro_latency,
)
from repro.simulation.random import (
    RandomStreams,
    derive_seed,
    poisson_arrivals,
    weighted_choice,
    zipf_weights,
)


class TestEngine:
    def test_events_fire_in_time_order(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(5.0, lambda when: fired.append("b"))
        engine.schedule_at(1.0, lambda when: fired.append("a"))
        engine.schedule_at(9.0, lambda when: fired.append("c"))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_insertion_order(self):
        engine = SimulationEngine()
        fired = []
        for label in "abc":
            engine.schedule_at(1.0, lambda when, label=label: fired.append(label))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_now_advances(self):
        engine = SimulationEngine()
        seen = []
        engine.schedule_at(3.5, seen.append)
        engine.run()
        assert seen == [3.5]
        with pytest.raises(SimulationError):
            engine.schedule_at(3.0, seen.append)

    def test_run_until_stops_before_later_events(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(1.0, fired.append)
        engine.schedule_at(10.0, fired.append)
        assert engine.run(until=5.0) == 1
        assert fired == [1.0]
        # Time advanced to *until*: an event before it is in the past.
        with pytest.raises(SimulationError):
            engine.schedule_at(4.0, fired.append)
        engine.schedule_at(5.0, fired.append)
        assert engine.run() == 2
        assert fired == [1.0, 5.0, 10.0]

    def test_events_can_schedule_events(self):
        engine = SimulationEngine()
        fired = []

        def first(when):
            fired.append(("first", when))
            engine.schedule_at(when + 1.0, lambda later: fired.append(("second", later)))

        engine.schedule_at(1.0, first)
        assert engine.run() == 2
        assert fired == [("first", 1.0), ("second", 2.0)]

    def test_cannot_schedule_in_the_past(self):
        engine = SimulationEngine()
        engine.run(until=10.0)
        with pytest.raises(SimulationError):
            engine.schedule_at(5.0, lambda when: None)
        engine.schedule_at(10.0, lambda when: None)

    def test_reentrant_run_rejected(self):
        engine = SimulationEngine()

        def evil(when):
            engine.run()

        engine.schedule_at(1.0, evil)
        with pytest.raises(SimulationError):
            engine.run()

    @settings(max_examples=200, deadline=None)
    @given(
        events=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.lists(st.integers(min_value=0, max_value=3), max_size=3),
            ),
            min_size=1,
            max_size=30,
        ),
        until=st.integers(min_value=0, max_value=12),
        stale=st.integers(min_value=0, max_value=12),
    )
    def test_schedules_fire_in_time_then_insertion_order(self, events, until, stale):
        """Random schedules with ties and events scheduled from callbacks:
        each callback receives its own time, events fire in ``(time,
        insertion)`` order, ``run(until)`` fires exactly those at or before
        *until* and leaves the rest to the next ``run``, and a time before
        the current one is refused."""
        engine = SimulationEngine()
        fired = []
        scheduled = []

        def schedule(when, children):
            index = len(scheduled)
            scheduled.append(when)

            def callback(now):
                fired.append((index, now))
                for delay in children:
                    schedule(now + delay, ())

            engine.schedule_at(when, callback)

        for slot, children in events:
            schedule(float(slot), children)
        first = engine.run(until=float(until))
        second_from = len(fired)
        if stale < until:
            with pytest.raises(SimulationError):
                engine.schedule_at(float(stale), lambda when: None)
        second = engine.run()
        assert first == second_from and first + second == len(fired) == len(scheduled)
        assert all(now == scheduled[index] for index, now in fired)
        assert all(now <= until for _, now in fired[:first])
        assert all(now > until for _, now in fired[first:])
        # Insertion order breaks ties: an event's index is its sequence.
        for run in (fired[:first], fired[first:]):
            assert run == sorted(run, key=lambda item: (item[1], item[0]))
        # Every event scheduled before the first run at or before
        # *until* fired in it (later ones can only be children).
        early = {index for index, (slot, _) in enumerate(events) if slot <= until}
        assert early <= {index for index, _ in fired[:first]}


class TestLatency:
    def test_sample_at_least_base(self):
        model = LatencyModel(base_rtt_s=0.01, jitter_median=0.001)
        rng = random.Random(1)
        for _ in range(200):
            assert model.sample(rng) >= 0.01

    def test_loss_adds_penalty(self):
        model = LatencyModel(base_rtt_s=0.01, jitter_median=0.0, loss_probability=0.5, retransmit_penalty=1.0)
        rng = random.Random(2)
        samples = [model.sample(rng) for _ in range(500)]
        assert any(sample > 1.0 for sample in samples)
        assert any(sample < 0.1 for sample in samples)

    def test_scaled(self):
        model = metro_latency().scaled(2.0)
        assert model.base_rtt_s == pytest.approx(2 * metro_latency().base_rtt_s)

    def test_scaled_requires_positive(self):
        with pytest.raises(SimulationError):
            metro_latency().scaled(0)

    def test_validation(self):
        with pytest.raises(SimulationError):
            LatencyModel(base_rtt_s=-1.0)
        with pytest.raises(SimulationError):
            LatencyModel(base_rtt_s=0.01, loss_probability=1.5)

    def test_presets_ordering(self):
        assert lan_latency().base_rtt_s < metro_latency().base_rtt_s < authoritative_latency().base_rtt_s


class TestRandomStreams:
    def test_streams_are_deterministic(self):
        a = RandomStreams(7).stream("x").random()
        b = RandomStreams(7).stream("x").random()
        assert a == b

    def test_streams_are_independent(self):
        streams = RandomStreams(7)
        assert streams.stream("x").random() != streams.stream("y").random()

    def test_stream_identity_cached(self):
        streams = RandomStreams(7)
        assert streams.stream("x") is streams.stream("x")

    def test_spawn_namespaces(self):
        parent = RandomStreams(7)
        child_a = parent.spawn("houses")
        child_b = parent.spawn("resolvers")
        assert child_a.stream("s").random() != child_b.stream("s").random()

    def test_derive_seed_stability(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
        assert derive_seed(1, "a") != derive_seed(2, "a")


class TestDistributions:
    def test_poisson_arrival_rate(self):
        rng = random.Random(3)
        arrivals = list(poisson_arrivals(rng, rate_per_second=0.1, start=0.0, end=10000.0))
        assert 800 < len(arrivals) < 1200
        assert all(0.0 <= t < 10000.0 for t in arrivals)
        assert arrivals == sorted(arrivals)

    def test_poisson_zero_rate(self):
        assert list(poisson_arrivals(random.Random(1), 0.0, 0.0, 100.0)) == []

    def test_poisson_negative_rate_raises(self):
        with pytest.raises(ValueError):
            list(poisson_arrivals(random.Random(1), -1.0, 0.0, 100.0))

    def test_weighted_choice_proportions(self):
        rng = random.Random(4)
        picks = [weighted_choice(rng, {"a": 3.0, "b": 1.0}) for _ in range(4000)]
        share = picks.count("a") / len(picks)
        assert 0.70 < share < 0.80

    def test_weighted_choice_validation(self):
        with pytest.raises(ValueError):
            weighted_choice(random.Random(1), {})
        with pytest.raises(ValueError):
            weighted_choice(random.Random(1), {"a": 0.0})

    def test_zipf_weights_decreasing(self):
        weights = zipf_weights(10, 1.0)
        assert weights == sorted(weights, reverse=True)
        assert weights[0] == 1.0

    def test_zipf_validation(self):
        with pytest.raises(ValueError):
            zipf_weights(0)
        with pytest.raises(ValueError):
            zipf_weights(5, -0.5)

    @given(st.integers(min_value=1, max_value=50), st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=30)
    def test_zipf_weights_positive(self, count, exponent):
        assert all(w > 0 for w in zipf_weights(count, exponent))
