"""Discrete-event simulation substrate: engine, latency models, RNG streams."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "engine": ("SimulationEngine",),
        "latency": (
            "LatencyModel",
            "authoritative_latency",
            "continental_latency",
            "lan_latency",
            "metro_latency",
            "regional_latency",
        ),
        "random": (
            "RandomStreams",
            "derive_seed",
            "poisson_arrivals",
            "weighted_choice",
            "zipf_weights",
        ),
    },
)
