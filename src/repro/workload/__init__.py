"""Synthetic residential ISP workload: the stand-in for the paper's CCZ traces."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "apps": (
            "ApiPollingModel",
            "BrowsingConfig",
            "ConnectivityCheckModel",
            "IoTHardcodedModel",
            "P2PModel",
            "VideoStreamingModel",
            "WebBrowsingModel",
            "diurnal_factor",
        ),
        "devices": ("Device", "Resolution"),
        "generate": ("TrafficGenerator", "generate_trace"),
        "households": ("House", "HouseholdBuilder", "HouseholdMixConfig", "house_address"),
        "namespace": (
            "CONNECTIVITY_CHECK_HOST",
            "HostProfile",
            "IpAllocator",
            "NameUniverse",
            "SiteProfile",
        ),
        "scenario": (
            "AppRates",
            "ScenarioConfig",
            "UniverseConfig",
            "benchmark_scenario",
            "default_scenario",
            "smoke_scenario",
        ),
    },
)
