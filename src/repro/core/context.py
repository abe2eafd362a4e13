"""The top-level analysis pipeline: a trace in, the paper's results out.

:class:`ContextStudy` owns one trace (synthetic, from logs, or from a
pcap) and lazily computes every analysis of the paper: DN-Hunter
pairing, the Figure 1 blocking analysis, the Table 2 classification,
the §5 source analyses, the §6 cost analyses, the §7 resolver
comparison, and the §8 improvement simulations.

Example::

    from repro.core.context import ContextStudy
    from repro.workload.scenario import default_scenario

    study = ContextStudy.from_scenario(default_scenario(seed=1))
    print(study.classification_table())
    quadrant = study.significance_quadrant()
    print(f"significant DNS cost: {100 * quadrant.significant_of_all:.1f}% of all connections")
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from repro.core.blocking import DEFAULT_BLOCKING_THRESHOLD, GapAnalysis, analyze_gaps
from repro.core.classify import (
    ClassBreakdown,
    ClassifiedConnection,
    Classifier,
    ClassifierConfig,
    ResolverFailureStats,
    class_breakdown,
    collect_failure_stats,
)
from repro.core.improvements import (
    RefreshComparison,
    RefreshSimulator,
    WholeHouseCacheAnalysis,
    whole_house_cache_analysis,
)
from repro.core.pairing import (
    PairedConnection,
    Pairer,
    PairingCensus,
    PairingPolicy,
    ambiguity_fraction,
)
from repro.core.performance import (
    ContributionAnalysis,
    LookupDelayAnalysis,
    SignificanceQuadrant,
    contribution_analysis,
    lookup_delay_analysis,
    significance_quadrant,
)
from repro.core.resolvers import (
    ResolverUsageRow,
    ThroughputByPlatform,
    hit_rate_by_platform,
    local_only_house_fraction,
    r_delay_by_platform,
    resolver_usage_table,
    throughput_by_platform,
)
from repro.core.sources import (
    NoDnsBreakdown,
    PrefetchStats,
    TtlViolationStats,
    no_dns_breakdown,
    prefetch_stats,
    ttl_violation_stats,
)
from repro.errors import AnalysisError
from repro.monitor.capture import Trace

if TYPE_CHECKING:
    from repro.core.population import PopulationStats
    from repro.core.stats import Cdf
    from repro.core.streaming import PipelineResult
    from repro.monitor.logs import IngestReport
    from repro.workload.scenario import ScenarioConfig


@dataclass(frozen=True, slots=True)
class StudyOptions:
    """Analysis-stage knobs (all defaulting to the paper's choices)."""

    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    pairing_policy: PairingPolicy = PairingPolicy.MOST_RECENT
    pairing_seed: int = 0


class ContextStudy:
    """One trace plus every analysis the paper runs on it."""

    def __init__(self, trace: Trace, options: StudyOptions | None = None) -> None:
        if not trace.conns:
            raise AnalysisError("the trace has no connections to analyse")
        self.trace = trace
        self.options = options if options is not None else StudyOptions()

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_scenario(cls, config: "ScenarioConfig", options: StudyOptions | None = None) -> "ContextStudy":
        """Generate a synthetic trace for *config* and analyse it."""
        from repro.workload.generate import generate_trace

        return cls(generate_trace(config), options)

    @classmethod
    def from_logs(
        cls,
        dns_path: str,
        conn_path: str,
        options: StudyOptions | None = None,
        reports: tuple[IngestReport, IngestReport] | None = None,
    ) -> "ContextStudy":
        """Analyse previously saved dns.log / conn.log files.

        Each file is read through :func:`repro.monitor.logs.load_dns_log`
        / ``load_conn_log``, so Zeek TSV, Zeek JSON and RBLG binlogs are
        all accepted and detected per file. *reports*, a caller-owned
        ``(dns, conn)`` pair of :class:`~repro.monitor.logs.IngestReport`,
        makes the reads lenient: malformed lines are quarantined into
        the reports instead of aborting the ingest.
        """
        from repro.monitor.logs import load_conn_log, load_dns_log

        dns_report, conn_report = reports or (None, None)
        trace = Trace(
            dns=load_dns_log(dns_path, dns_report),
            conns=load_conn_log(conn_path, conn_report),
        )
        trace.sort()
        if trace.conns:
            trace.duration = trace.conns[-1].ts - trace.conns[0].ts
        return cls(trace, options)

    @classmethod
    def from_pcap(
        cls,
        path: str,
        local_networks: tuple[str, ...] = ("10.",),
        options: StudyOptions | None = None,
    ) -> "ContextStudy":
        """Extract logs from a pcap file and analyse them."""
        from repro.monitor.pcap_ingest import trace_from_pcap

        return cls(trace_from_pcap(path, local_networks=local_networks), options)

    # -- pipeline stages -----------------------------------------------------

    @cached_property
    def paired(self) -> list[PairedConnection]:
        """DN-Hunter pairing of every connection (chronological order)."""
        pairer = Pairer(
            self.trace.dns,
            policy=self.options.pairing_policy,
            seed=self.options.pairing_seed,
        )
        return pairer.pair_all(self.trace.conns)

    @cached_property
    def classifier(self) -> Classifier:
        """The classifier with per-resolver SC/R thresholds."""
        return Classifier(self.trace.dns, self.options.classifier)

    @cached_property
    def classified(self) -> list[ClassifiedConnection]:
        """Every connection with its Table 2 class."""
        return self.classifier.classify_all(self.paired)

    @cached_property
    def breakdown(self) -> ClassBreakdown:
        """Table 2 counts."""
        return class_breakdown(self.classified)

    # -- §4 -----------------------------------------------------------------

    def gap_analysis(self, blocking_threshold: float = DEFAULT_BLOCKING_THRESHOLD) -> GapAnalysis:
        """Figure 1: the DNS-completion-to-connection-start gap analysis."""
        return analyze_gaps(self.paired, blocking_threshold=blocking_threshold)

    def pairing_ambiguity(self) -> float:
        """§4: share of paired connections with a unique candidate (paper: 82%)."""
        return ambiguity_fraction(self.paired)

    def pairing_census(self) -> PairingCensus:
        """§4 pairing counts (paired / unique-viable / expired)."""
        return PairingCensus.from_paired(self.paired)

    def population(self) -> PopulationStats:
        """§3-style dataset characterization (volumes, mixes, per-house)."""
        from repro.core.population import characterize

        return characterize(self.trace)

    # -- §3 / Table 1 ---------------------------------------------------------

    def resolver_usage(self) -> list[ResolverUsageRow]:
        """Table 1 rows."""
        return resolver_usage_table(self.trace.dns, self.classified, self.options.classifier)

    def local_only_houses(self) -> float:
        """§3: share of houses that only use the ISP resolvers (paper: ~16%)."""
        return local_only_house_fraction(self.trace.dns, self.options.classifier)

    def failure_stats(self) -> dict[str, ResolverFailureStats]:
        """Per-resolver transaction outcomes (timeouts, SERVFAILs, NXDOMAINs).

        Failed transactions are first-class in the record stream but can
        never pair; this surfaces their rates per resolver address so a
        faulty platform is visible instead of silently shrinking the
        paired population.
        """
        return collect_failure_stats(self.trace.dns)

    # -- §5 -------------------------------------------------------------------

    def no_dns(self) -> NoDnsBreakdown:
        """§5.1: anatomy of the N class."""
        return no_dns_breakdown(self.classified)

    def ttl_violations(self) -> TtlViolationStats:
        """§5.2: expired-record usage among LC/P connections."""
        return ttl_violation_stats(self.classified)

    def prefetching(self) -> PrefetchStats:
        """§5.2: speculative-lookup economics."""
        return prefetch_stats(self.trace.dns, self.paired, self.classified)

    # -- §6 -------------------------------------------------------------------

    def lookup_delays(self) -> LookupDelayAnalysis:
        """Figure 2 (top)."""
        return lookup_delay_analysis(self.classified)

    def contribution(self) -> ContributionAnalysis:
        """Figure 2 (bottom)."""
        return contribution_analysis(self.classified)

    def significance_quadrant(self, abs_threshold: float = 0.020, rel_threshold: float = 1.0) -> SignificanceQuadrant:
        """§6: the significance quadrant."""
        return significance_quadrant(self.classified, abs_threshold, rel_threshold)

    def pipeline_result(self) -> PipelineResult:
        """§4–§6 in one :class:`~repro.core.streaming.PipelineResult`.

        Built from the cached per-connection stages, this is the
        reference the streaming engine is held to: ``run_pipeline(trace,
        options)`` equals ``ContextStudy(trace, options).pipeline_result()``.
        Figure 1's blocked share is read at the classifier's blocking
        threshold, the one Table 2 classifies with.
        """
        from repro.core.streaming import PipelineResult

        return PipelineResult(
            census=self.pairing_census(),
            breakdown=self.breakdown,
            gap_analysis=self.gap_analysis(self.options.classifier.blocking_threshold),
            lookup_delays=self.lookup_delays(),
            contribution=self.contribution(),
            quadrant=self.significance_quadrant(),
            thresholds=self.classifier.thresholds,
            failure_stats=self.failure_stats(),
        )

    # -- §7 -------------------------------------------------------------------

    def hit_rates(self) -> dict[str, float]:
        """§7: shared-cache hit rate per platform."""
        return hit_rate_by_platform(self.classified)

    def r_delays(self) -> dict[str, Cdf]:
        """Figure 3 (top): per-platform R-lookup delay CDFs (seconds)."""
        return r_delay_by_platform(self.classified)

    def throughput(self) -> ThroughputByPlatform:
        """Figure 3 (bottom): per-platform throughput CDFs."""
        return throughput_by_platform(self.classified)

    # -- §8 -------------------------------------------------------------------

    def whole_house(self) -> WholeHouseCacheAnalysis:
        """§8: who would a whole-house cache help."""
        return whole_house_cache_analysis(self.trace.dns, self.classified)

    def refresh(self, ttl_floor_s: float = 10.0) -> RefreshComparison:
        """Table 3: standard vs refresh-all whole-house cache."""
        simulator = RefreshSimulator(
            self.trace.dns, self.classified, ttl_floor_s=ttl_floor_s, houses=self.trace.houses or None
        )
        return simulator.compare()

    # -- validation & rendering ------------------------------------------------

    def validate_against_truth(self) -> dict[str, object]:
        """Compare heuristic classes against simulation ground truth.

        Only available for synthetic traces carrying annotations. Returns
        the agreement rate and a confusion matrix keyed
        (truth class, inferred class).
        """
        if not self.trace.truth:
            raise AnalysisError("the trace carries no ground-truth annotations")
        confusion: dict[tuple[str, str], int] = {}
        agree = 0
        total = 0
        for item in self.classified:
            truth = self.trace.truth.get(item.conn.uid)
            if truth is None:
                continue
            total += 1
            key = (truth.truth_class.value, item.conn_class.value)
            confusion[key] = confusion.get(key, 0) + 1
            if truth.truth_class.value == item.conn_class.value:
                agree += 1
        return {
            "agreement": agree / total if total else 0.0,
            "confusion": confusion,
            "total": total,
        }

    def classification_table(self) -> str:
        """Table 2 rendered as text."""
        from repro.report.tables import render_table2

        return render_table2(self.breakdown)

    def summary(self) -> str:
        """A multi-line digest of the headline results."""
        breakdown = self.breakdown
        quadrant = self.significance_quadrant()
        lines = [
            self.trace.summary(),
            self.classification_table(),
            f"blocked on DNS: {100 * breakdown.blocked_fraction():.1f}% of connections",
            f"significant DNS cost (>20ms and >1%): "
            f"{100 * quadrant.significant_of_all:.1f}% of all connections",
        ]
        return "\n".join(lines)
