"""Ablation (§4): most-recent vs random-candidate DN-Hunter pairing.

The paper reran its analysis pairing a *random* non-expired candidate
instead of the most recent one and found "the magnitude of the
deviations ... are small and the high-level take-aways remain
unchanged". This ablation verifies the same robustness holds here.
"""

from conftest import run_once

from repro.core.classify import Classifier, ConnClass, class_breakdown
from repro.core.pairing import Pairer, PairingPolicy
from repro.core.performance import significance_quadrant


def test_ablation_pairing_policy(benchmark, study):
    def run_alternate():
        pairer = Pairer(
            study.trace.dns,
            policy=PairingPolicy.RANDOM_NON_EXPIRED,
            seed=17,
        )
        paired = pairer.pair_all(study.trace.conns)
        classifier = Classifier(study.trace.dns)
        classified = classifier.classify_all(paired)
        return class_breakdown(classified), significance_quadrant(classified)

    random_breakdown, random_quadrant = run_once(benchmark, run_alternate)
    default_breakdown = study.breakdown
    default_quadrant = study.significance_quadrant()

    print()
    print("class   most-recent   random-candidate")
    for cls in ConnClass:
        a = 100 * default_breakdown.share(cls)
        b = 100 * random_breakdown.share(cls)
        print(f"  {cls.value:<4} {a:10.1f}% {b:14.1f}%")
        # Deviations stay small (the paper: "the magnitude ... small").
        assert abs(a - b) < 4.0, f"class {cls.value} moved {abs(a - b):.1f} points"

    # High-level take-aways unchanged: a majority never blocks, and only
    # a small minority pays a significant DNS cost.
    assert random_breakdown.blocked_fraction() < 0.5
    assert abs(
        default_quadrant.significant_of_all - random_quadrant.significant_of_all
    ) < 0.03
