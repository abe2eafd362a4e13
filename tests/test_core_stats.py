"""Tests for repro.core.stats: percentiles, CDFs, knee finding."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tests.strategies import float_samples

from repro.core.stats import (
    Cdf,
    find_knee,
    find_knee_detailed,
    fraction,
    fraction_above,
    fraction_below,
    percentile,
    summarize,
)
from repro.errors import AnalysisError


class TestFractions:
    def test_fraction(self):
        assert fraction([True, False, True, True]) == pytest.approx(0.75)

    def test_fraction_empty(self):
        assert fraction([]) == 0.0

    def test_fraction_below_inclusive(self):
        assert fraction_below([1.0, 2.0, 3.0], 2.0) == pytest.approx(2 / 3)

    def test_fraction_above_exclusive(self):
        assert fraction_above([1.0, 2.0, 3.0], 2.0) == pytest.approx(1 / 3)

    def test_fractions_empty(self):
        assert fraction_below([], 1.0) == 0.0
        assert fraction_above([], 1.0) == 0.0


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3.0

    def test_bounds(self):
        with pytest.raises(AnalysisError):
            percentile([1.0], 101)
        with pytest.raises(AnalysisError):
            percentile([], 50)

    def test_nan_rejected_everywhere(self):
        # sorted() leaves a NaN wherever its comparisons put it, which
        # would shift every order statistic without a trace.
        values = [3.0, math.nan, 1.0] + [float(i) for i in range(20)]
        for compute in (
            lambda: percentile(values, 50),
            lambda: summarize(values),
            lambda: Cdf.from_values(values),
            lambda: find_knee_detailed(values),
        ):
            with pytest.raises(AnalysisError, match="NaN"):
                compute()

    @pytest.mark.property
    @given(float_samples, st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=60)
    def test_cdf_percentile_reads_the_same_value(self, values, q):
        cdf = Cdf.from_values(values)
        assert cdf.percentile(q) == percentile(values, q)
        assert cdf.summarize() == summarize(values)


class TestCdf:
    def test_evaluate(self):
        cdf = Cdf.from_values([1.0, 2.0, 3.0, 4.0])
        assert cdf.evaluate(0.5) == 0.0
        assert cdf.evaluate(2.0) == pytest.approx(0.5)
        assert cdf.evaluate(10.0) == 1.0

    def test_quantile_endpoints(self):
        cdf = Cdf.from_values([5.0, 1.0, 3.0])
        assert cdf.quantile(0.0) == 1.0
        assert cdf.quantile(1.0) == 5.0
        assert cdf.median == 3.0

    def test_quantile_bounds(self):
        cdf = Cdf.from_values([1.0])
        with pytest.raises(AnalysisError):
            cdf.quantile(1.5)

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            Cdf.from_values([])

    def test_series_monotone(self):
        cdf = Cdf.from_values(list(range(100)))
        series = cdf.series(20)
        xs = [x for x, _ in series]
        ys = [y for _, y in series]
        assert xs == sorted(xs)
        assert ys == sorted(ys)

    def test_series_point_count_validation(self):
        cdf = Cdf.from_values([1.0, 2.0])
        with pytest.raises(AnalysisError):
            cdf.series(1)

    @pytest.mark.property
    @given(float_samples)
    @settings(max_examples=60)
    def test_quantile_evaluate_consistency(self, values):
        cdf = Cdf.from_values(values)
        for q in (0.1, 0.5, 0.9):
            x = cdf.quantile(q)
            assert cdf.evaluate(x) >= q - 1e-9


class TestKnee:
    def test_finds_bimodal_boundary(self):
        # Two log-separated modes: ~2 ms and ~10 s.
        low = [0.002 * (1 + 0.1 * (i % 10)) for i in range(500)]
        high = [10.0 * (1 + 0.1 * (i % 10)) for i in range(500)]
        knee = find_knee(low + high)
        assert 0.002 < knee < 10.0

    def test_too_few_samples(self):
        with pytest.raises(AnalysisError):
            find_knee([1.0, 2.0])

    def test_degenerate_range(self):
        with pytest.raises(AnalysisError):
            find_knee([1.0] * 100)

    def test_linear_axis(self):
        values = [1.0] * 50 + [float(i) for i in range(50)]
        knee = find_knee(values, log_x=False)
        assert 0.0 <= knee <= 50.0


class TestSummarize:
    def test_fields(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary["count"] == 4
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["mean"] == pytest.approx(2.5)

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            summarize([])


class TestKneeDetailed:
    def test_zero_gaps_anchor_cumulative_mass(self):
        # 900 zero gaps cannot sit on the log axis, but their cumulative
        # mass must still anchor the knee: 90% of samples precede the
        # first positive value, so the knee is at the first positive.
        values = [0.0] * 900 + [0.001 * (10 ** (i / 33)) for i in range(100)]
        result = find_knee_detailed(values, log_x=True)
        assert result.excluded_samples == 900
        assert result.total_samples == 1000
        assert result.excluded_fraction == pytest.approx(0.9)
        assert result.knee == pytest.approx(0.001)

    def test_exclusions_do_not_shift_bimodal_knee(self):
        # Adding clamped-to-zero gaps must not move the knee away from
        # the bimodal boundary (the pre-fix code renormalised fractions
        # over survivors only, distorting exactly this case).
        low = [0.002 * (1 + 0.1 * (i % 10)) for i in range(500)]
        high = [10.0 * (1 + 0.1 * (i % 10)) for i in range(500)]
        clean = find_knee_detailed(low + high)
        noisy = find_knee_detailed([0.0] * 200 + low + high)
        assert clean.excluded_samples == 0
        assert noisy.excluded_samples == 200
        assert noisy.knee == pytest.approx(clean.knee)
        assert 0.002 < noisy.knee < 10.0

    def test_linear_axis_excludes_nothing(self):
        values = [0.0] * 50 + [float(i) for i in range(50)]
        result = find_knee_detailed(values, log_x=False)
        assert result.excluded_samples == 0
        assert result.total_samples == 100

    def test_find_knee_wrapper_agrees(self):
        values = [0.0] * 100 + [0.002 * (1 + 0.1 * (i % 10)) for i in range(200)] + [
            10.0 * (1 + 0.1 * (i % 10)) for i in range(200)
        ]
        assert find_knee(values) == find_knee_detailed(values).knee

    def test_all_excluded_rejected(self):
        with pytest.raises(AnalysisError):
            find_knee_detailed([0.0] * 100, log_x=True)


#: Finite floats across the whole range the reference check covers,
#: subnormals included, with repeated values drawn on purpose.
_reference_floats = st.floats(
    min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False
)
_reference_samples = st.lists(
    st.one_of(
        _reference_floats,
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.5e-308, 1e300, -1e300]),
    ),
    min_size=1,
    max_size=80,
).flatmap(lambda xs: st.just(xs) | st.just(xs + xs[: len(xs) // 2 + 1]))
_reference_percents = st.sampled_from([0, 10, 25, 50, 75, 90, 99, 100]) | st.floats(
    min_value=0.0, max_value=100.0
)


def _numpy_knee_rank(np, values, log_x):
    """The knee finder's former numpy form: sorted positive sample, the
    chord distances, and the arg-max with the gap to the runner-up."""
    xs = np.sort(np.asarray(values, dtype=float))
    total = len(xs)
    excluded = 0
    if log_x:
        xs = xs[xs > 0]
        excluded = total - len(xs)
        axis = np.log10(xs)
    else:
        axis = xs
    ys = np.arange(excluded + 1, total + 1) / total
    distance = ys - (axis - axis[0]) / (axis[-1] - axis[0])
    best_two = np.sort(distance)[-2:]
    return xs, int(np.argmax(distance)), float(best_two[1] - best_two[0])


class TestNumpyReference:
    """numpy is a test-only dependency: the reference the stdlib code matches."""

    @pytest.mark.property
    @given(_reference_samples, _reference_percents)
    @settings(max_examples=400, deadline=None)
    def test_percentile_and_summary_equal_numpy(self, values, q):
        np = pytest.importorskip("numpy")
        array = np.asarray(values, dtype=float)
        assert percentile(values, q) == float(np.percentile(array, q))
        summary = summarize(values)
        assert summary == {
            "count": float(len(values)),
            "min": float(array.min()),
            "median": float(np.percentile(array, 50)),
            "mean": math.fsum(values) / len(values),
            "p75": float(np.percentile(array, 75)),
            "p90": float(np.percentile(array, 90)),
            "p99": float(np.percentile(array, 99)),
            "max": float(array.max()),
        }

    @pytest.mark.property
    @given(
        st.lists(
            st.floats(min_value=1e-6, max_value=1e4, allow_nan=False) | st.just(0.0),
            min_size=10,
            max_size=300,
        ),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_knee_is_the_numpy_argmax_sample(self, values, log_x):
        np = pytest.importorskip("numpy")
        try:
            result = find_knee_detailed(values, log_x=log_x)
        except AnalysisError:
            assume(False)
        xs, rank, margin = _numpy_knee_rank(np, values, log_x)
        # Chord distances within 1e-9 of each other may order either way
        # once log10 differs in the last bit (it does across SIMD paths).
        assume(margin > 1e-9)
        assert result.knee == float(xs[rank])
