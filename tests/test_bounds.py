import math

import numpy as np
import pytest

from vcnn.bounds import (
    BoundsReport,
    chatzigeorgiou_seed,
    compute_bounds,
    compute_bounds_range,
    lambert_wm1,
    loose_upper_curve,
    lower_bound,
    shatter_coefficient_bound_log2,
    shatter_q,
    tight_upper_curve,
    upper_bound_loose,
    upper_bound_tight,
)
from vcnn.errors import InvalidInputError, UnsupportedParametersError


def wm1_bisection(y, lo=-800.0, hi=-1.0, iters=200):
    """Independent oracle: bisection on w e^w = y over the w <= -1 branch."""

    def f(w):
        return w * math.exp(w) - y

    assert f(lo) > 0 >= f(hi) or f(hi) >= 0  # monotone decreasing branch
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def largest_integer_crossing(d, m):
    """Independent oracle: scan for the largest n with m + q log2 n >= n."""
    q = shatter_q(d, m)
    cap = 1024
    while True:
        ns = np.arange(1, cap + 1, dtype=np.float64)
        ok = m + q * np.log2(ns) >= ns
        if not ok[-1]:
            return int(ns[ok].max())
        cap *= 2


class TestLowerBound:
    def test_planar_exact_value_at_three_prototypes(self):
        assert lower_bound(2, 3) == 6

    def test_planar_beats_polytope_bound(self):
        assert lower_bound(2, 4) == 9

    def test_general_dimension(self):
        assert lower_bound(3, 3) == 8

    def test_outside_grid_rejected(self):
        for d, m in [(1, 3), (2, 2), (65, 3), (2, 10**6 + 1)]:
            with pytest.raises(UnsupportedParametersError):
                lower_bound(d, m)

    def test_monotone_in_d_and_m(self):
        for d in range(2, 8):
            for m in range(3, 30):
                assert lower_bound(d, m + 1) >= lower_bound(d, m)
                assert lower_bound(d + 1, m) >= lower_bound(d, m)


class TestShatterQ:
    def test_values(self):
        assert shatter_q(2, 4) == 18
        assert shatter_q(3, 3) == 12
        assert shatter_q(2, 3) == 9

    def test_planar_formula_not_replaced_by_general_one(self):
        # the planar exponent is the tighter special case, not (d+1)m(m-1)/2
        assert shatter_q(2, 10) == 72
        assert shatter_q(3, 10) == 180


class TestLambertWm1:
    def test_branch_point(self):
        assert lambert_wm1(-1.0 / math.e) == -1.0

    def test_against_bisection_oracle(self):
        for y in (-0.1, -math.exp(-2.0), -0.25, -1e-6):
            w = lambert_wm1(y)
            assert w == pytest.approx(wm1_bisection(y), abs=1e-10)
            assert abs(w * math.exp(w) - y) <= 1e-12 * abs(y)

    def test_frozen_values(self):
        assert lambert_wm1(-0.1) == pytest.approx(-3.5772, abs=1e-4)
        assert lambert_wm1(-math.exp(-2.0)) == pytest.approx(-3.1462, abs=1e-4)

    def test_on_branch(self):
        # below the seed's guarantee: w stays above the closed-form bound
        w = lambert_wm1(-math.exp(-2.0))
        assert w > chatzigeorgiou_seed(1.0)
        assert chatzigeorgiou_seed(1.0) == pytest.approx(-1 - math.sqrt(2) - 1)

    def test_domain_errors(self):
        for y in (0.0, 0.5, -1.0, math.nan):   # nan fails every comparison, so neither range test sees it
            with pytest.raises(InvalidInputError):
                lambert_wm1(y)

    def test_residual_over_log_spaced_inputs(self):
        ys = -np.exp(np.linspace(math.log(1e-30), math.log(1.0 / math.e) - 1e-9, 1000))
        for y in ys:
            w = lambert_wm1(float(y))
            assert abs(w * math.exp(w) - y) <= 1e-12 * abs(y)

    def test_strict_closed_form_lower_bound(self):
        for u in np.linspace(1e-6, 50.0, 500):
            w = lambert_wm1(-math.exp(-u - 1.0))
            assert w > chatzigeorgiou_seed(float(u))


class TestUpperBounds:
    def test_tight_matches_integer_scan_at_small_case(self):
        n_star, n_int = upper_bound_tight(2, 3)
        assert n_int == 55
        assert 55 < n_star < 56
        assert n_int == largest_integer_crossing(2, 3)

    def test_defining_equation_residual(self):
        for d, m in [(2, 3), (2, 10), (3, 3), (5, 20)]:
            q = shatter_q(d, m)
            n_star, _ = upper_bound_tight(d, m)
            assert abs(m + q * math.log2(n_star) - n_star) / n_star <= 1e-9

    def test_brackets_lower_bound(self):
        for d in range(2, 11):
            for m in range(3, 51, 7):
                assert lower_bound(d, m) <= upper_bound_tight(d, m)[1]

    def test_loose_value_and_ordering(self):
        loose = upper_bound_loose(2, 3)
        assert loose == pytest.approx(60.888, abs=1e-2)
        assert loose >= upper_bound_tight(2, 3)[0]

    def test_loose_above_tight_on_grid(self):
        for d in (2, 3, 5, 10):
            ms = np.arange(3, 80)
            assert np.all(loose_upper_curve(d, ms) >= tight_upper_curve(d, ms))

    def test_monotone_in_m_and_d(self):
        for d in (2, 3, 4):
            ms = np.arange(3, 60)
            assert np.all(np.diff(tight_upper_curve(d, ms)) > 0)
            assert np.all(np.diff(loose_upper_curve(d, ms)) > 0)
        m = np.arange(3, 40)
        assert np.all(tight_upper_curve(3, m) >= tight_upper_curve(2, m))
        assert np.all(tight_upper_curve(4, m) >= tight_upper_curve(3, m))
        assert np.all(loose_upper_curve(3, m) >= loose_upper_curve(2, m))

    def test_curve_matches_scalar(self):
        ms = np.array([3, 7, 19])
        curve = tight_upper_curve(2, ms)
        for m, val in zip(ms, curve):
            assert upper_bound_tight(2, int(m))[0] == pytest.approx(float(val), rel=1e-14)

    @pytest.mark.parametrize("curve", [tight_upper_curve, loose_upper_curve])
    def test_empty_ms_is_an_empty_curve(self, curve):
        out = curve(2, [])
        assert out.dtype == np.float64 and out.shape == (0,)

    @pytest.mark.parametrize(
        "solve, d",
        [(tight_upper_curve, 1), (loose_upper_curve, 99), (compute_bounds_range, 1), (compute_bounds_range, 65)],
        ids=["tight-d1", "loose-d99", "range-d1", "range-d65"],
    )
    def test_off_grid_d_refused_with_no_m(self, solve, d):
        # d is checked on its own, so an empty m list does not let an off-grid d through
        with pytest.raises(UnsupportedParametersError, match=f"d={d} outside"):
            solve(d, [])

    @pytest.mark.parametrize("curve", [tight_upper_curve, loose_upper_curve])
    @pytest.mark.parametrize("ms", [[math.nan], [math.inf], [3, 4, -math.inf]], ids=["nan", "inf", "-inf"])
    def test_non_finite_m_refused(self, curve, ms):
        with pytest.raises(UnsupportedParametersError, match="finite"):
            curve(2, ms)


class TestShatterCoefficientBound:
    def test_log2_form(self):
        assert shatter_coefficient_bound_log2(2, 3, 8) == pytest.approx(3 + 9 * 3)

    @pytest.mark.parametrize("n", [0, math.nan, math.inf, 2.5, True], ids=["0", "nan", "inf", "2.5", "true"])
    def test_n_must_be_an_integer_at_least_1(self, n):
        # nan and inf gave nan and inf, 2.5 a bound for no point count, and True the bound at n=1
        with pytest.raises(InvalidInputError, match="n must be an integer >= 1"):
            shatter_coefficient_bound_log2(2, 3, n)


class TestBoundsReport:
    def test_compute_bounds_fields(self):
        rep = compute_bounds(2, 3)
        assert rep.lower == 6
        assert rep.q == 9
        assert rep.upper_tight == 55
        assert rep.residual <= 1e-9

    def test_range_rows_equal_single_rows_on_the_cli_grid(self):
        # one solve per d gives every row bit for bit as solving its m alone
        for d in range(2, 11):
            assert compute_bounds_range(d, range(3, 51)) == [compute_bounds(d, m) for m in range(3, 51)]

    @pytest.mark.parametrize("d", [2, 3, 10, 64])
    def test_scalar_upper_bounds_are_the_row_fields(self, d):
        ms = [*range(3, 61), 10**6]
        for m, row in zip(ms, compute_bounds_range(d, ms)):
            assert upper_bound_tight(d, m) == (row.upper_tight_real, row.upper_tight)
            assert upper_bound_loose(d, m) == row.upper_loose

    def test_range_refuses_an_m_off_the_grid(self):
        with pytest.raises(UnsupportedParametersError):
            compute_bounds_range(2, [3, 4, 2])
        with pytest.raises(UnsupportedParametersError, match="integers"):
            compute_bounds_range(2, [3, 4.5])
        assert compute_bounds_range(2, []) == []

    def test_inconsistent_report_rejected(self):
        import vcnn.errors as err

        with pytest.raises(err.NumericalError):
            BoundsReport(
                d=2, m=3, lower=100, q=9.0, upper_tight_real=55.0,
                upper_tight=55, upper_loose=60.0, residual=0.0,
            )
