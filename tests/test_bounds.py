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
    tight_upper_curve,
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
    q = compute_bounds(d, m).q
    cap = 1024
    while True:
        ns = np.arange(1, cap + 1, dtype=np.float64)
        ok = m + q * np.log2(ns) >= ns
        if not ok[-1]:
            return int(ns[ok].max())
        cap *= 2


class TestLowerBound:
    def test_planar_exact_value_at_three_prototypes(self):
        assert compute_bounds(2, 3).lower == 6

    def test_planar_beats_polytope_bound(self):
        assert compute_bounds(2, 4).lower == 9

    def test_general_dimension(self):
        assert compute_bounds(3, 3).lower == 8

    def test_outside_grid_rejected(self):
        for d, m in [(1, 3), (2, 2), (65, 3), (2, 10**6 + 1)]:
            with pytest.raises(UnsupportedParametersError):
                compute_bounds(d, m)

    def test_monotone_in_d_and_m(self):
        lower = {d: [row.lower for row in compute_bounds_range(d, range(3, 31))] for d in range(2, 9)}
        for d in range(2, 8):
            assert lower[d] == sorted(lower[d])
            assert all(a >= b for a, b in zip(lower[d + 1], lower[d]))


class TestShatterQ:
    def test_values(self):
        assert compute_bounds(2, 4).q == 18
        assert compute_bounds(3, 3).q == 12
        assert compute_bounds(2, 3).q == 9

    def test_planar_formula_not_replaced_by_general_one(self):
        # the planar exponent is the tighter special case, not (d+1)m(m-1)/2
        assert compute_bounds(2, 10).q == 72
        assert compute_bounds(3, 10).q == 180


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

    def test_array_is_the_scalar_call_elementwise(self):
        # one W_{-1} for both: an array in gives an array out, bit for bit the scalar calls
        ys = -np.exp(np.linspace(math.log(1e-30), -1.0, 200))
        ws = lambert_wm1(ys)
        assert isinstance(ws, np.ndarray) and ws.shape == ys.shape
        assert ws.tobytes() == np.array([lambert_wm1(float(y)) for y in ys]).tobytes()
        assert type(lambert_wm1(-0.1)) is float

    @pytest.mark.parametrize("bad", [math.nan, 0.5], ids=["nan", "positive"])
    def test_array_with_one_bad_entry_refused(self, bad):
        ys = np.full(5, -0.1)
        ys[2] = bad
        with pytest.raises(InvalidInputError, match="y < 0"):
            lambert_wm1(ys)

    def test_strict_closed_form_lower_bound(self):
        for u in np.linspace(1e-6, 50.0, 500):
            w = lambert_wm1(-math.exp(-u - 1.0))
            assert w > chatzigeorgiou_seed(float(u))


class TestUpperBounds:
    def test_tight_matches_integer_scan_at_small_case(self):
        rep = compute_bounds(2, 3)
        n_star, n_int = rep.upper_tight_real, rep.upper_tight
        assert n_int == 55
        assert 55 < n_star < 56
        assert n_int == largest_integer_crossing(2, 3)

    def test_defining_equation_residual(self):
        for d, m in [(2, 3), (2, 10), (3, 3), (5, 20)]:
            rep = compute_bounds(d, m)
            q, n_star = rep.q, rep.upper_tight_real
            assert abs(m + q * math.log2(n_star) - n_star) / n_star <= 1e-9

    def test_brackets_lower_bound(self):
        for d in range(2, 11):
            for row in compute_bounds_range(d, range(3, 51, 7)):
                assert row.lower <= row.upper_tight

    def test_loose_value_and_ordering(self):
        rep = compute_bounds(2, 3)
        assert rep.upper_loose == pytest.approx(60.888, abs=1e-2)
        assert rep.upper_loose >= rep.upper_tight_real

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
    def test_curves_are_the_row_fields(self, d):
        # one function per bound: plot-data's curves are the bounds table's columns, bit for bit
        ms = [*range(3, 61), 10**6]
        rows = compute_bounds_range(d, ms)
        assert tight_upper_curve(d, ms).tolist() == [row.upper_tight_real for row in rows]
        assert loose_upper_curve(d, ms).tolist() == [row.upper_loose for row in rows]

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
