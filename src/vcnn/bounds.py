"""Closed-form and solver-based VC-dimension bounds for 1NN(d, m).

``lower_bound`` collects the constructive lower bounds; the upper bounds
come from solving ``2^m * n^q = 2^n`` for its largest real root via the
W_{-1} branch of the Lambert W function, plus a looser closed form that
avoids special functions. All solver math is done in natural logs; the
single base-2 conversion constant is ``LN2``. ``compute_bounds_range``
is the one solver of the bounds table, whose columns are the fields of
``BoundsReport``; the scalar upper bounds read its one-row call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classifier import check_int
from .errors import InvalidInputError, NumericalError, UnsupportedParametersError

# The one natural-log <-> base-2 conversion constant used by the solvers.
LN2 = math.log(2.0)

# Supported parameter grid; outside it, operations raise rather than
# extrapolate.
D_MIN, D_MAX = 2, 64
M_MIN, M_MAX = 3, 10**6

_LAMBERT_MAX_ITER = 100
_LAMBERT_RTOL = 1e-12
_TIGHT_RTOL = 1e-9  # relative residual, base-2 log space


def _require_grid(d: int, *ms: int) -> None:
    """Refuse a d or any m of ``ms`` off the supported grid; d is checked even when ``ms`` is empty."""
    for value in (d, *ms):
        if not isinstance(value, (int, np.integer)):
            raise UnsupportedParametersError("d and m must be integers")
    if not (D_MIN <= d <= D_MAX):
        raise UnsupportedParametersError(f"d={d} outside supported range [{D_MIN}, {D_MAX}]")
    for m in ms:
        if not (M_MIN <= m <= M_MAX):
            raise UnsupportedParametersError(f"m={m} outside supported range [{M_MIN}, {M_MAX}]")


def require_grid_ends(ds, ms: range) -> None:
    """Refuse, as ``_require_grid`` does, each d of ``ds`` with either end of the ascending range ``ms``.

    No m between the ends is read, so a range of any length costs the same.
    """
    for d in ds:
        _require_grid(d, ms[0], ms[-1])


def lower_bound(d: int, m: int) -> int:
    """Best constructive lower bound for the VC dimension of 1NN(d, m).

    d * m + 2 - d in general; 2 * m + 1 in the plane for m >= 4. At
    (d, m) = (2, 3) the value 6 is exact.
    """
    _require_grid(d, m)
    return _lower(d, m)


def _lower(d: int, m: int) -> int:
    """``lower_bound`` of a (d, m) already on the grid."""
    return 2 * m + 1 if d == 2 and m >= 4 else d * m + 2 - d


def _q(d: int, ms):
    """q = 9(m - 2) in the plane and (d + 1) m (m - 1) / 2 otherwise, elementwise in m."""
    ms = np.asarray(ms, dtype=np.float64)
    return 9.0 * (ms - 2.0) if d == 2 else (d + 1) * ms * (ms - 1.0) / 2.0


def shatter_q(d: int, m: int) -> float:
    """Exponent q of the shatter-coefficient bound 2^m * n^q."""
    _require_grid(d, m)
    return float(_q(d, m))


def chatzigeorgiou_seed(u) -> np.ndarray | float:
    """Closed-form lower bound -1 - sqrt(2u) - u for W_{-1}(-e^(-u-1)), u > 0.

    Strict for all u > 0; used to seed the Halley iteration on-branch.
    """
    u = np.asarray(u, dtype=np.float64)
    out = -1.0 - np.sqrt(2.0 * u) - u
    return out if out.ndim else float(out)


def _lambert_wm1_array(y: np.ndarray) -> np.ndarray:
    """W_{-1}(y) for y in [-1/e, 0), elementwise."""
    y = np.asarray(y, dtype=np.float64)
    if not np.all(y < 0.0):   # a NaN fails this too
        raise InvalidInputError("lambert_wm1 requires y < 0")
    # u >= 0 parameterises y = -exp(-u - 1); allow a few ulps of slack at
    # the branch point.
    u = -1.0 - np.log(-y)
    if np.any(u < -1e-12):
        raise InvalidInputError("lambert_wm1 requires y >= -1/e")
    u = np.maximum(u, 0.0)

    # Solve g(t) = t - log(t) - (1 + u) = 0 for t = -w >= 1, seeded from
    # above by the closed-form bound; Halley steps with a Newton fallback
    # whenever a step would leave the branch.
    t = -chatzigeorgiou_seed(u)
    for _ in range(_LAMBERT_MAX_ITER):
        g = t - np.log(t) - 1.0 - u
        gp = (t - 1.0) / t
        gpp = 1.0 / (t * t)
        denom = 2.0 * gp * gp - g * gpp
        with np.errstate(divide="ignore", invalid="ignore"):
            halley = np.where(denom != 0.0, 2.0 * g * gp / denom, 0.0)
            newton = np.where(gp != 0.0, g / gp, 0.0)
        step = np.where(t - halley > 1.0, halley, newton)
        t_next = np.maximum(t - step, 1.0)
        if np.all(np.abs(t_next - t) <= 1e-16 * t_next):
            t = t_next
            break
        t = t_next
    g = t - np.log(t) - 1.0 - u
    # |w e^w - y| / |y| = |exp(-g) - 1|
    resid = np.abs(np.expm1(-g))
    if np.any(resid > _LAMBERT_RTOL):
        worst = float(np.max(resid))
        raise NumericalError(f"lambert_wm1 failed to converge: residual {worst:.3e}")
    return -t


def lambert_wm1(y: float) -> float:
    """The W_{-1} branch of the Lambert W function.

    Solves w * e^w = y for w <= -1, for y in [-1/e, 0). Relative residual
    is at most 1e-12.
    """
    return float(_lambert_wm1_array(np.array([y]))[0])


def _tight_upper_real_array(ms: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The tight bound of each m of ``ms``, whose exponents ``_q`` are ``q``; the grid is not checked."""
    y = -(LN2 / q) * np.exp2(-ms / q)
    w = _lambert_wm1_array(y)
    return -(q / LN2) * w


def _loose_upper_array(ms: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The loose bound of each m of ``ms``, whose exponents ``_q`` are ``q``; the grid is not checked."""
    qp = q / LN2
    inner = ms / qp + np.log(qp) - 1.0
    if np.any(inner <= 0.0):
        raise NumericalError("loose bound undefined: m/q' + log q' - 1 <= 0")
    return qp * (np.sqrt(2.0 * inner) + ms / qp + np.log(qp))


def _grid_curve(d: int, ms) -> tuple[np.ndarray, np.ndarray]:
    """``ms`` as a float64 array and its exponents q, once (d, min m) and (d, max m) are on the supported grid.

    An empty ``ms`` is an empty curve once d is on the grid; a non-finite m is refused.
    """
    ms = np.asarray(ms, dtype=np.float64)
    if not np.isfinite(ms).all():
        raise UnsupportedParametersError("m values must be finite")
    ends = (int(ms.min()), int(ms.max())) if ms.size else ()
    _require_grid(d, *ends)
    return ms, _q(d, ms)


def tight_upper_curve(d: int, ms) -> np.ndarray:
    """Vectorised real-valued tight upper bound over an array of m values."""
    return _tight_upper_real_array(*_grid_curve(d, ms))


def loose_upper_curve(d: int, ms) -> np.ndarray:
    """Vectorised loose upper bound over an array of m values."""
    return _loose_upper_array(*_grid_curve(d, ms))


def upper_bound_tight(d: int, m: int) -> tuple[float, int]:
    """Tight upper bound: the largest real n solving 2^m * n^q = 2^n.

    Returns ``(n_star, floor(n_star))``, the ``upper_tight_real`` and
    ``upper_tight`` of ``compute_bounds(d, m)``, checked as every row of
    ``compute_bounds_range`` is. The integer part is the tightest valid
    integer bound, since the VC dimension is an integer and every integer
    beyond n_star fails 2^m * n^q >= 2^n.
    """
    r = compute_bounds(d, m)
    return r.upper_tight_real, r.upper_tight


def upper_bound_loose(d: int, m: int) -> float:
    """Looser closed-form upper bound q' (sqrt(2(m/q' + log q' - 1)) + m/q' + log q').

    q' = q / ln 2; natural logarithms throughout. Always at least the
    tight bound, and asymptotically ~ q' log q'. The ``upper_loose`` of
    ``compute_bounds(d, m)``.
    """
    return compute_bounds(d, m).upper_loose


def shatter_coefficient_bound_log2(d: int, m: int, n: int) -> float:
    """log2 of the shatter-coefficient bound 2^m * n^q."""
    _require_grid(d, m)
    check_int("n", n, 1)
    return m + shatter_q(d, m) * math.log2(n)


@dataclass(frozen=True)
class BoundsReport:
    """All bounds for one (d, m), plus solver diagnostics; its fields are the columns of ``vcnn bounds``."""

    d: int
    m: int
    lower: int
    q: float
    upper_tight_real: float
    upper_tight: int
    upper_loose: float
    residual: float

    def __post_init__(self):
        if self.lower > self.upper_tight:
            raise NumericalError(
                f"bounds do not bracket at (d={self.d}, m={self.m}): "
                f"{self.lower} > {self.upper_tight}"
            )
        if self.upper_tight_real > self.upper_loose:
            raise NumericalError("tight bound exceeds loose bound")


def compute_bounds(d: int, m: int) -> BoundsReport:
    """Evaluate every bound at one (d, m) and cross-check their ordering."""
    return compute_bounds_range(d, [m])[0]


def compute_bounds_range(d: int, ms) -> list[BoundsReport]:
    """``compute_bounds(d, m)`` for each m of ``ms``: the one solver of the bounds table.

    The grid is checked and q derived once, each bound curve is solved in
    one call, and each row checks its tight bound against the defining
    equation (1e-9 relative, base-2 log space) and the integer crossing.
    The rows are bit-identical to solving each m alone: the Halley loop
    runs until every element has converged, and a converged element is an
    exact fixed point (its step is below one ulp).
    """
    ms = list(ms)
    _require_grid(d, *ms)
    ms_arr = np.asarray(ms, dtype=np.float64)
    q = _q(d, ms_arr)
    tight, loose = _tight_upper_real_array(ms_arr, q), _loose_upper_array(ms_arr, q)
    rows = []
    for m, q_m, n_star, upper_loose in zip(ms, q.tolist(), tight.tolist(), loose.tolist()):
        resid = abs(m + q_m * math.log2(n_star) - n_star) / n_star
        if resid > _TIGHT_RTOL:
            raise NumericalError(
                f"tight upper bound residual {resid:.3e} exceeds {_TIGHT_RTOL:.0e} at (d={d}, m={m})"
            )

        def crossing(n: int) -> bool:
            return m + q_m * math.log2(n) >= n

        n_int = math.floor(n_star)
        if crossing(n_int + 1):
            n_int += 1
        elif not crossing(n_int):
            n_int -= 1
        if not (crossing(n_int) and not crossing(n_int + 1)):
            raise NumericalError(f"integer crossing inconsistent at (d={d}, m={m})")
        rows.append(BoundsReport(d=d, m=m, lower=_lower(d, m), q=q_m, upper_tight_real=n_star,
                                 upper_tight=n_int, upper_loose=upper_loose, residual=resid))
    return rows
