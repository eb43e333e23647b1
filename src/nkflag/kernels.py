"""Classification oracle kernels: interval branch-and-bound over the chart.

The oracle covers the chart with (p, q) boxes.  Every box gets a rigorous
interval enclosure of the amplitudes (a, b, c) and from it a lower bound on
the largest tangency residual over the box (interval arithmetic in the
style of Moore, Kearfott & Cloud, *Introduction to Interval Analysis*,
SIAM 2009).  A box whose bound clears the hit threshold holds no solution
and is dropped; the rest are bisected down to the oracle step.  The
surviving leaf boxes are the hits, and the smallest bound over the boxes
that meet the all-nonzero region is a proven lower bound on the residual
there, not a sample.

Chart
-----
One chart serves both signatures: the unit sphere of amplitudes,
a = cos p, b = sin p cos q, c = sin p sin q with p, q in [0, pi/2].  The
three residuals are homogeneous of degree 4 in (a, b, c), so their zeros
form a cone, and every ray of the positive octant meets the sphere once,
null rays of the split form included.  The positive octant suffices: each
residual is odd or even under each sign flip of a, b, c, so the zero set
is sign-symmetric, and representatives are canonicalized afterwards anyway.

cos and sin are monotone on [0, pi/2], so their range over a box is
spanned by their values at the box ends.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import constants
from .lie_structure import check_signature

CHART_SPHERE = 0

#: outward widening of each chart-function value: 4 ulps of 1 cover libm
#: error and the gap between float and true pi/2 (cos of the float is 6e-17)
_WIDEN = 4 * np.spacing(1.0)


def active_backend() -> str:
    """Name of the array backend; the oracle is numpy code only."""
    return "numpy"


def _check_chart(chart: int) -> None:
    if chart != CHART_SPHERE:
        raise ValueError(f"unknown chart {chart!r}")


def chart_point(chart: int, p, q):
    """Amplitudes (a, b, c) of the chart parameters (p, q), scalar or array."""
    _check_chart(chart)
    s = np.sin(p)
    return np.cos(p), s * np.cos(q), s * np.sin(q)


def chart_domain(chart: int) -> tuple[float, float]:
    """(p_max, q_max) of the chart; both parameters start at 0."""
    _check_chart(chart)
    return math.pi / 2.0, math.pi / 2.0


def minor_equations(a, b, c, eps: int):
    """The three tangency residuals; all zero exactly on the solution set.

    Scalars or arrays; each is homogeneous of degree 4 in (a, b, c).
    """
    check_signature(eps)
    return (
        a * (a * a - eps * b * b) * b,
        a * (a * a - eps * c * c) * c,
        b * (c * c - b * b) * c,
    )


def residual_linf(a, b, c, eps: int):
    """Largest magnitude among the three tangency residuals (vectorized)."""
    r1, r2, r3 = (np.abs(r) for r in minor_equations(a, b, c, eps))
    return np.maximum(r1, np.maximum(r2, r3))


def _outward(lo, hi):
    """One ulp outward: encloses the exact result of a rounded + - * op."""
    return np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)


def _range(f, lo, hi):
    """Enclosure of a monotone function with values in [0, 1] over [lo, hi],
    widened outward and clipped at 0."""
    f_lo, f_hi = f(lo), f(hi)
    return np.maximum(np.minimum(f_lo, f_hi) - _WIDEN, 0.0), np.maximum(f_lo, f_hi) + _WIDEN


def _mul_nonneg(x, y):
    """Product of two intervals whose exact ranges are >= 0."""
    return _outward(x[0] * y[0], x[1] * y[1])


def _mul(m, d):
    """Product of an interval m >= 0 with a general interval d."""
    return _outward(np.minimum(m[0] * d[0], m[1] * d[0]),
                    np.maximum(m[0] * d[1], m[1] * d[1]))


def _sub(x, y):
    return _outward(x[0] - y[1], x[1] - y[0])


def box_enclosure(chart: int, eps: int, p_lo, p_hi, q_lo, q_hi):
    """(lower, a_hi, b_hi, c_hi) for each box [p_lo, p_hi] x [q_lo, q_hi].

    ``lower`` is a rounding-safe lower bound on :func:`residual_linf` over
    the box and ``*_hi`` are upper bounds on the amplitudes.  A NaN anywhere
    in the arithmetic comes out as a NaN ``lower``.
    """
    _check_chart(chart)
    a, s = _range(np.cos, p_lo, p_hi), _range(np.sin, p_lo, p_hi)
    b = _mul_nonneg(s, _range(np.cos, q_lo, q_hi))
    c = _mul_nonneg(s, _range(np.sin, q_lo, q_hi))
    a2, b2, c2 = (_mul_nonneg(x, x) for x in (a, b, c))
    signed = (lambda x: x) if eps > 0 else (lambda x: (-x[1], -x[0]))
    residuals = (_mul(_mul_nonneg(a, b), _sub(a2, signed(b2))),
                 _mul(_mul_nonneg(a, c), _sub(a2, signed(c2))),
                 _mul(_mul_nonneg(b, c), _sub(c2, b2)))
    lower = np.zeros_like(a[0])
    for lo, hi in residuals:
        # |r| >= lo when lo > 0, >= -hi when hi < 0, else only >= 0
        lower = np.maximum(lower, np.maximum(lo, -hi))
    return lower, a[1], b[1], c[1]


@dataclass(frozen=True)
class ScanResult:
    chart: int
    eps: int
    hits: np.ndarray          # (n_hits, 5): p, q, a, b, c at each leaf box centre
    hit_residuals: np.ndarray  # residual_linf at each leaf box centre
    interior_min: float       # proven lower bound where min(a,b,c) >= margin
    interior_argmin: tuple[float, float, float]  # (a, b, c) at that box's centre
    points: int               # boxes evaluated


def scan_chart(chart: int, eps: int) -> ScanResult:
    """Interval branch-and-bound over the square chart down to boxes of
    width <= ``GRID_ORACLE_STEP``, bisecting both axes at every level.

    A box is dropped when its residual lower bound exceeds
    ``ORACLE_HIT_THRESHOLD``; a box that may meet the region
    a, b, c >= ``NONZERO_MARGIN`` needs a bound above ``NONZERO_EMPTY_BOUND``
    as well.  A NaN bound never drops its box.  The leaves that survive are
    the hits.  ``interior_min`` is the smallest bound over the final boxes
    that may meet the region, where a NaN bound counts as meeting it and
    wins the minimum (inf if no box meets it).
    """
    margin = constants.NONZERO_MARGIN
    lo, hi = np.zeros((1, 2)), np.array([chart_domain(chart)])
    levels = math.ceil(math.log2(np.max(hi) / constants.GRID_ORACLE_STEP))
    points = 0
    bounds, centres = [np.array([np.inf])], [np.full((1, 2), np.nan)]
    for level in range(levels + 1):
        lower, a_hi, b_hi, c_hi = box_enclosure(chart, eps, lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1])
        points += lower.size
        meets = ((a_hi >= margin) & (b_hi >= margin) & (c_hi >= margin)) | np.isnan(lower)
        drop = (lower > constants.ORACLE_HIT_THRESHOLD) & (
            ~meets | (lower > constants.NONZERO_EMPTY_BOUND))
        final = (drop | (level == levels)) & meets
        bounds.append(lower[final])
        centres.append(0.5 * (lo[final] + hi[final]))
        lo, hi = lo[~drop], hi[~drop]
        if level < levels:
            for axis in (0, 1):
                # both children take the same float midpoint: no gap between them
                mid, k = 0.5 * (lo[:, axis] + hi[:, axis]), len(lo)
                lo, hi = np.concatenate([lo, lo]), np.concatenate([hi, hi])
                hi[:k, axis] = lo[k:, axis] = mid
    bounds, centres = np.concatenate(bounds), np.concatenate(centres)
    k = int(np.argmin(bounds))  # the first NaN, if there is one
    p, q = 0.5 * (lo[:, 0] + hi[:, 0]), 0.5 * (lo[:, 1] + hi[:, 1])
    a, b, c = chart_point(chart, p, q)
    return ScanResult(
        chart=chart,
        eps=eps,
        hits=np.column_stack([p, q, a, b, c]),
        hit_residuals=residual_linf(a, b, c, eps),
        interior_min=float(bounds[k]),
        interior_argmin=tuple(float(x) for x in chart_point(chart, *centres[k])),
        points=points,
    )


_STENCIL = np.linspace(-1.0, 1.0, 5)


def refine_candidate(chart: int, eps: int, p0: float,
                     q0: float) -> tuple[float, float, float, float]:
    """Shrinking-box bisection on the residual around a scan hit.

    The first box has half width 5 * ``GRID_ORACLE_STEP``.  Each of 50
    rounds samples a 5x5 sub-grid of the current box, recenters on the
    argmin and halves the box; the residual grows linearly away from the
    simple zeros, so the amplitudes converge well below 1e-10.
    """
    p_max, q_max = chart_domain(chart)
    p, q = p0, q0
    w = 5.0 * constants.GRID_ORACLE_STEP
    for _ in range(50):
        ps = np.minimum(np.maximum(p + w * _STENCIL, 0.0), p_max)
        qs = np.minimum(np.maximum(q + w * _STENCIL, 0.0), q_max)
        r = residual_linf(*chart_point(chart, ps[:, None], qs[None, :]), eps)
        i, j = divmod(int(np.argmin(r)), _STENCIL.size)
        p, q = float(ps[i]), float(qs[j])
        w *= 0.5
    a, b, c = (float(x) for x in chart_point(chart, p, q))
    return a, b, c, float(residual_linf(a, b, c, eps))
