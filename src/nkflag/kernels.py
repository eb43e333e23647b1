"""Classification oracle kernels: interval branch-and-bound, then Newton refinement.

The oracle covers the chart with (b, c) boxes.  Every box gets a rigorous
interval enclosure of the amplitudes (a, b, c) and from it a lower bound on
the largest normalized tangency residual over the box (interval arithmetic
in the style of Moore, Kearfott & Cloud, *Introduction to Interval
Analysis*, SIAM 2009).  A box whose bound clears the hit threshold holds no
solution and is dropped; the rest are bisected down to the oracle step.
The surviving leaf boxes are the hits, and the smallest bound over the
boxes that meet the all-nonzero region is a proven lower bound on the
residual there, not a sample.  Each cluster's best hit is then refined with
the residuals' exact Jacobian inside a trust region around it.

Chart
-----
One chart serves both signatures: the simplex a + b + c = 1, with chart
coordinates (b, c) and a = 1 - b - c.  The residuals are homogeneous of
degree 4, so their zeros form a cone; every ray of the positive octant,
null rays of the split form included, meets the simplex once, where
|x|^2 >= 1/3, and a residual is judged as |r| / |x|^4, its value at the
ray's unit vector.  The octant suffices: each residual is odd or even under
each sign flip of a, b, c.  One fundamental domain suffices too: each swap
in ``_MIRRORS`` permutes the residuals up to sign, so the scan keeps only
the boxes that may meet a >= b >= c (compact form) or b >= c (split form),
and ``oracle_mirror_symmetry`` proves every swap.  Every bound uses +, -
and * rounded one ulp outward, then one / and one sqrt nudged one ulp;
IEEE 754 rounds all five correctly, so no bound rests on libm.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import constants
from .lie_structure import check_signature

CHART_SIMPLEX = 0

#: (b_max, c_max) of the chart; both coordinates start at 0
CHART_DOMAIN = (1.0, 0.5)

#: per signature, the swaps (i, j, order, signs) of the fundamental domain's x_i >= x_j:
#: minor_equations with x_i and x_j exchanged is (signs[k] * r[order[k]] for k < 3)
_MIRRORS = {1: ((1, 2, (1, 0, 2), (1, 1, -1)),      # (a, c, b) -> (r2, r1, -r3)
                (0, 1, (0, 2, 1), (-1, -1, -1))),   # (b, a, c) -> (-r1, -r3, -r2)
            -1: ((1, 2, (1, 0, 2), (1, 1, -1)),)}   # a <-> b would mix metric signs


def active_backend() -> str:
    """Name of the array backend; the oracle is numpy code only."""
    return "numpy"


def chart_point(b, c):
    """Unit amplitudes x / |x| of x = (1 - b - c, b, c), scalar or array."""
    a = 1.0 - b - c
    norm = np.sqrt(a * a + b * b + c * c)
    return a / norm, b / norm, c / norm


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


def mirror_defect(eps: int) -> tuple[float, int]:
    """The largest defect of the swaps of ``_MIRRORS[eps]`` on the nodes {0..4}^3,
    and the number of node-swap pairs.  Each residual has degree <= 3 in each
    variable and no float op on the nodes rounds, so the swaps hold iff it is 0.0."""
    x = np.meshgrid(*[np.arange(5.0)] * 3, indexing="ij")
    r, defects = minor_equations(*x, eps), [0.0]
    for i, j, order, signs in _MIRRORS[eps]:
        y = [x[{i: j, j: i}.get(k, k)] for k in range(3)]
        defects += [np.max(np.abs(m - s * r[k]))
                    for m, k, s in zip(minor_equations(*y, eps), order, signs)]
    return float(np.max(defects)), x[0].size * len(_MIRRORS[eps])


def residual_linf(a, b, c, eps: int):
    """Largest magnitude among the three tangency residuals (vectorized)."""
    r1, r2, r3 = (np.abs(r) for r in minor_equations(a, b, c, eps))
    return np.maximum(r1, np.maximum(r2, r3))


def _outward(lo, hi):
    """One ulp outward: encloses the exact result of a rounded + - * op."""
    return np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)


def _add(x, y):
    return _outward(x[0] + y[0], x[1] + y[1])


def _sub(x, y):
    return _outward(x[0] - y[1], x[1] - y[0])


def _mul_nonneg(x, y):
    """Product of two intervals whose exact ranges are >= 0."""
    return _outward(x[0] * y[0], x[1] * y[1])


def _mul(m, d):
    """Product of an interval m >= 0 with a general interval d."""
    return _outward(np.minimum(m[0] * d[0], m[1] * d[0]),
                    np.maximum(m[0] * d[1], m[1] * d[1]))


def _norm_lo(n2_lo):
    """A float at most |x| wherever |x|^2 >= n2_lo: on the simplex also
    |x|^2 >= (a + b + c)^2 / 3 = 1/3, and float 1/3 is below it."""
    return np.nextafter(np.sqrt(np.maximum(n2_lo, 1.0 / 3.0)), 0.0)


def box_enclosure(eps: int, b_lo, b_hi, c_lo, c_hi):
    """(lower, a_hi, b_hi, c_hi) for each box [b_lo, b_hi] x [c_lo, c_hi]:
    over the box's points with a = 1 - b - c >= 0, the rounding-safe
    lower(|r|) / upper(|x|^2)^2 <= :func:`residual_linf` of the unit
    amplitudes, and upper bounds on those amplitudes.  A NaN anywhere in
    the arithmetic comes out as a NaN ``lower``."""
    check_signature(eps)
    b, c = (b_lo, b_hi), (c_lo, c_hi)
    a_lo, a_hi = _sub((1.0, 1.0), _add(b, c))
    a = np.maximum(a_lo, 0.0), a_hi
    a2, b2, c2 = (_mul_nonneg(x, x) for x in (a, b, c))
    signed = (lambda x: x) if eps > 0 else (lambda x: (-x[1], -x[0]))
    residuals = (_mul(_mul_nonneg(a, b), _sub(a2, signed(b2))),
                 _mul(_mul_nonneg(a, c), _sub(a2, signed(c2))),
                 _mul(_mul_nonneg(b, c), _sub(c2, b2)))
    lower = np.zeros_like(a_hi)
    for lo, hi in residuals:
        # |r| >= lo when lo > 0, >= -hi when hi < 0, else only >= 0
        lower = np.maximum(lower, np.maximum(lo, -hi))
    n2 = _add(_add(a2, b2), c2)
    lower = np.maximum(np.nextafter(lower / _mul_nonneg(n2, n2)[1], -np.inf), 0.0)
    norm_lo = _norm_lo(n2[0])
    return (lower, *(np.nextafter(x[1] / norm_lo, np.inf) for x in (a, b, c)))


@dataclass(frozen=True)
class ScanResult:
    hits: np.ndarray          # (n_hits, 5): chart b, c, then unit a, b, c at each leaf box centre
    hit_residuals: np.ndarray  # residual_linf at each leaf box centre
    interior_min: float       # proven lower bound where min(a,b,c) >= margin * |x|
    interior_argmin: tuple[float, float, float]  # unit (a, b, c) at that box's centre
    points: int               # boxes evaluated


def scan_chart(chart: int, eps: int) -> ScanResult:
    """Interval branch-and-bound over the chart down to square leaf boxes of
    width <= ``GRID_ORACLE_STEP``: each axis is bisected in as many of the
    last levels as it needs, so c, half as wide as b, sits out the first.

    Boxes that miss the fundamental domain (a >= 0 and x_i >= x_j for each swap
    of ``_MIRRORS``) are dropped unevaluated, and so are boxes whose residual
    lower bound exceeds ``ORACLE_HIT_THRESHOLD``; a box
    that may meet the region min(a, b, c) >= ``NONZERO_MARGIN`` * |x| needs
    a bound above ``NONZERO_EMPTY_BOUND`` as well.  A NaN bound never drops
    its box.  The leaves that survive are the hits.  ``interior_min`` is the
    smallest bound over the final boxes that may meet the region, where a
    NaN bound counts as meeting it and wins the minimum (inf if none does).
    """
    check_signature(eps)
    # only the simplex exists, but perfbench/layers.py names this span by the chart id
    if chart != CHART_SIMPLEX:
        raise ValueError(f"unknown chart {chart!r}")
    margin = constants.NONZERO_MARGIN
    lo, hi = np.zeros((1, 2)), np.array([CHART_DOMAIN])
    splits = [math.ceil(math.log2(w / constants.GRID_ORACLE_STEP)) for w in hi[0]]
    levels = max(splits)
    points = 0
    bounds, centres = [np.array([np.inf])], [np.full((1, 2), np.nan)]
    for level in range(levels + 1):
        # the largest and smallest a, b, c over each box; exact: dyadic ends
        x_hi, x_lo = (1.0 - lo[:, 0] - lo[:, 1], *hi.T), (1.0 - hi[:, 0] - hi[:, 1], *lo.T)
        keep = np.all([x_hi[0] >= 0.0, *(x_hi[i] >= x_lo[j] for i, j, *_ in _MIRRORS[eps])], axis=0)
        lo, hi = lo[keep], hi[keep]
        lower, a_hi, b_hi, c_hi = box_enclosure(eps, lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1])
        points += lower.size
        meets = ((a_hi >= margin) & (b_hi >= margin) & (c_hi >= margin)) | np.isnan(lower)
        drop = (lower > constants.ORACLE_HIT_THRESHOLD) & (
            ~meets | (lower > constants.NONZERO_EMPTY_BOUND))
        final = (drop | (level == levels)) & meets
        bounds.append(lower[final])
        centres.append(0.5 * (lo[final] + hi[final]))
        lo, hi = lo[~drop], hi[~drop]
        if level < levels:
            for axis in [ax for ax in (0, 1) if level >= levels - splits[ax]]:
                # both children take the same float midpoint: no gap between them
                mid, k = 0.5 * (lo[:, axis] + hi[:, axis]), len(lo)
                lo, hi = np.concatenate([lo, lo]), np.concatenate([hi, hi])
                hi[:k, axis] = lo[k:, axis] = mid
    bounds, centres = np.concatenate(bounds), np.concatenate(centres)
    k = int(np.argmin(bounds))  # the first NaN, if there is one
    mid = 0.5 * (lo + hi)
    a, b, c = chart_point(mid[:, 0], mid[:, 1])
    return ScanResult(
        hits=np.column_stack([mid, a, b, c]),
        hit_residuals=residual_linf(a, b, c, eps),
        interior_min=float(bounds[k]),
        interior_argmin=tuple(float(x) for x in chart_point(*centres[k])),
        points=points,
    )


def _jacobian(a, b, c, eps: int):
    """((dr1/db, dr1/dc), (dr2/db, dr2/dc), (dr3/db, dr3/dc)) of
    :func:`minor_equations` along the simplex, where a = 1 - b - c."""
    r1_a, r2_a = b * (3.0 * a * a - eps * b * b), c * (3.0 * a * a - eps * c * c)
    return ((a * (a * a - 3.0 * eps * b * b) - r1_a, -r1_a),
            (-r2_a, a * (a * a - 3.0 * eps * c * c) - r2_a),
            (c * (c * c - 3.0 * b * b), b * (3.0 * c * c - b * b)))


def refine_candidate(eps: int, b0, c0):
    """Gauss-Newton in (b, c) on the three residuals from scan hits: Cramer's
    rule on the 2x2 normal equations, a step that is not finite skipped, and
    each point clamped to its trust region, the seed's box of half width
    10 * ``GRID_ORACLE_STEP`` within the chart.  It stops when no point moved,
    when every point is back where it was two steps before, or after 8 steps.
    A step reads only (b, c), so from there on every point stays put or
    alternates between two values, and taking the iterate of step 8's parity
    changes no bit.  Unit (a, b, c) and residual are floats for scalar seeds,
    arrays for 1-D seeds, bitwise as if alone."""
    bc, w = np.array([b0, c0], dtype=float).reshape(2, -1), 10.0 * constants.GRID_ORACLE_STEP
    lo, hi = np.maximum(bc - w, 0.0), np.minimum(bc + w, np.reshape(CHART_DOMAIN, (2, 1)))
    before = np.full_like(bc, np.nan)  # the iterate two steps back; NaN equals nothing
    for k in range(1, 9):
        a = 1.0 - bc[0] - bc[1]
        # one row (dr/db, dr/dc, r) per residual; J^T J = [[p, q], [q, t]], J^T r = (gb, gc)
        rows = [(*j, r) for j, r in zip(_jacobian(a, *bc, eps), minor_equations(a, *bc, eps))]
        p, q, t, gb, gc = (sum(x[m] * x[n] for x in rows)
                           for m, n in ((0, 0), (0, 1), (1, 1), (0, 2), (1, 2)))
        with np.errstate(all="ignore"):  # a singular system gives a non-finite step
            det = p * t - q * q
            step = np.array([(q * gc - t * gb) / det, (q * gb - p * gc) / det])
        new = np.where(np.isfinite(step).all(axis=0), np.minimum(np.maximum(bc + step, lo), hi), bc)
        if np.array_equal(new, bc):
            break
        if np.array_equal(new, before):
            bc = new if k % 2 == 0 else bc
            break
        before, bc = bc, new
    a, b, c = chart_point(*bc)
    out = a, b, c, residual_linf(a, b, c, eps)
    return tuple(float(x[0]) for x in out) if np.ndim(b0) == 0 else out
