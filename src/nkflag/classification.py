"""Classification of totally geodesic almost complex surfaces.

A candidate tangent plane at the base point is encoded by amplitudes
(a, b, c) of a unit vector X = aY + bZ + cW with unit Y, Z, W in the three
distributions.  Total geodesy forces R(X, JX)JX to be tangent, which is a
rank-one condition on a 2x3 matrix of cubic polynomials in (a, b, c); its
three independent minors are the residuals used everywhere below.

Solutions are enumerated twice: by closed-form case analysis, and by an
interval branch-and-bound over the unit sphere of amplitudes, which meets
every ray of the residuals' zero cone, with local refinement of the
surviving boxes (the oracle, see :mod:`nkflag.kernels`).  The oracle
also gives a certified lower bound on the residual over the region where
all amplitudes are nonzero.  A mismatch between the two routes raises
:class:`ClassificationError` rather than being patched over; so does a NaN
anywhere in the comparison.
"""

import dataclasses
import functools
import math

import numpy as np

from . import constants, kernels
from .kernels import minor_equations
from .lie_structure import RIEMANNIAN, check_signature
from .nk_geometry import (
    acs_matrix,
    apply_acs,
    curvature_tensorial,
    distribution_amplitudes,
    g_tensor,
    metric_m,
)

__all__ = [
    "ClassificationError",
    "TangentDecomposition",
    "SolutionFamily",
    "ji_on_JX",
    "r_xjx_closed",
    "minor_equations",
    "rank_condition_matrix",
    "rank_condition_minors",
    "tangency_coefficient",
    "holomorphic_K",
    "solve_families",
    "grid_oracle",
    "canonical_amplitudes",
    "phase_align",
    "rotate_frame",
    "random_distribution_unit",
]

_SQ2 = math.sqrt(2.0)
_SQ3 = math.sqrt(3.0)


class ClassificationError(RuntimeError):
    """The grid oracle and the closed-form case analysis disagree."""


# ---------------------------------------------------------------------------
# tangent-plane decompositions
# ---------------------------------------------------------------------------

def random_distribution_unit(rng: np.random.Generator, distribution: int) -> np.ndarray:
    """Random unit vector inside one distribution (0, 1 or 2); its squared
    norm is +1 on V1 and the signature sign on V2, V3."""
    phi = rng.uniform(0.0, 2.0 * math.pi)
    v = np.zeros(6)
    v[distribution] = math.cos(phi)
    v[distribution + 3] = math.sin(phi)
    return v


@dataclasses.dataclass(frozen=True)
class TangentDecomposition:
    """X = a Y + b Z + c W with unit Y, Z, W in V1, V2, V3."""

    a: float
    b: float
    c: float
    y: np.ndarray
    z: np.ndarray
    w: np.ndarray
    eps: int

    def __post_init__(self):
        check_signature(self.eps)
        for name in ("y", "z", "w"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        expected = (1.0, float(self.eps), float(self.eps))
        for name, vec, slot, want in (("y", self.y, 0, expected[0]),
                                      ("z", self.z, 1, expected[1]),
                                      ("w", self.w, 2, expected[2])):
            vec = np.asarray(vec, dtype=float)
            amps = distribution_amplitudes(vec, self.eps)
            others = [amps[d] for d in range(3) if d != slot]
            if not all(x <= 1e-12 for x in others):
                raise ValueError(f"{name} is not contained in distribution V{slot + 1}")
            if not abs(metric_m(vec, vec, self.eps) - want) <= 1e-12:
                raise ValueError(f"{name} must have squared norm {want}")

    def assemble(self) -> np.ndarray:
        return self.a * self.y + self.b * self.z + self.c * self.w

    @classmethod
    def random(cls, rng: np.random.Generator, a: float, b: float, c: float,
               eps: int) -> "TangentDecomposition":
        return cls(a, b, c,
                   random_distribution_unit(rng, 0),
                   random_distribution_unit(rng, 1),
                   random_distribution_unit(rng, 2), eps)


def ji_on_JX(dec: TangentDecomposition) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three vectors J_i J X, which only flip distribution amplitudes:
    (-a, b, c), (a, b, -c) and (a, -b, c) against the (Y, Z, W) frame."""
    a, b, c = dec.a, dec.b, dec.c
    return (
        -a * dec.y + b * dec.z + c * dec.w,
        a * dec.y + b * dec.z - c * dec.w,
        a * dec.y - b * dec.z + c * dec.w,
    )


# ---------------------------------------------------------------------------
# the rank-one condition
# ---------------------------------------------------------------------------

def r_xjx_closed(a: float, b: float, c: float, eps: int) -> tuple[float, float, float, float]:
    """Coefficients of R(X, JX)JX against (X, Y, Z, W) as cubic polynomials
    in the amplitudes."""
    check_signature(eps)
    e = float(eps)
    coef_x = -0.5 * (a * a + e * b * b + e * c * c)
    coef_y = 1.5 * (3.0 * a ** 3 - e * a * b * b - e * a * c * c)
    coef_z = 1.5 * (3.0 * e * b ** 3 - a * a * b - e * b * c * c)
    coef_w = 1.5 * (3.0 * e * c ** 3 - e * b * b * c - a * a * c)
    return coef_x, coef_y, coef_z, coef_w


def rank_condition_matrix(a: float, b: float, c: float, eps: int) -> np.ndarray:
    """2x3 matrix whose rank-one condition characterizes tangency of
    R(X, JX)JX: top row the (Y, Z, W) curvature coefficients, bottom row
    the amplitudes."""
    _, cy, cz, cw = r_xjx_closed(a, b, c, eps)
    return np.array([[cy, cz, cw], [a, b, c]])


def rank_condition_minors(a: float, b: float, c: float, eps: int) -> tuple[float, float, float]:
    """The three 2x2 minors of :func:`rank_condition_matrix` (columns 12, 13, 23).

    They equal the residuals of :func:`minor_equations` up to the constant
    factors (6, 6, -6*eps)."""
    m = rank_condition_matrix(a, b, c, eps)

    def minor(i, j):
        return m[0, i] * m[1, j] - m[0, j] * m[1, i]

    return minor(0, 1), minor(0, 2), minor(1, 2)


def tangency_coefficient(a: float, b: float, c: float, eps: int) -> tuple[float, float]:
    """(lambda, deviation): the multiple of X that R(X, JX)JX equals, and the
    largest coefficient leftover if it is not actually proportional to X."""
    cx, cy, cz, cw = r_xjx_closed(a, b, c, eps)
    amps = (a, b, c)
    comps = (cy, cz, cw)
    k = max(range(3), key=lambda i: abs(amps[i]))
    lam = cx + comps[k] / amps[k]
    dev = float(np.max([abs(comps[i] - (lam - cx) * amps[i]) for i in range(3)]))
    return lam, dev


def holomorphic_K(x, eps: int) -> float | np.ndarray:
    """Sectional curvature of the plane (X, JX) for non-null X.

    ``x`` is one vector (a float comes back) or a ``(..., 6)`` batch (an
    array comes back); any (near-)null vector in the batch raises.
    """
    x = np.asarray(x, dtype=float)
    nx = metric_m(x, x, eps)
    null = np.abs(nx) < 1e-8
    if np.any(null):
        value = np.asarray(nx)[null].flat[0]
        raise ValueError(f"holomorphic curvature undefined for (near-)null vectors, <X,X> = {value:.2e}")
    jx = apply_acs("J", x)
    r = curvature_tensorial(x, jx, jx, eps)
    k = metric_m(r, x, eps) / (nx * metric_m(jx, jx, eps))
    return float(k) if np.ndim(k) == 0 else k


# ---------------------------------------------------------------------------
# solution families
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class SolutionFamily:
    """One congruence class of totally geodesic almost complex surfaces."""

    amplitudes: tuple[float, float, float]
    K: float
    norm_sign: int
    description: str
    eps: int


def canonical_amplitudes(a: float, b: float, c: float, eps: int) -> tuple[float, float, float]:
    """Quotient by the documented symmetry: absolute values, then descending
    order within groups of distributions carrying the same metric sign."""
    a, b, c = abs(a), abs(b), abs(c)
    if eps == RIEMANNIAN:
        return tuple(sorted((a, b, c), reverse=True))
    hi, lo = max(b, c), min(b, c)
    return (a, hi, lo)


def _family(a: float, b: float, c: float, eps: int, description: str) -> SolutionFamily:
    norm = a * a + eps * (b * b + c * c)
    norm_sign = 1 if norm > 0 else -1
    lam, dev = tangency_coefficient(a, b, c, eps)
    if not dev <= 1e-12:
        raise ClassificationError(
            f"case-analysis amplitudes ({a}, {b}, {c}) are not tangent: deviation {dev:.2e}")
    return SolutionFamily(
        amplitudes=canonical_amplitudes(a, b, c, eps),
        K=lam / norm,
        norm_sign=norm_sign,
        description=description,
        eps=eps,
    )


def _closed_form_families(eps: int) -> tuple[SolutionFamily, ...]:
    """Exhaustive case analysis of the three residuals on the unit-norm set,
    one canonical representative per symmetry class."""
    if eps == RIEMANNIAN:
        fams = (
            _family(1.0, 0.0, 0.0, eps, "plane inside one distribution; round sphere of radius 1/2"),
            _family(1.0 / _SQ2, 1.0 / _SQ2, 0.0, eps, "plane across two distributions; round sphere of radius 1"),
            _family(1.0 / _SQ3, 1.0 / _SQ3, 1.0 / _SQ3, eps, "plane across all three distributions; flat torus"),
        )
    else:
        fams = (
            _family(1.0, 0.0, 0.0, eps, "plane inside the definite distribution; round sphere of radius 1/2"),
            _family(0.0, 1.0, 0.0, eps, "plane inside one negative distribution; anti-isometric to the hyperbolic plane of curvature -4"),
            _family(0.0, 1.0 / _SQ2, 1.0 / _SQ2, eps, "plane across both negative distributions; anti-isometric to the hyperbolic plane of curvature -1"),
        )
    return tuple(sorted(fams, key=lambda f: f.amplitudes, reverse=True))


@dataclasses.dataclass(frozen=True)
class OracleResult:
    eps: int
    step: float
    families: tuple[tuple[float, float, float], ...]
    residuals: tuple[float, ...]
    interior_min: float
    interior_argmin: tuple[float, float, float]
    points: int


def _amplitude_order(item) -> tuple[float, ...]:
    """Sort key of an (amplitudes, residual) pair: amplitudes rounded far
    above rounding noise (a = 6e-17 must not outrank a = 3e-16) and far
    below ``ORACLE_MATCH_TOL``."""
    return tuple(round(x, 12) for x in item[0])


def grid_oracle(eps: int) -> OracleResult:
    """Independent enumeration: interval branch-and-bound over the amplitude
    sphere, greedy clustering of the leaf boxes, then shrinking-box
    refinement of each cluster."""
    check_signature(eps)
    scan = kernels.scan_chart(kernels.CHART_SPHERE, eps)
    candidates: list[tuple[tuple[float, float, float], float]] = []
    # take the best remaining hit, drop every hit within 0.05 of it
    abc = scan.hits[:, 2:5]
    alive = np.ones(len(abc), dtype=bool)
    while alive.any():
        idx = int(np.argmin(np.where(alive, scan.hit_residuals, np.inf)))
        alive &= np.linalg.norm(abc - abc[idx], axis=1) >= 0.05
        a, b, c, res = kernels.refine_candidate(
            scan.chart, eps, scan.hits[idx, 0], scan.hits[idx, 1])
        candidates.append((canonical_amplitudes(a, b, c, eps), res))
    # merge candidates that refined to the same canonical point
    merged: list[tuple[tuple[float, float, float], float]] = []
    for amps, res in sorted(candidates, key=_amplitude_order):
        if merged and np.linalg.norm(np.subtract(amps, merged[-1][0])) < 1e-6:
            merged[-1] = (merged[-1][0], min(merged[-1][1], res))
            continue
        merged.append((amps, res))
    merged.sort(key=_amplitude_order, reverse=True)
    return OracleResult(
        eps=eps,
        step=constants.GRID_ORACLE_STEP,
        families=tuple(amps for amps, _ in merged),
        residuals=tuple(res for _, res in merged),
        interior_min=scan.interior_min,
        interior_argmin=scan.interior_argmin,
        points=scan.points,
    )


@functools.lru_cache(maxsize=None)
def solve_families(eps: int, *, oracle: bool = True) -> tuple[SolutionFamily, ...]:
    """All congruence classes for one signature, cross-checked by the oracle.

    Raises :class:`ClassificationError` if the oracle finds a family the case
    analysis missed (or vice versa), or if the oracle's certified lower bound
    on the all-nonzero region disagrees with the case analysis: above
    ``NONZERO_EMPTY_BOUND`` exactly when no family lies there (the split
    form).  Every comparison fails on NaN.
    """
    fams = _closed_form_families(eps)
    if oracle:
        found = grid_oracle(eps)
        expected = [np.array(f.amplitudes) for f in fams]
        for abc in found.families:
            dists = [np.linalg.norm(np.array(abc) - e) for e in expected]
            if not np.min(dists) <= constants.ORACLE_MATCH_TOL:
                raise ClassificationError(
                    f"grid oracle found a family missed by the case analysis: {abc}")
        for f, e in zip(fams, expected):
            if not any(np.linalg.norm(np.array(abc) - e) <= constants.ORACLE_MATCH_TOL
                       for abc in found.families):
                raise ClassificationError(
                    f"grid oracle did not recover the family {f.amplitudes}")
        occupied = any(min(f.amplitudes) >= constants.NONZERO_MARGIN for f in fams)
        bound = found.interior_min
        if not (bound <= constants.NONZERO_EMPTY_BOUND if occupied
                else bound > constants.NONZERO_EMPTY_BOUND):
            raise ClassificationError(
                f"oracle lower bound {bound:.2e} on the all-nonzero region (box at "
                f"{found.interior_argmin}) contradicts the case analysis, which has "
                f"{'a' if occupied else 'no'} family there")
    return fams


# ---------------------------------------------------------------------------
# phase normalization of the fully generic frame
# ---------------------------------------------------------------------------

def rotate_frame(y, z, w, phi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simultaneous rotation of a (Y, Z, W) frame inside its holomorphic planes."""
    j = acs_matrix("J")
    cp, sp = math.cos(phi), math.sin(phi)
    rot = lambda v: cp * np.asarray(v, float) + sp * (np.asarray(v, float) @ j.T)
    return rot(y), rot(z), rot(w)


def phase_align(y, z, w, eps: int = RIEMANNIAN) -> tuple[float, float]:
    """Phase data of a unit frame (Y in V1, Z in V2, W in V3).

    Returns (theta, phi): theta locates G(Y, Z) inside the (W, JW) plane,
    and rotating the frame by phi makes G(Y, Z) land exactly on JW.  The
    rotation angle is found numerically from the evaluated tensor (coarse
    sweep plus golden-section refinement) rather than trusting any hand
    sign bookkeeping.
    """
    y = np.asarray(y, float)
    z = np.asarray(z, float)
    w = np.asarray(w, float)
    g = g_tensor(y, z, eps)
    jw = apply_acs("J", w)
    gw = metric_m(w, w, eps)
    theta = math.atan2(metric_m(g, jw, eps) / gw, metric_m(g, w, eps) / gw)

    def misalignment(phi: float) -> float:
        ry, rz, rw = rotate_frame(y, z, w, phi)
        return float(np.linalg.norm(g_tensor(ry, rz, eps) - apply_acs("J", rw)))

    grid = np.linspace(-math.pi, math.pi, 721)
    phi = float(grid[int(np.argmin([misalignment(p) for p in grid]))])
    lo, hi = phi - 0.01, phi + 0.01
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = misalignment(c), misalignment(d)
    for _ in range(80):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = misalignment(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = misalignment(d)
    phi = 0.5 * (lo + hi)
    if misalignment(phi) > constants.TOL_EXACT:
        raise RuntimeError(
            f"frame rotation failed to align the structure tensor: residual {misalignment(phi):.2e}")
    return theta, phi
