"""Classification of totally geodesic almost complex surfaces.

A candidate tangent plane at the base point is encoded by amplitudes
(a, b, c) of a unit vector X = aY + bZ + cW with unit Y, Z, W in the three
distributions.  Total geodesy forces R(X, JX)JX to be tangent, which is a
rank-one condition on a 2x3 matrix of cubic polynomials in (a, b, c); its
three independent minors are the residuals used everywhere below.

Solutions are enumerated twice: by closed-form case analysis, and by an
interval branch-and-bound over the simplex a + b + c = 1, which meets every
ray of the residuals' zero cone, with trust-region Gauss-Newton refinement
of the surviving boxes (the oracle, see :mod:`nkflag.kernels`).  The oracle
also gives a certified lower bound on the residual over the region where
all amplitudes are nonzero.  :func:`classification_reports` judges the two
routes against each other as :class:`~nkflag.report.CheckReport` rows; a
NaN anywhere in a comparison fails its row.
"""

import dataclasses
import functools
import math

import numpy as np

from . import constants, kernels
from .lie_structure import RIEMANNIAN, check_signature, signature_label
from .nk_geometry import apply_acs, curvature_tensorial, metric_m
from .report import CheckReport, floor_check

__all__ = [
    "SolutionFamily",
    "r_xjx_closed",
    "tangency_coefficient",
    "holomorphic_K",
    "solve_families",
    "grid_oracle",
    "classification_reports",
    "canonical_amplitudes",
]


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


def tangency_coefficient(a: float, b: float, c: float, eps: int) -> tuple[float, float]:
    """(lambda, deviation): the multiple of X that R(X, JX)JX equals, and the
    largest coefficient leftover if it is not actually proportional to X."""
    cx, *comps = r_xjx_closed(a, b, c, eps)
    amps = (a, b, c)
    k = max(range(3), key=lambda i: abs(amps[i]))
    lam = cx + comps[k] / amps[k]
    return lam, float(np.max([abs(comps[i] - (lam - cx) * amps[i]) for i in range(3)]))


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
    """One congruence class of totally geodesic almost complex surfaces,
    given by the integer direction of its amplitudes."""

    direction: tuple[int, int, int]
    K: float
    norm_sign: int
    description: str
    eps: int

    @property
    def size(self) -> float:
        """|direction|, the length of the family's integer plane."""
        return math.sqrt(sum(d * d for d in self.direction))

    @property
    def amplitudes(self) -> tuple[float, float, float]:
        """The unit amplitudes direction / size."""
        return tuple(d / self.size for d in self.direction)


def canonical_amplitudes(a: float, b: float, c: float, eps: int) -> tuple[float, float, float]:
    """Quotient by the documented symmetry: absolute values, then descending
    order within groups of distributions carrying the same metric sign."""
    a, b, c = abs(a), abs(b), abs(c)
    if eps == RIEMANNIAN:
        return tuple(sorted((a, b, c), reverse=True))
    return (a, max(b, c), min(b, c))


def _family(direction: tuple[int, int, int], eps: int, description: str) -> SolutionFamily:
    """The family of a canonical integer direction; lambda and the norm both
    scale by |direction|^2, so K = lambda / norm is exact at the integers."""
    a, b, c = direction
    norm = a * a + eps * (b * b + c * c)
    lam, _ = tangency_coefficient(a, b, c, eps)
    return SolutionFamily(direction, K=lam / norm, norm_sign=1 if norm > 0 else -1,
                          description=description, eps=eps)


@functools.lru_cache(maxsize=None)
def solve_families(eps: int) -> tuple[SolutionFamily, ...]:
    """All congruence classes for one signature: exhaustive case analysis
    of the three residuals on the unit-norm set, one canonical
    representative per symmetry class.  :func:`classification_reports`
    cross-checks them against the oracle."""
    if eps == RIEMANNIAN:
        fams = (
            _family((1, 0, 0), eps, "plane inside one distribution; round sphere of radius 1/2"),
            _family((1, 1, 0), eps, "plane across two distributions; round sphere of radius 1"),
            _family((1, 1, 1), eps, "plane across all three distributions; flat torus"),
        )
    else:
        fams = (
            _family((1, 0, 0), eps, "plane inside the definite distribution; round sphere of radius 1/2"),
            _family((0, 1, 0), eps, "plane inside one negative distribution; anti-isometric to the hyperbolic plane of curvature -4"),
            _family((0, 1, 1), eps, "plane across both negative distributions; anti-isometric to the hyperbolic plane of curvature -1"),
        )
    return tuple(sorted(fams, key=lambda f: f.amplitudes, reverse=True))


@dataclasses.dataclass(frozen=True)
class OracleResult:
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
    """Independent enumeration: interval branch-and-bound over the b >= c
    half of the simplex a + b + c = 1, greedy clustering of the leaf boxes,
    then one batched trust-region Gauss-Newton refinement of every
    cluster's best hit."""
    check_signature(eps)
    scan = kernels.scan_chart(kernels.CHART_SIMPLEX, eps)
    # take the best remaining hit, drop every hit within 0.05 of it
    abc = scan.hits[:, 2:5]
    alive = np.ones(len(abc), dtype=bool)
    seeds: list[int] = []
    while alive.any():
        seeds.append(int(np.argmin(np.where(alive, scan.hit_residuals, np.inf))))
        alive &= np.linalg.norm(abc - abc[seeds[-1]], axis=1) >= 0.05
    refined = kernels.refine_candidate(eps, scan.hits[seeds, 0], scan.hits[seeds, 1])
    candidates = [(canonical_amplitudes(a, b, c, eps), res)
                  for a, b, c, res in zip(*(x.tolist() for x in refined))]
    # merge candidates that refined to the same canonical point
    merged: list[tuple[tuple[float, float, float], float]] = []
    for amps, res in sorted(candidates, key=_amplitude_order, reverse=True):
        if merged and np.linalg.norm(np.subtract(amps, merged[-1][0])) < 1e-6:
            merged[-1] = (merged[-1][0], min(merged[-1][1], res))
        else:
            merged.append((amps, res))
    return OracleResult(
        families=tuple(amps for amps, _ in merged),
        residuals=tuple(res for _, res in merged),
        interior_min=scan.interior_min,
        interior_argmin=scan.interior_argmin,
        points=scan.points,
    )


def _hausdorff(found, expected) -> float:
    """Hausdorff distance between two sets of amplitude triples: inf when
    only one is empty, NaN when a triple holds a NaN."""
    d = np.linalg.norm(np.reshape(found, (-1, 1, 3)) - np.reshape(expected, (1, -1, 3)), axis=-1)
    return float(np.max([*np.min(d, axis=0, initial=np.inf), *np.min(d, axis=1, initial=np.inf)]))


def _mirror_defect(eps: int) -> float:
    """Largest |minor_equations(a, c, b) - (r2, r1, -r3)(a, b, c)| over the
    integer nodes {0..4}^3.  Each residual has degree <= 3 in each variable,
    so a difference vanishing on these nodes vanishes identically; every
    float operation on them is exact, so the identity holds iff this is 0.0."""
    a, b, c = np.meshgrid(*[np.arange(5.0)] * 3, indexing="ij")
    r1, r2, r3 = kernels.minor_equations(a, b, c, eps)
    m1, m2, m3 = kernels.minor_equations(a, c, b, eps)
    return float(np.max(np.abs([m1 - r2, m2 - r1, m3 + r3])))


def classification_reports(eps: int, oracle: bool = True) -> list[CheckReport]:
    """One signature's verdicts: the case analysis' families are tangent
    and, with the oracle, the residuals are b <-> c symmetric (so the half
    chart suffices), the families match the oracle's, and the oracle's bound
    on the all-nonzero region is at most ``NONZERO_EMPTY_BOUND`` where the
    case analysis has a family there and at least that floor where not."""
    fams, label = solve_families(eps), signature_label(eps)
    deviation = np.max([tangency_coefficient(*f.amplitudes, eps)[1] for f in fams])
    reports = [CheckReport(f"case_analysis_tangency[{label}]", float(deviation),
                           constants.TOL_EXACT, len(fams))]
    if oracle:
        reports.append(CheckReport(f"oracle_mirror_symmetry[{label}]", _mirror_defect(eps),
                                   constants.TOL_INTEGER_IDENTITY, 5 ** 3))
        found = grid_oracle(eps)
        reports.append(CheckReport(f"oracle_family_match[{label}]",
                                   _hausdorff(found.families, [f.amplitudes for f in fams]),
                                   constants.ORACLE_MATCH_TOL, len(found.families)))
        bound, floor = found.interior_min, constants.NONZERO_EMPTY_BOUND
        if any(min(f.amplitudes) >= constants.NONZERO_MARGIN for f in fams):
            reports.append(CheckReport(f"oracle_interior_occupied[{label}]", bound, floor,
                                       found.points))
        else:
            reports.append(floor_check(f"oracle_interior_empty[{label}]", floor, bound,
                                       found.points))
    return reports

