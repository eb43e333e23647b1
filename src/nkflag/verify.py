"""Composed verification suites across all structural layers.

``run_verification`` evaluates, for one signature, the algebra-level
invariants read off the structure constants (Jacobi, reductivity, Killing
form, torus invariance), the exponential contracts, the connection table,
the identity suite, and the dual-route curvature checks.  Every check but
the three ``expm`` contracts is a finite basis check that is complete: the
identities are multilinear, so holding on the basis tuples proves them for
all arguments; the metric family enters linearly, so three independent
weight vectors cover every weight; and the isotropy torus is connected, so
the infinitesimal action of h1, h2 decides its invariants.  ``expm`` is not
polynomial, so its contracts are sampled from ``random.Random(seed)``, read
only through ``random()``, the one method whose sequence Python keeps across
versions; the global ``random`` state is never touched.  Reductions use
``np.max`` so a NaN anywhere, a NaN sample included, reaches the report.  It
returns plain reports; pass/fail policy lives in the tolerances.
``corruption_self_test`` flips one basis sign, rebuilds the bracket route
through the production table construction, and measures how far the
curvature cross-check moves; ``run_verification(..., self_test=True)``
requires it to move by at least ``CONTROL_RESIDUAL_MIN``: a meta-check that
the suite has teeth.
"""

import math
import random

import numpy as np

from . import constants, lie_structure, nk_geometry
from .lie_structure import (
    H_SLICE,
    M5,
    M_SLICE,
    RIEMANNIAN,
    basis,
    coefficients,
    from_coefficients,
    gram_diagonal,
    signature_label,
    structure_constants,
)
from .matrix_core import expm, identity, max_abs
from .nk_geometry import curvature_lie, curvature_tensorial
from .report import CheckReport, floor_check

__all__ = [
    "run_verification",
    "connection_table",
    "expected_connection_table",
    "corruption_self_test",
    "curvature_cross_check",
]

# the 24 nonzero connection coefficients of the compact form, as
# (source slot, argument slot) -> (image slot, coefficient) with slots 1..6
_CONNECTION_TABLE_COMPACT = {
    (1, 2): (3, +0.5), (2, 3): (1, +0.5), (3, 1): (2, +0.5),
    (1, 3): (2, -0.5), (2, 1): (3, -0.5), (3, 2): (1, -0.5),
    (1, 5): (6, +0.5), (2, 6): (4, +0.5), (3, 4): (5, -0.5),
    (1, 6): (5, -0.5), (2, 4): (6, -0.5), (3, 5): (4, +0.5),
    (4, 2): (6, +0.5), (5, 3): (4, -0.5), (6, 1): (5, +0.5),
    (4, 3): (5, +0.5), (5, 1): (6, -0.5), (6, 2): (4, -0.5),
    (4, 5): (3, -0.5), (5, 6): (1, +0.5), (6, 4): (2, +0.5),
    (4, 6): (2, -0.5), (5, 4): (3, +0.5), (6, 5): (1, -0.5),
}


def expected_connection_table(eps: int) -> dict:
    """The tabulated coefficients; the split form flips the sign of exactly
    the pairs joining the two negative distributions V2 and V3."""
    dist, flip = nk_geometry.DISTRIBUTION_OF_SLOT, 1.0 if eps == RIEMANNIAN else -1.0
    return {(p, q): (slot, flip * coef if {dist[p - 1], dist[q - 1]} == {1, 2} else coef)
            for (p, q), (slot, coef) in _CONNECTION_TABLE_COMPACT.items()}


def connection_table(eps: int) -> tuple[float, float, float]:
    """(table error, off-table error, diagonal error): worst deviation of the
    connection from the tabulated coefficients, worst value on pairs that
    should vanish, and worst value of its symmetric part on the basis, which
    vanishes exactly when the connection vanishes on the diagonal."""
    expected = expected_connection_table(eps)
    pairs = np.array(list(expected)) - 1
    slots, coefs = zip(*expected.values())
    want = np.zeros((6, 6, 6))
    want[pairs[:, 0], pairs[:, 1], np.array(slots) - 1] = coefs
    on_table = np.zeros((6, 6), dtype=bool)
    on_table[pairs[:, 0], pairs[:, 1]] = True
    e6 = np.eye(6)
    nab = nk_geometry.nabla(e6[:, None], e6[None, :], eps)
    err = np.max(np.abs(nab - want), axis=-1)
    diagonal = np.max(np.abs(nab + np.swapaxes(nab, 0, 1)))
    return float(np.max(err[on_table])), float(np.max(err[~on_table])), float(diagonal)


def _basis_triples() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, z) broadcasting to every ordered triple of tangent basis vectors:
    a tensor evaluated on them has axes (i, j, k, component)."""
    e6 = np.eye(6)
    return e6[:, None, None], e6[None, :, None], e6[None, None, :]


def curvature_cross_check(eps: int) -> float:
    """Worst difference of the two curvature routes over all basis triples."""
    x, y, z = _basis_triples()
    d = curvature_lie(x, y, z, eps) - curvature_tensorial(x, y, z, eps)
    return float(np.max(np.abs(d)))


def _uniform(rng: random.Random, lo: float, hi: float, shape: tuple[int, ...]) -> np.ndarray:
    """An array of ``shape`` filled in C order with ``rng.random()`` mapped
    affinely onto [lo, hi)."""
    draws = np.array([rng.random() for _ in range(math.prod(shape))])
    return lo + (hi - lo) * draws.reshape(shape)


def run_verification(eps: int, seed: int = constants.DEFAULT_SEED,
                     tol_exact: float | None = None,
                     self_test: bool = False) -> list[CheckReport]:
    """Full structural suite for one signature; 44 reports (43 in the split
    form, which has no Killing-form check), plus
    ``self_test_corruption_detected`` with ``self_test``.  ``seed`` drives
    only the ``expm`` samples, and ``tol_exact`` judges only them: every
    other row reads an exact table and is judged at ``TOL_INTEGER_IDENTITY``."""
    lie_structure.check_signature(eps)
    tol_exact = constants.TOL_EXACT if tol_exact is None else tol_exact
    label = signature_label(eps)
    b = basis(eps)
    gram = gram_diagonal(eps)
    reports: list[CheckReport] = []

    def add(name, err, n, tol=constants.TOL_INTEGER_IDENTITY):
        reports.append(CheckReport(f"{name}[{label}]", float(err), tol, n))

    # --- algebra layer: every bracket fact is read off the structure constants ---
    add("basis_traceless", np.max(np.abs(np.trace(b, axis1=-2, axis2=-1))), 8)
    add("basis_antihermitian", max_abs(lie_structure._twisted_adjoint(b, eps) + b), 8)

    expected_gram = np.array([1, 3, 1, 1, 1, 1, 1, 1.0] if eps == RIEMANNIAN
                             else [1, 3, 1, -1, -1, 1, -1, -1.0])
    add("gram_diagonal", np.max(np.abs(gram - expected_gram)), 8)

    # the round trip is linear, so the eight coordinate vectors are complete
    e8 = np.eye(8)
    add("coefficient_roundtrip",
        np.max(np.abs(coefficients(from_coefficients(e8, eps), eps) - e8)), 8)

    sc = structure_constants(eps)
    add("structure_antisymmetry", np.max(np.abs(sc + np.swapaxes(sc, 0, 1))), 64)

    # outer[i, j, k, m]: coefficient of b_m in [b_i, [b_j, b_k]]; the cyclic
    # terms [b_j, [b_k, b_i]] and [b_k, [b_i, b_j]] are its axes permuted
    outer = np.einsum("jkl,ilm->ijkm", sc, sc)
    jac = outer + outer.transpose(2, 0, 1, 3) + outer.transpose(1, 2, 0, 3)
    add("jacobi_identity", np.max(np.abs(jac)), 512)

    add("reductive_bracket", np.max(np.abs(sc[H_SLICE, M_SLICE, H_SLICE])), 12)

    # The isotropy torus is connected and equals exp(span(h1, h2)), so Ad of
    # each of its elements is exp of a combination of ad(h1), ad(h2).  It
    # preserves the metric and each Vi iff ad(h1), ad(h2) are skew for the
    # metric and preserve each Vi; both are basis facts about sc[H, :].
    # ad_h[a, i, k]: coefficient of b_k in [h_a, b_i]
    ad_h = sc[H_SLICE]
    ad_low = ad_h * gram   # <[h_a, b_i], b_j>
    add("metric_ad_invariance", np.max(np.abs(ad_low + np.swapaxes(ad_low, 1, 2))), 128)
    # own[i, k]: basis slot k lies in the distribution of tangent slot i
    dist = np.array([-1, -1, *nk_geometry.DISTRIBUTION_OF_SLOT])
    own = dist[M_SLICE, None] == dist[None, :]
    add("ad_preserves_distributions", np.max(np.abs(ad_h[:, M_SLICE][:, ~own])), 12)

    if eps == RIEMANNIAN:
        # Killing form B_ij = tr(ad b_i ad b_j) = sum_kl c_ikl c_jlk; on su(3)
        # it is 6 tr(xy), and the metric is -tr(xy) / 2
        killing = np.einsum("ikl,jlk->ij", sc, sc)
        add("killing_form_proportionality", np.max(np.abs(killing + 12.0 * np.diag(gram))), 64)

    # --- exponential contracts: expm is not polynomial, so these stay sampled
    # (hyperbolic directions cap the usable norm) ---
    rng = random.Random(seed)
    scale = 10.0 if eps == RIEMANNIAN else 2.0
    xs = from_coefficients(_uniform(rng, -1.0, 1.0, (64, 8)), eps)
    # the SVD raises on a NaN sample; zeroed for the norm only, it stays in xs
    norms = np.maximum(np.linalg.norm(np.nan_to_num(xs), 2, axis=(-2, -1)), 1e-12)
    xs *= (scale * _uniform(rng, 0.1, 1.0, (64,)) / norms)[:, None, None]
    g, g_inv = expm(np.stack([xs, -xs]))
    add("expm_inverse_defect", max_abs(g @ g_inv - identity()), 64, tol_exact)
    add("expm_group_membership", lie_structure.group_defect(g, eps), 64, tol_exact)

    # commuting pairs: the isotropy plane, and scaled copies of one element
    x, y = np.einsum("...a,ajk->...jk", _uniform(rng, -2.0, 2.0, (2, 32, 2)), b[H_SLICE])
    z = from_coefficients(_uniform(rng, -1.0, 1.0, (32, 8)), eps)
    exy, ex, ey, e17z, ez, e07z = expm(np.stack([x + y, x, y, 1.7 * z, z, 0.7 * z]))
    add("expm_commuting_product",
        max_abs(np.stack([exy - ex @ ey, e17z - ez @ e07z])), 64, tol_exact)

    # --- connection table ---
    table_err, off_err, diagonal_err = connection_table(eps)
    add("connection_table", table_err, 24)
    add("connection_off_table", off_err, 12)
    add("connection_diagonal", diagonal_err, 36)

    # --- identity suite, opening with the structure tensor's pinned value ---
    reports.extend(
        CheckReport(f"{r.name}[{label}]", r.max_abs_error, r.tolerance, r.samples)
        for r in nk_geometry.identity_suite(eps)
    )

    # --- curvature: both routes and the tensor properties on every basis triple ---
    add("curvature_lie_vs_tensorial", curvature_cross_check(eps), 216)

    # rxyz[i, j, k] = R(e_i, e_j) e_k; R at permuted arguments is the same
    # array with its first three axes permuted, e.g. R(y, z)x is (2, 0, 1)
    rxyz = curvature_tensorial(*_basis_triples(), eps)
    # lowered[i, j, k, l] = <R(e_i, e_j) e_k, e_l>
    lowered = nk_geometry.metric_m(rxyz[..., None, :], np.eye(6), eps)
    add("curvature_skew_first_pair", np.max(np.abs(rxyz + rxyz.transpose(1, 0, 2, 3))), 216)
    add("curvature_first_bianchi",
        np.max(np.abs(rxyz + rxyz.transpose(2, 0, 1, 3) + rxyz.transpose(1, 2, 0, 3))), 216)
    add("curvature_pair_symmetry", np.max(np.abs(lowered - lowered.transpose(2, 3, 0, 1))), 1296)
    add("curvature_metric_compatibility", np.max(np.abs(lowered + lowered.swapaxes(2, 3))), 1296)

    if self_test:
        reports.append(floor_check(f"self_test_corruption_detected[{label}]",
                                   constants.CONTROL_RESIDUAL_MIN, corruption_self_test(eps), 216))
    return reports


def corruption_self_test(eps: int, flip_slot: int = M5) -> float:
    """Negate one basis matrix, rebuild the bracket route from it through the
    production table construction, and measure how badly it now disagrees with the
    (uncorrupted) tensorial route over all basis triples.

    A healthy suite reports an O(1) error here for any tangent slot; the
    negative-control check passes when this value is large.  Negating an
    isotropy slot (h1, h2) leaves the curvature unchanged, so it is no
    control.
    """
    b = basis(eps).copy()
    b[flip_slot] = -b[flip_slot]
    tables = nk_geometry.tables_from(lie_structure.structure_constants_of(b, eps), eps)
    x, y, z = _basis_triples()
    d = nk_geometry._curvature_lie(x, y, z, tables) - curvature_tensorial(x, y, z, eps)
    return float(np.max(np.abs(d)))
