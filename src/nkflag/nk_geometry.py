"""The nearly Kahler package at the base point of the quotient.

Tangent vectors are six-coordinate arrays in the order (m1, ..., m6).
The four invariant almost complex structures are cached 6x6 sign tables;
the connection at the base point is minus half the m-part of the bracket.
Derived tensors (the structure tensor G, the covariant derivatives of the
auxiliary complex structures, the curvature) all come from that one recipe,
with the convention fixed by G(m1, m2) = +m6.

The curvature tensor is computed along two independent routes: nested
brackets of the reductive decomposition, and a closed tensorial expression
in the metric and the four almost complex structures.  Their agreement on
all basis triples is the headline check of the whole artifact.
"""

import dataclasses
import functools

import numpy as np

from . import constants
from .lie_structure import (
    H_SLICE,
    M_SLICE,
    check_signature,
    gram_diagonal,
    structure_constants,
)
from .report import CheckReport

__all__ = [
    "ACS_KINDS",
    "acs_matrix",
    "apply_acs",
    "metric_m",
    "metric_family",
    "nabla",
    "g_tensor",
    "nabla_ji",
    "tables_from",
    "curvature_lie",
    "curvature_tensorial",
    "identity_suite",
    "distribution_amplitudes",
]

ACS_KINDS = ("J", "J1", "J2", "J3")

# signs of the image of (m1, m2, m3) under each structure; the image of
# m_{i+3} is forced by squaring to minus the identity
_ACS_SIGNS = {
    "J": (1.0, 1.0, -1.0),
    "J1": (1.0, -1.0, 1.0),
    "J2": (-1.0, -1.0, -1.0),
    "J3": (-1.0, 1.0, 1.0),
}

#: distribution membership of the six tangent slots
DISTRIBUTION_OF_SLOT = (0, 1, 2, 0, 1, 2)


@functools.lru_cache(maxsize=None)
def acs_matrix(kind: str) -> np.ndarray:
    """6x6 matrix of one almost complex structure (signature independent)."""
    if kind not in _ACS_SIGNS:
        raise ValueError(f"unknown almost complex structure {kind!r}")
    signs = _ACS_SIGNS[kind]
    j = np.zeros((6, 6))
    for i, s in enumerate(signs):
        j[i + 3, i] = s
        j[i, i + 3] = -s
    j.setflags(write=False)
    return j


def apply_acs(kind: str, x) -> np.ndarray:
    return np.asarray(x, dtype=float) @ acs_matrix(kind).T


@dataclasses.dataclass(frozen=True)
class _Tables:
    bracket_mm: np.ndarray   # (6, 6, 8) full bracket of tangent slots
    bracket_hm: np.ndarray   # (2, 6, 8) bracket of isotropy with tangent slots
    nabla: np.ndarray        # (6, 6, 6) connection coefficients at the base point
    gram_m: np.ndarray       # (6,) diagonal tangent Gram


def tables_from(sc: np.ndarray, eps: int) -> _Tables:
    """Base-point tables built from (8, 8, 8) structure constants; never cached,
    so a corrupted basis can be sent through the production route."""
    check_signature(eps)
    bracket_mm = sc[M_SLICE, M_SLICE, :].copy()
    bracket_hm = sc[H_SLICE, M_SLICE, :].copy()
    nab = -0.5 * bracket_mm[:, :, M_SLICE].copy()
    gram_m = gram_diagonal(eps)[M_SLICE].copy()
    for a in (bracket_mm, bracket_hm, nab, gram_m):
        a.setflags(write=False)
    return _Tables(bracket_mm, bracket_hm, nab, gram_m)


@functools.lru_cache(maxsize=None)
def _tables(eps: int) -> _Tables:
    return tables_from(structure_constants(eps), eps)


def metric_m(x, y, eps: int) -> float | np.ndarray:
    """Submersion metric on tangent coordinates (batched over leading axes)."""
    t = _tables(eps)
    out = np.einsum("...i,...i,i->...", np.asarray(x, float), np.asarray(y, float), t.gram_m)
    return float(out) if out.ndim == 0 else out


def metric_family(lam, x, y, eps: int) -> float | np.ndarray:
    """Three-parameter family of invariant metrics: one weight per distribution."""
    lam = tuple(float(v) for v in lam)
    if len(lam) != 3 or not all(v > 0.0 for v in lam):
        raise ValueError(f"metric weights must be three positive numbers, got {lam!r}")
    t = _tables(eps)
    w = np.array([lam[d] for d in DISTRIBUTION_OF_SLOT]) * t.gram_m
    out = np.einsum("...i,...i,i->...", np.asarray(x, float), np.asarray(y, float), w)
    return float(out) if out.ndim == 0 else out


def _contract(x, y, table: np.ndarray) -> np.ndarray:
    """sum_ij x_i y_j table[i, j, :] (batched over leading axes), as two
    two-operand contractions: a three-operand einsum is several times slower."""
    return np.einsum("...j,...jk->...k", y, np.einsum("...i,ijk->...jk", x, table))


def nabla(x, y, eps: int) -> np.ndarray:
    """Connection at the base point: minus half the tangent part of the bracket."""
    return _contract(np.asarray(x, float), np.asarray(y, float), _tables(eps).nabla)


def _nabla_acs(kind: str, x, y, eps: int) -> np.ndarray:
    """Covariant derivative of one almost complex structure, (nabla_X K) Y,
    fed through the connection recipe."""
    k = acs_matrix(kind)
    return nabla(x, np.asarray(y, float) @ k.T, eps) - nabla(x, y, eps) @ k.T


def g_tensor(x, y, eps: int) -> np.ndarray:
    """Structure tensor: the covariant derivative of J."""
    return _nabla_acs("J", x, y, eps)


def nabla_ji(i: int, x, y, eps: int) -> np.ndarray:
    """Covariant derivative of the i-th auxiliary complex structure (i in 1..3)."""
    if i not in (1, 2, 3):
        raise ValueError(f"auxiliary structure index must be 1, 2 or 3, got {i!r}")
    return _nabla_acs(f"J{i}", x, y, eps)


def _bracket_mm(x, y, t: _Tables) -> np.ndarray:
    return _contract(x, y, t.bracket_mm)


def _curvature_lie(x, y, z, t: _Tables) -> np.ndarray:
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    z = np.asarray(z, float)
    byz_m = _bracket_mm(y, z, t)[..., M_SLICE]
    bxz_m = _bracket_mm(x, z, t)[..., M_SLICE]
    bxy = _bracket_mm(x, y, t)
    t1 = _bracket_mm(x, byz_m, t)[..., M_SLICE]
    t2 = _bracket_mm(y, bxz_m, t)[..., M_SLICE]
    t3 = _bracket_mm(bxy[..., M_SLICE], z, t)[..., M_SLICE]
    t4 = _contract(bxy[..., H_SLICE], z, t.bracket_hm)[..., M_SLICE]
    return 0.25 * t1 - 0.25 * t2 - 0.5 * t3 - t4


def curvature_lie(x, y, z, eps: int) -> np.ndarray:
    """Curvature from nested brackets of the reductive decomposition."""
    return _curvature_lie(x, y, z, _tables(eps))


def curvature_tensorial(x, y, z, eps: int) -> np.ndarray:
    """Curvature from the closed expression in the metric and the four
    almost complex structures; must agree with :func:`curvature_lie`."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    z = np.asarray(z, float)

    def g(u, v):
        return np.asarray(metric_m(u, v, eps))[..., None]

    def acs_term(k):
        kx, ky, kz = x @ k.T, y @ k.T, z @ k.T
        return g(ky, z) * kx - g(kx, z) * ky + 2.0 * g(x, ky) * kz

    acc = 0.25 * (g(y, z) * x - g(x, z) * y)
    for kind, coef in (("J", -0.25), ("J1", 0.5), ("J2", 0.5), ("J3", 0.5)):
        acc = acc + coef * acs_term(acs_matrix(kind))
    return acc


def distribution_amplitudes(x, eps: int) -> np.ndarray:
    """Norms of the three distribution projections, shape (..., 3).  The
    metric is definite on each distribution Vd (slots d and d + 3), so each
    norm is the Euclidean norm of its two coordinates."""
    check_signature(eps)
    x = np.asarray(x, dtype=float)
    return np.sqrt(x[..., :3] ** 2 + x[..., 3:] ** 2)


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

#: weight vectors of the metric family; they span R^3, so a check linear in
#: the weights that holds on them holds for every weight vector
_FAMILY_WEIGHTS = ((2.0, 1.0, 1.0), (1.0, 2.0, 1.0), (1.0, 1.0, 2.0))


def identity_suite(eps: int) -> list[CheckReport]:
    """Evaluate every structural identity on the tangent basis.

    Each identity is multilinear in its vector arguments, so holding on every
    basis pair (or quadruple, for the quartic constant-type identity) proves
    it for all vectors; nothing is sampled.  Returns one report per identity
    with the worst error observed.  Every table involved is exact (entries in
    (1/4)Z, see :func:`~nkflag.lie_structure.structure_constants_of`), so each
    identity is judged at ``TOL_INTEGER_IDENTITY``: it must read 0.
    """
    check_signature(eps)
    e6 = np.eye(6)
    # (xs, ys) broadcast to all 36 ordered basis pairs: tensors have axes (i, j, component)
    xs, ys = e6[:, None], e6[None, :]
    reports: list[CheckReport] = []

    def add(name: str, err: float, count: int = 36):
        reports.append(CheckReport(name, float(err), constants.TOL_INTEGER_IDENTITY, count))

    j = acs_matrix("J")
    jmats = {k: acs_matrix(k) for k in ACS_KINDS}

    # the structure tensor on the basis pairs, evaluated once; G(x, Ky) and
    # G(Kx, y) contract it with K (K e_j is column j of K), and G(y, x) is
    # its transpose.  A bilinear map vanishes on the diagonal exactly when
    # its symmetric part vanishes on the basis
    gxy = g_tensor(xs, ys, eps)
    g_x_jy = np.einsum("ilc,lj->ijc", gxy, j)
    g_jix_y = {i: np.einsum("ljc,li->ijc", gxy, jmats[f"J{i}"]) for i in (1, 2, 3)}
    g_x_jiy = {i: np.einsum("ilc,lj->ijc", gxy, jmats[f"J{i}"]) for i in (1, 2, 3)}
    g_skew = np.max(np.abs(gxy + np.swapaxes(gxy, 0, 1)))
    add("g_m1_m2_is_m6", np.max(np.abs(gxy[0, 1] - e6[5])), 1)
    add("g_skew_on_basis", g_skew)
    add("g_vanishing_diagonal_random", g_skew)

    # algebraic relations between the four structures
    for kind in ACS_KINDS:
        m = jmats[kind]
        add(f"acs_square_{kind}", np.max(np.abs(m @ m + np.eye(6))))
    add("acs_sum_relation", np.max(np.abs(j + jmats["J1"] + jmats["J2"] + jmats["J3"])))
    add("acs_triple_product", np.max(np.abs(j + jmats["J1"] @ jmats["J2"] @ jmats["J3"])))
    add("acs_commutativity",
        np.max([np.max(np.abs(jmats[a] @ jmats[b] - jmats[b] @ jmats[a]))
                for a in ACS_KINDS for b in ACS_KINDS]))

    # compatibility of every structure with the metric family (linear in the weights)
    compat = []
    for lam in _FAMILY_WEIGHTS:
        untwisted = metric_family(lam, xs, ys, eps)
        compat += [np.max(np.abs(metric_family(lam, xs @ m.T, ys @ m.T, eps) - untwisted))
                   for m in jmats.values()]
    add("acs_metric_compatibility", np.max(compat), 36 * len(_FAMILY_WEIGHTS))

    add("g_skew_symmetry", g_skew)
    add("g_vanishing_on_diagonal", g_skew)
    add("g_anticommutes_with_j", np.max(np.abs(g_x_jy + gxy @ j.T)))
    add("g_output_orthogonality",
        np.max([np.max(np.abs(metric_m(gxy, v, eps))) for v in (xs, ys)]))

    # compatibility identities tying each auxiliary structure to G
    for i in (1, 2, 3):
        lhs = gxy @ jmats[f"J{i}"].T
        rhs = g_jix_y[i] + g_x_jiy[i] + g_x_jy
        add(f"g_compatibility_J{i}", np.max(np.abs(lhs - rhs)))

    # summed compatibility identity
    add("g_sum_identity", np.max(np.abs(sum(g_x_jiy.values()) - sum(g_jix_y.values()))))

    # covariant derivatives of the auxiliary structures
    for i in (1, 2, 3):
        lhs = nabla_ji(i, xs, ys, eps)
        rhs = -0.5 * gxy - 0.5 * g_jix_y[i] @ j.T
        add(f"nabla_J{i}_identity", np.max(np.abs(lhs - rhs)))

    # constant-type identity |G(X,Y)|^2 = |X|^2 |Y|^2 - <X,Y>^2 - <X,JY>^2 (unit
    # constant) is biquadratic: it holds for all X, Y exactly when the 4-tensor
    # <G_ij, G_kl> - g_ik g_jl + g_ij g_kl + A_ij A_kl, A_ij = <e_i, J e_j>,
    # vanishes once symmetrized over i <-> k and j <-> l
    gij = metric_m(xs, ys, eps)
    aij = metric_m(xs, ys @ j.T, eps)
    d = (metric_m(gxy[:, :, None, None], gxy[None, None], eps)
         - gij[:, None, :, None] * gij[None, :, None, :]
         + gij[:, :, None, None] * gij[None, None]
         + aij[:, :, None, None] * aij[None, None])
    d = d + d.transpose(2, 1, 0, 3)
    d = d + d.transpose(0, 3, 2, 1)
    add("constant_type_identity", np.max(np.abs(d)) / 4.0, 6 ** 4)

    return reports
