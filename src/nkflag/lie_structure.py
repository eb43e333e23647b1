"""The two ambient Lie algebras in a fixed ordered basis.

The basis order is (h1, h2, m1, m2, m3, m4, m5, m6) everywhere, including
reports; a single indexing convention prevents silent transposition bugs.
``epsilon = +1`` selects the compact algebra of special unitary matrices,
``epsilon = -1`` the split form preserving diag(+1, +1, -1).  The isotropy
part is span(h1, h2); its complement m carries the tangent space of the
quotient at the base point, split into three rank-two distributions
V1 = span(m1, m4), V2 = span(m2, m5), V3 = span(m3, m6).

Structure constants are computed once from matrix commutators and cached;
they are never hand-entered.  Coefficient extraction goes through the
metric Gram matrix so that both signatures are handled uniformly.
"""

import functools
import math

import numpy as np

from .matrix_core import adjoint, commutator

__all__ = [
    "RIEMANNIAN",
    "PSEUDO",
    "SIGNATURES",
    "SIGNATURE_NAMES",
    "H1", "H2", "M1", "M2", "M3", "M4", "M5", "M6",
    "BASIS_NAMES",
    "IMINUS",
    "check_signature",
    "signature_label",
    "basis",
    "metric",
    "gram_diagonal",
    "coefficients",
    "from_coefficients",
    "structure_constants",
    "structure_constants_of",
    "group_defect",
]

RIEMANNIAN = +1
PSEUDO = -1
SIGNATURES = (RIEMANNIAN, PSEUDO)
SIGNATURE_NAMES = {RIEMANNIAN: "riemannian", PSEUDO: "pseudo"}

# basis slots
H1, H2, M1, M2, M3, M4, M5, M6 = range(8)
BASIS_NAMES = ("h1", "h2", "m1", "m2", "m3", "m4", "m5", "m6")
M_SLICE = slice(2, 8)
H_SLICE = slice(0, 2)

_SQ3 = math.sqrt(3.0)

IMINUS = np.diag([1.0, 1.0, -1.0]).astype(np.complex128)
IMINUS.setflags(write=False)


def check_signature(eps: int) -> int:
    if eps not in SIGNATURES:
        raise ValueError(f"signature must be +1 or -1, got {eps!r}")
    return eps


def signature_label(eps: int) -> str:
    return SIGNATURE_NAMES[check_signature(eps)]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=None)
def basis(eps: int) -> np.ndarray:
    """The eight ordered basis matrices, shape (8, 3, 3)."""
    check_signature(eps)
    h1 = [[-1j, 0, 0], [0, 0, 0], [0, 0, 1j]]
    h2 = [[1j / _SQ3, 0, 0], [0, -2j / _SQ3, 0], [0, 0, 1j / _SQ3]]
    m1 = [[0, -1, 0], [1, 0, 0], [0, 0, 0]]
    m4 = [[0, 1j, 0], [1j, 0, 0], [0, 0, 0]]
    if eps == RIEMANNIAN:
        m2 = [[0, 0, 0], [0, 0, -1], [0, 1, 0]]
        m3 = [[0, 0, -1], [0, 0, 0], [1, 0, 0]]
        m5 = [[0, 0, 0], [0, 0, 1j], [0, 1j, 0]]
        m6 = [[0, 0, 1j], [0, 0, 0], [1j, 0, 0]]
    else:
        m2 = [[0, 0, 0], [0, 0, 1], [0, 1, 0]]
        m3 = [[0, 0, 1], [0, 0, 0], [1, 0, 0]]
        m5 = [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]]
        m6 = [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]]
    return _frozen(np.array([h1, h2, m1, m2, m3, m4, m5, m6], dtype=np.complex128))


def metric(x: np.ndarray, y: np.ndarray, eps: int) -> float:
    """Bi-invariant trace-form metric; signature-twisted for the split form."""
    check_signature(eps)
    xh = adjoint(x)
    if eps == PSEUDO:
        xh = IMINUS @ xh @ IMINUS
    return float(0.5 * np.trace(xh @ y).real)


@functools.lru_cache(maxsize=None)
def _gram(eps: int) -> np.ndarray:
    b = basis(eps)
    g = np.empty((8, 8))
    for i in range(8):
        for j in range(8):
            g[i, j] = metric(b[i], b[j], eps)
    return _frozen(g)


@functools.lru_cache(maxsize=None)
def gram_diagonal(eps: int) -> np.ndarray:
    """Diagonal of the basis Gram matrix (the basis is orthogonal in both forms)."""
    g = _gram(eps)
    off = g - np.diag(np.diag(g))
    if np.max(np.abs(off)) > 1e-14:
        raise RuntimeError("basis Gram matrix is not diagonal")
    return _frozen(np.diag(g).copy())


def _dual_of(b: np.ndarray, eps: int) -> np.ndarray:
    """Extraction tensor of an orthogonal basis b: the twisted adjoint of each
    b_i divided by 2 metric(b_i, b_i)."""
    bh = adjoint(b)
    if eps == PSEUDO:
        bh = IMINUS @ bh @ IMINUS
    norms = 0.5 * np.einsum("ijk,ikj->i", bh, b).real
    return 0.5 * bh / norms[:, None, None]


@functools.lru_cache(maxsize=None)
def _dual(eps: int) -> np.ndarray:
    """Extraction tensor: coefficients(x)[i] = Re sum_jk dual[i,j,k] * x[k,j]."""
    return _frozen(_dual_of(basis(eps), eps))


def coefficients(x: np.ndarray, eps: int) -> np.ndarray:
    """Coordinates of an algebra element (batched over leading axes): the
    (3, 3) complex matrices, viewed as 18 floats, times a real (18, 8) form of
    ``_dual`` rebuilt on every call, so whatever ``_dual`` returns is applied."""
    d = np.swapaxes(_dual(eps), 1, 2).reshape(8, 9).T   # d[3k + j, i] = dual[i, j, k]
    real_dual = np.empty((18, 8))
    real_dual[0::2], real_dual[1::2] = d.real, -d.imag
    x = np.ascontiguousarray(x, dtype=np.complex128)
    rows = x.size // 9
    flat = x.view(np.float64).reshape(rows, 18)
    if rows == 1:   # numpy sends one row to gemv, which rounds unlike a row of gemm
        flat = np.vstack([flat, flat])
    return (flat @ real_dual)[:rows].reshape(x.shape[:-2] + (8,))


def from_coefficients(c, eps: int) -> np.ndarray:
    """Inverse of :func:`coefficients` (batched over leading axes)."""
    return np.einsum("...i,ijk->...jk", np.asarray(c, dtype=float), basis(eps))


def structure_constants_of(b: np.ndarray, eps: int) -> np.ndarray:
    """c[i, j, k] with [b_i, b_j] = sum_k c[i, j, k] b_k for any ordered
    orthogonal basis b of the algebra of signature eps; never cached."""
    check_signature(eps)
    br = commutator(b[:, None], b[None, :])
    c = np.einsum("ljk,...kj->...l", _dual_of(b, eps), br).real
    # guard against drift out of the algebra
    drift = np.max(np.abs(np.einsum("...l,ljk->...jk", c, b) - br), axis=(-2, -1))
    bad = np.argwhere(~(drift <= 1e-12))
    if bad.size:
        i, j = bad[0]
        raise RuntimeError(f"bracket [{BASIS_NAMES[i]}, {BASIS_NAMES[j]}] left the algebra")
    return c


@functools.lru_cache(maxsize=None)
def structure_constants(eps: int) -> np.ndarray:
    """c[i, j, k] with [b_i, b_j] = sum_k c[i, j, k] b_k, shape (8, 8, 8)."""
    return _frozen(structure_constants_of(basis(eps), eps))


def group_defect(g: np.ndarray, eps: int) -> float:
    """How far g (one matrix or a stack) is from the structure group: max of
    the metric-preservation and unit-determinant defects over the stack."""
    m = np.eye(3, dtype=np.complex128) if eps == RIEMANNIAN else IMINUS
    pres = np.max(np.abs(adjoint(g) @ m @ g - m))
    det = np.max(np.abs(np.linalg.det(g) - 1.0))
    return float(np.max([pres, det]))
