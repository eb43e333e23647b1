"""The two ambient Lie algebras in a fixed ordered basis.

The basis order is (h1, h2, m1, m2, m3, m4, m5, m6) everywhere, including
reports; a single indexing convention prevents silent transposition bugs.
``epsilon = +1`` selects the compact algebra of special unitary matrices,
``epsilon = -1`` the split form preserving diag(+1, +1, -1).  The isotropy
part is span(h1, h2); its complement m carries the tangent space of the
quotient at the base point, split into three rank-two distributions
V1 = span(m1, m4), V2 = span(m2, m5), V3 = span(m3, m6).

The basis is integral (h2 = diag(i, -2i, i) is not normalized), and
coefficient extraction divides by the metric Gram diagonal last, so both
signatures are handled uniformly and every table read off the basis is
exact.  Structure constants are computed once from matrix commutators,
never hand-entered, and cached; they are integers.
"""

import functools

import numpy as np

from .matrix_core import _det, _entry_major, _mul, adjoint, commutator

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
    """The eight ordered basis matrices, shape (8, 3, 3), with integer entries
    (times 1 or i).  h1 and every m_i have metric(b, b) = +-1; h2 is left
    unnormalized, with metric(h2, h2) = 3."""
    check_signature(eps)
    h1 = [[-1j, 0, 0], [0, 0, 0], [0, 0, 1j]]
    h2 = [[1j, 0, 0], [0, -2j, 0], [0, 0, 1j]]
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


def _twisted_adjoint(x: np.ndarray, eps: int) -> np.ndarray:
    """The adjoint for the signature's form: x^H, or I- x^H I- in the split form."""
    xh = adjoint(x)
    return IMINUS @ xh @ IMINUS if eps == PSEUDO else xh


def _dual_of(b: np.ndarray, eps: int) -> np.ndarray:
    """Half the twisted adjoint of each b_i of an orthogonal basis: metric(b_i, x) is
    Re sum_jk dual[i, j, k] x[k, j]; coordinates divide it by metric(b_i, b_i) last."""
    return 0.5 * _twisted_adjoint(b, eps)


@functools.lru_cache(maxsize=None)
def _gram(eps: int) -> np.ndarray:
    """The trace-form metric 0.5 Re tr(b_i* b_j) on the 64 basis pairs."""
    b = basis(eps)
    return _frozen(np.einsum("iab,jba->ij", _dual_of(b, eps), b).real)


@functools.lru_cache(maxsize=None)
def gram_diagonal(eps: int) -> np.ndarray:
    """Diagonal of the basis Gram matrix, whose off-diagonal entries must be 0."""
    g = _gram(eps)
    if not np.all(g - np.diag(np.diag(g)) == 0.0):
        raise RuntimeError("basis Gram matrix is not diagonal")
    return _frozen(np.diag(g).copy())


@functools.lru_cache(maxsize=None)
def _dual(eps: int) -> np.ndarray:
    """:func:`_dual_of` the basis."""
    return _frozen(_dual_of(basis(eps), eps))


def coefficients(x: np.ndarray, eps: int) -> np.ndarray:
    """Coordinates of an algebra element (batched over leading axes): the
    (3, 3) complex matrices, viewed as 18 floats, times a real (18, 8) form of
    ``_dual`` rebuilt on every call, so whatever ``_dual`` returns is applied,
    then divided by the Gram diagonal."""
    d = np.swapaxes(_dual(eps), 1, 2).reshape(8, 9).T   # d[3k + j, i] = dual[i, j, k]
    real_dual = np.empty((18, 8))
    real_dual[0::2], real_dual[1::2] = d.real, -d.imag
    x = np.ascontiguousarray(x, dtype=np.complex128)
    rows = x.size // 9
    flat = x.view(np.float64).reshape(rows, 18)
    if rows == 1:   # numpy sends one row to gemv, which rounds unlike a row of gemm
        flat = np.vstack([flat, flat])
    return ((flat @ real_dual)[:rows] / gram_diagonal(eps)).reshape(x.shape[:-2] + (8,))


def from_coefficients(c, eps: int) -> np.ndarray:
    """Inverse of :func:`coefficients` (batched over leading axes): the
    coefficients times the basis viewed as an (8, 18) array of floats, a
    real einsum, viewed back as complex 3x3 matrices."""
    c = np.asarray(c, dtype=float)
    flat = np.einsum("...i,if->...f", c, basis(eps).view(np.float64).reshape(8, 18))
    return flat.view(np.complex128).reshape(c.shape[:-1] + (3, 3))


def structure_constants_of(b: np.ndarray, eps: int) -> np.ndarray:
    """c[i, j, k] with [b_i, b_j] = sum_k c[i, j, k] b_k for any ordered
    orthogonal basis b of the algebra of signature eps; never cached.  Raises
    unless every bracket is rebuilt from its coefficients exactly and 4c is an
    integer below 2**20 in absolute value: then every table read off these
    constants by sums of products stays exact."""
    check_signature(eps)
    br = commutator(b[:, None], b[None, :])
    dual = _dual_of(b, eps)
    norms = np.einsum("ijk,ikj->i", dual, b).real   # the Gram diagonal of b
    c = np.einsum("ljk,...kj->...l", dual, br).real / norms
    drift = np.max(np.abs(np.einsum("...l,ljk->...jk", c, b) - br), axis=(-2, -1))
    quarters = 4.0 * c
    dyadic = np.all((quarters == np.round(quarters)) & (np.abs(quarters) < 2.0 ** 20), axis=-1)
    for bad, why in ((~(drift == 0.0), "left the algebra"),
                     (~dyadic, "has a coefficient outside (1/4)Z")):
        if np.any(bad):
            i, j = np.argwhere(bad)[0]
            raise RuntimeError(f"bracket [{BASIS_NAMES[i]}, {BASIS_NAMES[j]}] {why}")
    return c


@functools.lru_cache(maxsize=None)
def structure_constants(eps: int) -> np.ndarray:
    """c[i, j, k] with [b_i, b_j] = sum_k c[i, j, k] b_k, shape (8, 8, 8)."""
    return _frozen(structure_constants_of(basis(eps), eps))


def group_defect(g: np.ndarray, eps: int) -> float:
    """How far g (one matrix or a stack) is from the structure group: max of
    the metric-preservation and unit-determinant defects over the stack."""
    # the form is diagonal, so applying it to g scales the rows of g
    form = np.array([1.0, 1.0, 1.0 if eps == RIEMANNIAN else -1.0])
    g = _entry_major(g)
    gh = np.conj(np.swapaxes(g, 0, 1))
    pres = np.max(np.abs(_mul(gh, form[:, None, None] * g) - np.diag(form)[:, :, None]))
    det = np.max(np.abs(_det(g) - 1.0))
    return float(np.max([pres, det]))
