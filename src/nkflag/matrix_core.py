"""Fixed-shape complex 3x3 primitives.

Everything downstream reduces to arithmetic on 3x3 complex matrices:
group elements, algebra elements, frame derivatives.  Matrices are plain
``numpy`` arrays of ``complex128`` (each scalar a re/im pair of 64-bit
floats); all operations are pure and allocate fresh outputs.  The matrix
exponential is implemented here in numpy (Pade-13 scaling and squaring) and
accepts stacks of matrices, so the package needs nothing beyond numpy.

Stacks on the hot paths go through private entry-major kernels: a stack of
n matrices is held as a ``(3, 3, n)`` array, so entry (i, j) of every matrix
is one contiguous row, and the product, adjugate and determinant are a few
broadcast multiply-adds over those rows.  Every kernel is elementwise in the
stack axis, so a matrix's result does not depend on the stack it is in.

numpy's complex multiply is not bitwise commutative (it fuses one product
of each part into a multiply-add), and for arrays of 256 KiB or more numpy
computes ``x * temporary`` in the temporary's buffer as ``temporary * x``.
So a complex product in these kernels never has a temporary on its right,
or a large stack would round unlike a small one.
"""

import numpy as np

__all__ = [
    "identity",
    "commutator",
    "adjoint",
    "expm",
    "max_abs",
]


def identity() -> np.ndarray:
    return np.eye(3, dtype=np.complex128)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix bracket ``ab - ba``; bilinear and antisymmetric."""
    return a @ b - b @ a


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (an involution)."""
    return np.conj(np.swapaxes(a, -1, -2))


#: numerator coefficients of the degree-13 Pade approximant to exp
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)

#: largest 1-norm for which Pade-13 needs no scaling (Higham 2005, Table 2.3)
_THETA13 = 5.371920351148152


def _entry_major(a) -> np.ndarray:
    """A ``(..., 3, 3)`` stack as a fresh contiguous entry-major ``(3, 3, n)``
    array, never a view, so callers may update it in place."""
    a = np.asarray(a, dtype=np.complex128)
    return np.moveaxis(a.reshape(-1, 3, 3), 0, -1).copy(order="C")


def _matrix_major(x: np.ndarray, shape: tuple) -> np.ndarray:
    """Inverse of :func:`_entry_major`: back to a ``shape + (3, 3)`` stack."""
    return np.ascontiguousarray(np.moveaxis(x, -1, 0).reshape(shape + (3, 3)))


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product ``(ab)[i, j] = sum_k a[i, k] b[k, j]``, summed in the order
    k = 0, 1, 2 as three broadcast multiply-adds."""
    out = a[:, 0, None] * b[0]
    out += a[:, 1, None] * b[1]
    out += a[:, 2, None] * b[2]
    return out


def _cofactor(a: np.ndarray, i: int, j: int) -> np.ndarray:
    """The cofactor of entry (i, j), from the cyclic rows and columns after it."""
    i1, i2, j1, j2 = (i + 1) % 3, (i + 2) % 3, (j + 1) % 3, (j + 2) % 3
    return a[i1, j1] * a[i2, j2] - a[i1, j2] * a[i2, j1]


def _adj(a: np.ndarray) -> np.ndarray:
    """Adjugate: entry (i, j) is the cofactor of entry (j, i)."""
    return np.array([[_cofactor(a, j, i) for j in range(3)] for i in range(3)])


def _det(a: np.ndarray) -> np.ndarray:
    """Determinant, expanded along the first row."""
    return (_cofactor(a, 0, 0) * a[0, 0] + _cofactor(a, 0, 1) * a[0, 1]
            + _cofactor(a, 0, 2) * a[0, 2])


def _inv(a: np.ndarray) -> np.ndarray:
    """Inverse ``adj(a) * (1 / det(a))``.  A singular matrix comes back all
    NaN: 1/0 is inf + NaN i, and any product with it is NaN."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return _adj(a) * (1.0 / _det(a))


def _combination(*terms) -> np.ndarray:
    """``sum c m`` over pairs of a real c and a contiguous complex stack m,
    on the float view, so no term takes a complex multiply."""
    (c, m), *rest = terms
    out = c * m.view(np.float64)
    for c, m in rest:
        out += c * m.view(np.float64)
    return out.view(np.complex128)


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a ``(3, 3)`` matrix or a ``(..., 3, 3)`` stack.

    Scaling and squaring with the degree-13 Pade approximant (Higham, SIAM
    J. Matrix Anal. Appl. 26(4), 2005): each matrix is scaled by its own
    power of two so its 1-norm is at most theta_13, the approximant
    ``(V - U)^-1 (V + U) = I + 2 (V - U)^-1 U`` is evaluated through the
    adjugate, ``I + adj(V - U) U * (2 / det(V - U))`` (a zero input gives the
    identity exactly), all in the entry-major kernels, and each result is
    squared back as often as its own matrix was halved (at most about a
    thousand times, the exponent range of a double).  Matrices with a
    non-finite entry or 1-norm come back as NaN.

    For the anti-Hermitian traceless inputs used throughout, the result is
    special unitary to well below 1e-12 for norms up to ~10.  Split-signature
    algebra elements have real spectrum, so the attainable accuracy of
    ``expm(a) @ expm(-a)`` degrades like ``exp(2*||a||) * eps``; callers stay
    in the moderate-norm regime.
    """
    a = np.asarray(a, dtype=np.complex128)
    x = _entry_major(a)
    with np.errstate(over="ignore", divide="ignore"):
        norm1 = np.abs(x).sum(axis=0).max(axis=0)
        finite = np.isfinite(norm1)
        squarings = np.ceil(np.log2(np.where(finite, norm1, 0.0) / _THETA13))
    squarings = np.maximum(squarings, 0).astype(int)
    x[..., ~finite] = 0.0
    x *= np.exp2(-squarings)

    b = _PADE13
    eye = np.eye(3)[:, :, None]
    x2 = _mul(x, x)
    x4 = _mul(x2, x2)
    x6 = _mul(x4, x2)
    u = _mul(x6, _combination((b[13], x6), (b[11], x4), (b[9], x2)))
    u += _combination((b[7], x6), (b[5], x4), (b[3], x2))
    u += b[1] * eye
    u = _mul(x, u)
    v = _mul(x6, _combination((b[12], x6), (b[10], x4), (b[8], x2)))
    v += _combination((b[6], x6), (b[4], x4), (b[2], x2))
    v += b[0] * eye
    q = v - u
    out = _mul(_adj(q), u)
    out *= 2.0 / _det(q)
    out += eye

    for k in range(int(squarings.max(initial=0))):
        more = squarings > k
        sub = out[..., more]
        out[..., more] = _mul(sub, sub)
    out[..., ~finite] = np.nan
    return _matrix_major(out, a.shape[:-2])


def max_abs(a: np.ndarray) -> float:
    """Largest entry magnitude; the uniform norm used by the check suites."""
    return float(np.max(np.abs(a))) if np.size(a) else 0.0
