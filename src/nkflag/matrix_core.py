"""Fixed-shape complex 3x3 primitives.

Everything downstream reduces to arithmetic on 3x3 complex matrices:
group elements, algebra elements, frame derivatives.  Matrices are plain
``numpy`` arrays of ``complex128`` (each scalar a re/im pair of 64-bit
floats); all operations are pure and allocate fresh outputs.  The matrix
exponential is implemented here in numpy (Pade-13 scaling and squaring) and
accepts stacks of matrices, so the package needs nothing beyond numpy.
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


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a ``(3, 3)`` matrix or a ``(..., 3, 3)`` stack.

    Scaling and squaring with the degree-13 Pade approximant (Higham, SIAM
    J. Matrix Anal. Appl. 26(4), 2005): each matrix is scaled by its own
    power of two so its 1-norm is at most theta_13, the approximant
    ``(V - U)^-1 (V + U) = I + 2 (V - U)^-1 U`` is evaluated with one batched
    solve (a zero input gives the identity exactly), and each result is
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
    with np.errstate(over="ignore", divide="ignore"):
        norm1 = np.abs(a).sum(axis=-2).max(axis=-1)
        finite = np.isfinite(norm1)
        squarings = np.ceil(np.log2(np.where(finite, norm1, 0.0) / _THETA13))
    squarings = np.maximum(squarings, 0).astype(int)
    a = np.where(finite[..., None, None], a, 0.0) * np.exp2(-squarings)[..., None, None]

    b = _PADE13
    eye = np.eye(3, dtype=np.complex128)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    out = eye + 2.0 * np.linalg.solve(v - u, u)

    for k in range(int(squarings.max(initial=0))):
        more = squarings > k
        out[more] = out[more] @ out[more]
    out[~finite] = np.nan
    return out


def max_abs(a: np.ndarray) -> float:
    """Largest entry magnitude; the uniform norm used by the check suites."""
    return float(np.max(np.abs(a))) if np.size(a) else 0.0
