"""The six explicit totally geodesic immersions, plus a negative control.

Each surface is a two-parameter exponential in the ambient group whose
projection to the quotient realizes one classification family.  For every
surface the closed-form matrix is cross-checked against the matrix
exponential of its generator, the analytic left-translated frame derivatives
are cross-checked against central differences of the closed form, and the
induced metric feeds a stencil-based Gauss curvature that is compared with
the ambient holomorphic sectional curvature at the base point (homogeneity
moves the tangent plane there).  The control surface exponentiates a plane
that violates the tangency equations; its residuals must stay away from
zero.
"""

import dataclasses
import math
from typing import Callable, Optional

import numpy as np

from . import constants
from .classification import holomorphic_K
from .lie_structure import (
    M1, M2, M3, M4, M5, M6,
    PSEUDO,
    RIEMANNIAN,
    basis,
    coefficients,
    group_defect,
    tangent_matrix,
)
from .matrix_core import expm, max_abs
from .nk_geometry import apply_acs, distribution_amplitudes, metric_m
from .report import CheckReport

__all__ = [
    "SurfaceDescriptor",
    "SURFACE_IDS",
    "get_surface",
    "control_surface",
    "frame_matrices",
    "almost_complex_check",
    "induced_metric",
    "gauss_curvature_batch",
    "totally_geodesic_check",
    "default_grid",
    "expm_grid",
    "sample_rows",
    "surface_summary",
    "write_csv",
    "CSV_COLUMNS",
]

_SQ2 = math.sqrt(2.0)
_SQ3 = math.sqrt(3.0)

SURFACE_IDS = (1, 2, 3, 4, 5, 6)

CSV_COLUMNS = ("id", "t", "u", "E", "F", "G", "K", "tg_residual", "ac_residual")


def _broadcast(t, u):
    t = np.asarray(t, dtype=float)
    u = np.asarray(u, dtype=float)
    return np.broadcast_arrays(t, u)


def _alloc(t):
    return np.zeros(t.shape + (3, 3), dtype=np.complex128)


@dataclasses.dataclass(frozen=True)
class SurfaceDescriptor:
    """Everything needed to evaluate and verify one example immersion."""

    sid: int
    eps: int
    label: str
    trig: bool
    expected_K: float
    expected_amplitudes: tuple[float, float, float]
    generator: Callable
    closed_form: Callable
    omega_t_analytic: Optional[Callable]
    omega_u_analytic: Optional[Callable]
    expected_metric: Optional[Callable]

    @property
    def t_range(self) -> tuple[float, float]:
        return constants.TRIG_T_RANGE if self.trig else constants.HYPERBOLIC_T_RANGE

    @property
    def has_analytic_frames(self) -> bool:
        return self.omega_t_analytic is not None


# ---------------------------------------------------------------------------
# closed forms and analytic frame derivatives
# ---------------------------------------------------------------------------

def _rotor_generator(mats_cos, mats_sin):
    """Generator t * (cos(u) A + sin(u) B) for one-parameter rotor families."""
    def gen(t, u):
        t, u = _broadcast(t, u)
        return t[..., None, None] * (
            np.cos(u)[..., None, None] * mats_cos + np.sin(u)[..., None, None] * mats_sin)
    return gen


def _cf_block_sphere(t, u):
    # upper-left 2x2 rotation block with phase u; fixes the third axis
    t, u = _broadcast(t, u)
    out = _alloc(t)
    ct, st = np.cos(t), np.sin(t)
    ph = np.exp(1j * u)
    out[..., 0, 0] = ct
    out[..., 0, 1] = -st / ph
    out[..., 1, 0] = st * ph
    out[..., 1, 1] = ct
    out[..., 2, 2] = 1.0
    return out


def _omega_u_block_sphere(t, u):
    t, u = _broadcast(t, u)
    out = _alloc(t)
    st, sc = np.sin(t), np.sin(t) * np.cos(t)
    ph = np.exp(1j * u)
    out[..., 0, 0] = 1j * st * st
    out[..., 0, 1] = 1j * sc / ph
    out[..., 1, 0] = 1j * sc * ph
    out[..., 1, 1] = -1j * st * st
    return out


def _cf_two_distribution_sphere(t, u):
    t, u = _broadcast(t, u)
    out = _alloc(t)
    ct, st = np.cos(t), np.sin(t)
    half = np.sin(t / 2.0) ** 2
    ph = np.exp(1j * u)
    out[..., 0, 0] = np.cos(t / 2.0) ** 2
    out[..., 0, 1] = -st / (ph * _SQ2)
    out[..., 0, 2] = half / ph ** 2
    out[..., 1, 0] = st * ph / _SQ2
    out[..., 1, 1] = ct
    out[..., 1, 2] = -st / (ph * _SQ2)
    out[..., 2, 0] = half * ph ** 2
    out[..., 2, 1] = st * ph / _SQ2
    out[..., 2, 2] = np.cos(t / 2.0) ** 2
    return out


def _omega_u_two_distribution_sphere(t, u):
    t, u = _broadcast(t, u)
    out = _alloc(t)
    ct, st = np.cos(t), np.sin(t)
    ph = np.exp(1j * u)
    out[..., 0, 0] = -1j * (ct - 1.0)
    out[..., 0, 1] = 1j * st / (ph * _SQ2)
    out[..., 1, 0] = 1j * st * ph / _SQ2
    out[..., 1, 2] = 1j * st / (ph * _SQ2)
    out[..., 2, 1] = 1j * st * ph / _SQ2
    out[..., 2, 2] = 1j * (ct - 1.0)
    return out


def _cf_flat_torus(t, u):
    t, u = _broadcast(t, u)
    out = _alloc(t)
    ct, st = np.cos(t), np.sin(t)
    w = np.exp(-2j * u / _SQ3)
    z = np.exp(1j * _SQ3 * u)
    diag = w * (1.0 + 2.0 * z * ct) / 3.0
    out[..., 0, 0] = diag
    out[..., 1, 1] = diag
    out[..., 2, 2] = diag
    c12 = w * (-1.0 + z * (ct - _SQ3 * st)) / 3.0
    c21 = w * (-1.0 + z * (_SQ3 * st + ct)) / 3.0
    out[..., 0, 1] = c12
    out[..., 1, 2] = c12
    out[..., 2, 1] = c21
    out[..., 1, 0] = c21
    et = np.exp(-1j * t)
    ez = np.exp(1j * (t + _SQ3 * u))
    out[..., 0, 2] = et * w * (-ez * (_SQ3 * st + ct) + 1j * st + ct) / 3.0
    out[..., 2, 0] = et * w * (ez * (_SQ3 * st - ct) + 1j * st + ct) / 3.0
    return out


def _cf_hyperbolic_disc(t, u):
    # second/third axis hyperbolic rotation with phase u; fixes the first axis
    t, u = _broadcast(t, u)
    out = _alloc(t)
    ch, sh = np.cosh(t), np.sinh(t)
    ph = np.exp(1j * u)
    out[..., 0, 0] = 1.0
    out[..., 1, 1] = ch
    out[..., 1, 2] = sh / ph
    out[..., 2, 1] = sh * ph
    out[..., 2, 2] = ch
    return out


def _omega_u_hyperbolic_disc(t, u):
    t, u = _broadcast(t, u)
    out = _alloc(t)
    sh, sc = np.sinh(t), np.sinh(t) * np.cosh(t)
    ph = np.exp(1j * u)
    out[..., 1, 1] = -1j * sh * sh
    out[..., 1, 2] = -1j * sc / ph
    out[..., 2, 1] = 1j * sc * ph
    out[..., 2, 2] = 1j * sh * sh
    return out


def _cf_two_distribution_hyperbolic(t, u):
    t, u = _broadcast(t, u)
    out = _alloc(t)
    sh = np.sinh(t)
    half = np.sinh(t / 2.0) ** 2
    ph = np.exp(1j * u)
    out[..., 0, 0] = np.cosh(t / 2.0) ** 2
    out[..., 0, 1] = half * ph ** 2
    out[..., 0, 2] = sh * ph / _SQ2
    out[..., 1, 0] = half / ph ** 2
    out[..., 1, 1] = np.cosh(t / 2.0) ** 2
    out[..., 1, 2] = sh / (ph * _SQ2)
    out[..., 2, 0] = sh / (ph * _SQ2)
    out[..., 2, 1] = sh * ph / _SQ2
    out[..., 2, 2] = np.cosh(t)
    return out


def _omega_u_two_distribution_hyperbolic(t, u):
    t, u = _broadcast(t, u)
    out = _alloc(t)
    ch, sh = np.cosh(t), np.sinh(t)
    ph = np.exp(1j * u)
    out[..., 0, 0] = 1j * (ch - 1.0)
    out[..., 0, 2] = 1j * sh * ph / _SQ2
    out[..., 1, 1] = -1j * (ch - 1.0)
    out[..., 1, 2] = -1j * sh / (ph * _SQ2)
    out[..., 2, 0] = -1j * sh / (ph * _SQ2)
    out[..., 2, 1] = 1j * sh * ph / _SQ2
    return out


def _build_surfaces() -> dict[int, SurfaceDescriptor]:
    br = basis(RIEMANNIAN)
    bp = basis(PSEUDO)

    def rotor_omega_t(mats_cos, mats_sin):
        def om(t, u):
            t, u = _broadcast(t, u)
            return (np.cos(u)[..., None, None] * mats_cos
                    + np.sin(u)[..., None, None] * mats_sin)
        return om

    surfaces = {}

    # 1: plane in V1, compact form
    a, b = br[M1], br[M4]
    surfaces[1] = SurfaceDescriptor(
        sid=1, eps=RIEMANNIAN, trig=True,
        label="V1 plane, round sphere of curvature 4",
        expected_K=4.0, expected_amplitudes=(1.0, 0.0, 0.0),
        generator=_rotor_generator(a, b),
        closed_form=_cf_block_sphere,
        omega_t_analytic=rotor_omega_t(a, b),
        omega_u_analytic=_omega_u_block_sphere,
        expected_metric=lambda t: (np.ones_like(t), np.zeros_like(t),
                                   (np.sin(2.0 * t) / 2.0) ** 2),
    )

    # 2: plane across V1 and V2, compact form
    a = (br[M1] + br[M2]) / _SQ2
    b = (br[M4] + br[M5]) / _SQ2
    surfaces[2] = SurfaceDescriptor(
        sid=2, eps=RIEMANNIAN, trig=True,
        label="V1+V2 plane, round sphere of curvature 1",
        expected_K=1.0, expected_amplitudes=(1.0 / _SQ2, 1.0 / _SQ2, 0.0),
        generator=_rotor_generator(a, b),
        closed_form=_cf_two_distribution_sphere,
        omega_t_analytic=rotor_omega_t(a, b),
        omega_u_analytic=_omega_u_two_distribution_sphere,
        expected_metric=lambda t: (np.ones_like(t), np.zeros_like(t), np.sin(t) ** 2),
    )

    # 3: plane across all three distributions, compact form; the two
    # generator directions commute, so both frame derivatives are constant
    t1 = (br[M1] + br[M2] + br[M3]) / _SQ3
    t2 = (br[M4] + br[M5] - br[M6]) / _SQ3

    def gen3(t, u):
        t, u = _broadcast(t, u)
        return t[..., None, None] * t1 + u[..., None, None] * t2

    def om3_t(t, u):
        t, u = _broadcast(t, u)
        return np.broadcast_to(t1, t.shape + (3, 3)).copy()

    def om3_u(t, u):
        t, u = _broadcast(t, u)
        return np.broadcast_to(t2, t.shape + (3, 3)).copy()

    surfaces[3] = SurfaceDescriptor(
        sid=3, eps=RIEMANNIAN, trig=True,
        label="V1+V2+V3 plane, flat torus",
        expected_K=0.0,
        expected_amplitudes=(1.0 / _SQ3, 1.0 / _SQ3, 1.0 / _SQ3),
        generator=gen3,
        closed_form=_cf_flat_torus,
        omega_t_analytic=om3_t,
        omega_u_analytic=om3_u,
        expected_metric=lambda t: (np.ones_like(t), np.zeros_like(t), np.ones_like(t)),
    )

    # 4: plane in V1, split form (same matrices, metric still positive there)
    a, b = bp[M1], bp[M4]
    surfaces[4] = SurfaceDescriptor(
        sid=4, eps=PSEUDO, trig=True,
        label="V1 plane (split form), round sphere of curvature 4",
        expected_K=4.0, expected_amplitudes=(1.0, 0.0, 0.0),
        generator=_rotor_generator(a, b),
        closed_form=_cf_block_sphere,
        omega_t_analytic=rotor_omega_t(a, b),
        omega_u_analytic=_omega_u_block_sphere,
        expected_metric=lambda t: (np.ones_like(t), np.zeros_like(t),
                                   (np.sin(2.0 * t) / 2.0) ** 2),
    )

    # 5: plane in V2, split form; negative-definite induced metric
    a, b = bp[M2], bp[M5]
    surfaces[5] = SurfaceDescriptor(
        sid=5, eps=PSEUDO, trig=False,
        label="V2 plane, anti-isometric hyperbolic plane (K = 4)",
        expected_K=4.0, expected_amplitudes=(0.0, 1.0, 0.0),
        generator=_rotor_generator(a, b),
        closed_form=_cf_hyperbolic_disc,
        omega_t_analytic=rotor_omega_t(a, b),
        omega_u_analytic=_omega_u_hyperbolic_disc,
        expected_metric=lambda t: (-np.ones_like(t), np.zeros_like(t),
                                   -((np.sinh(2.0 * t) / 2.0) ** 2)),
    )

    # 6: plane across V2 and V3, split form
    a = (bp[M2] + bp[M3]) / _SQ2
    b = (bp[M5] - bp[M6]) / _SQ2
    surfaces[6] = SurfaceDescriptor(
        sid=6, eps=PSEUDO, trig=False,
        label="V2+V3 plane, anti-isometric hyperbolic plane (K = 1)",
        expected_K=1.0,
        expected_amplitudes=(0.0, 1.0 / _SQ2, 1.0 / _SQ2),
        generator=_rotor_generator(a, b),
        closed_form=_cf_two_distribution_hyperbolic,
        omega_t_analytic=rotor_omega_t(a, b),
        omega_u_analytic=_omega_u_two_distribution_hyperbolic,
        expected_metric=lambda t: (-np.ones_like(t), np.zeros_like(t), -np.sinh(t) ** 2),
    )
    return surfaces


_SURFACES = _build_surfaces()


def get_surface(sid: int) -> SurfaceDescriptor:
    try:
        return _SURFACES[int(sid)]
    except (KeyError, ValueError, TypeError):
        raise ValueError(f"surface id must be one of {SURFACE_IDS}, got {sid!r}") from None


def control_surface() -> SurfaceDescriptor:
    """Negative control: exponential of a plane mixing V1 and V2 with unequal
    amplitudes (cos 0.6, sin 0.6), which violates the tangency equations.  No
    closed form; the matrix exponential is the definition, frames go through
    differences."""
    mix = 0.6
    x0 = np.zeros(6)
    x0[0], x0[1] = math.cos(mix), math.sin(mix)
    jx0 = apply_acs("J", x0)
    a = tangent_matrix(x0, RIEMANNIAN)
    b = tangent_matrix(jx0, RIEMANNIAN)
    gen = _rotor_generator(a, b)

    def cf(t, u):
        return expm(gen(t, u))

    amps = (math.cos(mix), math.sin(mix), 0.0)
    return SurfaceDescriptor(
        sid=0, eps=RIEMANNIAN, trig=True,
        label=f"control plane, amplitudes ({amps[0]:.3f}, {amps[1]:.3f}, 0)",
        expected_K=math.nan, expected_amplitudes=amps,
        generator=gen,
        closed_form=cf,
        omega_t_analytic=None,
        omega_u_analytic=None,
        expected_metric=None,
    )


def _descriptor(sid) -> SurfaceDescriptor:
    return sid if isinstance(sid, SurfaceDescriptor) else get_surface(sid)


def _fd_frames(desc: SurfaceDescriptor, t, u) -> tuple[np.ndarray, np.ndarray]:
    """(omega_t, omega_u) from central differences of the closed form,
    left-translated to the identity."""
    h = constants.FD_STEP
    t, u = _broadcast(t, u)
    finv = np.linalg.inv(desc.closed_form(t, u))
    dft = (desc.closed_form(t + h, u) - desc.closed_form(t - h, u)) / (2.0 * h)
    dfu = (desc.closed_form(t, u + h) - desc.closed_form(t, u - h)) / (2.0 * h)
    return finv @ dft, finv @ dfu


def frame_matrices(sid, t, u) -> tuple[np.ndarray, np.ndarray]:
    """(omega_t, omega_u) as matrices: the analytic closed forms where the
    surface has them, central differences otherwise (the control plane)."""
    desc = _descriptor(sid)
    if desc.has_analytic_frames:
        return desc.omega_t_analytic(t, u), desc.omega_u_analytic(t, u)
    return _fd_frames(desc, t, u)


def _frames_m(desc: SurfaceDescriptor, t, u):
    """Tangent parts of both frame vectors, batched: two (..., 6) arrays."""
    om_t, om_u = frame_matrices(desc, t, u)
    ct = coefficients(om_t, desc.eps)
    cu = coefficients(om_u, desc.eps)
    return ct[..., 2:], cu[..., 2:]


def _metric_from_frames(mt: np.ndarray, mu: np.ndarray, eps: int):
    """(E, F, G) of the horizontal frame parts mt, mu."""
    return metric_m(mt, mt, eps), metric_m(mt, mu, eps), metric_m(mu, mu, eps)


def induced_metric(sid, t, u):
    """Induced metric components (E, F, G) from the horizontal frame parts."""
    desc = _descriptor(sid)
    return _metric_from_frames(*_frames_m(desc, t, u), desc.eps)


def _almost_complex_fit(mt: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(residual, factor) per point of a batch of horizontal frame parts:
    best scalar f with mu = f * J(mt).

    Degenerate points where mu has no horizontal part give (0, 0): both
    sides vanish.
    """
    jmt = apply_acs("J", mt)
    flat = np.sqrt(np.einsum("...i,...i->...", mu, mu)) < 1e-12
    f = np.einsum("...i,...i->...", mu, jmt) / np.einsum("...i,...i->...", jmt, jmt)
    f = np.where(flat, 0.0, f)
    residual = np.where(flat, 0.0, np.linalg.norm(mu - f[..., None] * jmt, axis=-1))
    return residual, f


def almost_complex_check(sid, t, u) -> tuple[float, float]:
    """(residual, factor) at one point: best scalar f with
    omega_u_h = f * J(omega_t_h); (0, 0) where omega_u_h vanishes."""
    desc = _descriptor(sid)
    residual, f = _almost_complex_fit(*_frames_m(desc, float(t), float(u)))
    return float(residual), float(f)


# ---------------------------------------------------------------------------
# Gauss curvature from metric jets
# ---------------------------------------------------------------------------

#: five-point central stencils, fourth order
_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
_OFFSETS = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])


def _metric_jets(desc: SurfaceDescriptor, t, u):
    """Metric and its first/second parameter derivatives at each point.

    Returns (g, dg, ddg) with shapes (n, 2, 2), (n, 2, 2, 2), (n, 2, 2, 2, 2);
    trailing axes are derivative directions (0 = t, 1 = u).
    """
    h = constants.CURV_STEP
    t = np.atleast_1d(np.asarray(t, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    n = t.shape[0]
    ts = t[:, None, None] + h * _OFFSETS[None, :, None]
    us = u[:, None, None] + h * _OFFSETS[None, None, :]
    ts, us = np.broadcast_arrays(ts, us)
    e, f, g = induced_metric(desc, ts, us)
    comp = np.stack([e, f, g], axis=-1)          # (n, 5, 5, 3)

    def jets(w):                                  # w: (n, 5, 5)
        val = w[:, 2, 2]
        d_t = w[:, :, 2] @ _D1 / h
        d_u = w[:, 2, :] @ _D1 / h
        d_tt = w[:, :, 2] @ _D2 / (h * h)
        d_uu = w[:, 2, :] @ _D2 / (h * h)
        d_tu = np.einsum("i,nij,j->n", _D1, w, _D1) / (h * h)
        return val, (d_t, d_u), (d_tt, d_tu, d_uu)

    gmat = np.empty((n, 2, 2))
    dg = np.empty((n, 2, 2, 2))
    ddg = np.empty((n, 2, 2, 2, 2))
    for comp_idx, (i, j) in zip(range(3), ((0, 0), (0, 1), (1, 1))):
        val, (d_t, d_u), (d_tt, d_tu, d_uu) = jets(comp[..., comp_idx])
        gmat[:, i, j] = gmat[:, j, i] = val
        dg[:, i, j, 0] = dg[:, j, i, 0] = d_t
        dg[:, i, j, 1] = dg[:, j, i, 1] = d_u
        for (k, l), second in (((0, 0), d_tt), ((0, 1), d_tu), ((1, 0), d_tu), ((1, 1), d_uu)):
            ddg[:, i, j, k, l] = ddg[:, j, i, k, l] = second
    return gmat, dg, ddg


def _curvature_from_jets(g: np.ndarray, dg: np.ndarray, ddg: np.ndarray) -> np.ndarray:
    """Gauss curvature of a two-parameter metric from its jets.

    Christoffel symbols from the first jets, their derivatives from the
    second jets, then the (1212) curvature component divided by the metric
    determinant; valid for either definiteness (determinant sign corrects
    the orientation of negative-definite metrics automatically).
    """
    det = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] ** 2
    ginv = np.empty_like(g)
    ginv[:, 0, 0] = g[:, 1, 1] / det
    ginv[:, 1, 1] = g[:, 0, 0] / det
    ginv[:, 0, 1] = ginv[:, 1, 0] = -g[:, 0, 1] / det
    dginv = -np.einsum("nab,nbck,ncd->nadk", ginv, dg, ginv)

    term = np.einsum("njli->nijl", dg) + np.einsum("nilj->nijl", dg) - dg
    dterm = np.einsum("njlik->nijlk", ddg) + np.einsum("niljk->nijlk", ddg) - ddg
    gamma = 0.5 * np.einsum("nal,nijl->naij", ginv, term)
    dgamma = 0.5 * (np.einsum("nalk,nijl->naijk", dginv, term)
                    + np.einsum("nal,nijlk->naijk", ginv, dterm))

    # a-component of R(d_t, d_u) d_u
    riem_up = (dgamma[:, :, 1, 1, 0] - dgamma[:, :, 0, 1, 1]
               + np.einsum("nae,ne->na", gamma[:, :, 0, :], gamma[:, :, 1, 1])
               - np.einsum("nae,ne->na", gamma[:, :, 1, :], gamma[:, :, 0, 1]))
    r_1212 = np.einsum("na,na->n", g[:, 0, :], riem_up)
    return r_1212 / det


def gauss_curvature_batch(sid, t, u) -> np.ndarray:
    """Numeric Gauss curvature of the induced metric at each point (t, u);
    degenerate points, where the induced metric determinant falls below the
    documented floor, come back NaN."""
    desc = _descriptor(sid)
    g, dg, ddg = _metric_jets(desc, t, u)
    det = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] ** 2
    good = np.abs(det) > constants.DEGENERATE_METRIC_MIN
    out = np.full(g.shape[0], np.nan)
    if good.any():
        out[good] = _curvature_from_jets(g[good], dg[good], ddg[good])
    return out


# ---------------------------------------------------------------------------
# grids, exports, summaries
# ---------------------------------------------------------------------------

def default_grid(sid, n: int = constants.DEFAULT_GRID) -> tuple[np.ndarray, np.ndarray]:
    """Flattened curvature-grid samples: t over the safe range, u over a full period."""
    desc = _descriptor(sid)
    t_lo, t_hi = desc.t_range
    t = np.linspace(t_lo, t_hi, n)
    u = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    tt, uu = np.meshgrid(t, u, indexing="ij")
    return tt.ravel(), uu.ravel()


def expm_grid(sid, n: int = constants.DEFAULT_GRID) -> tuple[np.ndarray, np.ndarray]:
    """Grid for the exponential cross-check (starts at t = 0 on purpose)."""
    desc = _descriptor(sid)
    t_max = constants.EXPM_T_MAX_TRIG if desc.trig else constants.EXPM_T_MAX_HYPERBOLIC
    t = np.linspace(0.0, t_max, n)
    u = np.linspace(0.0, 2.0 * math.pi, n)
    tt, uu = np.meshgrid(t, u, indexing="ij")
    return tt.ravel(), uu.ravel()


def expm_defect(sid, n: int = constants.DEFAULT_GRID) -> float:
    """Worst difference between the closed form and the exponential of the
    generator over the cross-check grid."""
    desc = _descriptor(sid)
    t, u = expm_grid(desc, n)
    return max_abs(expm(desc.generator(t, u)) - desc.closed_form(t, u))


def group_membership_defect(sid, n: int = constants.DEFAULT_GRID) -> float:
    desc = _descriptor(sid)
    t, u = expm_grid(desc, n)
    return group_defect(desc.closed_form(t, u), desc.eps)


def _sample_columns(desc: SurfaceDescriptor, t, u) -> dict[str, np.ndarray]:
    """Every per-point quantity of one surface at the 1-D point arrays
    (t, u), in one batched pass: the export columns (``CSV_COLUMNS`` minus
    ``id``), the matrices ``frames`` (omega_t, omega_u) of
    :func:`frame_matrices`, the t-frame coefficients ``omega_t``, the unit
    horizontal frame ``unit_frame`` and the mask ``nondegenerate`` of points
    whose induced metric has |det| above the degeneracy floor.  K and the totally
    geodesic residual are NaN at the other points."""
    frames = frame_matrices(desc, t, u)
    omega_t = coefficients(frames[0], desc.eps)
    mt, mu = omega_t[..., 2:], coefficients(frames[1], desc.eps)[..., 2:]
    e, f, g = _metric_from_frames(mt, mu, desc.eps)
    ok = np.abs(e * g - f ** 2) > constants.DEGENERATE_METRIC_MIN
    k = gauss_curvature_batch(desc, t, u)
    unit_frame = mt / np.sqrt(np.abs(e))[:, None]
    tg = np.full_like(k, np.nan)
    tg[ok] = np.abs(k[ok] - holomorphic_K(unit_frame[ok], desc.eps))
    ac, _ = _almost_complex_fit(mt, mu)
    return {
        "t": t, "u": u, "E": e, "F": f, "G": g,
        "K": k, "tg_residual": tg, "ac_residual": ac,
        "frames": frames, "omega_t": omega_t, "unit_frame": unit_frame,
        "nondegenerate": ok,
    }


def totally_geodesic_check(sid, t, u) -> float:
    """|numeric surface curvature - ambient holomorphic curvature| at one
    point; zero exactly for totally geodesic almost complex surfaces.

    Raises at degenerate points, where the induced metric determinant falls
    below the documented floor.
    """
    desc = _descriptor(sid)
    tg = _sample_columns(desc, np.array([t], float), np.array([u], float))["tg_residual"][0]
    if math.isnan(tg):
        raise ValueError(
            f"induced metric is degenerate at (t, u) = ({t}, {u}); "
            f"|det| <= {constants.DEGENERATE_METRIC_MIN}")
    return float(tg)


def _rows(desc: SurfaceDescriptor, columns: dict[str, np.ndarray]) -> list[dict]:
    names = CSV_COLUMNS[1:]
    return [{"id": desc.sid, **dict(zip(names, values))}
            for values in zip(*(columns[name].tolist() for name in names))]


def sample_rows(sid, n: int = constants.DEFAULT_GRID) -> list[dict]:
    """Per-grid-point records for export; K and the totally geodesic residual
    are NaN at metric-degenerate points."""
    desc = _descriptor(sid)
    return _rows(desc, _sample_columns(desc, *default_grid(desc, n)))


def write_csv(path, rows: list[dict]) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def surface_summary(sid, n: int = constants.DEFAULT_GRID,
                    tol_fd: float = constants.TOL_CURVATURE) -> dict:
    """Verification of one surface over its default grids.

    ``reports`` holds one :class:`CheckReport` per aggregate, named
    ``<check>[surface<id>]``; ``tol_fd`` bounds the two finite-difference
    curvature checks.  ``frame_agreement`` compares the analytic frames with
    central differences of the closed form under its own tolerance.
    ``rows`` holds the per-point export records.
    Aggregates reduce with ``np.max``, so a NaN reaches its report and
    fails it; K and the totally geodesic residual cover only the
    metric-nondegenerate points.
    """
    desc = _descriptor(sid)
    cols = _sample_columns(desc, *default_grid(desc, n))
    ok = cols["nondegenerate"]
    ks = cols["K"][ok]
    amps = distribution_amplitudes(cols["unit_frame"], desc.eps)
    expected = desc.expected_metric(cols["t"])
    fd_frames = _fd_frames(desc, cols["t"], cols["u"])

    def check(name: str, err, tol: float, samples: int) -> CheckReport:
        return CheckReport(f"{name}[surface{desc.sid}]", float(err), tol, int(samples))

    reports = [
        check("expm_defect", expm_defect(desc, n), constants.TOL_EXPM_CLOSED_FORM, n * n),
        check("group_defect", group_membership_defect(desc, n),
              constants.TOL_GROUP_MEMBERSHIP, n * n),
        check("horizontality", np.max(np.abs(cols["omega_t"][..., :2])),
              constants.TOL_HORIZONTAL, ok.size),
        check("metric_closed_form_error",
              np.max([np.max(np.abs(cols[c] - want)) for c, want in zip("EFG", expected)]),
              constants.TOL_METRIC_CLOSED_FORM, ok.size),
        check("amplitude_error", np.max(np.abs(amps - np.array(desc.expected_amplitudes))),
              constants.TOL_AMPLITUDE_CONST, ok.size),
        check("K_max_deviation", np.max(np.abs(ks - desc.expected_K)), tol_fd, ks.size),
        check("tg_residual_max", np.max(cols["tg_residual"][ok]), tol_fd, ks.size),
        check("ac_residual_max", np.max(cols["ac_residual"]), constants.TOL_AC_RESIDUAL, ok.size),
        check("frame_agreement", max_abs(np.subtract(cols["frames"], fd_frames)),
              constants.TOL_FRAME_AGREEMENT, ok.size),
    ]
    return {
        "id": desc.sid,
        "label": desc.label,
        "signature": desc.eps,
        "samples": int(ok.size),
        "degenerate_points": int((~ok).sum()),
        "K_expected": desc.expected_K,
        "K_mean": float(np.mean(ks)),
        "reports": reports,
        "rows": _rows(desc, cols),
    }
