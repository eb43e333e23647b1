"""The six explicit totally geodesic immersions, plus a negative control.

Surface i is the orbit exp(V).o of the plane V = span(A, B) = span(X, JX)
of the i-th family of :func:`~nkflag.classification.solve_families`, X its
amplitudes on (m1, m2, m3); the expected curvature, amplitudes and
space-form metric are that family's too.  Every surface is swept in
geodesic polar coordinates, exp(t (cos u A + sin u B) / |A|).  The
generator and the analytic left-translated frame derivatives are derived
from the plane, the frames by one formula that reads the bracket
H = [A, B] and holds while the plane is a Lie triple (checked on every
run).  For every surface the closed-form matrix is cross-checked against
the matrix exponential of its generator, the analytic frames are
cross-checked against central differences of the closed form, and the
induced metric, read off the Gram matrix of the plane and its bracket,
feeds a Gauss curvature from its closed-form jets (the derivative rules
e' = n, n' = -e of the polar pair and s' = C, C' = -mu s, c' = s of the
radial factors) that is compared with the ambient holomorphic sectional
curvature at the base point (homogeneity moves the tangent plane there).
Five-point stencils of the same metric recompute K in a sheared chart,
where every term of the Brioschi formula counts: the difference route
that checks the jets.  The control surface exponentiates a plane that
violates the tangency equations; its residuals must stay away from zero,
and its curvature, with no closed-form jets, goes through the stencils.
"""

import dataclasses
import functools
import json
import math
from typing import Callable, Optional

import numpy as np

from . import constants
from .classification import holomorphic_K, solve_families
from .lie_structure import (
    H_SLICE,
    M_SLICE,
    PSEUDO,
    RIEMANNIAN,
    coefficients,
    from_coefficients,
    group_defect,
    structure_constants,
)
from .matrix_core import _entry_major, _inv, _matrix_major, _mul, expm, max_abs
from .nk_geometry import apply_acs, distribution_amplitudes, metric_m
from .report import SCHEMA_VERSION, CheckReport, report_to_dict

__all__ = [
    "SurfaceDescriptor",
    "SURFACE_IDS",
    "get_surface",
    "control_surface",
    "almost_complex_check",
    "induced_metric",
    "gauss_curvature_batch",
    "default_grid",
    "expm_grid",
    "expm_defect",
    "group_membership_defect",
    "sample_rows",
    "surface_summary",
    "write_csv",
    "write_json",
    "CSV_COLUMNS",
]

_SQ2 = math.sqrt(2.0)
_SQ3 = math.sqrt(3.0)

SURFACE_IDS = (1, 2, 3, 4, 5, 6)

CSV_COLUMNS = ("id", "t", "u", "E", "F", "G", "K", "tg_residual", "ac_residual")


def _broadcast(t, u):
    return np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(u, dtype=float))


def _alloc(t):
    return np.zeros(t.shape + (3, 3), dtype=np.complex128)


@dataclasses.dataclass(frozen=True)
class SurfaceDescriptor:
    """Everything needed to evaluate and verify one example immersion.

    ``plane`` is the pair of matrices (A, B) of squared length ``size_sq``
    (integral for the six surfaces), swept in geodesic polar coordinates as
    exp(t (cos u A + sin u B) / sqrt(size_sq))."""

    sid: int
    eps: int
    label: str
    trig: bool
    expected_K: float
    expected_amplitudes: tuple[float, float, float]
    plane: tuple[np.ndarray, np.ndarray]
    size_sq: int
    closed_form: Callable
    expected_metric: Optional[Callable]
    has_analytic_frames: bool = True

    @property
    def t_range(self) -> tuple[float, float]:
        return constants.TRIG_T_RANGE if self.trig else constants.HYPERBOLIC_T_RANGE

    def generator(self, t, u) -> np.ndarray:
        """The algebra element whose exponential is the immersion at (t, u)."""
        a, b = self.plane
        t, u = _broadcast(t, u)
        return (t / math.sqrt(self.size_sq))[..., None, None] * (
            np.cos(u)[..., None, None] * a + np.sin(u)[..., None, None] * b)

    @functools.cached_property
    def lie_triple(self):
        """:func:`_lie_triple` of the plane, computed once per descriptor."""
        return _lie_triple(self)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

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


def _cf_flat_torus(t, u):
    # the commuting plane's Cartesian closed form at (t cos u, t sin u)
    t, u = _broadcast(t, u)
    t, u = t * np.cos(u), t * np.sin(u)
    out = _alloc(t)
    ct, st = np.cos(t), np.sin(t)
    w = np.exp(-2j * u / _SQ3)
    z = np.exp(1j * _SQ3 * u)
    # no complex product has a temporary on its right (see matrix_core)
    diag = (1.0 + 2.0 * z * ct) * w / 3.0
    out[..., 0, 0] = diag
    out[..., 1, 1] = diag
    out[..., 2, 2] = diag
    c12 = (-1.0 + z * (ct - _SQ3 * st)) * w / 3.0
    c21 = (-1.0 + z * (_SQ3 * st + ct)) * w / 3.0
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


def _plane(amplitudes, eps: int) -> tuple[np.ndarray, np.ndarray]:
    """(X, JX) as matrices, with X the amplitudes on (m1, m2, m3)."""
    x = np.r_[amplitudes, 0.0, 0.0, 0.0]
    return tuple(from_coefficients(np.r_[0.0, 0.0, v], eps) for v in (x, apply_acs("J", x)))


def _space_form_metric(sign: int, k: float) -> Callable:
    """sign * (1, 0, S(t)^2), the space form of curvature k in geodesic polar
    coordinates: S(t) = sin(sqrt(k) t) / sqrt(k), sinh when sign < 0, and its
    limit S(t) = t at k = 0."""
    r, sin = math.sqrt(k), np.sin if sign > 0 else np.sinh

    def metric(t):
        s = sin(r * t) / r if k else t
        return sign * np.ones_like(t), np.zeros_like(t), sign * s ** 2
    return metric


#: closed form and label of each surface, in the order of the compact and
#: then the split families of :func:`solve_families`
_SURFACE_TABLE = (
    (_cf_block_sphere, "V1 plane, round sphere of curvature 4"),
    (_cf_two_distribution_sphere, "V1+V2 plane, round sphere of curvature 1"),
    (_cf_flat_torus, "V1+V2+V3 plane, flat torus"),
    (_cf_block_sphere, "V1 plane (split form), round sphere of curvature 4"),
    (_cf_hyperbolic_disc, "V2 plane, anti-isometric hyperbolic plane (K = 4)"),
    (_cf_two_distribution_hyperbolic, "V2+V3 plane, anti-isometric hyperbolic plane (K = 1)"),
)


def _build_surfaces() -> dict[int, SurfaceDescriptor]:
    """Surface i is the orbit of the plane (X, JX) of family i."""
    families = (*solve_families(RIEMANNIAN), *solve_families(PSEUDO))
    return {sid: SurfaceDescriptor(
        sid=sid, eps=fam.eps, label=label, trig=fam.norm_sign > 0,
        expected_K=fam.K, expected_amplitudes=fam.amplitudes,
        plane=_plane(fam.direction, fam.eps), size_sq=fam.size_sq, closed_form=closed_form,
        expected_metric=_space_form_metric(fam.norm_sign, fam.K),
    ) for sid, fam, (closed_form, label) in zip(SURFACE_IDS, families, _SURFACE_TABLE)}


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
    amps = (math.cos(mix), math.sin(mix), 0.0)
    ctrl = SurfaceDescriptor(
        sid=0, eps=RIEMANNIAN, trig=True,
        label=f"control plane, amplitudes ({amps[0]:.3f}, {amps[1]:.3f}, 0)",
        expected_K=math.nan, expected_amplitudes=amps,
        plane=_plane(amps, RIEMANNIAN), size_sq=1,
        closed_form=lambda t, u: expm(ctrl.generator(t, u)),
        expected_metric=None,
        has_analytic_frames=False,
    )
    return ctrl


def _descriptor(sid) -> SurfaceDescriptor:
    return sid if isinstance(sid, SurfaceDescriptor) else get_surface(sid)


def _fd_frames(desc: SurfaceDescriptor, t, u) -> tuple[np.ndarray, np.ndarray]:
    """(omega_t, omega_u) from central differences of the closed form,
    left-translated to the identity.  The inverse and both products run in
    matrix_core's entry-major kernels, so a singular closed form gives NaN
    frames at its point, not an exception."""
    h = constants.FD_STEP
    t, u = _broadcast(t, u)
    finv = _inv(_entry_major(desc.closed_form(t, u)))
    dft = (desc.closed_form(t + h, u) - desc.closed_form(t - h, u)) / (2.0 * h)
    dfu = (desc.closed_form(t, u + h) - desc.closed_form(t, u - h)) / (2.0 * h)
    return tuple(_matrix_major(_mul(finv, _entry_major(d)), t.shape) for d in (dft, dfu))


def _lie_triple(desc: SurfaceDescriptor):
    """(a, b, h, mu, residual) of the plane: the coordinates a, b of A, B and
    h of H = [A, B], the factor mu read from [H, A] = mu B, each scaled to
    unit speed (by 1/|A|, and by the integer 1/|A|^2), and how far the
    plane as stored is from the Lie triple that the frame formula of
    :func:`_frames` assumes: the largest coordinate of [H, A] - mu B,
    [H, B] + mu A and the m-part of H."""
    a, b = coefficients(np.stack(desc.plane), desc.eps)
    c = structure_constants(desc.eps)
    h = np.einsum("i,j,ijk->k", a, b, c)
    ha, hb = np.einsum("i,j,ijk->k", h, a, c), np.einsum("i,j,ijk->k", h, b, c)
    mu = float(ha @ b / (b @ b))
    residual = max_abs(np.concatenate([ha - mu * b, hb + mu * a, h[M_SLICE]]))
    n, n2 = math.sqrt(desc.size_sq), desc.size_sq
    return a / n, b / n, h / n2, mu / n2, residual


def _polar_factors(desc: SurfaceDescriptor, t, u):
    """(cos u, sin u, s(t), c(t), C(t)) of the frame formula of
    :func:`_frames`, each in the shape of its own argument; C = s' is
    cos(r t), cosh(r t) when mu < 0, and 1 at mu = 0."""
    mu = desc.lie_triple[3]
    t, u = np.asarray(t, dtype=float), np.asarray(u, dtype=float)
    r = math.sqrt(abs(mu))
    sin, cos = (np.sin, np.cos) if mu > 0 else (np.sinh, np.cosh)
    cc = cos(r * t) if mu else np.ones_like(t)
    s, c = (sin(r * t) / r, (1.0 - cc) / mu) if mu else (t, 0.5 * t * t)
    return np.cos(u), np.sin(u), s, c, cc


def _frames(desc: SurfaceDescriptor, t, u) -> tuple[np.ndarray, np.ndarray]:
    """(omega_t, omega_u), the left-translated frame derivatives, as (..., 8)
    coordinate rows; t and u broadcast.  The control plane goes through
    central differences.  Every other surface derives them from its plane:
    with H = [A, B], [H, A] = mu B and [H, B] = -mu A,

        omega_t = cos u a + sin u b,
        omega_u = s(t) (cos u b - sin u a) - c(t) h,

    with s = sin(r t) / r and c = (1 - cos(r t)) / mu for r = sqrt|mu|,
    sinh, cosh in place of sin, cos when mu < 0 (ad of t omega_t squares to
    -mu t^2 on span(cos u B - sin u A, H)), and the limits s = t,
    c = t^2 / 2 at mu = 0 (the flat torus, where H = 0)."""
    if not desc.has_analytic_frames:
        return tuple(coefficients(w, desc.eps) for w in _fd_frames(desc, t, u))
    a, b, h, _, _ = desc.lie_triple
    cu, su, s, c, _ = (v[..., None] for v in _polar_factors(desc, t, u))
    return cu * a + su * b, s * (cu * b - su * a) - c * h


def _metric_from_frames(mt: np.ndarray, mu: np.ndarray, eps: int):
    """(E, F, G) of the horizontal frame parts mt, mu."""
    return metric_m(mt, mt, eps), metric_m(mt, mu, eps), metric_m(mu, mu, eps)


def induced_metric(sid, t, u):
    """Induced metric components (E, F, G) at (t, u), which broadcast.

    On the six surfaces they are :func:`_gram_metric` of the Gram products
    of :func:`_gram_products` with x = y = (s, c).  The products depend on u
    alone and s, c on t alone, so on the stencil's (5, 1, n) t-offsets and
    (1, 5, n) u-offsets only F and G are broadcast to (5, 5, n), and E stays
    (1, 5, n).  The control plane, which has no analytic frames, reads its
    metric off the difference frames."""
    desc = _descriptor(sid)
    if not desc.has_analytic_frames:
        return _metric_from_frames(*(w[..., M_SLICE] for w in _frames(desc, t, u)), desc.eps)
    cu, su, s, c, _ = _polar_factors(desc, t, u)
    return _gram_metric(_gram_products(desc, cu, su), (s, c), (s, c))


def _gram_products(desc: SurfaceDescriptor, cu, su) -> tuple:
    """(<e,e>, <e,n>, <n,n>, <e,h>, <n,h>, <h,h>) under Q, the 3x3 Gram
    matrix of the tangent parts of (a, b, h) under ``metric_m``, computed on
    every call from the plane; e = cos u a + sin u b, n = cos u b - sin u a,
    and <h,h> is the scalar Q[2, 2]."""
    a, b, h, _, _ = desc.lie_triple
    v = np.stack([a, b, h])[:, M_SLICE]
    q = metric_m(v[:, None], v[None], desc.eps)
    qe = cu[..., None] * q[0] + su[..., None] * q[1]   # Q e
    qn = cu[..., None] * q[1] - su[..., None] * q[0]   # Q n
    return (cu * qe[..., 0] + su * qe[..., 1], cu * qn[..., 0] + su * qn[..., 1],
            cu * qn[..., 1] - su * qn[..., 0], qe[..., 2], qn[..., 2], q[2, 2])


def _gram_metric(p: tuple, x: tuple, y: tuple) -> tuple:
    """(E, F, G) of the Gram products p and the radial pairs x = (x_s, x_c),
    y = (y_s, y_c):

        E = <e,e>,  F = x_s <e,n> - x_c <e,h>,
        G = x_s y_s <n,n> - (x_s y_c + x_c y_s) <n,h> + x_c y_c <h,h>,

    the metric of the frames omega_t = e, omega_u = s n - c h of
    :func:`_frames` at x = y = (s, c), and its jets at other arguments."""
    ee, en, nn, eh, nh, hh = p
    (xs, xc), (ys, yc) = x, y
    return ee, xs * en - xc * eh, xs * ys * nn - (xs * yc + xc * ys) * nh + xc * yc * hh


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
    residual, f = _almost_complex_fit(*(w[M_SLICE] for w in _frames(desc, float(t), float(u))))
    return float(residual), float(f)


# ---------------------------------------------------------------------------
# Gauss curvature from metric jets
# ---------------------------------------------------------------------------

#: five-point central stencils, fourth order
_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
_OFFSETS = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])


def _stencil(c: np.ndarray, w) -> np.ndarray:
    """sum_k c[k] * w[k] over the five stencil slots, in a fixed order and
    elementwise over the points, so no point's value depends on its batch."""
    return sum(c[k] * w[k] for k in range(5))


def _metric_jets(metric: Callable, t, u) -> dict[str, np.ndarray]:
    """The jets of the metric E dt^2 + 2F dt du + G du^2, with (E, F, G) =
    ``metric(t, u)``, that the Brioschi formula reads at the 1-D point
    arrays (t, u), from five-point stencils of step ``CURV_STEP``: ``E``,
    ``F``, ``G``, their six first derivatives (``E_t``, ``E_u``, ...) and
    ``E_uu``, ``F_tu``, ``G_tt``.  They serve the sheared chart and the
    control plane, and check :func:`_polar_jets`.  ``metric`` takes the
    t-offsets as (5, 1, n) and the u-offsets as (1, 5, n), unbroadcast, and
    its components are broadcast to (5, 5, n) here, so :func:`induced_metric`
    runs its products of u on 5 u-values and its s, c on 5 t-values per
    point.  The six first-derivative arms go through one stencil, the two
    second-derivative arms through another."""
    h = constants.CURV_STEP
    ts = t[None, None, :] + h * _OFFSETS[:, None, None]   # (5, 1, n)
    us = u[None, None, :] + h * _OFFSETS[None, :, None]   # (1, 5, n)
    e, f, g = np.broadcast_arrays(*metric(ts, us))   # each (5, 5, n)
    first = _stencil(_D1, np.stack([x for v in (e, f, g) for x in (v[:, 2], v[2])], axis=1)) / h
    e_uu, g_tt = _stencil(_D2, np.stack([e[2], g[:, 2]], axis=1)) / (h * h)
    return {
        "E": e[2, 2], "F": f[2, 2], "G": g[2, 2],
        **dict(zip(("E_t", "E_u", "F_t", "F_u", "G_t", "G_u"), first)),
        "E_uu": e_uu, "F_tu": _stencil(_D1, _stencil(_D1, f)) / (h * h), "G_tt": g_tt,
    }


def _u_rule(ee, en, nn, eh, nh, hh) -> tuple:
    """d/du of the Gram products of :func:`_gram_products` by e' = n and
    n' = -e (h and Q do not move): <e,e>' = 2 <e,n>, <e,n>' = <n,n> - <e,e>,
    <n,n>' = -2 <e,n>, <e,h>' = <n,h>, <n,h>' = -<e,h>, <h,h>' = 0."""
    return 2.0 * en, nn - ee, -2.0 * en, nh, -eh, 0.0


def _t_rule(s, c, cc, mu: float) -> tuple:
    """d/dt of the radial factors (s, c, C) of :func:`_polar_factors`:
    s' = C, c' = s, C' = -mu s."""
    return cc, s, -mu * s


def _polar_jets(desc: SurfaceDescriptor, t, u) -> dict[str, np.ndarray]:
    """The jets of :func:`_metric_jets` in closed form, for the six surfaces.
    E, F, G are :func:`induced_metric`'s, bit for bit.  They are linear in
    the Gram products p, F in x = (s, c) and G bilinear in x, so the rules
    give every derivative through :func:`_gram_metric`: E_t = 0,
    G_t = 2 G(x', x) and G_tt = 2 G(x', x') + 2 G(x'', x)."""
    cu, su, s, c, cc = _polar_factors(desc, t, u)
    p, mu = _gram_products(desc, cu, su), desc.lie_triple[3]
    pu = _u_rule(*p)
    ds, dc, dcc = _t_rule(s, c, cc, mu)
    dds, ddc, _ = _t_rule(ds, dc, dcc, mu)
    x, xt, xtt = (s, c), (ds, dc), (dds, ddc)
    e, f, g = _gram_metric(p, x, x)
    e_u, f_u, g_u = _gram_metric(pu, x, x)
    _, f_t, half_g_t = _gram_metric(p, xt, x)
    return {
        "E": e, "F": f, "G": g, "E_t": np.zeros_like(e), "E_u": e_u,
        "F_t": f_t, "F_u": f_u, "G_t": 2.0 * half_g_t, "G_u": g_u,
        "E_uu": _u_rule(*pu)[0], "F_tu": _gram_metric(pu, xt, x)[1],
        "G_tt": 2.0 * (_gram_metric(p, xt, xt)[2] + _gram_metric(p, xtt, x)[2]),
    }


def _curvature_from_jets(j: dict[str, np.ndarray]) -> np.ndarray:
    """Gauss curvature of E dt^2 + 2F dt du + G du^2 from its jets by the
    Brioschi formula, K = (det M1 - det M2) / (EG - F^2)^2 with

        M1 = [[-E_uu/2 + F_tu - G_tt/2, E_t/2, F_t - E_u/2],
              [F_u - G_t/2,             E,     F          ],
              [G_u/2,                   F,     G          ]],
        M2 = [[0,     E_u/2, G_t/2],
              [E_u/2, E,     F    ],
              [G_t/2, F,     G    ]].

    It is R_1212 / det g written out, so it holds for either definiteness.
    """
    e, f, g = j["E"], j["F"], j["G"]
    p, q = 0.5 * j["E_u"], 0.5 * j["G_t"]
    a = -0.5 * j["E_uu"] + j["F_tu"] - 0.5 * j["G_tt"]
    b, c, d, k = 0.5 * j["E_t"], j["F_t"] - p, j["F_u"] - q, 0.5 * j["G_u"]
    det = e * g - f * f
    det_m1 = a * det - b * (d * g - f * k) + c * (d * f - e * k)
    det_m2 = -p * (p * g - f * q) + q * (p * f - e * q)
    return (det_m1 - det_m2) / (det * det)


#: points per block of every point stage (the curvature pass of
#: :func:`_metric_curvature`, the expm-grid checks, ``frame_agreement``, the
#: holomorphic curvatures of ``_sample_columns``), so memory does not grow
#: with the grid.  Measured on fresh ``surface --id 5`` runs on a 2-core x86
#: box while the pass still took stencils on all six surfaces: 2048 peaks
#: 1.5 MB higher at grid 41, 256 runs grid 201 10% slower than 1024.
_BLOCK_POINTS = 1024


def gauss_curvature_batch(sid, t, u) -> np.ndarray:
    """Gauss curvature of the induced metric at each point (t, u), the K of
    :func:`_metric_curvature`: closed-form jets on the six surfaces,
    stencils on the control plane.  Degenerate points, where the induced
    metric determinant falls below the documented floor, come back NaN.  No
    value depends on the block size."""
    t, u = (np.atleast_1d(v) for v in _broadcast(t, u))
    return _metric_curvature(_descriptor(sid), t, u)[3]


def _blocks(n: int):
    """Consecutive slices of ``_BLOCK_POINTS`` points that cover ``n`` points."""
    return (slice(lo, lo + _BLOCK_POINTS) for lo in range(0, n, _BLOCK_POINTS))


def _metric_curvature(desc: SurfaceDescriptor, t, u) -> np.ndarray:
    """Rows E, F, G and K of the induced metric at the 1-D points (t, u), one
    block at a time, from :func:`_polar_jets`, or from the stencils where
    the plane has no analytic frames; K is NaN at degenerate points."""
    out = np.empty((4, t.size))
    for b in _blocks(t.size):
        jets = (_polar_jets(desc, t[b], u[b]) if desc.has_analytic_frames
                else _metric_jets(functools.partial(induced_metric, desc), t[b], u[b]))
        out[:, b] = jets["E"], jets["F"], jets["G"], _curvature(jets)[0]
    return out


def _curvature(jets: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(K, nondegenerate) from the jets; K is NaN where the metric is
    degenerate."""
    det = jets["E"] * jets["G"] - jets["F"] ** 2
    good = np.abs(det) > constants.DEGENERATE_METRIC_MIN
    out = np.full(det.shape, np.nan)
    if good.any():
        out[good] = _curvature_from_jets({name: v[good] for name, v in jets.items()})
    return out, good


def _curvature_block(metric: Callable, t, u) -> tuple[np.ndarray, np.ndarray]:
    """(K, nondegenerate) of ``metric`` at the points (t, u), from the
    stencils of :func:`_metric_jets`."""
    return _curvature(_metric_jets(metric, t, u))


#: the shear (alpha, beta) of the chart (t, u) = (s + alpha sin v, v + beta s)
#: and the side of its (s, v) grid, whose 121 points are one stencil block
_SHEAR, _SHEAR_GRID = (0.15, 0.3), 11


def _sheared_metric(desc: SurfaceDescriptor) -> Callable:
    """The induced metric pulled back to the sheared chart (s, v): J^T g J
    with J = d(t, u)/d(s, v) = [[1, alpha cos v], [beta, 1]].  Its E varies
    and its F does not vanish, so every term of the Brioschi formula counts,
    where the six surfaces' own charts have constant E and F = 0."""
    alpha, beta = _SHEAR

    def metric(s, v):
        e, f, g = induced_metric(desc, s + alpha * np.sin(v), v + beta * s)
        tv = alpha * np.cos(v)
        return (e + 2.0 * beta * f + beta * beta * g,
                tv * e + (1.0 + beta * tv) * f + beta * g,
                tv * tv * e + 2.0 * tv * f + g)
    return metric


def _sheared_chart_K(desc: SurfaceDescriptor) -> np.ndarray:
    """Gauss curvature in the sheared chart at the nondegenerate points of
    its ``_SHEAR_GRID`` grid over the default (s, v) ranges."""
    k, good = _curvature_block(_sheared_metric(desc), *default_grid(desc, _SHEAR_GRID))
    return k[good]


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
    generator over the cross-check grid.  Each block's defect is a maximum
    over matrices exponentiated one by one, so the block size moves no value.
    An empty grid gives 0.0, as ``max_abs`` of an empty array does."""
    desc = _descriptor(sid)
    t, u = expm_grid(desc, n)
    return float(np.max([max_abs(expm(desc.generator(t[b], u[b])) - desc.closed_form(t[b], u[b]))
                         for b in _blocks(t.size)], initial=0.0))


def group_membership_defect(sid, n: int = constants.DEFAULT_GRID) -> float:
    desc = _descriptor(sid)
    t, u = expm_grid(desc, n)
    return float(np.max([group_defect(desc.closed_form(t[b], u[b]), desc.eps)
                         for b in _blocks(t.size)], initial=0.0))


def _frame_agreement(desc: SurfaceDescriptor, cols: dict[str, np.ndarray]) -> float:
    """Worst difference between the analytic frames of the sample columns,
    rebuilt as matrices, and central differences of the closed form."""
    return float(np.max([
        max_abs(from_coefficients(cols[w][b], desc.eps) - fd)
        for b in _blocks(cols["t"].size)
        for w, fd in zip(("omega_t", "omega_u"), _fd_frames(desc, cols["t"][b], cols["u"][b]))],
        initial=0.0))


def _sample_columns(desc: SurfaceDescriptor, t, u) -> dict[str, np.ndarray]:
    """Every per-point quantity of one surface at the 1-D point arrays
    (t, u), in one batched pass: the export columns (``CSV_COLUMNS`` minus
    ``id``), the frame coordinate rows ``omega_t`` and ``omega_u`` of
    :func:`_frames`, the unit horizontal frame ``unit_frame`` and the mask
    ``nondegenerate`` of points whose induced metric has |det| above the
    degeneracy floor.  K and the totally geodesic residual are NaN at the
    other points.  E, F, G and K come from one pass of
    :func:`_metric_curvature`, except that the control plane's E, F, G are
    read off the difference frames held here, as :func:`induced_metric`
    reads them."""
    omega_t, omega_u = _frames(desc, t, u)
    mt, mu = omega_t[..., M_SLICE], omega_u[..., M_SLICE]
    e, f, g, k = _metric_curvature(desc, t, u)
    if not desc.has_analytic_frames:
        e, f, g = _metric_from_frames(mt, mu, desc.eps)
    ok = np.abs(e * g - f ** 2) > constants.DEGENERATE_METRIC_MIN
    unit_frame = mt / np.sqrt(np.abs(e))[:, None]
    tg = np.full_like(k, np.nan)
    good = np.flatnonzero(ok)
    for block in _blocks(good.size):
        i = good[block]
        tg[i] = np.abs(k[i] - holomorphic_K(unit_frame[i], desc.eps))
    ac, _ = _almost_complex_fit(mt, mu)
    return {
        "t": t, "u": u, "E": e, "F": f, "G": g,
        "K": k, "tg_residual": tg, "ac_residual": ac,
        "omega_t": omega_t, "omega_u": omega_u, "unit_frame": unit_frame,
        "nondegenerate": ok,
    }


def sample_rows(sid, n: int = constants.DEFAULT_GRID) -> list[dict]:
    """Per-grid-point records for export, keyed by ``CSV_COLUMNS``; K and the
    totally geodesic residual are NaN at metric-degenerate points."""
    desc = _descriptor(sid)
    columns, names = _sample_columns(desc, *default_grid(desc, n)), CSV_COLUMNS[1:]
    return [{"id": desc.sid, **dict(zip(names, values))}
            for values in zip(*(columns[name].tolist() for name in names))]


#: per export format: the spelling of each non-finite float whose ``repr`` it
#: does not use, the text before each value (``{name}`` its column), the text
#: between two cells, and a row's head (before ``t``, ``{sid}`` the id) and tail
_FORMATS = {
    "csv": ({}, "", ",", "{sid},", "\r\n"),
    "json": ({"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}, '"{name}": ', ", ",
             '{{"id": {sid}, ', "}"),
}


def _column_text(values: np.ndarray, fmt: str, key: str) -> list[str]:
    """The cell text of each value of a float column in export format
    ``fmt``, ``key`` before each value, each distinct value formatted once.
    Values are keyed by their bits: compared as floats, -0.0 would share the
    text of 0.0."""
    spelling = _FORMATS[fmt][0]
    keys, index = np.unique(np.asarray(values, dtype=float).view(np.int64),
                            return_inverse=True)
    text = [key + spelling.get(s, s) for s in map(repr, keys.view(float).tolist())]
    return [text[i] for i in index.tolist()]


def _rows(sid: int, columns: dict[str, np.ndarray], fmt: str):
    """One row of export format ``fmt`` per point: a fixed head, the cells
    joined, a fixed tail."""
    _, key, sep, head, tail = _FORMATS[fmt]
    head, join = head.format(sid=sid), sep.join
    return (f"{head}{join(cells)}{tail}" for cells in zip(
        *(_column_text(columns[name], fmt, key.format(name=name)) for name in CSV_COLUMNS[1:])))


def write_csv(path, sid: int, columns: dict[str, np.ndarray]) -> None:
    """The bytes ``csv.DictWriter`` writes for the records of
    :func:`sample_rows`, here from the sample columns: every float as
    ``repr`` and ``\\r\\n`` line ends."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\r\n")
        fh.writelines(_rows(sid, columns, "csv"))


def write_json(path, sid: int, grid: int, reports: list[CheckReport],
               columns: dict[str, np.ndarray]) -> None:
    """The bytes ``report.write_report_file(path, reports, surface=sid,
    grid=grid, rows=records)`` writes for the records of :func:`sample_rows`,
    here from the sample columns: ``json.dumps`` spells every float as
    ``repr``, or NaN, Infinity and -Infinity."""
    head = json.dumps({"schema_version": SCHEMA_VERSION, "surface": sid, "grid": grid})
    tail = json.dumps([report_to_dict(r) for r in reports])
    with open(path, "w") as fh:
        fh.write(f'{head[:-1]}, "rows": [{", ".join(_rows(sid, columns, "json"))}], '
                 f'"reports": {tail}}}\n')


def surface_summary(sid, n: int = constants.DEFAULT_GRID,
                    tol_fd: float = constants.TOL_CURVATURE) -> dict:
    """Verification of one surface over its default grids.

    ``reports`` holds one :class:`CheckReport` per aggregate, named
    ``<check>[surface<id>]``; ``tol_fd`` bounds the two finite-difference
    curvature checks.  The six rows that take no difference (expm, group,
    horizontality, metric, amplitudes, alignment) round only, so they are
    held at ``TOL_EXACT``.  ``frame_agreement`` compares the analytic frames,
    rebuilt as matrices at the grid points, with central differences of the
    closed form under its own tolerance.  ``orbit_lie_triple`` checks the
    premise of the frame formula on the plane itself.  ``K_sheared_chart``
    recomputes K in the sheared chart of :func:`_sheared_metric`, at
    ``TOL_CURVATURE`` whatever ``tol_fd``.
    ``columns`` holds the per-point sample columns, the export's among them.
    The control plane has no closed-form metric or analytic frames, so those
    two rows are NaN.  Aggregates reduce with ``np.max``, so a NaN reaches its
    report and fails it; K and the totally geodesic residual cover only the
    metric-nondegenerate points.  The two expm-grid checks run first, and
    they and ``frame_agreement`` work in point blocks, so only the
    sample-column stage grows with the grid.
    """
    desc = _descriptor(sid)
    expm_err, group_err = expm_defect(desc, n), group_membership_defect(desc, n)
    cols = _sample_columns(desc, *default_grid(desc, n))
    ok = cols["nondegenerate"]
    ks, sheared = cols["K"][ok], _sheared_chart_K(desc)
    amps = distribution_amplitudes(cols["unit_frame"], desc.eps)
    expected = desc.expected_metric(cols["t"]) if desc.expected_metric else (math.nan,) * 3

    def check(name: str, err, tol: float, samples: int) -> CheckReport:
        return CheckReport(f"{name}[surface{desc.sid}]", float(err), tol, int(samples))

    reports = [
        check("expm_defect", expm_err, constants.TOL_EXACT, n * n),
        check("group_defect", group_err, constants.TOL_EXACT, n * n),
        check("horizontality", np.max(np.abs(cols["omega_t"][..., H_SLICE])),
              constants.TOL_EXACT, ok.size),
        check("metric_closed_form_error",
              np.max([np.max(np.abs(cols[c] - want)) for c, want in zip("EFG", expected)]),
              constants.TOL_EXACT, ok.size),
        check("amplitude_error", np.max(np.abs(amps - np.array(desc.expected_amplitudes))),
              constants.TOL_EXACT, ok.size),
        check("K_max_deviation", np.max(np.abs(ks - desc.expected_K)), tol_fd, ks.size),
        check("tg_residual_max", np.max(cols["tg_residual"][ok]), tol_fd, ks.size),
        check("ac_residual_max", np.max(cols["ac_residual"]), constants.TOL_EXACT, ok.size),
        check("frame_agreement", _frame_agreement(desc, cols) if desc.has_analytic_frames
              else math.nan, constants.TOL_FRAME_AGREEMENT, ok.size),
        check("orbit_lie_triple", desc.lie_triple[-1], constants.TOL_INTEGER_IDENTITY, 1),
        check("K_sheared_chart", max_abs(sheared - desc.expected_K), constants.TOL_CURVATURE,
              sheared.size),
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
        "columns": cols,
    }
