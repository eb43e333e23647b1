"""Tests of the six example immersions and the negative control.

The per-surface aggregate numbers (exponential agreement, metric closed
forms, curvature, residuals) run on a 21-point grid here; the acceptance
module repeats them on the full default grids.
"""

import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from nkflag import constants
from nkflag import surfaces as sf
from nkflag.classification import solve_families
from nkflag.kernels import minor_equations
from nkflag.lie_structure import H1, M1, M3, M4, PSEUDO, RIEMANNIAN, basis, coefficients
from nkflag.matrix_core import max_abs
from nkflag.nk_geometry import acs_matrix
from nkflag.report import write_report_file

GRID = 21


class TestDescriptors:
    def test_ids_and_signatures(self):
        assert sf.SURFACE_IDS == (1, 2, 3, 4, 5, 6)
        assert [sf.get_surface(i).eps for i in sf.SURFACE_IDS] == [
            RIEMANNIAN, RIEMANNIAN, RIEMANNIAN, PSEUDO, PSEUDO, PSEUDO]

    def test_bad_id_rejected(self):
        for bad in (0, 7, "x", None):
            with pytest.raises(ValueError):
                sf.get_surface(bad)

    def test_expected_curvatures(self):
        assert [sf.get_surface(i).expected_K for i in sf.SURFACE_IDS] == [4, 1, 0, 4, 4, 1]


#: the induced metric of each surface as formerly typed by hand, the
#: reference for the space-form formula
_HAND_METRICS = {
    1: lambda t: (np.ones_like(t), np.zeros_like(t), (np.sin(2.0 * t) / 2.0) ** 2),
    2: lambda t: (np.ones_like(t), np.zeros_like(t), np.sin(t) ** 2),
    3: lambda t: (np.ones_like(t), np.zeros_like(t), np.ones_like(t)),
    4: lambda t: (np.ones_like(t), np.zeros_like(t), (np.sin(2.0 * t) / 2.0) ** 2),
    5: lambda t: (-np.ones_like(t), np.zeros_like(t), -((np.sinh(2.0 * t) / 2.0) ** 2)),
    6: lambda t: (-np.ones_like(t), np.zeros_like(t), -np.sinh(t) ** 2),
}


def _family_of(sid):
    return (*solve_families(RIEMANNIAN), *solve_families(PSEUDO))[sid - 1]


class TestFamilyTable:
    @pytest.mark.parametrize("sid", sf.SURFACE_IDS)
    def test_plane_is_x_and_jx_of_its_family(self, sid):
        # X is the family's integer direction; the unit speed is the size |X|
        fam, desc = _family_of(sid), sf.get_surface(sid)
        b, j = basis(fam.eps), acs_matrix("J")
        x = sum(a * b[M1 + d] for d, a in enumerate(fam.direction))
        jx = sum(j[d + 3, d] * a * b[M4 + d] for d, a in enumerate(fam.direction))
        np.testing.assert_array_equal(desc.plane[0], x)
        np.testing.assert_array_equal(desc.plane[1], jx)
        assert desc.size == fam.size

    @pytest.mark.parametrize("sid", sf.SURFACE_IDS)
    def test_expectations_are_its_familys(self, sid):
        fam, desc = _family_of(sid), sf.get_surface(sid)
        assert desc.eps == fam.eps and desc.trig == (fam.norm_sign > 0)
        assert desc.expected_K == fam.K
        assert desc.expected_amplitudes == fam.amplitudes

    @pytest.mark.parametrize("sid", sf.SURFACE_IDS)
    def test_space_form_metric_is_the_hand_formula(self, sid):
        t = np.array([0.0, 0.3, 0.9, 1.7, 2.0, 2.9])
        for got, want in zip(sf.get_surface(sid).expected_metric(t), _HAND_METRICS[sid](t)):
            np.testing.assert_array_equal(got, want)

    def test_a_fault_in_a_familys_K_fails_K_max_deviation(self, summary_cache, monkeypatch):
        name = "K_max_deviation[surface2]"
        assert {r.name: r for r in summary_cache(2, 11)["reports"]}[name].passed
        real = sf.solve_families
        monkeypatch.setattr(sf, "solve_families", lambda eps: tuple(
            dataclasses.replace(f, K=f.K + 1e-3) for f in real(eps)))
        faulty = sf._build_surfaces()[2]
        assert not {r.name: r for r in sf.surface_summary(faulty, 11)["reports"]}[name].passed


class TestClosedForms:
    def test_identity_at_origin(self):
        for sid in sf.SURFACE_IDS:
            assert max_abs(sf.get_surface(sid).closed_form(0.0, 0.0) - np.eye(3)) < 1e-14
        assert max_abs(sf.get_surface(3).closed_form(0.0, 0.0) - np.eye(3)) == 0.0

    def test_hyperbolic_disc_formula(self):
        for t in (0.2, 0.9, 1.7):
            for u in (0.0, 1.3):
                ch, sh, ph = math.cosh(t), math.sinh(t), np.exp(1j * u)
                expected = np.array([
                    [1, 0, 0],
                    [0, ch, sh / ph],
                    [0, sh * ph, ch],
                ])
                assert max_abs(sf.get_surface(5).closed_form(t, u) - expected) < 1e-14

    def test_quarter_turn_value(self):
        expected = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
        assert max_abs(sf.get_surface(1).closed_form(math.pi / 2, 0.0) - expected) < 1e-15

    @pytest.mark.parametrize("sid", sf.SURFACE_IDS)
    def test_point_value_does_not_depend_on_batch(self, sid):
        # 40,401 points put every complex temporary above 256 KiB, where numpy
        # computes `x * temporary` as `temporary * x` and rounds otherwise
        t, u = sf.expm_grid(sid, 201)
        closed_form = sf.get_surface(sid).closed_form
        chunks = [closed_form(t[i:i + 1000], u[i:i + 1000]) for i in range(0, t.size, 1000)]
        np.testing.assert_array_equal(closed_form(t, u).view(np.float64),
                                      np.concatenate(chunks).view(np.float64))

    @pytest.mark.parametrize("sid", sf.SURFACE_IDS)
    def test_matches_exponential(self, sid, surface_error):
        assert surface_error(sid, GRID, "expm_defect") < constants.TOL_EXACT

    @pytest.mark.parametrize("sid", sf.SURFACE_IDS)
    def test_group_membership(self, sid, surface_error):
        assert surface_error(sid, GRID, "group_defect") < constants.TOL_EXACT


class TestGridReductions:
    def test_an_empty_grid_gives_zero(self):
        desc = sf.get_surface(2)
        empty = {"t": np.zeros(0), "u": np.zeros(0),
                 "omega_t": np.zeros((0, 8)), "omega_u": np.zeros((0, 8))}
        assert sf.expm_defect(desc, 0) == 0.0
        assert sf.group_membership_defect(desc, 0) == 0.0
        assert sf._frame_agreement(desc, empty) == 0.0

    def test_a_nan_in_the_last_block_reaches_the_defect(self):
        # grid 46 is 2,116 points in two blocks; the NaNs sit on the last
        # grid row, which lies in the second block
        real = sf.get_surface(2)

        def closed_form(t, u):
            out = real.closed_form(t, u)
            out[np.asarray(t) == constants.EXPM_T_MAX_TRIG] = np.nan
            return out

        desc = dataclasses.replace(real, closed_form=closed_form)
        assert math.isnan(sf.expm_defect(desc, 46))
        assert math.isnan(sf.group_membership_defect(desc, 46))
        cols = sf._sample_columns(real, *sf.default_grid(real, 46))
        cols["omega_u"][-1, 0] = np.nan
        assert math.isnan(sf._frame_agreement(real, cols))

    @pytest.mark.parametrize("sid", [2, 5])
    def test_a_singular_closed_form_gives_a_nan_frame_agreement(self, sid):
        # one grid point's closed form loses its last row: its difference
        # frames are NaN, so the row reads NaN and fails instead of raising
        real = sf.get_surface(sid)
        t, u = sf.default_grid(real, GRID)
        t0, u0 = t[200], u[200]

        def closed_form(t, u):
            out = real.closed_form(t, u)
            out[(np.asarray(t) == t0) & (np.asarray(u) == u0), 2] = 0.0
            return out

        desc = dataclasses.replace(real, closed_form=closed_form)
        fd = sf._fd_frames(desc, t, u)
        assert all(np.all(np.isnan(w[200])) and np.isfinite(np.delete(w, 200, axis=0)).all()
                   for w in fd)
        by_name = {r.name: r for r in sf.surface_summary(desc, GRID)["reports"]}
        row = by_name[f"frame_agreement[surface{sid}]"]
        assert math.isnan(row.max_abs_error) and not row.passed


class TestFrames:
    @pytest.mark.parametrize("sid", sf.SURFACE_IDS)
    def test_analytic_vs_finite_difference(self, sid, surface_error):
        assert surface_error(sid, GRID, "frame_agreement") < constants.TOL_FRAME_AGREEMENT

    def test_t_derivative_is_generator_direction(self):
        desc = sf.get_surface(1)
        for t, u in ((0.4, 0.9), (1.2, 3.3)):
            omega_t, _ = sf._frames(desc, t, u)
            want = np.zeros(8)
            want[M1], want[M4] = math.cos(u), math.sin(u)
            np.testing.assert_allclose(omega_t, want, atol=1e-13)

    @pytest.mark.parametrize("sid", sf.SURFACE_IDS)
    def test_t_derivative_horizontal(self, sid, surface_error):
        assert surface_error(sid, GRID, "horizontality") < constants.TOL_EXACT

    def test_vertical_part_of_u_derivative(self):
        # for the V1 sphere the isotropy component is
        # -(sin^2 t / 2) h1 + (sin^2 t / 2) h2
        for t, u in ((0.5, 0.0), (1.1, 2.0)):
            _, omega_u = sf._frames(sf.get_surface(1), t, u)
            s2 = math.sin(t) ** 2
            np.testing.assert_allclose(omega_u[:2], [-s2 / 2.0, s2 / 2.0], atol=1e-13)

    def test_hyperbolic_u_derivative(self):
        # mu < 0 on the V2 plane of the split form: the sinh/cosh branch,
        # against the closed-form matrix of omega_u
        for t, u in ((0.3, 0.0), (1.1, 2.0), (1.9, 4.4)):
            sh, sc, ph = math.sinh(t), math.sinh(t) * math.cosh(t), np.exp(1j * u)
            want = np.array([
                [0, 0, 0],
                [0, -1j * sh * sh, -1j * sc / ph],
                [0, 1j * sc * ph, 1j * sh * sh],
            ])
            _, omega_u = sf._frames(sf.get_surface(5), t, u)
            np.testing.assert_allclose(omega_u, coefficients(want, PSEUDO), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("desc", [sf.get_surface(2), sf.get_surface(3), sf.control_surface()],
                             ids=["rotor", "flat_torus", "control"])
    def test_stencil_offsets_need_no_broadcast(self, desc):
        # the metric jets pass the t-offsets as (5, 1, n) and the u-offsets as
        # (1, 5, n); the frames must equal the broadcast evaluation bit for bit
        t, u = sf.default_grid(desc, 3)
        ts = t[None, None, :] + constants.CURV_STEP * sf._OFFSETS[:, None, None]
        us = u[None, None, :] + constants.CURV_STEP * sf._OFFSETS[None, :, None]
        full = sf._frames(desc, *np.broadcast_arrays(ts, us))
        got = sf._frames(desc, ts, us)
        assert got[1].shape == full[1].shape == (5, 5, 9, 8)
        for w, want in zip(got, full):
            assert np.array_equal(np.broadcast_to(w, want.shape), want)

    def test_difference_frames_run_in_point_blocks(self, monkeypatch):
        # grid 161 is 25,921 points; frame_agreement hands the central
        # differences one block of points at a time
        sizes, real = [], sf._fd_frames
        monkeypatch.setattr(sf, "_fd_frames",
                            lambda desc, t, u: sizes.append(np.size(t)) or real(desc, t, u))
        sf.surface_summary(3, 161)
        assert len(sizes) == 13 and max(sizes) <= sf._EXPM_BLOCK_POINTS

    @pytest.mark.parametrize("sid, grid", [(5, 41), (5, 201), (1, 201)])
    def test_holomorphic_curvatures_run_in_point_blocks(self, sid, grid, monkeypatch):
        # surface 1 has degenerate points, which the blocks skip
        desc, sizes, real = sf.get_surface(sid), [], sf.holomorphic_K
        t, u = sf.default_grid(desc, grid)
        monkeypatch.setattr(sf, "holomorphic_K",
                            lambda x, eps: sizes.append(len(x)) or real(x, eps))
        blocked = sf._sample_columns(desc, t, u)
        assert max(sizes) <= sf._EXPM_BLOCK_POINTS
        assert sum(sizes) == np.count_nonzero(blocked["nondegenerate"])
        monkeypatch.setattr(sf, "_EXPM_BLOCK_POINTS", t.size)
        whole = sf._sample_columns(desc, t, u)["tg_residual"]
        np.testing.assert_array_equal(blocked["tg_residual"], whole)

    def test_flat_torus_frames_fully_horizontal(self):
        omega_t, omega_u = sf._frames(sf.get_surface(3), 0.8, 1.9)
        assert np.max(np.abs(omega_u[:2])) < 1e-14
        assert np.max(np.abs(omega_t[:2])) < 1e-14

    def test_lie_triple_is_read_once_per_descriptor(self, monkeypatch):
        calls, real = [], sf._lie_triple
        monkeypatch.setattr(sf, "_lie_triple", lambda desc: calls.append(desc.sid) or real(desc))
        desc = dataclasses.replace(sf.get_surface(2))
        sf.surface_summary(desc, 11)
        sf.surface_summary(desc, 11)
        assert calls == [2]

    def test_flat_torus_plane_must_commute(self):
        # the constant frames need [A, B] = 0; the V1 plane's bracket is h1 - h2,
        # read off the plane as stored, whatever its size
        swapped = dataclasses.replace(sf.get_surface(3), plane=sf.get_surface(1).plane)
        assert sf._lie_triple(swapped)[-1] == 1.0


class TestAlmostComplex:
    @pytest.mark.parametrize("sid,factor", [
        (1, lambda t: math.sin(t) * math.cos(t)),
        (2, math.sin),
        (3, lambda t: 1.0),
        (4, lambda t: math.sin(t) * math.cos(t)),
        (5, lambda t: math.sinh(t) * math.cosh(t)),
        (6, math.sinh),
    ])
    def test_alignment_and_factor(self, sid, factor):
        for t in (0.3, 0.8, 1.4):
            for u in (0.0, 2.5):
                residual, f = sf.almost_complex_check(sid, t, u)
                assert residual < constants.TOL_EXACT
                assert f == pytest.approx(factor(t), abs=1e-12)

    def test_degenerate_point_returns_zero(self):
        residual, f = sf.almost_complex_check(1, 0.0, 1.0)
        assert residual == 0.0 and f == 0.0

    @pytest.mark.parametrize("sid", sf.SURFACE_IDS)
    def test_batched_fit_matches_pointwise(self, sid):
        desc = sf.get_surface(sid)
        t, u = sf.default_grid(desc, 11)
        residual, factor = sf._almost_complex_fit(*sf._frames_m(desc, t, u))
        pointwise = np.array([sf.almost_complex_check(desc, ti, ui) for ti, ui in zip(t, u)])
        np.testing.assert_array_equal(residual, pointwise[:, 0])
        np.testing.assert_array_equal(factor, pointwise[:, 1])

    @pytest.mark.parametrize("sid", sf.SURFACE_IDS)
    def test_max_residual_over_grid(self, sid, surface_error):
        assert surface_error(sid, GRID, "ac_residual_max") < constants.TOL_EXACT


class TestInducedMetric:
    def test_pinned_values(self):
        e, f, g = sf.induced_metric(1, math.pi / 4, 1.7)
        assert (e, f, g) == pytest.approx((1.0, 0.0, 0.25), abs=1e-13)
        e, f, g = sf.induced_metric(3, 0.9, 0.1)
        assert (e, f, g) == pytest.approx((1.0, 0.0, 1.0), abs=1e-13)
        t = 0.8
        e, f, g = sf.induced_metric(6, t, 2.2)
        assert (e, f, g) == pytest.approx((-1.0, 0.0, -math.sinh(t) ** 2), abs=1e-13)

    @pytest.mark.parametrize("sid", sf.SURFACE_IDS)
    def test_matches_closed_form_over_grid(self, sid, surface_error):
        assert surface_error(sid, GRID, "metric_closed_form_error") < constants.TOL_EXACT

    def test_negative_definite_sign(self):
        t, u = sf.default_grid(5, 11)
        e, f, g = sf.induced_metric(5, t, u)
        assert np.all(e < 0) and np.all(g < 0)


def _tg_columns(surface, t, u):
    """Per-point columns of a surface id or descriptor at the points (t, u)."""
    return sf._sample_columns(sf._descriptor(surface), np.array(t, float), np.array(u, float))


class TestGaussCurvature:
    @pytest.mark.parametrize("sid", sf.SURFACE_IDS)
    def test_constant_curvature(self, sid, summary_cache, surface_error):
        s = summary_cache(sid, GRID)
        assert surface_error(sid, GRID, "K_max_deviation") < constants.TOL_CURVATURE
        assert s["K_mean"] == pytest.approx(s["K_expected"], abs=1e-5)

    def test_degenerate_rejection(self):
        # the V1 spheres close up at t = pi/2 where the u-circle shrinks away
        cols = _tg_columns(1, [math.pi / 2], [0.3])
        assert not cols["nondegenerate"][0] and math.isnan(cols["tg_residual"][0])
        k = sf.gauss_curvature_batch(1, [math.pi / 2], [0.3])
        assert math.isnan(k[0])

    def test_empty_batch(self):
        k = sf.gauss_curvature_batch(1, [], [])
        assert k.shape == (0,) and k.dtype == np.float64

    def test_single_point_value(self):
        assert sf.gauss_curvature_batch(2, [0.9], [1.0])[0] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("surface", [2, 5, sf.control_surface()], ids=["2", "5", "control"])
    def test_point_value_does_not_depend_on_batch(self, surface, monkeypatch):
        # grid 41 spans several point blocks and ends in a ragged one
        desc = sf._descriptor(surface)
        t, u = sf.default_grid(desc, 41)
        b = sf._BLOCK_POINTS
        assert t.size > b and t.size % b
        whole = sf._sample_columns(desc, t, u)
        assert whole.keys() == {*sf.CSV_COLUMNS[1:], "omega_t", "omega_u",
                                "unit_frame", "nondegenerate"}
        edges = [i for lo in range(b, t.size, b) for i in (lo - 1, lo)]
        for i in sorted({*range(0, t.size, 10), *edges, t.size - 1}):
            one = sf._sample_columns(desc, t[i:i + 1], u[i:i + 1])
            for name, column in whole.items():
                np.testing.assert_array_equal(one[name], column[i:i + 1], err_msg=name)
        monkeypatch.setattr(sf, "_BLOCK_POINTS", t.size)
        unblocked = sf._sample_columns(desc, t, u)
        for name, column in whole.items():
            np.testing.assert_array_equal(unblocked[name], column, err_msg=name)


_T = np.linspace(0.3, 1.2, 7)
_ZERO = np.zeros_like(_T)


def _warped_jets(eps, f, df, ddf):
    """Exact jets of dt^2 + eps f(t)^2 du^2, whose curvature is -f''/f."""
    fv, dfv, ddfv = f(_T), df(_T), ddf(_T)
    return {"E": np.ones_like(_T), "F": _ZERO, "G": eps * fv * fv,
            "E_t": _ZERO, "E_u": _ZERO, "F_t": _ZERO, "F_u": _ZERO,
            "G_t": 2.0 * eps * fv * dfv, "G_u": _ZERO,
            "E_uu": _ZERO, "F_tu": _ZERO, "G_tt": 2.0 * eps * (dfv * dfv + fv * ddfv)}


def _sheared_sphere_jets(alpha, beta):
    """Exact jets of the unit sphere ds^2 + sin(s)^2 dv^2 in the linear
    coordinates (s, v) = (t + alpha u, u + beta t): E, F, G all depend on
    s, so every jet the formula reads is nonzero unless alpha or beta is 0."""
    s = _T + alpha * 0.4
    sv, d1, d2 = np.sin(s) ** 2, np.sin(2.0 * s), 2.0 * np.cos(2.0 * s)
    return {"E": 1.0 + beta ** 2 * sv, "F": alpha + beta * sv, "G": alpha ** 2 + sv,
            "E_t": beta ** 2 * d1, "E_u": alpha * beta ** 2 * d1,
            "F_t": beta * d1, "F_u": alpha * beta * d1,
            "G_t": d1, "G_u": alpha * d1,
            "E_uu": alpha ** 2 * beta ** 2 * d2, "F_tu": alpha * beta * d2, "G_tt": d2}


class TestBrioschi:
    @pytest.mark.parametrize("eps", (+1, -1))
    @pytest.mark.parametrize("f, df, ddf", [
        (lambda t: np.sin(2 * t) / 2, lambda t: np.cos(2 * t), lambda t: -2 * np.sin(2 * t)),
        (np.sinh, np.cosh, np.sinh),
        (lambda t: 1 + t ** 3, lambda t: 3 * t ** 2, lambda t: 6 * t),
    ], ids=["sphere", "hyperbolic", "cubic"])
    def test_warped_product(self, eps, f, df, ddf):
        k = sf._curvature_from_jets(_warped_jets(eps, f, df, ddf))
        np.testing.assert_allclose(k, -ddf(_T) / f(_T), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("alpha, beta", [(0.0, 1.0), (0.4, 0.7)])
    def test_sheared_round_sphere(self, alpha, beta):
        jets = _sheared_sphere_jets(alpha, beta)
        assert np.all(jets["F"] != 0.0)
        np.testing.assert_allclose(sf._curvature_from_jets(jets), 1.0, rtol=0, atol=1e-12)

    def test_nan_jet_gives_nan(self):
        clean = _sheared_sphere_jets(0.4, 0.7)
        for name in clean:
            jets = dict(clean, **{name: np.where(_T == _T[3], np.nan, clean[name])})
            k = sf._curvature_from_jets(jets)
            assert np.isnan(k[3]) and not np.isnan(np.delete(k, 3)).any(), name


class TestTotallyGeodesic:
    @pytest.mark.parametrize("sid", sf.SURFACE_IDS)
    def test_residual_over_grid(self, sid, surface_error):
        assert surface_error(sid, GRID, "tg_residual_max") < constants.TOL_CURVATURE

    def test_single_point(self):
        # numeric surface curvature and ambient holomorphic curvature both 4
        assert sf.gauss_curvature_batch(1, [math.pi / 4], [0.0])[0] == pytest.approx(4.0, abs=1e-6)
        assert _tg_columns(1, [math.pi / 4], [0.0])["tg_residual"][0] < 1e-6

    @pytest.mark.parametrize("sid", sf.SURFACE_IDS)
    def test_amplitudes_constant(self, sid, surface_error):
        assert surface_error(sid, GRID, "amplitude_error") < constants.TOL_EXACT


class TestControlSurface:
    def test_minor_residual_large(self):
        ctrl = sf.control_surface()
        a, b, c = ctrl.expected_amplitudes
        residuals = minor_equations(a, b, c, RIEMANNIAN)
        assert max(abs(r) for r in residuals) > constants.CONTROL_RESIDUAL_MIN

    def test_totally_geodesic_residual_large(self):
        ctrl = sf.control_surface()
        tg = _tg_columns(ctrl, [0.5, 0.9], [0.3, 2.0])["tg_residual"]
        assert np.all(tg > constants.CONTROL_RESIDUAL_MIN)

    def test_exponential_is_its_own_closed_form(self):
        ctrl = sf.control_surface()
        got = ctrl.closed_form(0.7, 0.4)
        from nkflag.matrix_core import expm
        assert max_abs(got - expm(ctrl.generator(0.7, 0.4))) < 1e-14

    def test_summary_fails_the_plane(self):
        # no closed-form metric: that row reads NaN instead of raising
        by_name = {r.name: r for r in sf.surface_summary(sf.control_surface(), 11)["reports"]}
        lie = by_name["orbit_lie_triple[surface0]"]
        assert not lie.passed and lie.max_abs_error == pytest.approx(0.836, abs=1e-3)
        metric = by_name["metric_closed_form_error[surface0]"]
        assert not metric.passed and math.isnan(metric.max_abs_error)

    def test_no_analytic_frames(self):
        # the frames come from central differences; exp(t X(u)) has
        # omega_t = X(u), the generator at t = 1
        ctrl = sf.control_surface()
        assert not ctrl.has_analytic_frames
        for t, u in ((0.5, 0.3), (0.9, 2.0)):
            omega_t, _ = sf._frames(ctrl, t, u)
            assert max_abs(omega_t - coefficients(ctrl.generator(1.0, u), RIEMANNIAN)) \
                < constants.TOL_FRAME_AGREEMENT


class TestExport:
    def test_rows_and_csv(self, tmp_path, summary_cache):
        rows = sf.sample_rows(2, 11)
        assert len(rows) == 121
        assert list(rows[0].keys()) == list(sf.CSV_COLUMNS)
        path = tmp_path / "samples.csv"
        sf.write_csv(path, 2, summary_cache(2, 11)["columns"])
        lines = path.read_bytes().split(b"\r\n")
        assert lines[0] == ",".join(sf.CSV_COLUMNS).encode()
        assert len(lines) == 123 and lines[-1] == b""

    @pytest.mark.parametrize("sid", sf.SURFACE_IDS)
    def test_summary_rows_are_the_sample_rows(self, sid, summary_cache, tmp_path):
        # the CSV written from the summary's columns is, byte for byte, what
        # csv.DictWriter writes for the sample rows: every float as repr, nan
        # included (the V1 spheres' collapsed u-circle), and \r\n line ends
        want = io.StringIO(newline="")
        writer = csv.DictWriter(want, fieldnames=sf.CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(sf.sample_rows(sid, 11))
        path = tmp_path / "samples.csv"
        sf.write_csv(path, sid, summary_cache(sid, 11)["columns"])
        assert path.read_bytes() == want.getvalue().encode()
        assert ("nan" in want.getvalue()) == (sid in (1, 4))

    @pytest.mark.parametrize("sid", [*sf.SURFACE_IDS, "control"])
    def test_json_is_the_report_file_of_the_sample_rows(self, sid, summary_cache, tmp_path):
        if sid == "control":
            desc = sf.control_surface()
            summary, rows = sf.surface_summary(desc, 11), sf.sample_rows(desc, 11)
            sid = desc.sid
        else:
            summary, rows = summary_cache(sid, 11), sf.sample_rows(sid, 11)
        want, got = tmp_path / "want.json", tmp_path / "got.json"
        write_report_file(want, summary["reports"], surface=sid, grid=11, rows=rows)
        sf.write_json(got, sid, 11, summary["reports"], summary["columns"])
        assert got.read_bytes() == want.read_bytes()

    def test_export_spells_every_float_as_the_standard_writers(self, tmp_path):
        # one text per bit pattern: -0.0 keeps its sign, both NaNs and both
        # infinities take each format's spelling, neighbours one ulp apart
        # stay apart
        one_ulp = np.nextafter(0.1, 1.0)
        values = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 1e16,
                           0.1, one_ulp, 0.0, np.nan])
        assert np.signbit(values[[1, 3]]).all() and np.isnan(values[[2, 3]]).all()
        columns = {name: np.roll(values, k) for k, name in enumerate(sf.CSV_COLUMNS[1:])}
        names = sf.CSV_COLUMNS[1:]
        rows = [{"id": 7, **dict(zip(names, vs))}
                for vs in zip(*(columns[name].tolist() for name in names))]
        want = io.StringIO(newline="")
        writer = csv.DictWriter(want, fieldnames=sf.CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
        sf.write_csv(tmp_path / "x.csv", 7, columns)
        assert (tmp_path / "x.csv").read_bytes() == want.getvalue().encode()
        assert "-0.0" in want.getvalue() and "5e-324" in want.getvalue()
        sf.write_json(tmp_path / "x.json", 7, 3, [], columns)
        write_report_file(tmp_path / "want.json", [], surface=7, grid=3, rows=rows)
        got = (tmp_path / "x.json").read_text()
        assert got == (tmp_path / "want.json").read_text()
        assert f'"rows": {json.dumps(rows)}, ' in got and "-Infinity" in got

    def test_summary_reports(self, summary_cache):
        s = summary_cache(1, GRID)
        checked = GRID * GRID - s["degenerate_points"]
        assert [(r.name, r.tolerance, r.samples) for r in s["reports"]] == [
            ("expm_defect[surface1]", constants.TOL_EXACT, GRID * GRID),
            ("group_defect[surface1]", constants.TOL_EXACT, GRID * GRID),
            ("horizontality[surface1]", constants.TOL_EXACT, GRID * GRID),
            ("metric_closed_form_error[surface1]", constants.TOL_EXACT, GRID * GRID),
            ("amplitude_error[surface1]", constants.TOL_EXACT, GRID * GRID),
            ("K_max_deviation[surface1]", constants.TOL_CURVATURE, checked),
            ("tg_residual_max[surface1]", constants.TOL_CURVATURE, checked),
            ("ac_residual_max[surface1]", constants.TOL_EXACT, GRID * GRID),
            ("frame_agreement[surface1]", constants.TOL_FRAME_AGREEMENT, GRID * GRID),
            ("orbit_lie_triple[surface1]", constants.TOL_INTEGER_IDENTITY, 1),
        ]
        assert 0 < checked < GRID * GRID

    def test_tol_fd_bounds_the_curvature_reports(self):
        reports = sf.surface_summary(2, 11, tol_fd=1e-12)["reports"]
        assert [r.name for r in reports if not r.passed] == [
            "K_max_deviation[surface2]", "tg_residual_max[surface2]"]
        assert {r.tolerance for r in reports[5:7]} == {1e-12}

    def test_degenerate_rows_are_nan(self):
        rows = sf.sample_rows(1, 11)
        degenerate = [r for r in rows if math.isnan(r["K"])]
        assert degenerate  # the t = pi/2 row
        for r in degenerate:
            assert math.isnan(r["tg_residual"])
            assert abs(r["t"] - math.pi / 2) < 1e-9

    def test_grid_shapes(self):
        t, u = sf.default_grid(1, 11)
        assert t.shape == u.shape == (121,)
        lo, hi = sf.get_surface(1).t_range
        assert t.min() == pytest.approx(lo) and t.max() == pytest.approx(hi)
        assert u.max() < 2 * math.pi

    def test_expm_grid_ranges(self):
        t, _ = sf.expm_grid(1, 11)
        assert t.max() == pytest.approx(2 * math.pi)
        t, _ = sf.expm_grid(5, 11)
        assert t.max() == pytest.approx(2.0)


def _shifted(fn, delta):
    return lambda *args: fn(*args) + delta


def _frames_shifted(mp, d_t, d_u):
    """Patch :func:`sf._frames` to add the coordinate rows d_t, d_u to
    (omega_t, omega_u)."""
    frames = sf._frames
    mp.setattr(sf, "_frames", lambda *args: tuple(
        w + dw for w, dw in zip(frames(*args), (d_t, d_u))))


def _plane_shifted(d, d_a, d_b):
    return dataclasses.replace(d, plane=(d.plane[0] + d_a, d.plane[1] + d_b))


_H1, _M3 = basis(RIEMANNIAN)[H1], basis(RIEMANNIAN)[M3]
_E = np.eye(8)   # coordinate rows of the basis

#: one fault per ``surface`` report, injected into the layer the report reads
#: and at least 10x its tolerance: report name -> (descriptor, monkeypatch)
#: -> faulty descriptor of the compact surface 2
_FAULTS = {
    "expm_defect": lambda d, mp: _plane_shifted(d, 1e-11 * _H1, 0.0),
    "group_defect": lambda d, mp: dataclasses.replace(
        d, closed_form=lambda t, u: (1.0 + 1e-11) * d.closed_form(t, u)),
    "horizontality": lambda d, mp: _frames_shifted(mp, 1e-11 * _E[H1], 0.0) or d,
    "metric_closed_form_error": lambda d, mp: dataclasses.replace(
        d, expected_metric=lambda t: (d.expected_metric(t)[0] + 1e-11, *d.expected_metric(t)[1:])),
    "amplitude_error": lambda d, mp: dataclasses.replace(
        d, expected_amplitudes=(d.expected_amplitudes[0] + 1e-11, *d.expected_amplitudes[1:])),
    "K_max_deviation": lambda d, mp: dataclasses.replace(d, expected_K=d.expected_K + 1e-3),
    "tg_residual_max": lambda d, mp: mp.setattr(
        sf, "holomorphic_K", _shifted(sf.holomorphic_K, 1e-3)) or d,
    # V3 lies outside the V1 + V2 plane of surface 2, so J(omega_t) misses it
    "ac_residual_max": lambda d, mp: _frames_shifted(mp, 0.0, 1e-11 * _E[M3]) or d,
    # only the difference frames see the vertical part of omega_u
    "frame_agreement": lambda d, mp: _frames_shifted(mp, 0.0, 1e-5 * _E[H1]) or d,
    # B leaves V1 + V2, so [[A, B], B] is no longer a multiple of A
    "orbit_lie_triple": lambda d, mp: _plane_shifted(d, 0.0, 1e-6 * _M3),
}


class TestFaultTable:
    def test_every_report_has_a_fault(self, summary_cache):
        emitted = {r.name.split("[")[0] for sid in sf.SURFACE_IDS
                   for r in summary_cache(sid, GRID)["reports"]}
        assert set(_FAULTS) == emitted

    @pytest.mark.parametrize("check", sorted(_FAULTS))
    def test_fault_fails_its_report(self, check, summary_cache, monkeypatch):
        name = f"{check}[surface2]"
        clean = {r.name: r for r in summary_cache(2, 11)["reports"]}
        assert clean[name].passed
        faulty = _FAULTS[check](sf.get_surface(2), monkeypatch)
        by_name = {r.name: r for r in sf.surface_summary(faulty, 11)["reports"]}
        assert not by_name[name].passed
