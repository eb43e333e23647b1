"""Tests of the six example immersions and the negative control.

The per-surface aggregate numbers (exponential agreement, metric closed
forms, curvature, residuals) run on a 21-point grid here; the acceptance
module repeats them on the full default grids.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from nkflag import constants
from nkflag import surfaces as sf
from nkflag.classification import minor_equations
from nkflag.lie_structure import H1, M1, M3, M4, PSEUDO, RIEMANNIAN, basis, coefficients
from nkflag.matrix_core import max_abs

SQ3 = math.sqrt(3.0)
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
    def test_matches_exponential(self, sid, surface_error):
        assert surface_error(sid, GRID, "expm_defect") < constants.TOL_EXPM_CLOSED_FORM

    @pytest.mark.parametrize("sid", sf.SURFACE_IDS)
    def test_group_membership(self, sid, surface_error):
        assert surface_error(sid, GRID, "group_defect") < constants.TOL_GROUP_MEMBERSHIP


class TestFrames:
    @pytest.mark.parametrize("sid", sf.SURFACE_IDS)
    def test_analytic_vs_finite_difference(self, sid, surface_error):
        assert surface_error(sid, GRID, "frame_agreement") < constants.TOL_FRAME_AGREEMENT

    def test_t_derivative_is_generator_direction(self):
        desc = sf.get_surface(1)
        for t, u in ((0.4, 0.9), (1.2, 3.3)):
            omega_t, _ = sf.frame_matrices(desc, t, u)
            want = np.zeros(8)
            want[M1], want[M4] = math.cos(u), math.sin(u)
            np.testing.assert_allclose(coefficients(omega_t, desc.eps), want, atol=1e-13)

    @pytest.mark.parametrize("sid", sf.SURFACE_IDS)
    def test_t_derivative_horizontal(self, sid, surface_error):
        assert surface_error(sid, GRID, "horizontality") < constants.TOL_HORIZONTAL

    def test_vertical_part_of_u_derivative(self):
        # for the V1 sphere the isotropy component is
        # -(sin^2 t / 2) h1 + (sqrt(3) sin^2 t / 2) h2
        for t, u in ((0.5, 0.0), (1.1, 2.0)):
            _, omega_u = sf.frame_matrices(1, t, u)
            s2 = math.sin(t) ** 2
            np.testing.assert_allclose(coefficients(omega_u, RIEMANNIAN)[:2],
                                       [-s2 / 2.0, SQ3 * s2 / 2.0], atol=1e-13)

    def test_flat_torus_frames_fully_horizontal(self):
        omega_t, omega_u = sf.frame_matrices(3, 0.8, 1.9)
        assert np.max(np.abs(coefficients(omega_u, RIEMANNIAN)[:2])) < 1e-14
        assert np.max(np.abs(coefficients(omega_t, RIEMANNIAN)[:2])) < 1e-14


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
                assert residual < constants.TOL_AC_RESIDUAL
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
        assert surface_error(sid, GRID, "ac_residual_max") < constants.TOL_AC_RESIDUAL


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
        assert surface_error(sid, GRID, "metric_closed_form_error") < constants.TOL_METRIC_CLOSED_FORM

    def test_negative_definite_sign(self):
        t, u = sf.default_grid(5, 11)
        e, f, g = sf.induced_metric(5, t, u)
        assert np.all(e < 0) and np.all(g < 0)


class TestGaussCurvature:
    @pytest.mark.parametrize("sid", sf.SURFACE_IDS)
    def test_constant_curvature(self, sid, summary_cache, surface_error):
        s = summary_cache(sid, GRID)
        assert surface_error(sid, GRID, "K_max_deviation") < constants.TOL_CURVATURE
        assert s["K_mean"] == pytest.approx(s["K_expected"], abs=1e-5)

    def test_degenerate_rejection(self):
        # the V1 spheres close up at t = pi/2 where the u-circle shrinks away
        with pytest.raises(ValueError):
            sf.totally_geodesic_check(1, math.pi / 2, 0.3)
        k = sf.gauss_curvature_batch(1, [math.pi / 2], [0.3])
        assert math.isnan(k[0])

    def test_single_point_value(self):
        assert sf.gauss_curvature_batch(2, [0.9], [1.0])[0] == pytest.approx(1.0, abs=1e-6)


class TestTotallyGeodesic:
    @pytest.mark.parametrize("sid", sf.SURFACE_IDS)
    def test_residual_over_grid(self, sid, surface_error):
        assert surface_error(sid, GRID, "tg_residual_max") < constants.TOL_CURVATURE

    def test_single_point(self):
        # numeric surface curvature and ambient holomorphic curvature both 4
        assert sf.gauss_curvature_batch(1, [math.pi / 4], [0.0])[0] == pytest.approx(4.0, abs=1e-6)
        assert sf.totally_geodesic_check(1, math.pi / 4, 0.0) < 1e-6

    @pytest.mark.parametrize("sid", sf.SURFACE_IDS)
    def test_amplitudes_constant(self, sid, surface_error):
        assert surface_error(sid, GRID, "amplitude_error") < constants.TOL_AMPLITUDE_CONST


class TestControlSurface:
    def test_minor_residual_large(self):
        ctrl = sf.control_surface()
        a, b, c = ctrl.expected_amplitudes
        residuals = minor_equations(a, b, c, RIEMANNIAN)
        assert max(abs(r) for r in residuals) > constants.CONTROL_RESIDUAL_MIN

    def test_totally_geodesic_residual_large(self):
        ctrl = sf.control_surface()
        for t, u in ((0.5, 0.3), (0.9, 2.0)):
            assert sf.totally_geodesic_check(ctrl, t, u) > constants.CONTROL_RESIDUAL_MIN

    def test_exponential_is_its_own_closed_form(self):
        ctrl = sf.control_surface()
        got = ctrl.closed_form(0.7, 0.4)
        from nkflag.matrix_core import expm
        assert max_abs(got - expm(ctrl.generator(0.7, 0.4))) < 1e-14

    def test_no_analytic_frames(self):
        # the frames come from central differences; exp(t X(u)) has
        # omega_t = X(u), the generator at t = 1
        ctrl = sf.control_surface()
        assert not ctrl.has_analytic_frames
        for t, u in ((0.5, 0.3), (0.9, 2.0)):
            omega_t, _ = sf.frame_matrices(ctrl, t, u)
            assert max_abs(omega_t - ctrl.generator(1.0, u)) < constants.TOL_FRAME_AGREEMENT


class TestExport:
    def test_rows_and_csv(self, tmp_path):
        rows = sf.sample_rows(2, 11)
        assert len(rows) == 121
        assert list(rows[0].keys()) == list(sf.CSV_COLUMNS)
        path = tmp_path / "samples.csv"
        sf.write_csv(path, rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(sf.CSV_COLUMNS)
        assert len(lines) == 122

    @pytest.mark.parametrize("sid", sf.SURFACE_IDS)
    def test_summary_rows_are_the_sample_rows(self, sid):
        # NaN-aware exact comparison: JSON writes every float in full
        assert json.dumps(sf.surface_summary(sid, 11)["rows"]) == json.dumps(sf.sample_rows(sid, 11))

    def test_summary_reports(self, summary_cache):
        s = summary_cache(1, GRID)
        checked = GRID * GRID - s["degenerate_points"]
        assert [(r.name, r.tolerance, r.samples) for r in s["reports"]] == [
            ("expm_defect[surface1]", constants.TOL_EXPM_CLOSED_FORM, GRID * GRID),
            ("group_defect[surface1]", constants.TOL_GROUP_MEMBERSHIP, GRID * GRID),
            ("horizontality[surface1]", constants.TOL_HORIZONTAL, GRID * GRID),
            ("metric_closed_form_error[surface1]", constants.TOL_METRIC_CLOSED_FORM, GRID * GRID),
            ("amplitude_error[surface1]", constants.TOL_AMPLITUDE_CONST, GRID * GRID),
            ("K_max_deviation[surface1]", constants.TOL_CURVATURE, checked),
            ("tg_residual_max[surface1]", constants.TOL_CURVATURE, checked),
            ("ac_residual_max[surface1]", constants.TOL_AC_RESIDUAL, GRID * GRID),
            ("frame_agreement[surface1]", constants.TOL_FRAME_AGREEMENT, GRID * GRID),
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


_H1, _M3 = basis(RIEMANNIAN)[H1], basis(RIEMANNIAN)[M3]

#: one fault per ``surface`` report, injected into the layer the report reads
#: and at least 10x its tolerance: report name -> (descriptor, monkeypatch)
#: -> faulty descriptor of the compact surface 2
_FAULTS = {
    "expm_defect": lambda d, mp: dataclasses.replace(
        d, generator=_shifted(d.generator, 1e-6 * _H1)),
    "group_defect": lambda d, mp: dataclasses.replace(
        d, closed_form=lambda t, u: (1.0 + 1e-6) * d.closed_form(t, u)),
    "horizontality": lambda d, mp: dataclasses.replace(
        d, omega_t_analytic=_shifted(d.omega_t_analytic, 1e-6 * _H1)),
    "metric_closed_form_error": lambda d, mp: dataclasses.replace(
        d, expected_metric=lambda t: (d.expected_metric(t)[0] + 1e-6, *d.expected_metric(t)[1:])),
    "amplitude_error": lambda d, mp: dataclasses.replace(
        d, expected_amplitudes=(d.expected_amplitudes[0] + 1e-6, *d.expected_amplitudes[1:])),
    "K_max_deviation": lambda d, mp: dataclasses.replace(d, expected_K=d.expected_K + 1e-3),
    "tg_residual_max": lambda d, mp: mp.setattr(
        sf, "holomorphic_K", _shifted(sf.holomorphic_K, 1e-3)) or d,
    # V3 lies outside the V1 + V2 plane of surface 2, so J(omega_t) misses it
    "ac_residual_max": lambda d, mp: dataclasses.replace(
        d, omega_u_analytic=_shifted(d.omega_u_analytic, 1e-6 * _M3)),
    # only the difference frames see the vertical part of omega_u
    "frame_agreement": lambda d, mp: dataclasses.replace(
        d, omega_u_analytic=_shifted(d.omega_u_analytic, 1e-5 * _H1)),
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
