"""Tests of the tangency analysis, solution families, and phase alignment."""

import dataclasses
import math

import numpy as np
import pytest

from nkflag import classification as cl
from nkflag import kernels
from nkflag import nk_geometry as nk
from nkflag.lie_structure import PSEUDO, RIEMANNIAN, SIGNATURES
from nkflag.surfaces import SURFACE_IDS, _sample_columns, default_grid, get_surface

E6 = np.eye(6)
SQ2, SQ3 = math.sqrt(2.0), math.sqrt(3.0)


def random_decomposition(rng, eps, normalized=None):
    """Random amplitudes (optionally rescaled to unit norm) with random
    distribution phases."""
    while True:
        a, b, c = rng.uniform(0.1, 1.0, 3)
        norm = a * a + eps * (b * b + c * c)
        if normalized is None:
            break
        if abs(norm) > 0.2:
            s = 1.0 / math.sqrt(abs(norm))
            a, b, c = a * s, b * s, c * s
            break
    return cl.TangentDecomposition.random(rng, a, b, c, eps)


class TestDecomposition:
    def test_validation_accepts_proper_frames(self, rng):
        for eps in SIGNATURES:
            dec = cl.TangentDecomposition.random(rng, 0.3, 0.4, 0.5, eps)
            x = dec.assemble()
            want = 0.09 + eps * (0.16 + 0.25)
            assert nk.metric_m(x, x, eps) == pytest.approx(want, abs=1e-12)

    def test_validation_rejects_wrong_distribution(self):
        with pytest.raises(ValueError):
            cl.TangentDecomposition(1.0, 0.0, 0.0, E6[1], E6[1], E6[2], RIEMANNIAN)

    def test_validation_rejects_non_unit(self):
        with pytest.raises(ValueError):
            cl.TangentDecomposition(1.0, 0.0, 0.0, 2.0 * E6[0], E6[1], E6[2], RIEMANNIAN)

    def test_split_norm_convention(self, rng):
        dec = cl.TangentDecomposition.random(rng, 0.0, 1.0, 0.0, PSEUDO)
        assert nk.metric_m(dec.z, dec.z, PSEUDO) == pytest.approx(-1.0, abs=1e-13)

    def test_validation_rejects_nan_vector(self):
        with pytest.raises(ValueError):
            cl.TangentDecomposition(1.0, 0.0, 0.0, np.full(6, np.nan), E6[1], E6[2], RIEMANNIAN)


class TestJiOnJX:
    def test_single_distribution(self, rng):
        dec = cl.TangentDecomposition.random(rng, 1.0, 0.0, 0.0, RIEMANNIAN)
        j1jx, j2jx, j3jx = cl.ji_on_JX(dec)
        assert np.max(np.abs(j1jx + dec.y)) < 1e-14
        assert np.max(np.abs(j2jx - dec.y)) < 1e-14
        assert np.max(np.abs(j3jx - dec.y)) < 1e-14

    def test_zero_amplitudes(self, rng):
        dec = cl.TangentDecomposition.random(rng, 0.0, 0.0, 0.0, RIEMANNIAN)
        for v in cl.ji_on_JX(dec):
            assert np.max(np.abs(v)) == 0.0

    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_matches_table_composition(self, eps, rng):
        for _ in range(25):
            dec = random_decomposition(rng, eps)
            x = dec.assemble()
            jx = nk.apply_acs("J", x)
            for vec, kind in zip(cl.ji_on_JX(dec), ("J1", "J2", "J3")):
                assert np.max(np.abs(vec - nk.apply_acs(kind, jx))) < 1e-13

    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_norm_identities(self, eps, rng):
        # <X, X> and the three <X, J_i J X> reduce to signed amplitude sums
        for _ in range(25):
            dec = random_decomposition(rng, eps)
            x = dec.assemble()
            a2, b2, c2 = dec.a ** 2, dec.b ** 2, dec.c ** 2
            assert nk.metric_m(x, x, eps) == pytest.approx(a2 + eps * (b2 + c2), abs=1e-12)
            j1jx, j2jx, j3jx = cl.ji_on_JX(dec)
            assert nk.metric_m(x, j1jx, eps) == pytest.approx(-a2 + eps * (b2 + c2), abs=1e-12)
            assert nk.metric_m(x, j2jx, eps) == pytest.approx(a2 + eps * (b2 - c2), abs=1e-12)
            assert nk.metric_m(x, j3jx, eps) == pytest.approx(a2 + eps * (-b2 + c2), abs=1e-12)


class TestClosedFormCurvature:
    def test_single_distribution_compact(self):
        cx, cy, cz, cw = cl.r_xjx_closed(1.0, 0.0, 0.0, RIEMANNIAN)
        # R = -X/2 + (9/2) Y = 4 X when X = Y
        assert (cx, cy, cz, cw) == pytest.approx((-0.5, 4.5, 0.0, 0.0))
        lam, dev = cl.tangency_coefficient(1.0, 0.0, 0.0, RIEMANNIAN)
        assert lam == pytest.approx(4.0) and dev < 1e-15

    def test_three_distribution_flat_case(self):
        lam, dev = cl.tangency_coefficient(1 / SQ3, 1 / SQ3, 1 / SQ3, RIEMANNIAN)
        assert lam == pytest.approx(0.0, abs=1e-14) and dev < 1e-14

    def test_split_two_distribution_case(self):
        a, b, c = 0.0, 1 / SQ2, 1 / SQ2
        lam, dev = cl.tangency_coefficient(a, b, c, PSEUDO)
        assert lam == pytest.approx(-1.0, abs=1e-14) and dev < 1e-14
        # K = lambda / <X, X> with <X, X> = -1
        assert lam / (a * a - b * b - c * c) == pytest.approx(1.0)

    def test_nan_component_reaches_the_deviation(self, monkeypatch):
        monkeypatch.setattr(cl, "r_xjx_closed", lambda a, b, c, eps: (-0.5, 4.5, 0.0, math.nan))
        lam, dev = cl.tangency_coefficient(1.0, 0.0, 0.0, RIEMANNIAN)
        assert lam == 4.0 and math.isnan(dev)

    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_matches_full_curvature_on_random_frames(self, eps, rng):
        # the closed form must hold for any frame realization, not just the
        # coordinate one: the dual route of this module
        for _ in range(25):
            dec = random_decomposition(rng, eps)
            x = dec.assemble()
            jx = nk.apply_acs("J", x)
            direct = nk.curvature_tensorial(x, jx, jx, eps)
            cx, cy, cz, cw = cl.r_xjx_closed(dec.a, dec.b, dec.c, eps)
            combo = cx * x + cy * dec.y + cz * dec.z + cw * dec.w
            assert np.max(np.abs(direct - combo)) < 1e-12


class TestMinorEquations:
    def test_two_distribution_solution_compact_only(self):
        assert cl.minor_equations(1 / SQ2, 1 / SQ2, 0.0, RIEMANNIAN) == pytest.approx((0, 0, 0), abs=1e-15)
        res = cl.minor_equations(1 / SQ2, 1 / SQ2, 0.0, PSEUDO)
        assert abs(res[0]) > 0.1 and res[1] == 0.0 and res[2] == 0.0

    def test_single_distribution_always_solves(self):
        for eps in SIGNATURES:
            assert cl.minor_equations(1.0, 0.0, 0.0, eps) == pytest.approx((0, 0, 0), abs=1e-15)

    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_proportional_to_direct_minors(self, eps, rng):
        # minors of the rank matrix are (6, 6, -6 eps) times the residuals
        for _ in range(50):
            a, b, c = rng.uniform(-1.2, 1.2, 3)
            r1, r2, r3 = cl.minor_equations(a, b, c, eps)
            m12, m13, m23 = cl.rank_condition_minors(a, b, c, eps)
            assert m12 == pytest.approx(6.0 * r1, abs=1e-12)
            assert m13 == pytest.approx(6.0 * r2, abs=1e-12)
            assert m23 == pytest.approx(-6.0 * eps * r3, abs=1e-12)

    def test_rank_matrix_shape(self):
        assert cl.rank_condition_matrix(0.2, 0.3, 0.4, RIEMANNIAN).shape == (2, 3)


class TestHolomorphicK:
    def test_pinned_values(self):
        assert cl.holomorphic_K(E6[0], RIEMANNIAN) == pytest.approx(4.0, abs=1e-13)
        assert cl.holomorphic_K(E6[1], PSEUDO) == pytest.approx(4.0, abs=1e-13)
        x = (E6[0] + E6[1] + E6[2]) / SQ3
        assert cl.holomorphic_K(x, RIEMANNIAN) == pytest.approx(0.0, abs=1e-13)

    def test_rotation_invariance(self, rng):
        for eps in SIGNATURES:
            for _ in range(20):
                dec = random_decomposition(rng, eps, normalized=True)
                x = dec.assemble()
                k0 = cl.holomorphic_K(x, eps)
                phi = rng.uniform(0, 2 * math.pi)
                xr = math.cos(phi) * x + math.sin(phi) * nk.apply_acs("J", x)
                assert cl.holomorphic_K(xr, eps) == pytest.approx(k0, abs=1e-11)

    def test_rejects_null_vectors(self):
        null = E6[0] + E6[1]  # <X, X> = 1 - 1 = 0 in the split form
        with pytest.raises(ValueError):
            cl.holomorphic_K(null, PSEUDO)

    @pytest.mark.parametrize("sid", SURFACE_IDS)
    def test_batch_matches_rows(self, sid):
        desc = get_surface(sid)
        t, u = default_grid(desc, 11)
        x = _sample_columns(desc, t, u)["unit_frame"]
        batch = cl.holomorphic_K(x, desc.eps)
        assert batch.shape == t.shape
        np.testing.assert_array_equal(batch, [cl.holomorphic_K(row, desc.eps) for row in x])
        assert isinstance(cl.holomorphic_K(x[0], desc.eps), float)

    def test_batch_with_one_null_vector_raises(self):
        x = np.array([E6[0], E6[1], E6[0] + E6[1]])  # the last is null in the split form
        assert cl.holomorphic_K(x[:2], PSEUDO).shape == (2,)
        with pytest.raises(ValueError):
            cl.holomorphic_K(x, PSEUDO)

    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_matches_closed_form_prediction(self, eps, rng):
        # <R(X,JX)JX, X> assembled from the amplitude polynomials
        for _ in range(20):
            dec = random_decomposition(rng, eps, normalized=True)
            x = dec.assemble()
            cx, cy, cz, cw = cl.r_xjx_closed(dec.a, dec.b, dec.c, eps)
            norm = nk.metric_m(x, x, eps)
            inner = cx * norm + cy * dec.a + eps * (cz * dec.b + cw * dec.c)
            assert cl.holomorphic_K(x, eps) == pytest.approx(inner / norm ** 2, abs=1e-11)


class TestSolveFamilies:
    def test_compact_table(self):
        fams = cl.solve_families(RIEMANNIAN)
        assert len(fams) == 3
        expected = [((1.0, 0.0, 0.0), 4.0),
                    ((1 / SQ2, 1 / SQ2, 0.0), 1.0),
                    ((1 / SQ3, 1 / SQ3, 1 / SQ3), 0.0)]
        for fam, (amps, k) in zip(fams, expected):
            np.testing.assert_allclose(fam.amplitudes, amps, atol=1e-10)
            assert fam.K == pytest.approx(k, abs=1e-11)
            assert fam.norm_sign == 1
            assert fam.description

    def test_split_table(self):
        fams = cl.solve_families(PSEUDO)
        assert len(fams) == 3
        expected = [((1.0, 0.0, 0.0), 4.0, +1),
                    ((0.0, 1.0, 0.0), 4.0, -1),
                    ((0.0, 1 / SQ2, 1 / SQ2), 1.0, -1)]
        for fam, (amps, k, sign) in zip(fams, expected):
            np.testing.assert_allclose(fam.amplitudes, amps, atol=1e-10)
            assert fam.K == pytest.approx(k, abs=1e-11)
            assert fam.norm_sign == sign

    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_oracle_recovers_families(self, eps):
        oracle = cl.grid_oracle(eps)
        fams = cl.solve_families(eps, oracle=False)
        assert len(oracle.families) == len(fams)
        for found, fam in zip(oracle.families, fams):
            np.testing.assert_allclose(found, fam.amplitudes, atol=1e-8)
        assert max(oracle.residuals) < 1e-10

    def test_split_all_nonzero_region_empty(self):
        oracle = cl.grid_oracle(PSEUDO)
        assert oracle.interior_min > 1e-2

    def test_compact_all_nonzero_region_contains_flat_family(self):
        oracle = cl.grid_oracle(RIEMANNIAN)
        assert oracle.interior_min < 1e-2  # the flat family lives there

    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_families_are_tangent(self, eps):
        for fam in cl.solve_families(eps):
            a, b, c = fam.amplitudes
            lam, dev = cl.tangency_coefficient(a, b, c, eps)
            assert dev < 1e-12
            norm = a * a + eps * (b * b + c * c)
            assert lam == pytest.approx(fam.K * norm, abs=1e-12)

    def test_nan_deviation_is_not_tangent(self, monkeypatch):
        monkeypatch.setattr(cl, "tangency_coefficient", lambda a, b, c, eps: (4.0, math.nan))
        with pytest.raises(cl.ClassificationError):
            cl._family(1.0, 0.0, 0.0, RIEMANNIAN, "NaN deviation")

    def test_canonicalization(self):
        assert cl.canonical_amplitudes(0.0, -1 / SQ2, 1 / SQ2, RIEMANNIAN) == \
            pytest.approx((1 / SQ2, 1 / SQ2, 0.0))
        assert cl.canonical_amplitudes(0.0, 0.0, -1.0, PSEUDO) == pytest.approx((0.0, 1.0, 0.0))
        # the definite amplitude never mixes with the negative pair
        assert cl.canonical_amplitudes(0.3, 0.1, 0.9, PSEUDO) == pytest.approx((0.3, 0.9, 0.1))


class TestPhaseAlign:
    def test_coordinate_frame_angle(self):
        # G(m1, m2) = m6 = -J m3, so the (W, JW) phase is -pi/2
        theta, phi = cl.phase_align(E6[0], E6[1], E6[2])
        assert theta == pytest.approx(-math.pi / 2, abs=1e-13)
        ry, rz, rw = cl.rotate_frame(E6[0], E6[1], E6[2], phi)
        resid = nk.g_tensor(ry, rz, RIEMANNIAN) - nk.apply_acs("J", rw)
        assert np.max(np.abs(resid)) < 1e-12

    def test_already_aligned_frame(self):
        # with W = -m3 the tensor value m6 equals JW, so no rotation is needed
        theta, phi = cl.phase_align(E6[0], E6[1], -E6[2])
        assert theta == pytest.approx(math.pi / 2, abs=1e-13)
        assert phi == pytest.approx(0.0, abs=1e-13)

    def test_reconstruction_from_theta(self):
        theta, _ = cl.phase_align(E6[0], E6[1], E6[2])
        g = nk.g_tensor(E6[0], E6[1], RIEMANNIAN)
        jw = nk.apply_acs("J", E6[2])
        recon = math.cos(theta) * E6[2] + math.sin(theta) * jw
        assert np.max(np.abs(recon - g)) < 1e-13

    def test_random_frames_align(self, rng):
        for _ in range(10):
            y = cl.random_distribution_unit(rng, 0)
            z = cl.random_distribution_unit(rng, 1)
            w = cl.random_distribution_unit(rng, 2)
            theta, phi = cl.phase_align(y, z, w)
            g = nk.g_tensor(y, z, RIEMANNIAN)
            jw = nk.apply_acs("J", w)
            recon = math.cos(theta) * w + math.sin(theta) * jw
            assert np.max(np.abs(recon - g)) < 1e-12
            ry, rz, rw = cl.rotate_frame(y, z, w, phi)
            resid = nk.g_tensor(ry, rz, RIEMANNIAN) - nk.apply_acs("J", rw)
            assert np.max(np.abs(resid)) < 1e-12

    def test_zero_rotation_is_identity(self, rng):
        y = cl.random_distribution_unit(rng, 0)
        z = cl.random_distribution_unit(rng, 1)
        w = cl.random_distribution_unit(rng, 2)
        ry, rz, rw = cl.rotate_frame(y, z, w, 0.0)
        assert np.max(np.abs(ry - y)) == 0.0
        assert np.max(np.abs(rz - z)) == 0.0
        assert np.max(np.abs(rw - w)) == 0.0


class TestOracleVerdicts:
    """solve_families must fail on any NaN the oracle hands back."""

    @pytest.fixture()
    def fake_oracle(self, monkeypatch):
        def install(eps, **changes):
            real = cl.grid_oracle(eps)
            monkeypatch.setattr(cl, "grid_oracle",
                                lambda eps: dataclasses.replace(real, **changes))
        cl.solve_families.cache_clear()
        yield install
        cl.solve_families.cache_clear()

    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_unchanged_oracle_passes(self, fake_oracle, eps):
        fake_oracle(eps)
        assert len(cl.solve_families(eps)) == 3

    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_nan_interior_bound_fails(self, fake_oracle, eps):
        fake_oracle(eps, interior_min=math.nan)
        with pytest.raises(cl.ClassificationError):
            cl.solve_families(eps)

    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_extra_nan_family_fails(self, fake_oracle, eps):
        real = cl.grid_oracle(eps)
        fake_oracle(eps, families=real.families + ((math.nan,) * 3,))
        with pytest.raises(cl.ClassificationError):
            cl.solve_families(eps)

    def test_nan_bound_on_one_chart_reaches_the_result(self, monkeypatch):
        real = kernels.scan_chart

        def split_scan_nan(chart, eps, *args, **kwargs):
            scan = real(chart, eps, *args, **kwargs)
            return dataclasses.replace(scan, interior_min=math.nan) if eps == PSEUDO else scan

        monkeypatch.setattr(kernels, "scan_chart", split_scan_nan)
        assert math.isnan(cl.grid_oracle(PSEUDO).interior_min)
        assert not math.isnan(cl.grid_oracle(RIEMANNIAN).interior_min)

    def test_interior_bound_must_admit_the_flat_family(self, fake_oracle):
        fake_oracle(RIEMANNIAN, interior_min=1.0)
        with pytest.raises(cl.ClassificationError):
            cl.solve_families(RIEMANNIAN)

    def test_split_interior_bound_must_certify_emptiness(self, fake_oracle):
        fake_oracle(PSEUDO, interior_min=1e-3)
        with pytest.raises(cl.ClassificationError):
            cl.solve_families(PSEUDO)
