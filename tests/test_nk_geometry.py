"""Tests of the almost complex structures, connection table, structure
tensor, and the dual-route curvature tensor.

Frozen values (the connection tables, pinned G and curvature outputs) were
derived by hand from entrywise products of the basis matrices; the split
form genuinely flips the eight table entries joining its two negative
distributions, so the two tables are frozen separately.
"""

import itertools

import numpy as np
import pytest

from nkflag import constants, verify
from nkflag import lie_structure as ls
from nkflag import nk_geometry as nk
from nkflag.lie_structure import PSEUDO, RIEMANNIAN, SIGNATURES
from nkflag.verify import connection_table, curvature_cross_check, expected_connection_table

E6 = np.eye(6)
M1, M2, M3, M4, M5, M6 = range(6)


class TestAlmostComplexStructures:
    def test_main_structure_table(self):
        j = nk.acs_matrix("J")
        np.testing.assert_array_equal(j @ E6[M1], E6[M4])
        np.testing.assert_array_equal(j @ E6[M2], E6[M5])
        np.testing.assert_array_equal(j @ E6[M3], -E6[M6])

    def test_auxiliary_tables(self):
        j1, j2, j3 = (nk.acs_matrix(k) for k in ("J1", "J2", "J3"))
        np.testing.assert_array_equal(j1 @ E6[M2], -E6[M5])
        np.testing.assert_array_equal(j1 @ E6[M3], E6[M6])
        np.testing.assert_array_equal(j2 @ E6[M1], -E6[M4])
        np.testing.assert_array_equal(j3 @ E6[M2], E6[M5])

    def test_square_is_minus_identity(self, rng):
        x = rng.uniform(-1.0, 1.0, (10, 6))
        for kind in nk.ACS_KINDS:
            twice = nk.apply_acs(kind, nk.apply_acs(kind, x))
            assert np.max(np.abs(twice + x)) < 1e-15

    def test_sum_and_product_relations(self):
        j, j1, j2, j3 = (nk.acs_matrix(k) for k in nk.ACS_KINDS)
        assert np.max(np.abs(j + (j1 + j2 + j3))) == 0.0
        assert np.max(np.abs(j + j1 @ j2 @ j3)) == 0.0

    def test_pairwise_commutativity(self):
        mats = [nk.acs_matrix(k) for k in nk.ACS_KINDS]
        for a, b in itertools.combinations(mats, 2):
            assert np.max(np.abs(a @ b - b @ a)) == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            nk.acs_matrix("J4")


class TestMetricFamily:
    def test_submersion_point_matches_plain_metric(self, rng):
        for eps in SIGNATURES:
            x, y = rng.uniform(-1.0, 1.0, (2, 6))
            assert nk.metric_family((1, 1, 1), x, y, eps) == pytest.approx(
                nk.metric_m(x, y, eps), abs=1e-14)

    def test_weighted_first_distribution(self):
        assert nk.metric_family((2, 1, 1), E6[M1], E6[M1], RIEMANNIAN) == pytest.approx(2.0)

    def test_acs_compatibility_random_weights(self, rng):
        for eps in SIGNATURES:
            for _ in range(10):
                lam = tuple(rng.uniform(0.2, 4.0, 3))
                x, y = rng.uniform(-1.0, 1.0, (2, 6))
                for kind in nk.ACS_KINDS:
                    jx, jy = nk.apply_acs(kind, x), nk.apply_acs(kind, y)
                    assert nk.metric_family(lam, jx, jy, eps) == pytest.approx(
                        nk.metric_family(lam, x, y, eps), abs=1e-12)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            nk.metric_family((1, 0, 1), E6[M1], E6[M1], RIEMANNIAN)
        with pytest.raises(ValueError):
            nk.metric_family((1, -2, 1), E6[M1], E6[M1], RIEMANNIAN)


# the 24 tabulated connection coefficients of the compact form
_COMPACT_TABLE = {
    (1, 2): (3, +0.5), (2, 3): (1, +0.5), (3, 1): (2, +0.5),
    (1, 3): (2, -0.5), (2, 1): (3, -0.5), (3, 2): (1, -0.5),
    (1, 5): (6, +0.5), (2, 6): (4, +0.5), (3, 4): (5, -0.5),
    (1, 6): (5, -0.5), (2, 4): (6, -0.5), (3, 5): (4, +0.5),
    (4, 2): (6, +0.5), (5, 3): (4, -0.5), (6, 1): (5, +0.5),
    (4, 3): (5, +0.5), (5, 1): (6, -0.5), (6, 2): (4, -0.5),
    (4, 5): (3, -0.5), (5, 6): (1, +0.5), (6, 4): (2, +0.5),
    (4, 6): (2, -0.5), (5, 4): (3, +0.5), (6, 5): (1, -0.5),
}

# split form: eight sign flips on the pairs joining V2 and V3, derived by
# hand from the bracket matrices (e.g. [m2, m3] = +m1 there, -m1 compactly)
_SPLIT_FLIPS = {(2, 3), (3, 2), (2, 6), (6, 2), (3, 5), (5, 3), (5, 6), (6, 5)}


def _expected_table(eps):
    if eps == RIEMANNIAN:
        return _COMPACT_TABLE
    return {pair: (slot, -coef if pair in _SPLIT_FLIPS else coef)
            for pair, (slot, coef) in _COMPACT_TABLE.items()}


class TestConnection:
    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_full_table(self, eps):
        expected = _expected_table(eps)
        for i in range(6):
            for j in range(6):
                got = nk.nabla(E6[i], E6[j], eps)
                want = np.zeros(6)
                if (i + 1, j + 1) in expected:
                    slot, coef = expected[(i + 1, j + 1)]
                    want[slot - 1] = coef
                assert np.max(np.abs(got - want)) < 1e-13, (eps, i + 1, j + 1)

    def test_verify_module_agrees_with_frozen_table(self):
        for eps in SIGNATURES:
            assert expected_connection_table(eps) == _expected_table(eps)
            table_err, off_err = connection_table(eps)
            assert table_err < 1e-13
            assert off_err < 1e-13

    def test_vanishes_on_diagonal(self, rng):
        for eps in SIGNATURES:
            x = rng.uniform(-1.0, 1.0, (50, 6))
            assert np.max(np.abs(nk.nabla(x, x, eps))) < 1e-13

    def test_specific_values(self):
        assert np.max(np.abs(nk.nabla(E6[M1], E6[M2], RIEMANNIAN) - 0.5 * E6[M3])) == 0.0
        assert np.max(np.abs(nk.nabla(E6[M6], E6[M5], RIEMANNIAN) + 0.5 * E6[M1])) == 0.0


class TestStructureTensor:
    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_pinned_values(self, eps):
        assert np.max(np.abs(nk.g_tensor(E6[M1], E6[M2], eps) - E6[M6])) < 1e-13
        assert np.max(np.abs(nk.g_tensor(E6[M2], E6[M1], eps) + E6[M6])) < 1e-13
        # hand-derived through the connection table: G(m4, m2) = -m3 both ways
        assert np.max(np.abs(nk.g_tensor(E6[M4], E6[M2], eps) + E6[M3])) < 1e-13

    def test_signature_dependent_value(self):
        # G(m2, m3) flips with the table: -m4 compactly, +m4 in the split form
        assert np.max(np.abs(nk.g_tensor(E6[M2], E6[M3], RIEMANNIAN) + E6[M4])) < 1e-13
        assert np.max(np.abs(nk.g_tensor(E6[M2], E6[M3], PSEUDO) - E6[M4])) < 1e-13

    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_skew_on_all_basis_pairs(self, eps):
        for i in range(6):
            for j in range(6):
                s = nk.g_tensor(E6[i], E6[j], eps) + nk.g_tensor(E6[j], E6[i], eps)
                assert np.max(np.abs(s)) < 1e-13

    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_vanishes_on_diagonal_random(self, eps, rng):
        x = rng.uniform(-1.0, 1.0, (1000, 6))
        assert np.max(np.abs(nk.g_tensor(x, x, eps))) < 1e-12

    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_j_anticommutation(self, eps, rng):
        x, y = rng.uniform(-1.0, 1.0, (2, 6))
        jy = nk.apply_acs("J", y)
        lhs = nk.g_tensor(x, jy, eps)
        rhs = -nk.apply_acs("J", nk.g_tensor(x, y, eps))
        assert np.max(np.abs(lhs - rhs)) < 1e-13

    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_output_orthogonal_to_inputs(self, eps, rng):
        x = rng.uniform(-1.0, 1.0, (200, 6))
        y = rng.uniform(-1.0, 1.0, (200, 6))
        g = nk.g_tensor(x, y, eps)
        assert np.max(np.abs(nk.metric_m(g, x, eps))) < 1e-12
        assert np.max(np.abs(nk.metric_m(g, y, eps))) < 1e-12


class TestNablaJi:
    def test_pinned_value(self):
        # both the recipe and the identity give -m6 at (i, X, Y) = (1, m1, m2)
        got = nk.nabla_ji(1, E6[M1], E6[M2], RIEMANNIAN)
        assert np.max(np.abs(got + E6[M6])) < 1e-13

    @pytest.mark.parametrize("eps", SIGNATURES)
    @pytest.mark.parametrize("i", (1, 2, 3))
    def test_identity_on_basis_pairs(self, eps, i):
        ji = nk.acs_matrix(f"J{i}")
        for a in range(6):
            for b in range(6):
                lhs = nk.nabla_ji(i, E6[a], E6[b], eps)
                rhs = (-0.5 * nk.g_tensor(E6[a], E6[b], eps)
                       - 0.5 * nk.apply_acs("J", nk.g_tensor(ji @ E6[a], E6[b], eps)))
                assert np.max(np.abs(lhs - rhs)) < 1e-13

    def test_diagonal_reduction(self, rng):
        # on the diagonal only the J G(J_i X, X) half survives
        for eps in SIGNATURES:
            for i in (1, 2, 3):
                x = rng.uniform(-1.0, 1.0, 6)
                jix = nk.apply_acs(f"J{i}", x)
                lhs = nk.nabla_ji(i, x, x, eps)
                rhs = -0.5 * nk.apply_acs("J", nk.g_tensor(jix, x, eps))
                assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            nk.nabla_ji(4, E6[M1], E6[M2], RIEMANNIAN)


class TestCurvature:
    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_routes_agree_on_all_basis_triples(self, eps):
        assert curvature_cross_check(eps) < 1e-12

    def test_pinned_sectional_value(self):
        r = nk.curvature_lie(E6[M1], E6[M4], E6[M4], RIEMANNIAN)
        assert nk.metric_m(r, E6[M1], RIEMANNIAN) == pytest.approx(4.0, abs=1e-13)

    def test_pinned_split_values(self):
        # hand-derived: R(m2, m5)m5 = -4 m2 and R(m1, m2)m5 = (3/4) m4
        r = nk.curvature_lie(E6[M2], E6[M5], E6[M5], PSEUDO)
        assert np.max(np.abs(r + 4.0 * E6[M2])) < 1e-13
        r2 = nk.curvature_lie(E6[M1], E6[M2], E6[M5], PSEUDO)
        assert np.max(np.abs(r2 - 0.75 * E6[M4])) < 1e-13

    def test_cross_route_on_mixed_triple(self):
        lie = nk.curvature_lie(E6[M1], E6[M2], E6[M3], RIEMANNIAN)
        tens = nk.curvature_tensorial(E6[M1], E6[M2], E6[M3], RIEMANNIAN)
        assert np.max(np.abs(lie - tens)) < 1e-14

    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_skew_in_first_pair(self, eps, rng):
        x, y, z = rng.uniform(-1.0, 1.0, (3, 6))
        s = nk.curvature_tensorial(x, y, z, eps) + nk.curvature_tensorial(y, x, z, eps)
        assert np.max(np.abs(s)) < 1e-13
        assert np.max(np.abs(nk.curvature_lie(x, x, z, eps))) < 1e-13

    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_first_bianchi(self, eps, rng):
        for _ in range(50):
            x, y, z = rng.uniform(-1.0, 1.0, (3, 6))
            s = (nk.curvature_tensorial(x, y, z, eps)
                 + nk.curvature_tensorial(y, z, x, eps)
                 + nk.curvature_tensorial(z, x, y, eps))
            assert np.max(np.abs(s)) < 1e-11

    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_pair_symmetry_and_metric_compatibility(self, eps, rng):
        for _ in range(50):
            x, y, z, w = rng.uniform(-1.0, 1.0, (4, 6))
            rxyz = nk.curvature_tensorial(x, y, z, eps)
            rzwx = nk.curvature_tensorial(z, w, x, eps)
            assert nk.metric_m(rxyz, w, eps) == pytest.approx(
                nk.metric_m(rzwx, y, eps), abs=1e-11)
            rxyw = nk.curvature_tensorial(x, y, w, eps)
            assert nk.metric_m(rxyz, w, eps) + nk.metric_m(rxyw, z, eps) == pytest.approx(
                0.0, abs=1e-11)


def _nan_like(*vectors):
    return np.full(np.broadcast_shapes(*(np.shape(v) for v in vectors)), np.nan)


class TestFaultInjection:
    """Faults injected into one route must reach the report, never read as a pass."""

    def test_nan_curvature_fails_cross_check(self, monkeypatch):
        monkeypatch.setattr(verify, "curvature_tensorial", lambda x, y, z, eps: _nan_like(x, y, z))
        assert np.isnan(curvature_cross_check(RIEMANNIAN))
        reports = {r.name: r for r in verify.run_verification(RIEMANNIAN)}
        assert not reports["curvature_lie_vs_tensorial[riemannian]"].passed

    def test_nan_connection_fails_table(self, monkeypatch):
        monkeypatch.setattr(nk, "nabla", lambda x, y, eps: _nan_like(x, y, np.zeros(6)))
        table_err, off_err = connection_table(PSEUDO)
        assert np.isnan(table_err) and np.isnan(off_err)
        reports = {r.name: r for r in verify.run_verification(PSEUDO)}
        assert not reports["connection_table[pseudo]"].passed
        assert not reports["connection_off_table[pseudo]"].passed

    def test_nan_metric_family_fails_compatibility(self, monkeypatch):
        monkeypatch.setattr(nk, "metric_family", lambda lam, x, y, eps: _nan_like(x, y))
        report = {r.name: r for r in nk.identity_suite(RIEMANNIAN)}["acs_metric_compatibility"]
        assert np.isnan(report.max_abs_error) and not report.passed

    def test_nan_in_one_orthogonality_term_fails(self, monkeypatch):
        # NaN only in <G(X, Y), Y>; <G(X, Y), X> stays finite
        g_tensor, metric_m = nk.g_tensor, nk.metric_m
        first = []

        def recording_g(x, y, eps):
            out = g_tensor(x, y, eps)
            first.append((y, out))  # the suite's first call builds G(X, Y)
            return out

        def faulty_metric(x, y, eps):
            out = metric_m(x, y, eps)
            ys, gxy = first[0]
            return _nan_like(out) if x is gxy and y is ys else out

        monkeypatch.setattr(nk, "g_tensor", recording_g)
        monkeypatch.setattr(nk, "metric_m", faulty_metric)
        reports = {r.name: r for r in nk.identity_suite(PSEUDO)}
        assert np.isnan(reports["g_output_orthogonality"].max_abs_error)
        assert not reports["g_output_orthogonality"].passed
        assert reports["constant_type_identity"].passed

    @pytest.mark.parametrize("eps", SIGNATURES)
    @pytest.mark.parametrize("flip_slot", (ls.M1, ls.M2, ls.M3, ls.M4, ls.M5, ls.M6))
    def test_sign_flip_detected_on_every_tangent_slot(self, eps, flip_slot):
        """Negating any tangent basis matrix breaks the bracket route (the
        mismatch is 3.0 on every slot).  Negating h1 or h2 leaves every
        curvature value unchanged, so those slots are no control."""
        assert verify.corruption_self_test(eps, flip_slot) > constants.CONTROL_RESIDUAL_MIN


class TestIdentitySuite:
    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_all_pass(self, eps):
        reports = nk.identity_suite(eps)
        assert len(reports) == 20
        failed = [r.name for r in reports if not r.passed]
        assert failed == []
        names = {r.name for r in reports}
        expected = {
            "acs_sum_relation", "acs_triple_product", "acs_commutativity",
            "acs_metric_compatibility", "g_skew_symmetry", "g_vanishing_on_diagonal",
            "g_anticommutes_with_j", "g_output_orthogonality", "g_sum_identity",
            "g_compatibility_J1", "g_compatibility_J2", "g_compatibility_J3",
            "nabla_J1_identity", "nabla_J2_identity", "nabla_J3_identity",
            "constant_type_identity",
        }
        assert expected <= names

    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_constant_type_identity_tight(self, eps):
        reports = {r.name: r for r in nk.identity_suite(eps)}
        assert reports["constant_type_identity"].max_abs_error < 1e-9

    def test_alpha_identity_at_pinned_pair(self):
        # both sides equal one at (m1, m2)
        g = nk.g_tensor(E6[M1], E6[M2], RIEMANNIAN)
        lhs = nk.metric_m(g, g, RIEMANNIAN)
        jm2 = nk.apply_acs("J", E6[M2])
        rhs = (nk.metric_m(E6[M1], E6[M1], RIEMANNIAN) * nk.metric_m(E6[M2], E6[M2], RIEMANNIAN)
               - nk.metric_m(E6[M1], E6[M2], RIEMANNIAN) ** 2
               - nk.metric_m(E6[M1], jm2, RIEMANNIAN) ** 2)
        assert lhs == pytest.approx(1.0, abs=1e-14)
        assert rhs == pytest.approx(1.0, abs=1e-14)
