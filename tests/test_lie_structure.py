"""Algebra-level tests: bases, metrics, projections, isotropy action."""

import itertools
import math

import numpy as np
import pytest

from nkflag import lie_structure as ls
from nkflag.matrix_core import commutator, max_abs

SQ3 = math.sqrt(3.0)


class TestBasis:
    def test_m2_compact(self):
        expected = np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=complex)
        assert max_abs(ls.basis(+1)[ls.M2] - expected) == 0.0

    def test_m2_split(self):
        expected = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
        assert max_abs(ls.basis(-1)[ls.M2] - expected) == 0.0

    def test_h1_value(self):
        assert max_abs(ls.basis(+1)[ls.H1] + 1j * np.diag([1, 0, -1])) == 0.0

    def test_traceless_both(self):
        for eps in ls.SIGNATURES:
            for m in ls.basis(eps):
                assert abs(np.trace(m)) < 1e-15

    def test_shapes_and_immutability(self):
        b = ls.basis(+1)
        assert b.shape == (8, 3, 3)
        with pytest.raises(ValueError):
            b[0, 0, 0] = 1.0

    def test_signature_validation(self):
        with pytest.raises(ValueError):
            ls.basis(0)


class TestMetric:
    def test_gram_identity_compact(self):
        np.testing.assert_allclose(ls.gram_diagonal(+1), np.ones(8), atol=1e-15)

    def test_gram_split_signs(self):
        # direct trace computation: V1 positive, V2 and V3 negative
        expected = np.array([1, 1, 1, -1, -1, 1, -1, -1.0])
        np.testing.assert_allclose(ls.gram_diagonal(-1), expected, atol=1e-15)

    def test_unit_vectors(self):
        b = ls.basis(+1)
        assert ls.metric(b[ls.M1], b[ls.M1], +1) == pytest.approx(1.0, abs=1e-15)
        bp = ls.basis(-1)
        assert ls.metric(bp[ls.M2], bp[ls.M2], -1) == pytest.approx(-1.0, abs=1e-15)

    def test_h_orthogonal_to_m(self):
        for eps in ls.SIGNATURES:
            b = ls.basis(eps)
            assert abs(ls.metric(b[ls.H1], b[ls.M3], eps)) < 1e-15

    def test_symmetry_bilinearity(self, rng):
        for eps in ls.SIGNATURES:
            x, y = ls.from_coefficients(rng.uniform(-1, 1, (2, 8)), eps)
            assert ls.metric(x, y, eps) == pytest.approx(ls.metric(y, x, eps), abs=1e-14)
            assert ls.metric(2.0 * x, y, eps) == pytest.approx(2 * ls.metric(x, y, eps), abs=1e-13)


class TestKillingForm:
    def test_proportional_to_metric(self, rng):
        for _ in range(50):
            x, y = ls.from_coefficients(rng.uniform(-1, 1, (2, 8)), +1)
            assert ls.killing_form(x, y) == pytest.approx(2.0 * ls.metric(x, y, +1), abs=1e-13)

    def test_values(self):
        b = ls.basis(+1)
        assert ls.killing_form(b[ls.M1], b[ls.M1]) == pytest.approx(2.0, abs=1e-15)
        assert ls.killing_form(b[ls.H1], b[ls.H2]) == pytest.approx(0.0, abs=1e-15)

    def test_symmetric(self, rng):
        x, y = ls.from_coefficients(rng.uniform(-1, 1, (2, 8)), +1)
        assert ls.killing_form(x, y) == pytest.approx(ls.killing_form(y, x), abs=1e-13)


class TestCoefficients:
    def test_roundtrip(self, rng):
        for eps in ls.SIGNATURES:
            c = rng.uniform(-1, 1, (100, 8))
            back = ls.coefficients(ls.from_coefficients(c, eps), eps)
            assert np.max(np.abs(back - c)) < 1e-14

    def test_project_bracket_m1_m4(self):
        b = ls.basis(+1)
        c = ls.coefficients(commutator(b[ls.M1], b[ls.M4]), +1)
        assert np.max(np.abs(c[2:])) < 1e-14
        np.testing.assert_allclose(c[:2], [1.0, -SQ3], atol=1e-13)

    def test_project_bracket_m1_m2(self):
        b = ls.basis(+1)
        c = ls.coefficients(commutator(b[ls.M1], b[ls.M2]), +1)
        assert np.max(np.abs(c[:2])) < 1e-14
        assert max_abs(ls.from_coefficients(c, +1) + b[ls.M3]) < 1e-14

    def test_project_h_of_tangent_vanishes(self):
        assert np.max(np.abs(ls.coefficients(ls.basis(+1)[ls.M5], +1)[:2])) == 0.0


class TestAdH:
    @pytest.mark.parametrize("eps", ls.SIGNATURES)
    def test_first_distribution_rotation(self, eps, rng):
        b = ls.basis(eps)
        for _ in range(10):
            s, t = rng.uniform(-3, 3, 2)
            ang = SQ3 * s - t
            got = ls.ad_H(s, t, b[ls.M1])
            want = math.cos(ang) * b[ls.M1] - math.sin(ang) * b[ls.M4]
            assert max_abs(got - want) < 1e-13
            got4 = ls.ad_H(s, t, b[ls.M4])
            want4 = math.sin(ang) * b[ls.M1] + math.cos(ang) * b[ls.M4]
            assert max_abs(got4 - want4) < 1e-13

    def test_identity_parameters(self, rng):
        x = ls.from_coefficients(rng.uniform(-1, 1, 8), +1)
        assert max_abs(ls.ad_H(0.0, 0.0, x) - x) == 0.0

    def test_preserves_distributions(self, rng):
        for eps in ls.SIGNATURES:
            b = ls.basis(eps)
            for slot, partner in ((ls.M1, ls.M4), (ls.M2, ls.M5), (ls.M3, ls.M6)):
                s, t = rng.uniform(-3, 3, 2)
                img = ls.coefficients(ls.ad_H(s, t, b[slot]), eps)
                outside = np.delete(img, [slot, partner])
                assert np.max(np.abs(outside)) < 1e-13

    def test_metric_invariance(self, rng):
        for eps in ls.SIGNATURES:
            for _ in range(25):
                s, t = rng.uniform(-3, 3, 2)
                x, y = ls.from_coefficients(rng.uniform(-1, 1, (2, 8)), eps)
                before = ls.metric(x, y, eps)
                after = ls.metric(ls.ad_H(s, t, x), ls.ad_H(s, t, y), eps)
                assert after == pytest.approx(before, abs=1e-12)


class TestStructure:
    @pytest.mark.parametrize("eps", ls.SIGNATURES)
    def test_jacobi_identity_all_triples(self, eps):
        b = ls.basis(eps)
        worst = 0.0
        for i, j, k in itertools.product(range(8), repeat=3):
            s = (commutator(b[i], commutator(b[j], b[k]))
                 + commutator(b[j], commutator(b[k], b[i]))
                 + commutator(b[k], commutator(b[i], b[j])))
            worst = max(worst, max_abs(s))
        assert worst < 1e-13

    @pytest.mark.parametrize("eps", ls.SIGNATURES)
    def test_reductivity(self, eps):
        # brackets of the isotropy plane with tangent directions stay tangent
        b = ls.basis(eps)
        for h in b[:2]:
            for m in b[2:]:
                assert np.max(np.abs(ls.coefficients(commutator(h, m), eps)[..., :2])) < 1e-13

    @pytest.mark.parametrize("eps", ls.SIGNATURES)
    def test_structure_constants_antisymmetric(self, eps):
        sc = ls.structure_constants(eps)
        assert np.max(np.abs(sc + np.swapaxes(sc, 0, 1))) < 1e-13

    def test_bracket_coefficients_match_matrices(self, rng):
        for eps in ls.SIGNATURES:
            cx, cy = rng.uniform(-1, 1, (2, 8))
            x, y = ls.from_coefficients(cx, eps), ls.from_coefficients(cy, eps)
            via_table = np.einsum("i,j,ijk->k", cx, cy, ls.structure_constants(eps))
            via_matrix = ls.coefficients(commutator(x, y), eps)
            assert np.max(np.abs(via_table - via_matrix)) < 1e-12


class TestGroupDefect:
    def test_identity_is_in_both_groups(self):
        for eps in ls.SIGNATURES:
            assert ls.group_defect(np.eye(3, dtype=complex), eps) == 0.0

    def test_detects_outsiders(self):
        assert ls.group_defect(2.0 * np.eye(3, dtype=complex), +1) > 1.0
