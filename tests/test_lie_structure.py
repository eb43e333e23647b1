"""Algebra-level tests: bases, metrics, projections, structure constants."""

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

    @pytest.mark.parametrize("eps", ls.SIGNATURES)
    @pytest.mark.parametrize("shape", [(), (7,), (4, 5, 5)])
    def test_matches_einsum_definition(self, rng, eps, shape):
        x = rng.normal(size=shape + (3, 3)) + 1j * rng.normal(size=shape + (3, 3))
        want = np.einsum("ijk,...kj->...i", ls._dual(eps), x).real
        got = ls.coefficients(x, eps)
        assert got.shape == shape + (8,)
        assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("eps", ls.SIGNATURES)
    def test_non_contiguous_view(self, rng, eps):
        x = rng.normal(size=(6, 3, 3)) + 1j * rng.normal(size=(6, 3, 3))
        view = np.swapaxes(x, -1, -2)[::2]
        assert not view.flags.c_contiguous
        want = np.einsum("ijk,...kj->...i", ls._dual(eps), view).real
        assert np.max(np.abs(ls.coefficients(view, eps) - want)) <= 1e-15

    @pytest.mark.parametrize("eps", ls.SIGNATURES)
    def test_row_value_does_not_depend_on_batch(self, rng, eps):
        # one matrix, short stacks and a long one round every row alike
        x = rng.normal(size=(3000, 3, 3)) + 1j * rng.normal(size=(3000, 3, 3))
        whole = ls.coefficients(x, eps)
        for lo, hi in [(0, 1), (5, 6), (7, 9), (100, 357), (2999, 3000)]:
            np.testing.assert_array_equal(ls.coefficients(x[lo:hi], eps), whole[lo:hi])
        np.testing.assert_array_equal(ls.coefficients(x[17], eps), whole[17])

    @pytest.mark.parametrize("eps", ls.SIGNATURES)
    def test_nan_in_any_entry_reaches_every_coordinate(self, eps):
        for j, k in itertools.product(range(3), range(3)):
            for bad in (complex(np.nan, 0.0), complex(0.0, np.nan)):
                x = ls.basis(eps)[ls.M1].copy()
                x[j, k] = bad
                assert np.all(np.isnan(ls.coefficients(x, eps))), (j, k, bad)


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
