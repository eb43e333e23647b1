"""Algebra-level tests: bases, metrics, projections, structure constants."""

import itertools

import numpy as np
import pytest

from nkflag import lie_structure as ls
from nkflag.matrix_core import commutator, max_abs


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
        # the integral h2 = diag(i, -2i, i) has length squared 3
        expected = np.array([1, 3, 1, 1, 1, 1, 1, 1.0])
        np.testing.assert_array_equal(ls.gram_diagonal(+1), expected)

    def test_gram_split_signs(self):
        # direct trace computation: V1 positive, V2 and V3 negative
        expected = np.array([1, 3, 1, -1, -1, 1, -1, -1.0])
        np.testing.assert_array_equal(ls.gram_diagonal(-1), expected)

    def test_unit_vectors(self, trace_metric):
        b = ls.basis(+1)
        assert trace_metric(b[ls.M1], b[ls.M1], +1) == pytest.approx(1.0, abs=1e-15)
        bp = ls.basis(-1)
        assert trace_metric(bp[ls.M2], bp[ls.M2], -1) == pytest.approx(-1.0, abs=1e-15)

    @pytest.mark.parametrize("eps", ls.SIGNATURES)
    def test_gram_is_the_pairwise_metric(self, eps, trace_metric):
        b = ls.basis(eps)
        want = np.array([[trace_metric(bi, bj, eps) for bj in b] for bi in b])
        assert ls._gram(eps).tobytes() == want.tobytes()

    # 1e-20 is below any rounding of the diagonal: the basis is exactly orthogonal
    @pytest.mark.parametrize("bad", (1e-6, -1e-6, np.nan, 1e-20))
    def test_gram_diagonal_rejects_an_off_diagonal_entry(self, bad, monkeypatch):
        g = ls._gram(ls.PSEUDO).copy()
        g[ls.M1, ls.M2] = bad
        monkeypatch.setattr(ls, "_gram", lambda eps: g)
        with pytest.raises(RuntimeError, match="not diagonal"):
            ls.gram_diagonal.__wrapped__(ls.PSEUDO)

    def test_h_orthogonal_to_m(self, trace_metric):
        for eps in ls.SIGNATURES:
            b = ls.basis(eps)
            assert abs(trace_metric(b[ls.H1], b[ls.M3], eps)) < 1e-15

    def test_symmetry_bilinearity(self, rng, trace_metric):
        for eps in ls.SIGNATURES:
            x, y = ls.from_coefficients(rng.uniform(-1, 1, (2, 8)), eps)
            assert trace_metric(x, y, eps) == pytest.approx(trace_metric(y, x, eps), abs=1e-14)
            assert trace_metric(2.0 * x, y, eps) == pytest.approx(2 * trace_metric(x, y, eps), abs=1e-13)


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
        np.testing.assert_array_equal(c[:2], [1.0, -1.0])

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
        want = np.einsum("ijk,...kj->...i", ls._dual(eps), x).real / ls.gram_diagonal(eps)
        got = ls.coefficients(x, eps)
        assert got.shape == shape + (8,)
        assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("eps", ls.SIGNATURES)
    def test_non_contiguous_view(self, rng, eps):
        x = rng.normal(size=(6, 3, 3)) + 1j * rng.normal(size=(6, 3, 3))
        view = np.swapaxes(x, -1, -2)[::2]
        assert not view.flags.c_contiguous
        want = np.einsum("ijk,...kj->...i", ls._dual(eps), view).real / ls.gram_diagonal(eps)
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

    @pytest.mark.parametrize("eps", ls.SIGNATURES)
    def test_structure_constants_are_integers(self, eps):
        sc = ls.structure_constants(eps)
        assert np.array_equal(sc, np.round(sc)) and np.max(np.abs(sc)) == 3.0

    @pytest.mark.parametrize("eps", ls.SIGNATURES)
    def test_guard_rejects_a_non_dyadic_basis_matrix(self, eps):
        # 3 m1 keeps every bracket in the algebra exactly (no drift), but
        # [h1, m4] is then 2/3 (3 m1): the table leaves (1/4)Z
        b = ls.basis(eps).copy()
        b[ls.M1] *= 3.0
        with pytest.raises(RuntimeError, match=r"\[h1, m4\] has a coefficient outside \(1/4\)Z"):
            ls.structure_constants_of(b, eps)
        # a dyadic rescale keeps the table in (1/4)Z
        b[ls.M1] = 2.0 * ls.basis(eps)[ls.M1]
        sc = ls.structure_constants_of(b, eps)
        assert sc[ls.H1, ls.M4, ls.M1] == 0.5 * ls.structure_constants(eps)[ls.H1, ls.M4, ls.M1]

    @pytest.mark.parametrize("eps", ls.SIGNATURES)
    def test_guard_rejects_any_drift_out_of_the_algebra(self, eps):
        # a one-entry edit far below the old 1e-12 drift bound still fails
        b = ls.basis(eps).copy()
        b[ls.M1, 0, 1] += 1e-15
        with pytest.raises(RuntimeError, match="left the algebra"):
            ls.structure_constants_of(b, eps)

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

    @pytest.mark.parametrize("eps", ls.SIGNATURES)
    def test_matches_the_stacked_product(self, rng, eps):
        m = np.eye(3, dtype=complex) if eps == ls.RIEMANNIAN else ls.IMINUS
        g = rng.normal(size=(50, 3, 3)) + 1j * rng.normal(size=(50, 3, 3))
        want = max(np.max(np.abs(ls.adjoint(g) @ m @ g - m)),
                   np.max(np.abs(np.linalg.det(g) - 1.0)))
        # the entry-major kernels sum in another order than numpy's @ and
        # det, so the two agree to a few roundings, not bit for bit
        assert ls.group_defect(g, eps) == pytest.approx(want, rel=16 * np.finfo(float).eps, abs=0)
        g[7, 1, 2] = np.nan
        assert np.isnan(ls.group_defect(g, eps))

    @pytest.mark.parametrize("eps", ls.SIGNATURES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    @pytest.mark.filterwarnings("ignore:invalid value encountered in multiply")
    def test_a_non_finite_entry_gives_nan(self, eps, bad):
        for j, k in itertools.product(range(3), range(3)):
            g = np.eye(3, dtype=complex)
            g[j, k] = bad
            assert np.isnan(ls.group_defect(g, eps)), (j, k)
            stack = np.broadcast_to(np.eye(3, dtype=complex), (5, 3, 3)).copy()
            stack[3] = g
            assert np.isnan(ls.group_defect(stack, eps)), (j, k)
