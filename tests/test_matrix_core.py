"""Tests for the 3x3 complex primitives.

Frozen expected values below were derived by entrywise hand multiplication
of the basis matrices (independently of the library code paths they check).
"""

import math

import numpy as np
import pytest

from nkflag import matrix_core as mc
from nkflag import lie_structure as ls


def random_complex3(rng, n=1):
    a = rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3))
    return a if n > 1 else a[0]


class TestCommutator:
    def test_m1_m2_is_minus_m3(self):
        b = ls.basis(ls.RIEMANNIAN)
        # by hand: m1@m2 has a lone +1 in slot (1,3); m2@m1 a lone +1 in (3,1)
        expected = np.array([[0, 0, 1], [0, 0, 0], [-1, 0, 0]], dtype=complex)
        got = mc.commutator(b[ls.M1], b[ls.M2])
        assert mc.max_abs(got - expected) == 0.0
        assert mc.max_abs(got + b[ls.M3]) == 0.0

    def test_m1_m4_solves_to_h1_minus_sqrt3_h2(self):
        b = ls.basis(ls.RIEMANNIAN)
        got = mc.commutator(b[ls.M1], b[ls.M4])
        assert mc.max_abs(got - np.diag([-2j, 2j, 0])) == 0.0
        # solve the 2x2 diagonal system alpha*h1 + beta*h2 = diag(-2i, 2i, 0)
        sys = np.array([[-1.0, 1.0 / math.sqrt(3)], [0.0, -2.0 / math.sqrt(3)]])
        alpha, beta = np.linalg.solve(sys, [-2.0, 2.0])
        assert alpha == pytest.approx(1.0, abs=1e-14)
        assert beta == pytest.approx(-math.sqrt(3), abs=1e-14)
        coeffs = ls.coefficients(got, ls.RIEMANNIAN)
        np.testing.assert_allclose(coeffs[:2], [alpha, beta], atol=1e-13)
        assert np.max(np.abs(coeffs[2:])) < 1e-14

    def test_pseudo_m2_m3_flips_sign(self):
        # the split-form bracket [m2, m3] is +m1 (the compact one is -m1)
        b = ls.basis(ls.PSEUDO)
        got = mc.commutator(b[ls.M2], b[ls.M3])
        assert mc.max_abs(got - b[ls.M1]) == 0.0

    def test_antisymmetry_and_self_bracket(self, rng):
        a, b = random_complex3(rng, 2)
        assert mc.max_abs(mc.commutator(a, b) + mc.commutator(b, a)) < 1e-13
        assert mc.max_abs(mc.commutator(a, a)) == 0.0

    def test_bilinearity(self, rng):
        a, b, c = random_complex3(rng, 3)
        lhs = mc.commutator(2.5 * a + b, c)
        rhs = 2.5 * mc.commutator(a, c) + mc.commutator(b, c)
        assert mc.max_abs(lhs - rhs) < 1e-13


class TestAdjointTraceDet:
    def test_adjoint_involution(self, rng):
        a = random_complex3(rng)
        assert mc.max_abs(mc.adjoint(mc.adjoint(a)) - a) == 0.0

    def test_basis_antihermitian_compact(self):
        for m in ls.basis(ls.RIEMANNIAN):
            assert mc.max_abs(mc.adjoint(m) + m) == 0.0

    def test_basis_twisted_antihermitian_split(self):
        im = ls.IMINUS
        for m in ls.basis(ls.PSEUDO):
            assert mc.max_abs(im @ mc.adjoint(m) @ im + m) == 0.0

    def test_det_of_sampled_immersion(self):
        from nkflag.surfaces import get_surface

        for t in (0.3, 1.1, 2.0):
            for u in (0.0, 0.7, 4.0):
                det = np.linalg.det(get_surface(2).closed_form(t, u))
                assert det == pytest.approx(1.0, abs=1e-12)


class TestExpm:
    def test_exp_zero(self):
        assert mc.max_abs(mc.expm(np.zeros((3, 3))) - mc.identity()) == 0.0

    def test_quarter_turn_in_first_distribution(self):
        b = ls.basis(ls.RIEMANNIAN)
        expected = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
        assert mc.max_abs(mc.expm(math.pi / 2 * b[ls.M1]) - expected) < 1e-14

    def test_inverse_defect_compact(self, rng):
        # anti-Hermitian inputs with 2-norm up to 10
        for _ in range(25):
            c = rng.uniform(-1, 1, size=8)
            a = ls.from_coefficients(c, ls.RIEMANNIAN)
            a *= rng.uniform(0.5, 10.0) / np.linalg.norm(a, 2)
            defect = mc.max_abs(mc.expm(a) @ mc.expm(-a) - mc.identity())
            assert defect < 1e-12

    def test_inverse_defect_split_moderate_norm(self, rng):
        # real-spectrum directions lose eps * exp(2||a||); stay moderate
        for _ in range(25):
            c = rng.uniform(-1, 1, size=8)
            a = ls.from_coefficients(c, ls.PSEUDO)
            a *= rng.uniform(0.5, 2.0) / np.linalg.norm(a, 2)
            defect = mc.max_abs(mc.expm(a) @ mc.expm(-a) - mc.identity())
            assert defect < 1e-12

    def test_commuting_product(self, rng):
        b = ls.basis(ls.RIEMANNIAN)
        for _ in range(10):
            x = rng.uniform(-2, 2) * b[ls.H1] + rng.uniform(-2, 2) * b[ls.H2]
            y = rng.uniform(-2, 2) * b[ls.H1] + rng.uniform(-2, 2) * b[ls.H2]
            assert mc.max_abs(mc.commutator(x, y)) < 1e-15
            assert mc.max_abs(mc.expm(x + y) - mc.expm(x) @ mc.expm(y)) < 1e-12

    def test_commuting_flat_torus_generators(self):
        from nkflag.surfaces import get_surface

        b = ls.basis(ls.RIEMANNIAN)
        t1 = (b[ls.M1] + b[ls.M2] + b[ls.M3]) / math.sqrt(3)
        t2 = (b[ls.M4] + b[ls.M5] - b[ls.M6]) / math.sqrt(3)
        assert mc.max_abs(mc.commutator(t1, t2)) < 1e-15
        assert mc.max_abs(get_surface(3).generator(1.0, 2.0) - (t1 + 2.0 * t2)) < 1e-15
        assert mc.max_abs(mc.expm(1.3 * t1 + 0.4 * t2)
                          - mc.expm(1.3 * t1) @ mc.expm(0.4 * t2)) < 1e-12

    def test_metric_preservation(self, rng):
        for eps in ls.SIGNATURES:
            scale = 10.0 if eps == ls.RIEMANNIAN else 2.0
            m = mc.identity() if eps == ls.RIEMANNIAN else ls.IMINUS
            for _ in range(15):
                a = ls.from_coefficients(rng.uniform(-1, 1, size=8), eps)
                a *= scale * rng.uniform(0.1, 1.0) / np.linalg.norm(a, 2)
                g = mc.expm(a)
                assert mc.max_abs(mc.adjoint(g) @ m @ g - m) < 1e-12

    def test_matches_closed_form_on_a_line(self):
        from nkflag.surfaces import get_surface

        desc = get_surface(1)
        for t in np.linspace(0.0, 2 * math.pi, 9):
            for u in (0.0, 1.0, 2.5):
                assert mc.max_abs(mc.expm(desc.generator(t, u)) - desc.closed_form(t, u)) < 1e-13


class TestBatchedExpm:
    """Contract of the numpy Pade-13 scaling-and-squaring ``expm`` on stacks."""

    @staticmethod
    def algebra_elements(rng, eps, n, low, high):
        """n algebra elements of the given signature with 2-norms in [low, high]."""
        a = ls.from_coefficients(rng.uniform(-1, 1, size=(n, 8)), eps)
        return a * (rng.uniform(low, high, size=n) / np.linalg.norm(a, 2, axis=(-2, -1)))[:, None, None]

    def test_stack_equals_per_matrix_calls(self, rng):
        a = random_complex3(rng, 12).reshape(3, 4, 3, 3) * rng.uniform(0.0, 20.0, size=(3, 4, 1, 1))
        got = mc.expm(a)
        assert got.shape == (3, 4, 3, 3)
        want = np.array([[mc.expm(a[i, j]) for j in range(4)] for i in range(3)])
        np.testing.assert_array_equal(got, want)

    def test_zero_gives_identity_exactly(self):
        assert np.array_equal(mc.expm(np.zeros((3, 3))), mc.identity())
        assert np.array_equal(mc.expm(np.zeros((5, 3, 3))), np.broadcast_to(mc.identity(), (5, 3, 3)))

    def test_scaling_path_compact(self, rng):
        # 2-norms up to 10 put the 1-norm above theta_13, so these are scaled
        # and squared back; the reference diagonalizes the Hermitian -i*a
        a = self.algebra_elements(rng, ls.RIEMANNIAN, 40, 5.0, 10.0)
        assert np.all(np.abs(a).sum(axis=-2).max(axis=-1) > mc._THETA13)
        lam, vec = np.linalg.eigh(-1j * a)
        want = (vec * np.exp(1j * lam)[:, None, :]) @ mc.adjoint(vec)
        got = mc.expm(a)
        assert mc.max_abs(got - want) < 1e-13
        assert mc.max_abs(got @ mc.expm(-a) - mc.identity()) < 1e-12
        assert ls.group_defect(got, ls.RIEMANNIAN) < 1e-12

    def test_split_moderate_and_scaled_norms(self, rng):
        # 2-norms up to 2 keep the 1-norm below theta_13 (no scaling); the
        # larger copies are scaled and squared back.  The reference
        # diagonalizes a (real spectrum), so it is compared relatively.
        a = self.algebra_elements(rng, ls.PSEUDO, 40, 0.5, 2.0)
        got = mc.expm(a)
        assert mc.max_abs(got @ mc.expm(-a) - mc.identity()) < 1e-12
        assert ls.group_defect(got, ls.PSEUDO) < 1e-12
        big = self.algebra_elements(rng, ls.PSEUDO, 40, 3.5, 6.0)
        assert np.any(np.abs(big).sum(axis=-2).max(axis=-1) > mc._THETA13)
        for x in (a, big):
            lam, vec = np.linalg.eig(x)
            want = (vec * np.exp(lam)[:, None, :]) @ np.linalg.inv(vec)
            assert mc.max_abs(mc.expm(x) - want) < 1e-12 * mc.max_abs(want)

    def test_non_finite_input(self, rng):
        a = np.zeros((5, 3, 3), dtype=complex)
        a[0] = random_complex3(rng)
        a[1, 0, 1] = np.nan
        a[2, 2, 2] = np.inf
        a[3, 1, 0] = -np.inf * 1j
        a[4, :, 0] = 1e308  # finite entries, but the 1-norm overflows
        got = mc.expm(a)
        assert np.array_equal(got[0], mc.expm(a[0]))
        assert np.all(np.isnan(got[1:]))

    def test_huge_finite_norm_terminates(self):
        # about a thousand squarings at most; the result overflows
        with np.errstate(over="ignore", invalid="ignore"):
            got = mc.expm(np.diag([1e300, 0.0, 0.0]))
        assert not np.all(np.isfinite(got))

    def test_agrees_with_scipy(self, rng):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        stacks = [self.algebra_elements(rng, ls.RIEMANNIAN, 50, 0.1, 10.0),
                  self.algebra_elements(rng, ls.PSEUDO, 50, 0.1, 2.0),
                  random_complex3(rng, 50) * rng.uniform(0.01, 3.0, size=(50, 1, 1))]
        for a in stacks:
            got = mc.expm(a)
            for g, x in zip(got, a):
                want = scipy_linalg.expm(x)
                assert mc.max_abs(g - want) <= 1e-14 * mc.max_abs(want)
