"""Tests for the 3x3 complex primitives.

Frozen expected values below were derived by entrywise hand multiplication
of the basis matrices (independently of the library code paths they check).
"""

import math
import time

import numpy as np
import pytest

from nkflag import matrix_core as mc
from nkflag import lie_structure as ls
from nkflag import surfaces, verify

EPS = np.finfo(float).eps


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

    def test_m1_m4_solves_to_h1_minus_h2(self):
        b = ls.basis(ls.RIEMANNIAN)
        got = mc.commutator(b[ls.M1], b[ls.M4])
        assert mc.max_abs(got - np.diag([-2j, 2j, 0])) == 0.0
        # solve the 2x2 diagonal system alpha*h1 + beta*h2 = diag(-2i, 2i, 0)
        # on the first two diagonal entries of h1 = diag(-i, 0, i), h2 = diag(i, -2i, i)
        sys = np.array([[-1.0, 1.0], [0.0, -2.0]])
        alpha, beta = np.linalg.solve(sys, [-2.0, 2.0])
        assert (alpha, beta) == (1.0, -1.0)
        coeffs = ls.coefficients(got, ls.RIEMANNIAN)
        np.testing.assert_array_equal(coeffs, [alpha, beta, 0, 0, 0, 0, 0, 0])

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

    @pytest.mark.parametrize("shape", [(3, 3), (1, 3, 3), (4, 3, 3)])
    def test_input_is_left_unchanged(self, rng, shape):
        a = random_complex3(rng, 4)[:1 if len(shape) < 3 else shape[0]].reshape(shape) * 4.0
        before = a.copy()
        mc.expm(a)
        assert np.array_equal(a, before)

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


def _kernel(name, *stacks):
    """The entry-major kernel ``mc.<name>`` on ``(..., 3, 3)`` stacks, its
    result back in the stacks' layout."""
    shape = np.shape(stacks[0])[:-2]
    out = getattr(mc, name)(*(mc._entry_major(s) for s in stacks))
    return out.reshape(shape) if name == "_det" else mc._matrix_major(out, shape)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


#: each kernel with the stacks it takes
_KERNELS = {"_mul": 2, "_adj": 1, "_det": 1, "_inv": 1}


class TestEntryMajorKernels:
    """Contract of the private ``(3, 3, n)`` kernels behind ``expm``, the
    difference frames and ``group_defect``, against numpy's per-matrix
    routines.  Error bounds are a few units of roundoff: of the product of
    magnitudes for the product, of the product of row norms (Hadamard's
    bound) for the determinant, and of the condition number for the
    inverse."""

    SHAPES = [(3, 3), (0, 3, 3), (2, 5, 3, 3)]

    @staticmethod
    def stack(rng, shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_product_matches_matmul(self, rng, shape):
        a, b = self.stack(rng, shape), self.stack(rng, shape)
        got = _kernel("_mul", a, b)
        assert got.shape == shape
        assert np.all(np.abs(got - a @ b) <= 8 * EPS * (np.abs(a) @ np.abs(b)))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_determinant_matches_det(self, rng, shape):
        a = self.stack(rng, shape)
        got = _kernel("_det", a)
        assert got.shape == shape[:-2]
        rows = np.prod(np.linalg.norm(a, axis=-1), axis=-1)
        assert np.all(np.abs(got - np.linalg.det(a)) <= 8 * EPS * rows)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_inverse_and_adjugate_match_inv(self, rng, shape):
        a = self.stack(rng, shape)
        want = np.linalg.inv(a)
        bound = 8 * EPS * np.linalg.cond(a)[..., None, None] * np.abs(want).max(
            axis=(-2, -1), keepdims=True, initial=0.0)
        assert np.all(np.abs(_kernel("_inv", a) - want) <= bound)
        det = np.linalg.det(a)[..., None, None]
        assert np.all(np.abs(_kernel("_adj", a) - det * want) <= np.abs(det) * bound)

    @pytest.mark.parametrize("name", sorted(_KERNELS))
    def test_stack_is_bitwise_per_matrix(self, rng, name):
        stacks = [self.stack(rng, (2, 5, 3, 3)) for _ in range(_KERNELS[name])]
        got = _kernel(name, *stacks)
        for i, j in np.ndindex(2, 5):
            one = _kernel(name, *(s[i, j] for s in stacks))
            assert np.array_equal(_bits(got[i, j]), _bits(one)), (i, j)

    @pytest.mark.parametrize("name", [*sorted(_KERNELS), "expm"])
    def test_a_large_stack_rounds_as_its_chunks(self, rng, name):
        # 16,500 matrices put even a (n,) temporary above numpy's 256 KiB
        # elision size, where ``x * temporary`` runs as ``temporary * x``
        stacks = [self.stack(rng, (16500, 3, 3)) for _ in range(_KERNELS.get(name, 1))]
        run = mc.expm if name == "expm" else lambda *s: _kernel(name, *s)
        whole = run(*stacks)
        chunks = np.concatenate([run(*(s[lo:lo + 500] for s in stacks))
                                 for lo in range(0, 16500, 500)])
        assert np.array_equal(_bits(whole), _bits(chunks))

    @pytest.mark.parametrize("name", sorted(_KERNELS))
    def test_a_nan_stays_in_its_own_matrix(self, rng, name):
        stacks = [self.stack(rng, (2, 5, 3, 3)) for _ in range(_KERNELS[name])]
        clean = _kernel(name, *stacks)
        stacks[0][1, 2, 0, 0] = np.nan
        got = _kernel(name, *stacks)
        assert np.isnan(got[1, 2]).any()
        others = np.ones((2, 5), dtype=bool)
        others[1, 2] = False
        assert np.array_equal(_bits(got[others]), _bits(clean[others]))

    def test_a_singular_matrix_has_an_all_nan_inverse(self, rng):
        a = self.stack(rng, (4, 3, 3))
        a[2, 1] = 0.0
        got = _kernel("_inv", a)
        assert np.all(np.isnan(got[2]))
        assert np.all(np.isfinite(np.delete(got, 2, axis=0)))


class TestFromCoefficients:
    @pytest.mark.parametrize("eps", ls.SIGNATURES)
    def test_a_row_is_bitwise_its_row_of_a_stack(self, rng, eps):
        c = rng.uniform(-1, 1, (300, 8))
        c[::7] = -0.0   # signed zeros keep their bits too
        whole = ls.from_coefficients(c, eps)
        assert whole.shape == (300, 3, 3) and whole.dtype == np.complex128
        for i in (0, 7, 123, 299):
            assert np.array_equal(_bits(ls.from_coefficients(c[i], eps)), _bits(whole[i]))

    @pytest.mark.parametrize("eps", ls.SIGNATURES)
    def test_coefficients_returns_the_coefficients(self, rng, eps):
        # tangent coefficients come back exactly; the isotropy pair shares the
        # diagonal entries and the division by |h2|^2 = 3, so it rounds
        c = rng.uniform(-1, 1, (500, 8))
        tangent = c.copy()
        tangent[:, :2] = 0.0
        assert np.array_equal(ls.coefficients(ls.from_coefficients(tangent, eps), eps), tangent)
        assert np.max(np.abs(ls.coefficients(ls.from_coefficients(c, eps), eps) - c)) <= 4 * EPS


class TestExpmStackWithAHugeMatrix:
    def test_equals_per_matrix_calls_in_bounded_time(self, rng):
        # one matrix needs about a thousand squarings; only it is squared
        # that often, and the others keep their per-matrix values
        a = random_complex3(rng, 1682) * rng.uniform(0.01, 3.0, size=(1682, 1, 1))
        a[600] = np.diag([1e300, 0.0, 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            start = time.perf_counter()
            got = mc.expm(a)
            elapsed = time.perf_counter() - start
            want = np.array([mc.expm(x) for x in a])
        assert np.array_equal(_bits(got), _bits(want))
        assert not np.all(np.isfinite(got[600]))
        assert elapsed < 5.0


class TestOneCodePath:
    def test_no_linalg_solver_on_the_surface_and_verify_paths(self, monkeypatch):
        # every stacked inverse, solve and determinant of ``surface`` and
        # ``verify`` runs in the entry-major kernels
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg solver called")

        for name in ("solve", "inv", "det"):
            monkeypatch.setattr(np.linalg, name, refuse)
        for sid in surfaces.SURFACE_IDS:
            assert all(r.passed for r in surfaces.surface_summary(sid)["reports"])
        for eps in ls.SIGNATURES:
            assert all(r.passed for r in verify.run_verification(eps, self_test=True))
