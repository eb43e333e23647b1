"""Chart geometry, interval enclosures and branch-and-bound of the oracle kernels."""

import dataclasses
import inspect
import math
from fractions import Fraction

import numpy as np
import pytest

from nkflag import classification as cl
from nkflag import constants, kernels
from nkflag.lie_structure import PSEUDO, SIGNATURES


class TestCharts:
    def test_norm_constraints(self, rng):
        # unit vectors on the ray of (1 - b - c, b, c)
        b, c = rng.uniform(0.0, 1.0, (2, 200))
        keep = b + c <= 1.0
        b, c = b[keep], c[keep]
        a_u, b_u, c_u = kernels.chart_point(b, c)
        np.testing.assert_allclose(a_u ** 2 + b_u ** 2 + c_u ** 2, 1.0, atol=1e-15)
        np.testing.assert_allclose(a_u + b_u + c_u, np.reciprocal(
            np.sqrt((1.0 - b - c) ** 2 + b ** 2 + c ** 2)), rtol=1e-14)
        np.testing.assert_allclose(b_u * (1.0 - b - c), a_u * b, atol=1e-15)

    def test_unknown_chart_rejected(self):
        for eps in SIGNATURES:
            with pytest.raises(ValueError, match="unknown chart 7"):
                kernels.scan_chart(7, eps)

    def test_only_scan_chart_takes_a_chart(self):
        takes = [name for name, fn in vars(kernels).items()
                 if inspect.isfunction(fn) and fn.__module__ == kernels.__name__
                 and "chart" in inspect.signature(fn).parameters]
        assert takes == ["scan_chart"]

    @pytest.mark.parametrize("eps", [0, 2, 1.5])
    def test_bad_signature_rejected(self, eps):
        with pytest.raises(ValueError):
            kernels.residual_linf(1.0, 0.0, 0.0, eps)

    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_residuals_scale_as_the_fourth_power(self, eps, rng):
        # the premise of the one-chart scan: the zeros form a cone
        abc = rng.uniform(-1.5, 1.5, (3, 1000))
        lam = 10.0 ** rng.uniform(-2, 2, 1000)
        # rounding error relative to the size of the terms, not of the residual
        tol = 1e-13 * (lam * np.max(np.abs(abc), axis=0)) ** 4
        pairs = list(zip(kernels.minor_equations(*abc, eps),
                         kernels.minor_equations(*(lam * abc), eps)))
        pairs.append((kernels.residual_linf(*abc, eps), kernels.residual_linf(*(lam * abc), eps)))
        for r, r_scaled in pairs:
            assert np.all(np.abs(r_scaled - lam ** 4 * r) <= tol)


#: the signatures, with ids naming the chart their boxes lie on as well
_ON_CHART = [pytest.param(eps, id=f"{kernels.CHART_SIMPLEX}-{eps}") for eps in SIGNATURES]

#: the case analysis' families at their rational chart points (b, c): each
#: integer direction (a, b, c) meets the simplex at (b, c) / (a + b + c)
_CASE_POINTS = {eps: [(Fraction(b, a + b + c), Fraction(c, a + b + c))
                      for a, b, c in (f.direction for f in cl.solve_families(eps))]
                for eps in SIGNATURES}


#: leaf box widths: each chart axis halved until it is at most the step
_LEAF_SIZE = tuple(w / 2 ** math.ceil(math.log2(w / constants.GRID_ORACLE_STEP))
                   for w in kernels.CHART_DOMAIN)


def _dense_grid(spacing=1e-3, half=True):
    """Grid over the triangle b + c <= 1, or over its half c <= b."""
    b, c = np.meshgrid(np.linspace(0.0, 1.0, round(1.0 / spacing) + 1),
                       np.linspace(0.0, 1.0, round(1.0 / spacing) + 1), indexing="ij")
    keep = (b + c <= 1.0) & ((c <= b) | (not half))
    return b[keep], c[keep], kernels.chart_point(b[keep], c[keep])


def _in_leaves(scan, b, c):
    """Which points (b, c) lie in a leaf box of the scan; a point on a box
    edge belongs to the boxes on both sides."""
    wb, wc = _LEAF_SIZE
    b_max, c_max = kernels.CHART_DOMAIN
    shape = (round(b_max / wb), round(c_max / wc))
    occupied = np.zeros(shape, dtype=bool)
    occupied[(scan.hits[:, 0] / wb).astype(int), (scan.hits[:, 1] / wc).astype(int)] = True
    cells = [(np.clip(np.floor(x / w + s), 0, m - 1).astype(int))
             for x, w, m in ((b, wb, shape[0]), (c, wc, shape[1])) for s in (-1e-9, 1e-9)]
    inside = (c >= 0.0) & (c <= c_max)
    covered = np.zeros(b.size, dtype=bool)
    for ib in cells[:2]:
        for ic in cells[2:]:
            covered |= occupied[ib, ic]
    return covered & inside


def _uncovered_case_points(scan, eps):
    """The case analysis' chart points outside every leaf box, compared
    exactly against the float box ends."""
    half = [Fraction(w) / 2 for w in _LEAF_SIZE]
    boxes = [[(Fraction(x) - h, Fraction(x) + h) for x, h in zip(centre, half)]
             for centre in scan.hits[:, :2].tolist()]
    return [pt for pt in _CASE_POINTS[eps]
            if not any(all(lo <= x <= hi for x, (lo, hi) in zip(pt, box)) for box in boxes)]


def _float_box(x):
    """The tightest float interval around the rational x."""
    f = float(x)
    if Fraction(f) == x:
        return f, f
    return (f, math.nextafter(f, math.inf)) if Fraction(f) < x else (math.nextafter(f, -math.inf), f)


def _exact_normalized_residual(b, c, eps):
    """residual_linf at the unit vector of (1 - b - c, b, c), in rationals."""
    b, c = Fraction(b), Fraction(c)
    a = 1 - b - c
    return max(map(abs, kernels.minor_equations(a, b, c, eps))) / (a * a + b * b + c * c) ** 2


class TestBranchAndBound:
    @pytest.mark.parametrize("eps", _ON_CHART)
    def test_enclosure_is_sound(self, eps, rng):
        b_max, c_max = kernels.CHART_DOMAIN
        n = 600
        wb = np.minimum(10.0 ** rng.uniform(-4, 0, n), b_max)
        wc = np.minimum(10.0 ** rng.uniform(-4, 0, n), c_max)
        b_lo, c_lo = rng.uniform(0, 1, n) * (b_max - wb), rng.uniform(0, 1, n) * (c_max - wc)
        on_chart = b_lo + c_lo <= 1.0
        assert np.count_nonzero(on_chart & (b_lo + wb + c_lo + wc > 1.0)) > 50  # straddle a = 0
        b_lo, c_lo, wb, wc = b_lo[on_chart], c_lo[on_chart], wb[on_chart], wc[on_chart]
        lower, a_hi, b_hi, c_hi = kernels.box_enclosure(eps, b_lo, b_lo + wb, c_lo, c_lo + wc)
        # random interior points plus the four corners of every box, where a >= 0
        tb = np.concatenate([rng.uniform(0, 1, (b_lo.size, 30)), [[0, 0, 1, 1]] * b_lo.size], axis=1)
        tc = np.concatenate([rng.uniform(0, 1, (b_lo.size, 30)), [[0, 1, 0, 1]] * b_lo.size], axis=1)
        b, c = b_lo[:, None] + tb * wb[:, None], c_lo[:, None] + tc * wc[:, None]
        a, bu, cu = kernels.chart_point(b, c)
        on = b + c <= 1.0
        assert np.all((lower[:, None] <= kernels.residual_linf(a, bu, cu, eps))[on])
        for x, hi in ((a, a_hi), (bu, b_hi), (cu, c_hi)):
            assert np.all((x <= hi[:, None])[on])
        assert np.any(lower > constants.ORACLE_HIT_THRESHOLD)  # the bound is not vacuous

    @pytest.mark.parametrize("eps", _ON_CHART)
    def test_degenerate_boxes_are_bounded_by_the_exact_residual(self, eps, rng):
        b, c = rng.uniform(0.0, 1.0, (2, 400))
        keep = (c <= b) & (b + c <= 1.0)
        b, c = b[keep][:200], c[keep][:200]
        lower, a_hi, b_hi, c_hi = kernels.box_enclosure(eps, b, b, c, c)
        for k in range(b.size):
            exact = _exact_normalized_residual(b[k], c[k], eps)
            assert Fraction(lower[k]) <= exact
            a = 1 - Fraction(b[k]) - Fraction(c[k])
            n2 = a * a + Fraction(b[k]) ** 2 + Fraction(c[k]) ** 2
            for x, hi in ((a, a_hi[k]), (Fraction(b[k]), b_hi[k]), (Fraction(c[k]), c_hi[k])):
                assert x * x <= Fraction(hi) ** 2 * n2
        assert np.any(lower > constants.ORACLE_HIT_THRESHOLD)

    @pytest.mark.parametrize("eps", _ON_CHART)
    def test_tight_boxes_around_the_case_points_bound_zero(self, eps):
        for b, c in _CASE_POINTS[eps]:
            (b_lo, b_hi), (c_lo, c_hi) = _float_box(b), _float_box(c)
            assert _exact_normalized_residual(b, c, eps) == 0
            assert kernels.box_enclosure(eps, b_lo, b_hi, c_lo, c_hi)[0] == 0.0

    @pytest.mark.parametrize("eps", _ON_CHART)
    @pytest.mark.parametrize("end", range(4))
    def test_a_nan_box_end_gives_a_nan_bound(self, eps, end):
        ends = [np.array([0.2, 0.3]), np.array([0.25, 0.35]), np.array([0.1, 0.2]),
                np.array([0.15, 0.25])]
        ends[end][1] = np.nan
        lower = kernels.box_enclosure(eps, *ends)[0]
        assert not math.isnan(lower[0]) and math.isnan(lower[1])

    @pytest.mark.parametrize("eps", _ON_CHART)
    def test_leaves_cover_every_sub_threshold_point(self, eps):
        scan = kernels.scan_chart(kernels.CHART_SIMPLEX, eps)
        wb, wc = _LEAF_SIZE
        assert wb <= constants.GRID_ORACLE_STEP and wc <= constants.GRID_ORACLE_STEP
        b, c, abc = _dense_grid()
        low = kernels.residual_linf(*abc, eps) < constants.ORACLE_HIT_THRESHOLD
        assert low.any()
        covered = _in_leaves(scan, b[low], c[low])
        assert covered.all(), f"{np.count_nonzero(~covered)} sub-threshold points outside the leaves"

    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_leaves_and_their_mirrors_cover_the_triangle(self, eps):
        # the scan runs on c <= b only; (b, c) -> (c, b) covers the rest
        scan = kernels.scan_chart(kernels.CHART_SIMPLEX, eps)
        assert kernels.CHART_DOMAIN == (1.0, 0.5)
        b, c, abc = _dense_grid(half=False)
        low = kernels.residual_linf(*abc, eps) < constants.ORACLE_HIT_THRESHOLD
        b, c = b[low], c[low]
        assert np.count_nonzero(c > b) > 50  # points beyond the scanned half
        covered = _in_leaves(scan, b, c) | _in_leaves(scan, c, b)
        assert covered.all(), f"{np.count_nonzero(~covered)} sub-threshold points outside the leaves"

    @pytest.mark.parametrize("eps", _ON_CHART)
    def test_every_case_analysis_point_lies_in_a_leaf(self, eps):
        assert _uncovered_case_points(kernels.scan_chart(kernels.CHART_SIMPLEX, eps), eps) == []

    @pytest.mark.parametrize("eps", _ON_CHART)
    def test_a_raised_bound_at_a_case_point_uncovers_it(self, eps, monkeypatch):
        real = kernels.box_enclosure
        b0, c0 = (float(x) for x in _CASE_POINTS[eps][-1])

        def raised(eps, b_lo, b_hi, c_lo, c_hi):
            lower, *rest = real(eps, b_lo, b_hi, c_lo, c_hi)
            leaf = b_hi - b_lo <= constants.GRID_ORACLE_STEP
            inside = leaf & (b_lo <= b0) & (b0 <= b_hi) & (c_lo <= c0) & (c0 <= c_hi)
            return (np.where(inside, 1.0, lower), *rest)

        monkeypatch.setattr(kernels, "box_enclosure", raised)
        scan = kernels.scan_chart(kernels.CHART_SIMPLEX, eps)
        assert _uncovered_case_points(scan, eps) == [_CASE_POINTS[eps][-1]]

    def test_split_interior_bound_is_certified_and_not_above_samples(self):
        scan = kernels.scan_chart(kernels.CHART_SIMPLEX, PSEUDO)
        _, _, (a, b, c) = _dense_grid()
        interior = np.minimum(a, np.minimum(b, c)) >= constants.NONZERO_MARGIN
        sampled = kernels.residual_linf(a, b, c, PSEUDO)[interior].min()
        assert constants.NONZERO_EMPTY_BOUND < scan.interior_min <= sampled

    def test_compact_interior_bound_admits_the_flat_family(self):
        assert kernels.scan_chart(kernels.CHART_SIMPLEX, 1).interior_min == 0.0

    def test_nan_bound_keeps_its_box_and_poisons_the_interior_bound(self, monkeypatch):
        real = kernels.box_enclosure
        b0, c0 = 0.3, 0.1  # residual ~0.23 there, far above the hit threshold

        def poisoned(eps, b_lo, b_hi, c_lo, c_hi):
            lower, *rest = real(eps, b_lo, b_hi, c_lo, c_hi)
            inside = (b_lo <= b0) & (b0 <= b_hi) & (c_lo <= c0) & (c0 <= c_hi)
            return (np.where(inside, np.nan, lower), *rest)

        monkeypatch.setattr(kernels, "box_enclosure", poisoned)
        scan = kernels.scan_chart(kernels.CHART_SIMPLEX, 1)
        wb, wc = _LEAF_SIZE
        near = (np.abs(scan.hits[:, 0] - b0) <= wb / 2) & (np.abs(scan.hits[:, 1] - c0) <= wc / 2)
        assert near.any()
        assert math.isnan(scan.interior_min)
        report = cl.classification_reports(1)[-1]
        assert report.name == "oracle_interior_occupied[riemannian]"
        assert math.isnan(report.max_abs_error) and not report.passed

    def test_a_zero_on_the_null_cone_fails_the_split_classification(self, monkeypatch):
        # (1 - b - c)^2 = b^2 + c^2 at b = (1 - 2c) / (2 - 2c): a null direction
        real = kernels.box_enclosure
        c0 = 0.05
        b0 = (1.0 - 2.0 * c0) / (2.0 - 2.0 * c0)
        a, b, c = kernels.chart_point(b0, c0)
        assert a * a - b * b - c * c == pytest.approx(0.0, abs=1e-15)

        def zero_there(eps, b_lo, b_hi, c_lo, c_hi):
            lower, *rest = real(eps, b_lo, b_hi, c_lo, c_hi)
            inside = (b_lo <= b0) & (b0 <= b_hi) & (c_lo <= c0) & (c0 <= c_hi)
            return (np.where(inside, 0.0, lower), *rest)

        monkeypatch.setattr(kernels, "box_enclosure", zero_there)
        failed = [r.name for r in cl.classification_reports(PSEUDO) if not r.passed]
        assert failed == ["oracle_family_match[pseudo]"]

    @pytest.mark.parametrize("kwargs", [dict(chart=7), dict(chart=1), dict(chart=2)])
    def test_bad_arguments_rejected(self, kwargs):
        with pytest.raises(ValueError):
            kernels.scan_chart(kwargs["chart"], -1)

    def test_bad_signature_rejected_before_any_box(self, monkeypatch):
        calls = []
        real = kernels.box_enclosure
        monkeypatch.setattr(kernels, "box_enclosure", lambda *args: calls.append(args) or real(*args))
        with pytest.raises(ValueError):
            kernels.scan_chart(kernels.CHART_SIMPLEX, 0)
        assert calls == []

    @pytest.mark.parametrize("eps", [0, 0.5, 2])
    def test_enclosure_rejects_a_bad_signature(self, eps):
        with pytest.raises(ValueError):
            kernels.box_enclosure(eps, 0.0, 0.1, 0.0, 0.1)


def _exact_step(name, args):
    """The exact interval of one of kernels' rounded interval ops on the
    rational values of its float endpoints.  A nonnegative operand (the
    first of ``_mul``, both of ``_mul_nonneg``) encloses a quantity >= 0, so
    its range is cut at 0 first."""
    def nonneg(x):
        return max(x[0], 0), x[1]
    if name == "_add":
        (x0, x1), (y0, y1) = args
        return x0 + y0, x1 + y1
    if name == "_sub":
        (x0, x1), (y0, y1) = args
        return x0 - y1, x1 - y0
    if name == "_mul_nonneg":
        (x0, x1), (y0, y1) = map(nonneg, args)
        return x0 * y0, x1 * y1
    (m0, m1), (d0, d1) = nonneg(args[0]), args[1]
    return min(m0 * d0, m1 * d0), max(m0 * d1, m1 * d1)


def _exact_box(eps, b_lo, b_hi, c_lo, c_hi):
    """(lower, |x|^2 lower, a_hi, b_hi, c_hi) of one box in exact interval
    arithmetic, the float ops of :func:`kernels.box_enclosure` unrounded."""
    a = max(1 - b_hi - c_hi, 0), 1 - b_lo - c_lo
    b, c = (b_lo, b_hi), (c_lo, c_hi)
    a2, b2, c2 = ((x[0] * x[0], x[1] * x[1]) for x in (a, b, c))
    lower = 0
    # r1 = ab (a^2 - eps b^2), r2 = ac (a^2 - eps c^2), r3 = bc (c^2 - b^2)
    for x, y, p, q, signed in ((a, b, a2, b2, True), (a, c, a2, c2, True), (b, c, c2, b2, False)):
        q = (-q[1], -q[0]) if signed and eps < 0 else q
        m = _exact_step("_mul_nonneg", (x, y))
        r_lo, r_hi = _exact_step("_mul", (m, _exact_step("_sub", (p, q))))
        lower = max(lower, r_lo, -r_hi)
    n2 = tuple(a2[k] + b2[k] + c2[k] for k in (0, 1))
    return lower / n2[1] ** 2, max(n2[0], Fraction(1, 3)), a[1], b[1], c[1]


def _rationals(x):
    return [Fraction(v) for v in np.ravel(x).tolist()]


class TestExactReferee:
    """Every interval step of both signatures' scans, replayed in rationals
    from the same float endpoints: each rounded result must enclose the
    exact one."""

    def test_every_scanned_box_encloses_its_exact_interval(self, monkeypatch):
        steps, norms, boxes = [], [], []

        def record(name, log):
            real = getattr(kernels, name)

            def recorded(*args):
                out = real(*args)
                log.append((name, args, out))
                return out
            monkeypatch.setattr(kernels, name, recorded)

        for name in ("_add", "_sub", "_mul_nonneg", "_mul"):
            record(name, steps)
        record("_norm_lo", norms)
        record("box_enclosure", boxes)
        points = sum(kernels.scan_chart(kernels.CHART_SIMPLEX, eps).points for eps in SIGNATURES)
        assert points == sum(np.size(args[1]) for _, args, _ in boxes) == 1_194

        for name, (x, y), out in steps:
            for x0, x1, y0, y1, lo, hi in zip(*map(_rationals, np.broadcast_arrays(*x, *y, *out))):
                exact_lo, exact_hi = _exact_step(name, ((x0, x1), (y0, y1)))
                assert lo <= exact_lo and exact_hi <= hi, name
        for _, (n2_lo,), norm_lo in norms:
            for n2, norm in zip(_rationals(n2_lo), _rationals(norm_lo)):
                assert norm >= 0 and norm * norm <= max(n2, Fraction(1.0 / 3.0))
        for _, (eps, *ends), outputs in boxes:
            for box, (lower, a_hi, b_hi, c_hi) in zip(zip(*map(_rationals, ends)),
                                                      zip(*map(_rationals, outputs))):
                exact_lower, n2_lo, *x_hi = _exact_box(eps, *box)
                assert lower <= exact_lower
                for out, x in zip((a_hi, b_hi, c_hi), x_hi):
                    assert out >= 0 and out * out * n2_lo >= x * x


class TestRefine:
    def test_converges_to_single_distribution_solution(self):
        a, b, c, res = kernels.refine_candidate(1, b0=4e-3, c0=1e-3)
        assert abs(a - 1.0) < 1e-11 and abs(b) < 1e-11 and abs(c) < 1e-11
        assert res < 1e-12

    def test_converges_to_flat_family(self):
        a, b, c, res = kernels.refine_candidate(1, b0=1 / 3 + 3e-3,
                                                c0=1 / 3 - 2e-3)
        want = 1.0 / math.sqrt(3.0)
        assert max(abs(a - want), abs(b - want), abs(c - want)) < 1e-10
        assert res < 1e-12

    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_array_seeds_refine_bitwise_as_scalar_seeds(self, eps, rng):
        scan = kernels.scan_chart(kernels.CHART_SIMPLEX, eps)
        b_max, c_max = kernels.CHART_DOMAIN
        pick = rng.choice(len(scan.hits), 20, replace=False)
        b0 = np.concatenate([scan.hits[pick, 0], rng.uniform(0.0, b_max, 20), [0.0, b_max]])
        c0 = np.concatenate([scan.hits[pick, 1], rng.uniform(0.0, c_max, 20), [c_max, c_max]])
        batch = kernels.refine_candidate(eps, b0, c0)
        assert [x.shape for x in batch] == [b0.shape] * 4
        for k, (b, c) in enumerate(zip(b0.tolist(), c0.tolist())):
            one = kernels.refine_candidate(eps, b, c)
            assert all(type(x) is float for x in one)
            assert one == tuple(x[k] for x in batch)

    def test_a_scan_without_hits_gives_no_family(self, monkeypatch):
        real = kernels.scan_chart
        monkeypatch.setattr(kernels, "scan_chart", lambda chart, eps: dataclasses.replace(
            real(chart, eps), hits=np.zeros((0, 5)), hit_residuals=np.zeros(0)))
        assert cl.grid_oracle(1).families == ()


def _simplex_residuals(b, c, eps):
    return kernels.minor_equations(1 - b - c, b, c, eps)


class TestJacobian:
    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_exact_at_dyadic_nodes(self, eps):
        # along the simplex each residual is a quartic in (b, c), so the
        # Richardson combination (4 D(h) - D(2h)) / 3 of rational central
        # differences is its derivative; every float op at k/8 is exact
        h, worst = Fraction(1, 8), Fraction(0)
        for i in range(9):
            for k in range(9 - i):
                b, c = Fraction(i, 8), Fraction(k, 8)
                jac = kernels._jacobian(float(1 - b - c), float(b), float(c), eps)
                for axis, (db, dc) in enumerate([(1, 0), (0, 1)]):
                    def central(s):
                        up = _simplex_residuals(b + s * db, c + s * dc, eps)
                        down = _simplex_residuals(b - s * db, c - s * dc, eps)
                        return [(x - y) / (2 * s) for x, y in zip(up, down)]
                    exact = [(4 * x - y) / 3 for x, y in zip(central(h), central(2 * h))]
                    worst = max(worst, *(abs(Fraction(row[axis]) - e) for row, e in zip(jac, exact)))
        assert float(worst) <= constants.TOL_INTEGER_IDENTITY


class TestNewton:
    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_converges_from_a_step_off_every_family(self, eps):
        # a leaf centre lies within one step of the zero in each coordinate
        step = constants.GRID_ORACLE_STEP
        for fam, (b, c) in zip(cl.solve_families(eps), _CASE_POINTS[eps]):
            for db in (-step, step):
                for dc in (-step, step):
                    *amps, res = kernels.refine_candidate(eps,
                                                          float(b) + db, float(c) + dc)
                    assert max(abs(x - y) for x, y in zip(amps, fam.amplitudes)) <= 1e-10
                    assert res <= 1e-12

    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_stopping_early_gives_the_capped_result(self, eps, monkeypatch):
        step = constants.GRID_ORACLE_STEP
        b0 = np.array([float(b) + step for b, _ in _CASE_POINTS[eps]] + [0.3, 0.7])
        c0 = np.array([float(c) - step for _, c in _CASE_POINTS[eps]] + [0.1, 0.2])
        steps, real = [], kernels._jacobian
        monkeypatch.setattr(kernels, "_jacobian", lambda *args: steps.append(1) or real(*args))
        early, stopped_after = kernels.refine_candidate(eps, b0, c0), len(steps)
        monkeypatch.setattr(np, "array_equal", lambda *args, **kwargs: False)
        capped = kernels.refine_candidate(eps, b0, c0)
        assert len(steps) - stopped_after == 8
        assert [x.tolist() for x in early] == [x.tolist() for x in capped]
        # the compact batch stops on a 2-cycle, the split batch on a fixed point
        assert stopped_after < 8

    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_the_oracle_seeds_stop_before_the_cap_with_its_result(self, eps, monkeypatch):
        # the compact flat family's point alternates between the two floats
        # next to 1/3, so that batch stops on the 2-cycle and not at the cap
        real, seeds = kernels.refine_candidate, []
        monkeypatch.setattr(kernels, "refine_candidate",
                            lambda e, b, c: seeds.append((b, c)) or real(e, b, c))
        cl.grid_oracle(eps)
        monkeypatch.undo()
        (b0, c0), = seeds
        steps, jac = [], kernels._jacobian
        monkeypatch.setattr(kernels, "_jacobian", lambda *args: steps.append(1) or jac(*args))
        early, stopped_after = kernels.refine_candidate(eps, b0, c0), len(steps)
        for k, (b, c) in enumerate(zip(b0.tolist(), c0.tolist())):
            assert kernels.refine_candidate(eps, b, c) == tuple(x[k] for x in early)
        # the reference runs every one of the 8 steps
        monkeypatch.setattr(np, "array_equal", lambda *args, **kwargs: False)
        before = len(steps)
        capped = kernels.refine_candidate(eps, b0, c0)
        assert len(steps) - before == 8 and stopped_after < 8
        assert [x.tobytes() for x in early] == [x.tobytes() for x in capped]
