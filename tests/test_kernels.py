"""Chart geometry, interval enclosures and branch-and-bound of the oracle kernels."""

import dataclasses
import math

import numpy as np
import pytest

from nkflag import classification as cl
from nkflag import constants, kernels
from nkflag.lie_structure import PSEUDO, SIGNATURES


class TestCharts:
    def test_norm_constraints(self, rng):
        for _ in range(50):
            p, q = rng.uniform(0.0, 1.5, 2)
            a, b, c = kernels.chart_point(kernels.CHART_SPHERE, p, q)
            assert a * a + b * b + c * c == pytest.approx(1.0, abs=1e-13)

    def test_unknown_chart_rejected(self):
        with pytest.raises(ValueError):
            kernels.chart_point(7, 0.1, 0.2)

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


_CHARTS = [(kernels.CHART_SPHERE, eps) for eps in SIGNATURES]


def _leaf_size(chart):
    """Leaf box widths: each chart axis halved until it is at most the step."""
    step = constants.GRID_ORACLE_STEP
    return tuple(w / 2 ** math.ceil(math.log2(w / step))
                 for w in kernels.chart_domain(chart))


def _dense_grid(chart, spacing=2e-3, q_max=None):
    """Grid over the chart, or over q in [0, q_max] when given."""
    p_max, q_chart = kernels.chart_domain(chart)
    q_max = q_max or q_chart
    p, q = np.meshgrid(np.append(np.arange(0.0, p_max, spacing), p_max),
                       np.append(np.arange(0.0, q_max, spacing), q_max), indexing="ij")
    return p.ravel(), q.ravel(), kernels.chart_point(chart, p.ravel(), q.ravel())


def _in_leaves(scan, p, q):
    """Which points (p, q) lie in a leaf box of the scan; a point on a box
    edge belongs to the boxes on both sides."""
    wp, wq = _leaf_size(scan.chart)
    p_max, q_max = kernels.chart_domain(scan.chart)
    shape = (round(p_max / wp), round(q_max / wq))
    occupied = np.zeros(shape, dtype=bool)
    occupied[(scan.hits[:, 0] / wp).astype(int), (scan.hits[:, 1] / wq).astype(int)] = True
    cells = [(np.clip(np.floor(x / w + s), 0, m - 1).astype(int))
             for x, w, m in ((p, wp, shape[0]), (q, wq, shape[1])) for s in (-1e-9, 1e-9)]
    inside = (q >= -1e-12) & (q <= q_max * (1 + 1e-12))
    covered = np.zeros(p.size, dtype=bool)
    for ip in cells[:2]:
        for iq in cells[2:]:
            covered |= occupied[ip, iq]
    return covered & inside


class TestBranchAndBound:
    @pytest.mark.parametrize("chart,eps", _CHARTS)
    def test_enclosure_is_sound(self, chart, eps, rng):
        p_max, q_max = kernels.chart_domain(chart)
        n = 400
        wp = np.minimum(10.0 ** rng.uniform(-4, 0, n), p_max)
        wq = np.minimum(10.0 ** rng.uniform(-4, 0, n), q_max)
        p_lo, q_lo = rng.uniform(0, 1, n) * (p_max - wp), rng.uniform(0, 1, n) * (q_max - wq)
        lower, a_hi, b_hi, c_hi = kernels.box_enclosure(chart, eps, p_lo, p_lo + wp, q_lo, q_lo + wq)
        # random interior points plus the four corners of every box
        tp = np.concatenate([rng.uniform(0, 1, (n, 30)), [[0, 0, 1, 1]] * n], axis=1)
        tq = np.concatenate([rng.uniform(0, 1, (n, 30)), [[0, 1, 0, 1]] * n], axis=1)
        a, b, c = kernels.chart_point(chart, p_lo[:, None] + tp * wp[:, None],
                                      q_lo[:, None] + tq * wq[:, None])
        assert np.all(lower[:, None] <= kernels.residual_linf(a, b, c, eps))
        assert np.all(a <= a_hi[:, None]) and np.all(b <= b_hi[:, None]) and np.all(c <= c_hi[:, None])
        assert np.any(lower > constants.ORACLE_HIT_THRESHOLD)  # the bound is not vacuous

    @pytest.mark.parametrize("chart,eps", _CHARTS)
    def test_leaves_cover_every_sub_threshold_point(self, chart, eps):
        scan = kernels.scan_chart(chart, eps)
        wp, wq = _leaf_size(chart)
        assert wp <= constants.GRID_ORACLE_STEP and wq <= constants.GRID_ORACLE_STEP
        p, q, abc = _dense_grid(chart)
        low = kernels.residual_linf(*abc, eps) < constants.ORACLE_HIT_THRESHOLD
        assert low.any()
        covered = _in_leaves(scan, p[low], q[low])
        assert covered.all(), f"{np.count_nonzero(~covered)} sub-threshold points outside the leaves"

    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_leaves_and_their_mirrors_cover_the_quarter(self, eps):
        # the scan runs on q <= pi/4 only; q -> pi/2 - q (b <-> c) covers the rest
        scan = kernels.scan_chart(kernels.CHART_SPHERE, eps)
        assert kernels.chart_domain(kernels.CHART_SPHERE)[1] == math.pi / 4
        p, q, abc = _dense_grid(kernels.CHART_SPHERE, q_max=math.pi / 2)
        low = kernels.residual_linf(*abc, eps) < constants.ORACLE_HIT_THRESHOLD
        p, q = p[low], q[low]
        assert np.count_nonzero(q > 0.8) > 100  # points beyond the scanned half
        covered = _in_leaves(scan, p, q) | _in_leaves(scan, p, math.pi / 2 - q)
        assert covered.all(), f"{np.count_nonzero(~covered)} sub-threshold points outside the leaves"

    def test_split_interior_bound_is_certified_and_not_above_samples(self):
        scan = kernels.scan_chart(kernels.CHART_SPHERE, PSEUDO)
        p, q, (a, b, c) = _dense_grid(kernels.CHART_SPHERE)
        interior = (a >= constants.NONZERO_MARGIN) & (b >= constants.NONZERO_MARGIN) \
            & (c >= constants.NONZERO_MARGIN)
        sampled = kernels.residual_linf(a, b, c, PSEUDO)[interior].min()
        assert constants.NONZERO_EMPTY_BOUND < scan.interior_min <= sampled

    def test_compact_interior_bound_admits_the_flat_family(self):
        assert kernels.scan_chart(kernels.CHART_SPHERE, 1).interior_min == 0.0

    def test_nan_bound_keeps_its_box_and_poisons_the_interior_bound(self, monkeypatch):
        real = kernels.box_enclosure
        p0, q0 = 1.0, 0.05  # residual ~0.19 there, far above the hit threshold

        def poisoned(chart, eps, p_lo, p_hi, q_lo, q_hi):
            lower, *rest = real(chart, eps, p_lo, p_hi, q_lo, q_hi)
            inside = (p_lo <= p0) & (p0 <= p_hi) & (q_lo <= q0) & (q0 <= q_hi)
            return (np.where(inside, np.nan, lower), *rest)

        monkeypatch.setattr(kernels, "box_enclosure", poisoned)
        scan = kernels.scan_chart(kernels.CHART_SPHERE, 1)
        wp, wq = _leaf_size(kernels.CHART_SPHERE)
        near = (np.abs(scan.hits[:, 0] - p0) <= wp / 2) & (np.abs(scan.hits[:, 1] - q0) <= wq / 2)
        assert near.any()
        assert math.isnan(scan.interior_min)
        report = cl.classification_reports(1)[-1]
        assert report.name == "oracle_interior_occupied[riemannian]"
        assert math.isnan(report.max_abs_error) and not report.passed

    def test_a_zero_on_the_null_cone_fails_the_split_classification(self, monkeypatch):
        # (p, q) = (pi/4, 0.05) on the sphere is a null direction: a^2 = b^2 + c^2
        real = kernels.box_enclosure
        p0, q0 = math.pi / 4, 0.05
        a, b, c = kernels.chart_point(kernels.CHART_SPHERE, p0, q0)
        assert a * a - b * b - c * c == pytest.approx(0.0, abs=1e-15)

        def zero_there(chart, eps, p_lo, p_hi, q_lo, q_hi):
            lower, *rest = real(chart, eps, p_lo, p_hi, q_lo, q_hi)
            inside = (chart == kernels.CHART_SPHERE) & (p_lo <= p0) & (p0 <= p_hi) \
                & (q_lo <= q0) & (q0 <= q_hi)
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
            kernels.scan_chart(kernels.CHART_SPHERE, 0)
        assert calls == []

    @pytest.mark.parametrize("eps", [0, 0.5, 2])
    def test_enclosure_rejects_a_bad_signature(self, eps):
        with pytest.raises(ValueError):
            kernels.box_enclosure(kernels.CHART_SPHERE, eps, 0.0, 0.1, 0.0, 0.1)


class TestRefine:
    def test_converges_to_single_distribution_solution(self):
        a, b, c, res = kernels.refine_candidate(
            kernels.CHART_SPHERE, 1, p0=4e-3, q0=0.3)
        assert abs(a - 1.0) < 1e-11 and abs(b) < 1e-11 and abs(c) < 1e-11
        assert res < 1e-12

    def test_converges_to_flat_family(self):
        p0 = math.acos(1.0 / math.sqrt(3.0)) + 3e-3
        q0 = math.pi / 4 - 2e-3
        a, b, c, res = kernels.refine_candidate(
            kernels.CHART_SPHERE, 1, p0=p0, q0=q0)
        want = 1.0 / math.sqrt(3.0)
        assert max(abs(a - want), abs(b - want), abs(c - want)) < 1e-10
        assert res < 1e-12

    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_array_seeds_refine_bitwise_as_scalar_seeds(self, eps, rng):
        scan = kernels.scan_chart(kernels.CHART_SPHERE, eps)
        p_max, q_max = kernels.chart_domain(kernels.CHART_SPHERE)
        pick = rng.choice(len(scan.hits), 20, replace=False)
        p0 = np.concatenate([scan.hits[pick, 0], rng.uniform(0.0, p_max, 20), [0.0, p_max]])
        q0 = np.concatenate([scan.hits[pick, 1], rng.uniform(0.0, q_max, 20), [q_max, q_max]])
        batch = kernels.refine_candidate(kernels.CHART_SPHERE, eps, p0, q0)
        assert [x.shape for x in batch] == [p0.shape] * 4
        for k, (p, q) in enumerate(zip(p0.tolist(), q0.tolist())):
            one = kernels.refine_candidate(kernels.CHART_SPHERE, eps, p, q)
            assert all(type(x) is float for x in one)
            assert one == tuple(x[k] for x in batch)

    def test_a_scan_without_hits_gives_no_family(self, monkeypatch):
        real = kernels.scan_chart
        monkeypatch.setattr(kernels, "scan_chart", lambda chart, eps: dataclasses.replace(
            real(chart, eps), hits=np.zeros((0, 5)), hit_residuals=np.zeros(0)))
        assert cl.grid_oracle(1).families == ()
