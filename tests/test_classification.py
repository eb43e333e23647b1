"""Tests of the tangency analysis, solution families, and the paper's frame
facts: J_i J X flips amplitudes, and a frame rotation by a closed-form
angle aligns G(Y, Z) with JW."""

import dataclasses
import math

import numpy as np
import pytest

from nkflag import classification as cl
from nkflag import cli, kernels
from nkflag import nk_geometry as nk
from nkflag.lie_structure import PSEUDO, RIEMANNIAN, SIGNATURES, signature_label
from nkflag.surfaces import SURFACE_IDS, _sample_columns, default_grid, get_surface

E6 = np.eye(6)
SQ2, SQ3 = math.sqrt(2.0), math.sqrt(3.0)

#: the interior row the case analysis selects for each signature
_INTERIOR = {RIEMANNIAN: "oracle_interior_occupied", PSEUDO: "oracle_interior_empty"}


def _report(eps, check, **kwargs):
    """The ``classify`` report named ``<check>[<signature>]``."""
    name = f"{check}[{signature_label(eps)}]"
    return {r.name: r for r in cl.classification_reports(eps, **kwargs)}[name]


@pytest.fixture()
def fresh_families():
    """Keep families built under an injected fault out of the shared cache."""
    cl.solve_families.cache_clear()
    yield
    cl.solve_families.cache_clear()


def _fake_oracle(monkeypatch, eps, **changes):
    """Serve ``grid_oracle(eps)`` with some fields of its result replaced."""
    real = cl.grid_oracle(eps)
    monkeypatch.setattr(cl, "grid_oracle", lambda eps: dataclasses.replace(real, **changes))


def random_decomposition(rng, eps, normalized=False):
    """((a, b, c), (Y, Z, W), X): random amplitudes, optionally rescaled to
    unit |<X, X>|, random unit Y, Z, W in V1, V2, V3 (cos phi e_d +
    sin phi e_{d+3}), and X = aY + bZ + cW."""
    while True:
        a, b, c = rng.uniform(0.1, 1.0, 3)
        norm = a * a + eps * (b * b + c * c)
        if not normalized or abs(norm) > 0.2:
            break
    if normalized:
        a, b, c = np.array([a, b, c]) / math.sqrt(abs(norm))
    phi = rng.uniform(0.0, 2.0 * math.pi, 3)[:, None]
    y, z, w = np.cos(phi) * E6[:3] + np.sin(phi) * E6[3:]
    return (a, b, c), (y, z, w), a * y + b * z + c * w


def _j_i_j(x):
    """The three vectors J_i J X."""
    jx = nk.apply_acs("J", x)
    return [nk.apply_acs(kind, jx) for kind in ("J1", "J2", "J3")]


class TestDecomposition:
    def test_split_norm_convention(self, rng):
        _, (_, z, w), _ = random_decomposition(rng, PSEUDO)
        assert nk.metric_m(z, z, PSEUDO) == pytest.approx(-1.0, abs=1e-13)
        assert nk.metric_m(w, w, PSEUDO) == pytest.approx(-1.0, abs=1e-13)


class TestJiOnJX:
    """J_i J X only flips amplitudes: (-a, b, c), (a, b, -c) and (a, -b, c)
    against the (Y, Z, W) frame."""

    def test_single_distribution(self, rng):
        _, (y, _, _), _ = random_decomposition(rng, RIEMANNIAN)
        j1jx, j2jx, j3jx = _j_i_j(y)
        assert np.max(np.abs(j1jx + y)) < 1e-14
        assert np.max(np.abs(j2jx - y)) < 1e-14
        assert np.max(np.abs(j3jx - y)) < 1e-14

    def test_zero_amplitudes(self):
        for v in _j_i_j(np.zeros(6)):
            assert np.max(np.abs(v)) == 0.0

    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_matches_table_composition(self, eps, rng):
        for _ in range(25):
            (a, b, c), (y, z, w), x = random_decomposition(rng, eps)
            flipped = (-a * y + b * z + c * w, a * y + b * z - c * w, a * y - b * z + c * w)
            for vec, want in zip(_j_i_j(x), flipped):
                assert np.max(np.abs(vec - want)) < 1e-13

    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_norm_identities(self, eps, rng):
        # <X, X> and the three <X, J_i J X> reduce to signed amplitude sums
        for _ in range(25):
            (a, b, c), _, x = random_decomposition(rng, eps)
            a2, b2, c2 = a ** 2, b ** 2, c ** 2
            assert nk.metric_m(x, x, eps) == pytest.approx(a2 + eps * (b2 + c2), abs=1e-12)
            j1jx, j2jx, j3jx = _j_i_j(x)
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
            (a, b, c), (y, z, w), x = random_decomposition(rng, eps)
            jx = nk.apply_acs("J", x)
            direct = nk.curvature_tensorial(x, jx, jx, eps)
            cx, cy, cz, cw = cl.r_xjx_closed(a, b, c, eps)
            combo = cx * x + cy * y + cz * z + cw * w
            assert np.max(np.abs(direct - combo)) < 1e-12


class TestMinorEquations:
    def test_two_distribution_solution_compact_only(self):
        assert kernels.minor_equations(1 / SQ2, 1 / SQ2, 0.0, RIEMANNIAN) == pytest.approx((0, 0, 0), abs=1e-15)
        res = kernels.minor_equations(1 / SQ2, 1 / SQ2, 0.0, PSEUDO)
        assert abs(res[0]) > 0.1 and res[1] == 0.0 and res[2] == 0.0

    def test_single_distribution_always_solves(self):
        for eps in SIGNATURES:
            assert kernels.minor_equations(1.0, 0.0, 0.0, eps) == pytest.approx((0, 0, 0), abs=1e-15)

    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_proportional_to_direct_minors(self, eps, rng):
        # the 2x2 minors (columns 12, 13, 23) of [[c_Y, c_Z, c_W], [a, b, c]]
        # are (6, 6, -6 eps) times the residuals
        for _ in range(50):
            a, b, c = rng.uniform(-1.2, 1.2, 3)
            r1, r2, r3 = kernels.minor_equations(a, b, c, eps)
            _, cy, cz, cw = cl.r_xjx_closed(a, b, c, eps)
            assert cy * b - cz * a == pytest.approx(6.0 * r1, abs=1e-12)
            assert cy * c - cw * a == pytest.approx(6.0 * r2, abs=1e-12)
            assert cz * c - cw * b == pytest.approx(-6.0 * eps * r3, abs=1e-12)


class TestHolomorphicK:
    def test_pinned_values(self):
        assert cl.holomorphic_K(E6[0], RIEMANNIAN) == pytest.approx(4.0, abs=1e-13)
        assert cl.holomorphic_K(E6[1], PSEUDO) == pytest.approx(4.0, abs=1e-13)
        x = (E6[0] + E6[1] + E6[2]) / SQ3
        assert cl.holomorphic_K(x, RIEMANNIAN) == pytest.approx(0.0, abs=1e-13)

    def test_rotation_invariance(self, rng):
        for eps in SIGNATURES:
            for _ in range(20):
                _, _, x = random_decomposition(rng, eps, normalized=True)
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
            (a, b, c), _, x = random_decomposition(rng, eps, normalized=True)
            cx, cy, cz, cw = cl.r_xjx_closed(a, b, c, eps)
            norm = nk.metric_m(x, x, eps)
            inner = cx * norm + cy * a + eps * (cz * b + cw * c)
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

    def test_curvatures_are_exact(self):
        # read at the integer directions, so no rounding is left over
        assert [f.K for f in cl.solve_families(RIEMANNIAN)] == [4.0, 1.0, 0.0]
        assert [f.K for f in cl.solve_families(PSEUDO)] == [4.0, 4.0, 1.0]

    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_oracle_recovers_families(self, eps):
        oracle = cl.grid_oracle(eps)
        fams = cl.solve_families(eps)
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

    def test_nan_deviation_is_not_tangent(self, monkeypatch, fresh_families):
        monkeypatch.setattr(cl, "tangency_coefficient", lambda a, b, c, eps: (4.0, math.nan))
        report = _report(RIEMANNIAN, "case_analysis_tangency", oracle=False)
        assert math.isnan(report.max_abs_error) and not report.passed

    def test_canonicalization(self):
        assert cl.canonical_amplitudes(0.0, -1 / SQ2, 1 / SQ2, RIEMANNIAN) == \
            pytest.approx((1 / SQ2, 1 / SQ2, 0.0))
        assert cl.canonical_amplitudes(0.0, 0.0, -1.0, PSEUDO) == pytest.approx((0.0, 1.0, 0.0))
        # the definite amplitude never mixes with the negative pair
        assert cl.canonical_amplitudes(0.3, 0.1, 0.9, PSEUDO) == pytest.approx((0.3, 0.9, 0.1))


def _phase(y, z, w, eps=RIEMANNIAN):
    """theta with G(Y, Z) = cos(theta) W + sin(theta) JW."""
    g, jw = nk.g_tensor(y, z, eps), nk.apply_acs("J", w)
    ww = nk.metric_m(w, w, eps)
    return math.atan2(nk.metric_m(g, jw, eps) / ww, nk.metric_m(g, w, eps) / ww)


def _misalignment(y, z, w, phi, eps=RIEMANNIAN):
    """|G(Y', Z') - JW'| for the frame rotated by phi in its holomorphic planes."""
    ry, rz, rw = (math.cos(phi) * v + math.sin(phi) * nk.apply_acs("J", v) for v in (y, z, w))
    return np.max(np.abs(nk.g_tensor(ry, rz, eps) - nk.apply_acs("J", rw)))


class TestPhaseAlign:
    """G(JX, Y) = -J G(X, Y), so rotating the frame by phi moves G(Y, Z) by
    -2 phi while JW moves by phi: phi = (theta - pi/2)/3 aligns G(Y, Z)
    with JW."""

    def test_coordinate_frame_angle(self):
        # G(m1, m2) = m6 = -J m3, so the (W, JW) phase is -pi/2
        theta = _phase(E6[0], E6[1], E6[2])
        assert theta == pytest.approx(-math.pi / 2, abs=1e-13)
        assert _misalignment(E6[0], E6[1], E6[2], (theta - math.pi / 2) / 3) < 1e-12

    def test_already_aligned_frame(self):
        # with W = -m3 the tensor value m6 equals JW, so no rotation is needed
        assert _phase(E6[0], E6[1], -E6[2]) == pytest.approx(math.pi / 2, abs=1e-13)
        assert _misalignment(E6[0], E6[1], -E6[2], 0.0) == 0.0

    def test_reconstruction_from_theta(self):
        theta = _phase(E6[0], E6[1], E6[2])
        g = nk.g_tensor(E6[0], E6[1], RIEMANNIAN)
        jw = nk.apply_acs("J", E6[2])
        recon = math.cos(theta) * E6[2] + math.sin(theta) * jw
        assert np.max(np.abs(recon - g)) < 1e-13

    def test_random_frames_align(self, rng):
        for eps in SIGNATURES:
            for _ in range(10):
                _, (y, z, w), _ = random_decomposition(rng, eps)
                theta = _phase(y, z, w, eps)
                g = nk.g_tensor(y, z, eps)
                recon = math.cos(theta) * w + math.sin(theta) * nk.apply_acs("J", w)
                assert np.max(np.abs(recon - g)) < 1e-12
                assert _misalignment(y, z, w, (theta - math.pi / 2) / 3, eps) < 1e-12


class TestOracleVerdicts:
    """The oracle rows of ``classification_reports`` fail on any NaN or
    missing family the oracle hands back."""

    @pytest.fixture()
    def fake_oracle(self, monkeypatch):
        return lambda eps, **changes: _fake_oracle(monkeypatch, eps, **changes)

    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_unchanged_oracle_passes(self, fake_oracle, eps):
        fake_oracle(eps)
        reports = cl.classification_reports(eps)
        label = signature_label(eps)
        assert [r.name for r in reports] == [f"case_analysis_tangency[{label}]",
                                             f"oracle_mirror_symmetry[{label}]",
                                             f"oracle_family_match[{label}]",
                                             f"{_INTERIOR[eps]}[{label}]"]
        assert all(r.passed for r in reports)

    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_nan_interior_bound_fails(self, fake_oracle, eps):
        fake_oracle(eps, interior_min=math.nan)
        report = _report(eps, _INTERIOR[eps])
        assert math.isnan(report.max_abs_error) and not report.passed

    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_extra_nan_family_fails(self, fake_oracle, eps):
        real = cl.grid_oracle(eps)
        fake_oracle(eps, families=real.families + ((math.nan,) * 3,))
        report = _report(eps, "oracle_family_match")
        assert math.isnan(report.max_abs_error) and not report.passed

    @pytest.mark.parametrize("eps", SIGNATURES)
    def test_no_family_found_fails(self, fake_oracle, eps):
        fake_oracle(eps, families=(), residuals=())
        report = _report(eps, "oracle_family_match")
        assert report.max_abs_error == math.inf and report.samples == 0 and not report.passed

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
        assert not _report(RIEMANNIAN, "oracle_interior_occupied").passed

    def test_split_interior_bound_must_certify_emptiness(self, fake_oracle):
        fake_oracle(PSEUDO, interior_min=1e-3)
        report = _report(PSEUDO, "oracle_interior_empty")
        assert report.max_abs_error == pytest.approx(10.0) and not report.passed

    @pytest.mark.parametrize("bound, passed", [(0.0, False), (1e-2, True), (math.inf, True)])
    def test_split_interior_floor_edges(self, fake_oracle, bound, passed):
        # floor / bound <= 1: a zero bound fails, the floor itself passes, and
        # no box meeting the region at all (inf) passes
        fake_oracle(PSEUDO, interior_min=bound)
        assert _report(PSEUDO, "oracle_interior_empty").passed is passed


def _shift_one_family(monkeypatch):
    # the oracle's first family moves 1e-6, 100x the match tolerance
    families = cl.grid_oracle(PSEUDO).families
    first = (families[0][0] - 1e-6, *families[0][1:])
    _fake_oracle(monkeypatch, PSEUDO, families=(first, *families[1:]))


def _perturb_curvature_coefficient(monkeypatch):
    # one coefficient of R(X, JX)JX off by 1e-6: the Z coefficient
    closed = cl.r_xjx_closed

    def faulty(a, b, c, eps):
        cx, cy, cz, cw = closed(a, b, c, eps)
        return cx, cy, cz + 1e-6, cw

    monkeypatch.setattr(cl, "r_xjx_closed", faulty)


def _break_mirror_symmetry(monkeypatch):
    # r1 gains 1e-6 a b c^2, which no longer maps to r2 under b <-> c; it
    # vanishes on every split family (a b c = 0), and the interval bound
    # does not read minor_equations, so only the mirror row can notice
    real = kernels.minor_equations

    def faulty(a, b, c, eps):
        r1, r2, r3 = real(a, b, c, eps)
        return r1 + 1e-6 * a * b * c * c, r2, r3

    monkeypatch.setattr(kernels, "minor_equations", faulty)


#: one fault per ``classify`` report, injected into the layer the report
#: reads: check name -> (signature, fault(monkeypatch))
_FAULTS = {
    "case_analysis_tangency": (RIEMANNIAN, _perturb_curvature_coefficient),
    "oracle_mirror_symmetry": (PSEUDO, _break_mirror_symmetry),
    "oracle_family_match": (PSEUDO, _shift_one_family),
    "oracle_interior_occupied": (RIEMANNIAN, lambda mp: _fake_oracle(mp, RIEMANNIAN, interior_min=1.0)),
    "oracle_interior_empty": (PSEUDO, lambda mp: _fake_oracle(mp, PSEUDO, interior_min=1e-3)),
}


def _check_rows(printed: str) -> dict[str, str]:
    """name -> status of every row of a printed check table."""
    rows = (line.split() for line in printed.splitlines())
    return {row[0]: row[1] for row in rows if len(row) == 5 and row[1] in ("pass", "fail")}


class TestFaultTable:
    def test_every_report_has_a_fault(self, capsys):
        assert cli.main(["classify", "--signature", "both"]) == 0
        emitted = {name.split("[")[0] for name in _check_rows(capsys.readouterr().out)}
        assert set(_FAULTS) == emitted

    @pytest.mark.parametrize("check", sorted(_FAULTS))
    def test_fault_fails_its_report(self, check, capsys, monkeypatch, fresh_families):
        eps, fault = _FAULTS[check]
        label = signature_label(eps)
        name = f"{check}[{label}]"
        assert _report(eps, check).passed
        fault(monkeypatch)
        assert cli.main(["classify", "--signature", label]) == 1
        rows = _check_rows(capsys.readouterr().out)
        assert rows[name] == "fail"
        assert [n for n, status in rows.items() if status == "fail"] == [name]
