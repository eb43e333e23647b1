"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one pass/fail line; run with ``pytest -s`` (or ``-v``) to
see them.  Every tolerance is a literal pinned here, independently of
:mod:`nkflag.constants`, and not calibrated after the fact.  Each command
row a criterion restates must report that same literal as its tolerance, so
loosening a constant fails the gate too.
"""

import itertools
import math

import numpy as np
import pytest

from nkflag import classification as cl
from nkflag import kernels
from nkflag import nk_geometry as nk
from nkflag import surfaces as sf
from nkflag import verify
from nkflag.lie_structure import (
    H1, H2, PSEUDO, RIEMANNIAN, SIGNATURES, basis, from_coefficients, metric)
from nkflag.matrix_core import adjoint, commutator, expm, max_abs

E6 = np.eye(6)
SQ2, SQ3 = math.sqrt(2.0), math.sqrt(3.0)
SEED = 424242


def _line(num: int, name: str, ok: bool, detail: str):
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _check_pins(reports, pins: dict[str, float]):
    """Every row ``<check>[...]`` of ``reports`` named in ``pins`` reports
    the gate's literal as its tolerance, and each named check is emitted."""
    got = {(r.name.split("[")[0], r.tolerance) for r in reports
           if r.name.split("[")[0] in pins}
    assert got == set(pins.items()), f"reported tolerances {sorted(got)}, gate {pins}"


@pytest.fixture(scope="module")
def verify_reports():
    return [r for eps in SIGNATURES for r in verify.run_verification(eps)]


#: the ten ``surface`` rows and the gate's tolerance for each: rounding only
#: for the analytic rows, the step-size floor for the three difference rows
_SURFACE_PINS = {
    "expm_defect": 1e-12, "group_defect": 1e-12, "horizontality": 1e-12,
    "metric_closed_form_error": 1e-12, "amplitude_error": 1e-12, "ac_residual_max": 1e-12,
    "K_max_deviation": 1e-4, "tg_residual_max": 1e-4, "frame_agreement": 1e-6,
    "orbit_lie_triple": 1e-14,
}


def test_criterion_1_curvature_equivalence(verify_reports):
    _check_pins(verify_reports, {"curvature_lie_vs_tensorial": 1e-12})
    worst = max(verify.curvature_cross_check(eps) for eps in SIGNATURES)
    _line(1, "curvature routes agree on 216 basis triples, both signatures",
          worst < 1e-12, f"max error {worst:.3e} (tol 1e-12)")


def test_criterion_2_connection_table(verify_reports):
    _check_pins(verify_reports, {"connection_table": 1e-14, "connection_off_table": 1e-14})
    worst_table = worst_off = 0.0
    for eps in SIGNATURES:
        table_err, off_err = verify.connection_table(eps)
        worst_table = max(worst_table, table_err)
        worst_off = max(worst_off, off_err)
    _line(2, "connection table: 24 half-integer entries, rest vanish",
          worst_table < 1e-14 and worst_off < 1e-14,
          f"table error {worst_table:.3e}, off-table {worst_off:.3e} (tol 1e-14)")


def test_criterion_3_nearly_kahler_certification(verify_reports):
    _check_pins(verify_reports, {"g_skew_on_basis": 1e-12, "g_vanishing_diagonal_random": 1e-12,
                                 "g_m1_m2_is_m6": 1e-14})
    rng = np.random.default_rng(SEED)
    worst_skew = worst_diag = worst_pin = 0.0
    for eps in SIGNATURES:
        for i in range(6):
            for j in range(6):
                s = nk.g_tensor(E6[i], E6[j], eps) + nk.g_tensor(E6[j], E6[i], eps)
                worst_skew = max(worst_skew, float(np.max(np.abs(s))))
        x = rng.uniform(-1.0, 1.0, (1000, 6))
        worst_diag = max(worst_diag, float(np.max(np.abs(nk.g_tensor(x, x, eps)))))
        pin = np.max(np.abs(nk.g_tensor(E6[0], E6[1], eps) - E6[5]))
        worst_pin = max(worst_pin, float(pin))
    ok = worst_skew < 1e-12 and worst_diag < 1e-12 and worst_pin < 1e-14
    _line(3, "structure tensor skew, diagonal-free, pinned value",
          ok, f"skew {worst_skew:.3e}, diagonal {worst_diag:.3e}, pinned {worst_pin:.3e}")


def test_criterion_4_identity_suite():
    worst_exact = worst_alpha = 0.0
    for eps in SIGNATURES:
        reports = nk.identity_suite(eps)
        _check_pins(reports, {r.name: 1e-12 for r in reports} | {"constant_type_identity": 1e-14})
        for r in reports:
            if r.name == "constant_type_identity":
                worst_alpha = max(worst_alpha, r.max_abs_error)
            else:
                worst_exact = max(worst_exact, r.max_abs_error)
    ok = worst_exact < 1e-12 and worst_alpha < 1e-14
    _line(4, "identity suite incl. unit-constant identity",
          ok, f"identities {worst_exact:.3e} (tol 1e-12), constant-type {worst_alpha:.3e} (tol 1e-14)")


def test_criterion_5_classification():
    expected = {
        RIEMANNIAN: (((1.0, 0.0, 0.0), 4.0),
                     ((1 / SQ2, 1 / SQ2, 0.0), 1.0),
                     ((1 / SQ3, 1 / SQ3, 1 / SQ3), 0.0)),
        PSEUDO: (((1.0, 0.0, 0.0), 4.0),
                 ((0.0, 1.0, 0.0), 4.0),
                 ((0.0, 1 / SQ2, 1 / SQ2), 1.0)),
    }
    worst_amp = worst_k = 0.0
    interior_min = math.inf
    failed = []
    for eps in SIGNATURES:
        # the case analysis against the oracle: extra or missing families fail
        failed += [r.name for r in cl.classification_reports(eps) if not r.passed]
        fams = cl.solve_families(eps)
        assert len(fams) == 3
        for fam, (amps, k) in zip(fams, expected[eps]):
            worst_amp = max(worst_amp, max(abs(x - y) for x, y in zip(fam.amplitudes, amps)))
            worst_k = max(worst_k, abs(fam.K - k))
        oracle = cl.grid_oracle(eps)
        assert len(oracle.families) == 3
        if eps == PSEUDO:
            interior_min = oracle.interior_min
    ok = not failed and worst_amp < 1e-10 and worst_k < 1e-11 and interior_min > 1e-2
    _line(5, "solution families match the two classification tables",
          ok, f"amplitudes {worst_amp:.3e} (tol 1e-10), K {worst_k:.3e} (tol 1e-11), "
              f"split all-nonzero certified lower bound {interior_min:.3e}, "
              f"failing classify reports {failed or 'none'}")


@pytest.mark.parametrize("sid", sf.SURFACE_IDS)
def test_criterion_6_surfaces(sid, summary_cache):
    reports = summary_cache(sid, 41)["reports"]
    _check_pins(reports, _SURFACE_PINS)
    errs = {r.name.split("[")[0]: r.max_abs_error for r in reports}
    ok = all(errs[check] < tol for check, tol in _SURFACE_PINS.items())
    detail = ", ".join(f"{check} {errs[check]:.2e}" for check in _SURFACE_PINS)
    _line(6, f"surface {sid} full pipeline on the default grid", ok, detail)


def test_criterion_7_negative_controls():
    ctrl = sf.control_surface()
    a, b, c = ctrl.expected_amplitudes
    minor = max(abs(r) for r in kernels.minor_equations(a, b, c, RIEMANNIAN))
    tg = float(np.min(sf._sample_columns(ctrl, np.array([0.5, 0.9]),
                                         np.array([0.3, 2.0]))["tg_residual"]))
    lie = sf._lie_triple(ctrl)[-1]
    corrupted = min(verify.corruption_self_test(eps) for eps in SIGNATURES)
    ok = minor > 1e-2 and tg > 1e-2 and lie > 1e-2 and corrupted > 1e-2
    _line(7, "negative controls stay red",
          ok, f"minor residual {minor:.3e}, tg residual {tg:.3e}, "
              f"Lie-triple residual {lie:.3e}, "
              f"sign-flip curvature mismatch {corrupted:.3e} (all must exceed 1e-2)")


def test_criterion_8_property_suite():
    rng = np.random.default_rng(SEED)
    worst = {"jacobi": 0.0, "bianchi": 0.0, "pair_symmetry": 0.0, "ad_invariance": 0.0}
    for eps in SIGNATURES:
        b = basis(eps)
        for i, j, k in itertools.product(range(8), repeat=3):
            s = (commutator(b[i], commutator(b[j], b[k]))
                 + commutator(b[j], commutator(b[k], b[i]))
                 + commutator(b[k], commutator(b[i], b[j])))
            worst["jacobi"] = max(worst["jacobi"], max_abs(s))
        for _ in range(300):
            x, y, z, w = rng.uniform(-1.0, 1.0, (4, 6))
            rxyz = nk.curvature_tensorial(x, y, z, eps)
            worst["bianchi"] = max(worst["bianchi"], float(np.max(np.abs(
                rxyz + nk.curvature_tensorial(y, z, x, eps)
                + nk.curvature_tensorial(z, x, y, eps)))))
            worst["pair_symmetry"] = max(worst["pair_symmetry"], abs(
                nk.metric_m(rxyz, w, eps)
                - nk.metric_m(nk.curvature_tensorial(z, w, x, eps), y, eps)))
        for _ in range(300):
            # conjugation by an element of the isotropy torus
            s, t = rng.uniform(-3, 3, 2)
            g = expm(s * b[H1] + t * b[H2])
            xa, ya = from_coefficients(rng.uniform(-1, 1, (2, 8)), eps)
            worst["ad_invariance"] = max(worst["ad_invariance"], abs(
                metric(g @ xa @ adjoint(g), g @ ya @ adjoint(g), eps) - metric(xa, ya, eps)))
    ok = all(v < 1e-11 for v in worst.values())
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    _line(8, "randomized property suite", ok, detail + " (tol 1e-11)")
