"""Tests of ``verify.run_verification``: the report list, which reports the
seed can move, and one injected fault per basis check.

Every check except the three ``expm`` contracts is a finite basis check, so
each of those is shown here to fail when one entry of the table it reads is
perturbed (a +-1e-6 change, a scaling by 1 + 1e-6, or a NaN); the rows
that read brackets fail when [b_i, b_j] gains 1e-6 b_k and [b_j, b_i]
loses it, an edit the antisymmetry row cannot see.  The
``expm`` contracts fail when every exponential is scaled by 1 + 1e-6, and
when one draw of the samples they read is NaN.  The ``--self-test`` floor
check fails when the corrupted route agrees or returns NaN.
"""

import dataclasses
import itertools
import os
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest

import nkflag
from nkflag import constants, verify
from nkflag import lie_structure as ls
from nkflag import nk_geometry as nk
from nkflag.classification import classification_reports
from nkflag.lie_structure import PSEUDO, RIEMANNIAN, SIGNATURES, signature_label
from nkflag.surfaces import SURFACE_IDS

# report names of one signature in emission order; the split form has no
# Killing-form check
_NAMES = (
    "basis_traceless", "basis_antihermitian", "gram_diagonal", "coefficient_roundtrip",
    "structure_antisymmetry", "jacobi_identity", "reductive_bracket",
    "metric_ad_invariance", "ad_preserves_distributions", "killing_form_proportionality",
    "expm_inverse_defect", "expm_group_membership", "expm_commuting_product",
    "connection_table", "connection_off_table", "connection_diagonal",
    "g_m1_m2_is_m6", "g_skew_on_basis", "g_vanishing_diagonal_random",
    "acs_square_J", "acs_square_J1", "acs_square_J2", "acs_square_J3",
    "acs_sum_relation", "acs_triple_product", "acs_commutativity",
    "acs_metric_compatibility", "g_skew_symmetry", "g_vanishing_on_diagonal",
    "g_anticommutes_with_j", "g_output_orthogonality",
    "g_compatibility_J1", "g_compatibility_J2", "g_compatibility_J3", "g_sum_identity",
    "nabla_J1_identity", "nabla_J2_identity", "nabla_J3_identity", "constant_type_identity",
    "curvature_lie_vs_tensorial", "curvature_skew_first_pair", "curvature_first_bianchi",
    "curvature_pair_symmetry", "curvature_metric_compatibility",
)

_SAMPLED = ("expm_inverse_defect", "expm_group_membership", "expm_commuting_product")

@pytest.mark.parametrize("eps", SIGNATURES)
def test_report_names_in_order(eps):
    label = signature_label(eps)
    want = [f"{n}[{label}]" for n in _NAMES
            if eps == RIEMANNIAN or n != "killing_form_proportionality"]
    reports = verify.run_verification(eps)
    assert [r.name for r in reports] == want
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("eps", SIGNATURES)
def test_only_the_expm_contracts_depend_on_the_seed(eps):
    def rows(seed):
        return {r.name.split("[")[0]: (r.max_abs_error, r.samples, r.tolerance)
                for r in verify.run_verification(eps, seed=seed)}

    first, second = rows(0), rows(1)
    assert first.keys() == second.keys()
    assert {n: v for n, v in first.items() if n not in _SAMPLED} == \
        {n: v for n, v in second.items() if n not in _SAMPLED}
    # the seed still drives the expm samples
    assert any(first[n][0] != second[n][0] for n in _SAMPLED)


@pytest.mark.parametrize("eps", SIGNATURES)
def test_one_seed_gives_one_report_and_leaves_the_global_random_state(eps):
    state = random.getstate()
    first = verify.run_verification(eps, seed=5)
    assert verify.run_verification(eps, seed=5) == first
    assert random.getstate() == state


def test_exact_tables_share_one_tolerance(summary_cache):
    # every basis row (all but the sampled expm contracts) and the surfaces'
    # Lie-triple rows read integral tables: each is judged at 0 and reads 0
    assert constants.TOL_INTEGER_IDENTITY == 0.0
    reports = [r for eps in SIGNATURES for r in verify.run_verification(eps)]
    reports += [r for sid in SURFACE_IDS for r in summary_cache(sid, 21)["reports"]
                if r.name.startswith("orbit_lie_triple[")]
    exact = [r for r in reports if r.tolerance == constants.TOL_INTEGER_IDENTITY]
    assert {r.name for r in reports} - {r.name for r in exact} == {
        f"{n}[{signature_label(eps)}]" for n in _SAMPLED for eps in SIGNATURES}
    assert len(exact) == 81 + 6
    assert [r.name for r in exact if r.max_abs_error != 0.0 or not r.passed] == []


def test_every_tolerance_constant_judges_a_row(summary_cache):
    # the rows of `verify --signature both --self-test`, `classify` and
    # `surface --id 1..6`: no TOL_* constant outlives the rows it judged
    names = {n for n in vars(constants) if n.startswith("TOL_")}
    assert names == {"TOL_EXACT", "TOL_INTEGER_IDENTITY",
                     "TOL_FRAME_AGREEMENT", "TOL_CURVATURE"}
    reports = [r for eps in SIGNATURES for r in verify.run_verification(eps, self_test=True)]
    reports += [r for eps in SIGNATURES for r in classification_reports(eps)]
    reports += [r for sid in SURFACE_IDS
                for r in summary_cache(sid, constants.DEFAULT_GRID)["reports"]]
    tolerances = {r.tolerance for r in reports}
    assert {n for n in names if getattr(constants, n) not in tolerances} == set()


def test_seeded_report_files_match_across_processes(tmp_path):
    src = pathlib.Path(nkflag.__file__).resolve().parents[1]
    paths = [tmp_path / f"report{k}.json" for k in range(2)]
    for path in paths:
        subprocess.run([sys.executable, "-m", "nkflag.cli", "verify", "--seed", "5", "--out", str(path)],
                       env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
                       check=True, timeout=120)
    assert paths[0].read_bytes() == paths[1].read_bytes()


# --- fault injection --------------------------------------------------------

def _edited(a: np.ndarray, index, *, add: float = 0.0, scale: float = 1.0) -> np.ndarray:
    out = np.array(a, copy=True)
    out[index] = out[index] * scale + add
    return out


def _patch_structure_constants(monkeypatch, **edit):
    sc = verify.structure_constants
    monkeypatch.setattr(verify, "structure_constants", lambda eps: _edited(sc(eps), **edit))


def _patch_bracket(monkeypatch, i: int, j: int, k: int):
    """[b_i, b_j] gains 1e-6 b_k and [b_j, b_i] loses it: an antisymmetric
    edit that only the rows reading the bracket itself can see."""
    _patch_structure_constants(monkeypatch, index=([i, j], [j, i], [k, k]), add=np.array([1e-6, -1e-6]))


def _patch_tables(monkeypatch, field: str, **edit):
    """Serve nk_geometry's base-point tables with one entry of ``field`` edited."""
    tables = nk._tables
    monkeypatch.setattr(nk, "_tables", lambda eps: dataclasses.replace(
        tables(eps), **{field: _edited(getattr(tables(eps), field), **edit)}))


def _fault_metric_ad_invariance(mp):
    # [h1, m1] stays in V1 but no longer matches [h1, m4]: ad(h1) is not skew
    _patch_structure_constants(mp, index=(ls.H1, ls.M1, ls.M4), scale=1.0 + 1e-6)


def _fault_ad_preserves_distributions(mp):
    # [h1, m1] gains an m2 component, leaving V1
    _patch_structure_constants(mp, index=(ls.H1, ls.M1, ls.M2), add=1e-6)


def _fault_m1_m2_bracket(mp):
    # [m1, m2] gains 1e-6 m3, antisymmetrically: the Jacobi sum and B(m1, m1), B(m2, m2) move
    _patch_bracket(mp, ls.M1, ls.M2, ls.M3)


def _fault_reductive_bracket(mp):
    # [h1, m1] gains 1e-6 h2, antisymmetrically: the bracket leaves m
    _patch_bracket(mp, ls.H1, ls.M1, ls.H2)


def _fault_coefficient_roundtrip(mp):
    dual = ls._dual
    mp.setattr(ls, "_dual", lambda eps: _edited(dual(eps), index=ls.M1, scale=1.0 + 1e-6))


def _fault_nabla_diagonal(mp):
    # nabla(m1, m1) gains an m2 component: neither nabla nor G vanishes on the diagonal
    _patch_tables(mp, "nabla", index=(0, 0, 1), add=1e-6)


def _fault_metric_family(mp):
    # the weight of m1 drifts away from that of m4 = J m1
    _patch_tables(mp, "gram_m", index=0, scale=1.0 + 1e-6)


def _fault_constant_type(mp):
    g_tensor = nk.g_tensor
    mp.setattr(nk, "g_tensor", lambda x, y, eps: (1.0 + 1e-6) * g_tensor(x, y, eps))


def _fault_structure_antisymmetry(mp):
    # [m1, m2] gains an m3 component that [m2, m1] does not lose
    _patch_structure_constants(mp, index=(ls.M1, ls.M2, ls.M3), add=1e-6)


def _fault_first_bianchi(mp):
    # R(x, y)z gains 1e-6 x1 y2 z3 m1, whose cyclic sum is 1e-6 on (m1, m2, m3)
    curvature = verify.curvature_tensorial

    def faulty(x, y, z, eps):
        bump = 1e-6 * x[..., 0] * y[..., 1] * z[..., 2]
        return curvature(x, y, z, eps) + bump[..., None] * np.eye(6)[0]

    mp.setattr(verify, "curvature_tensorial", faulty)


def _fault_skew_first_pair(mp):
    # R(x, y)z gains 1e-6 (x1 y2 + x2 y1) z3 m1, symmetric in x and y
    curvature = verify.curvature_tensorial

    def faulty(x, y, z, eps):
        bump = 1e-6 * (x[..., 0] * y[..., 1] + x[..., 1] * y[..., 0]) * z[..., 2]
        return curvature(x, y, z, eps) + bump[..., None] * np.eye(6)[0]

    mp.setattr(verify, "curvature_tensorial", faulty)


def _fault_expm_scale(mp):
    # every exponential grows by 1 + 1e-6: det and the metric drift off
    expm = verify.expm
    mp.setattr(verify, "expm", lambda a: (1.0 + 1e-6) * expm(a))


def _fault_nan_draw(mp, calls):
    # the first draw of each listed sampler call is NaN
    uniform, count = verify._uniform, itertools.count()

    def faulty(rng, lo, hi, shape):
        out = uniform(rng, lo, hi, shape)
        if next(count) in calls:
            out.flat[0] = np.nan
        return out

    mp.setattr(verify, "_uniform", faulty)


def _fault_uncorrupted_self_test(mp):
    # the corrupted basis never reaches the bracket route, so it agrees
    mp.setattr(nk, "tables_from", lambda sc, eps: nk._tables(eps))


def _fault_nan_isotropy_constant(mp):
    # [h2, m2] gains a NaN m3 component
    _patch_structure_constants(mp, index=(ls.H2, ls.M2, ls.M3), add=np.nan)


_FAULTS = {
    "metric_ad_invariance": _fault_metric_ad_invariance,
    "ad_preserves_distributions": _fault_ad_preserves_distributions,
    "killing_form_proportionality": _fault_m1_m2_bracket,
    "jacobi_identity": _fault_m1_m2_bracket,
    "reductive_bracket": _fault_reductive_bracket,
    "coefficient_roundtrip": _fault_coefficient_roundtrip,
    "connection_diagonal": _fault_nabla_diagonal,
    "g_vanishing_diagonal_random": _fault_nabla_diagonal,
    "g_vanishing_on_diagonal": _fault_nabla_diagonal,
    "acs_metric_compatibility": _fault_metric_family,
    "constant_type_identity": _fault_constant_type,
    "structure_antisymmetry": _fault_structure_antisymmetry,
    "curvature_skew_first_pair": _fault_skew_first_pair,
    "curvature_first_bianchi": _fault_first_bianchi,
    "expm_inverse_defect": _fault_expm_scale,
    "expm_group_membership": _fault_expm_scale,
    "expm_commuting_product": _fault_expm_scale,
    "self_test_corruption_detected": _fault_uncorrupted_self_test,
}

_CASES = [(name, eps) for name in _FAULTS for eps in SIGNATURES
          if eps == RIEMANNIAN or name != "killing_form_proportionality"]


def test_every_fault_names_an_emitted_report():
    emitted = {r.name.split("[")[0] for eps in SIGNATURES
               for r in verify.run_verification(eps, self_test=True)}
    assert set(_FAULTS) <= emitted


@pytest.mark.parametrize("name, eps", _CASES)
def test_injected_fault_fails_the_check(name, eps, monkeypatch):
    clean = {r.name: r for r in verify.run_verification(eps, self_test=True)}
    key = f"{name}[{signature_label(eps)}]"
    assert clean[key].passed
    _FAULTS[name](monkeypatch)
    faulty = {r.name: r for r in verify.run_verification(eps, self_test=True)}[key]
    assert not faulty.passed
    assert faulty.max_abs_error >= 1e-7, faulty


@pytest.mark.parametrize("eps", SIGNATURES)
def test_self_test_is_a_floor_check(eps):
    report = verify.run_verification(eps, self_test=True)[-1]
    assert report.name == f"self_test_corruption_detected[{signature_label(eps)}]"
    assert report.tolerance == 1.0 and report.samples == 216
    assert report.max_abs_error == constants.CONTROL_RESIDUAL_MIN / verify.corruption_self_test(eps)


@pytest.mark.parametrize("eps", SIGNATURES)
def test_nan_corrupted_route_fails_the_self_test(eps, monkeypatch):
    # a NaN in the corrupted bracket route must not read as "detected"
    # [m1, m2] of the corrupted tables gains a NaN m3 component
    tables_from = nk.tables_from
    monkeypatch.setattr(nk, "tables_from", lambda sc, eps: tables_from(
        _edited(sc, index=(ls.M1, ls.M2, ls.M3), add=np.nan), eps))
    report = verify.run_verification(eps, self_test=True)[-1]
    assert np.isnan(report.max_abs_error) and not report.passed


# sampler calls in order: the (64, 8) coefficients and (64,) target norms of
# the inverse and group samples, then the commuting pairs' (2, 32, 2) and (32, 8)
@pytest.mark.parametrize("calls, poisoned", [
    ((0,), _SAMPLED[:2]), ((1,), _SAMPLED[:2]), ((2,), _SAMPLED[2:]), ((3,), _SAMPLED[2:]),
    ((0, 1, 2, 3), _SAMPLED),
])
@pytest.mark.parametrize("eps", SIGNATURES)
def test_nan_draw_fails_the_expm_contracts_that_read_it(eps, calls, poisoned, monkeypatch):
    _fault_nan_draw(monkeypatch, calls)
    reports = {r.name.split("[")[0]: r for r in verify.run_verification(eps)}
    assert [n for n in _SAMPLED if np.isnan(reports[n].max_abs_error)] == list(poisoned)
    assert [n for n in _SAMPLED if not reports[n].passed] == list(poisoned)


@pytest.mark.parametrize("name", ("metric_ad_invariance", "ad_preserves_distributions"))
def test_nan_isotropy_constant_fails_the_torus_checks(name, monkeypatch):
    _fault_nan_isotropy_constant(monkeypatch)
    report = {r.name: r for r in verify.run_verification(PSEUDO)}[f"{name}[pseudo]"]
    assert np.isnan(report.max_abs_error) and not report.passed
