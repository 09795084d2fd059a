"""Acceptance suite: one test per quantitative criterion, each printing a
PASS/FAIL line with the measured values.  Tolerances are fixed here and in
projlog.verification; the checks compare independent computation routes
(see the verification module docstring).

Run with `pytest tests/test_acceptance.py -v -s` or `projlog verify` (every
check; `--quick` skips the slow grids, `--checks` names the checks to run).
"""

from projlog import verification as V


def _run(key: str) -> V.CheckResult:
    res = V.run_checks(names=[key])[0]
    print(res.line())
    return res


def test_criterion_01_sin_distance_identity():
    res = _run("sin-distance")
    assert res.passed, res.detail


def test_criterion_02_chart_identity():
    res = _run("chart-identity")
    assert res.passed, res.detail


def test_criterion_03_kernel_bounds():
    res = _run("kernel-bounds")
    assert res.passed, res.detail


def test_criterion_04_normalization_constant():
    res = _run("kernel-mean")
    assert res.passed, res.detail


def test_criterion_05_sobolev_threshold():
    res = _run("sobolev")
    assert res.passed, res.detail


def test_criterion_06_riesz_ranges():
    res = _run("riesz")
    assert res.passed, res.detail


def test_criterion_07_mixed_discriminant_expansion():
    res = _run("mixed-discriminant")
    assert res.passed, res.detail


def test_criterion_08_mass_conservation():
    res = _run("mass-conservation")
    assert res.passed, res.detail


def test_criterion_09_dirac_concentration():
    res = _run("dirac-concentration")
    assert res.passed, res.detail


def test_criterion_10_absolute_continuity_dichotomy():
    res = _run("dichotomy")
    assert res.passed, res.detail


def test_criterion_11_smooth_wedge_density():
    res = _run("smooth-wedge")
    assert res.passed, res.detail


def test_criterion_12_decomposition_reassembly():
    res = _run("reassembly")
    assert res.passed, res.detail
