import math
import warnings

import numpy as np
import pytest
from scipy import integrate

import projlog as pl
from oracles import (
    area_constant_quadrature,
    log_radial_levels_per_stratum,
    mean_log_kernel_closed_form,
    radial_quadrature_quadpack,
    random_measure,
    sobolev_bound_closed_form,
    sobolev_bound_mpmath,
    wallis_sin_power_integral,
)
from projlog import measures, potentials
from projlog.errors import NonConvergent, ValidationError
from projlog.geometry import _CHUNK, Stream, _sample_stream

SQRT2 = math.sqrt(2.0)


def test_area_constant_closed_form_vs_quadrature():
    for n in range(1, 7):
        assert abs(pl.area_constant(n) - n / SQRT2) < 1e-15
        assert abs(area_constant_quadrature(n) - n / SQRT2) < 1e-12


def test_area_density_endpoints_and_unit_mass():
    for n in (1, 2, 3):
        assert pl.sphere_area(n, 0.0) == 0.0
        assert abs(pl.sphere_area(n, math.pi / SQRT2)) < 1e-15
        assert abs(pl.radial_quadrature(lambda r: 1.0, n) - 1.0) < 1e-10


def test_mean_log_kernel_matches_closed_form():
    for n in range(1, 7):
        quad_val = pl.mean_log_kernel(n)
        assert abs(quad_val - (-1.0 / (2 * n))) < 1e-15
        assert abs(mean_log_kernel_closed_form(n) - (-1.0 / (2 * n))) < 1e-15


def test_substitution_identity_both_routes():
    # direct r-integral against A(r) vs 2 sqrt2 c_n int u^(2n-1) log u du
    for n in (1, 2, 3):
        direct, _ = integrate.quad(
            lambda r: math.log(math.sin(r / SQRT2)) * pl.sphere_area(n, r),
            0.0, math.pi / SQRT2, epsabs=1e-13, epsrel=1e-12, limit=400)
        closed = 2.0 * SQRT2 * pl.area_constant(n) * (-1.0 / (2 * n) ** 2)
        assert abs(direct - closed) < 1e-10


def test_sobolev_bound_examples():
    assert abs(pl.sobolev_bound(1, 1) - math.pi) < 1e-12
    assert pl.sobolev_bound(1, 2) == math.inf
    assert pl.sobolev_bound(2, 4) == math.inf
    assert pl.sobolev_bound(2, 3.999) < math.inf


def test_sobolev_bound_wallis_cross_check():
    for n in (1, 2, 3):
        expected = 2 * SQRT2 * pl.area_constant(n) * wallis_sin_power_integral(2 * n - 1)
        assert abs(pl.sobolev_bound(n, 0.0) - expected) < 1e-10


def test_sobolev_bound_beta_closed_form():
    for n in (1, 2):
        for p in (0.5, 1.0, 2.0, 2 * n - 0.25):
            if p >= 2 * n:
                continue
            assert abs(pl.sobolev_bound(n, p) - sobolev_bound_closed_form(n, p)) \
                < 1e-14 * max(1.0, sobolev_bound_closed_form(n, p))


def test_sobolev_bound_matches_mpmath_beta():
    for n in range(1, 31):
        for p in (0.0, 1.0, 0.7 * n, 2 * n - 1, 2 * n - 0.5, 2 * n - 1e-6):
            exact = sobolev_bound_mpmath(n, p)
            assert abs(pl.sobolev_bound(n, p) - exact) < 1e-14 * exact, (n, p)
    # Gamma(a) overflows from a = 171.6 on: the lgamma form takes over
    assert abs(pl.sobolev_bound(200, 3.0) - sobolev_bound_mpmath(200, 3.0)) \
        < 1e-12 * sobolev_bound_mpmath(200, 3.0)


def test_sobolev_bound_monotone_in_p():
    for n in (1, 2):
        ps = np.linspace(1.0, 2 * n - 0.05, 12)
        vals = [pl.sobolev_bound(n, p) for p in ps]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_radial_quadrature_log_singularity():
    for n in (1, 2):
        val = pl.radial_quadrature(lambda r: math.log(math.sin(r / SQRT2)), n)
        assert abs(val - (-1.0 / (2 * n))) < 1e-10


def test_radial_quadrature_mean_distance():
    val = pl.radial_quadrature(lambda r: r, 1)
    assert abs(val - math.pi / (2 * SQRT2)) < 1e-10


RADIAL_INTEGRANDS = {
    "one": lambda r: 1.0,
    "r": lambda r: r,
    "log-sin": lambda r: math.log(math.sin(r / SQRT2)),
    # |grad log sin(d / sqrt 2)| = cot(d / sqrt 2) / sqrt 2, and its power 1.5
    "cot": lambda r: 1.0 / (SQRT2 * math.tan(r / SQRT2)),
    "cot^1.5": lambda r: (1.0 / (SQRT2 * math.tan(r / SQRT2))) ** 1.5,
    "r^-1.5": lambda r: r ** -1.5,
}


@pytest.mark.parametrize("name", list(RADIAL_INTEGRANDS))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_radial_quadrature_matches_quadpack(n, name):
    f = RADIAL_INTEGRANDS[name]
    exact = radial_quadrature_quadpack(f, n)
    assert abs(pl.radial_quadrature(f, n) - exact) < 1e-13 * max(1.0, abs(exact))


@pytest.mark.parametrize("n", [1, 2])
def test_radial_quadrature_of_r_to_the_minus_p_converges_iff_p_below_2n(n):
    # A(r) ~ r^(2n-1) at 0.  A divergent r^-p used to come back as a finite
    # number (r^-2.5 at n = 1 gave -1.9431) or as a bare OverflowError (r^-4
    # at n = 2); p = 2n + 6 overflows at the nodes nearest r = 0
    for p in (1.5, 2 * n - 0.5):
        exact = radial_quadrature_quadpack(lambda r: r ** -p, n)
        assert abs(pl.radial_quadrature(lambda r: r ** -p, n) - exact) < 1e-13 * exact
    for p in (2 * n, 2 * n + 0.5, 2 * n + 6):
        with pytest.raises(NonConvergent):
            pl.radial_quadrature(lambda r: r ** -p, n)


# ---------- the refinement skeleton's draws ----------------------------------

def test_sample_stream_ranges_are_slices_of_one_draw():
    width = 7
    long = _sample_stream(3, 5 * _CHUNK + 77, width, stream=Stream.SOBOLEV_REFINEMENT)
    for start, count in [(0, 1), (_CHUNK - 1, 2), (1000, _CHUNK), (_CHUNK, _CHUNK),
                         (3000, 9000), (2 * _CHUNK + 5, 3 * _CHUNK + 72), (0, 5 * _CHUNK + 77)]:
        part = _sample_stream(3, count, width, start=start, stream=Stream.SOBOLEV_REFINEMENT)
        assert np.array_equal(part, long[start:start + count]), (start, count)


@pytest.mark.parametrize("samples", [1000, 1024, 3000, 5000])
@pytest.mark.parametrize("n", [1, 2])
def test_refinement_scans_equal_the_per_stratum_draws(n, samples, monkeypatch):
    # one draw per level hands each stratum the rows that its own draw
    # gave; at these sizes strata straddle the 4096-row block edges.  The
    # skeleton does not look at the integrand, so a Dirac keeps this quick
    mu = random_measure(n, 1, 31 + n)

    def scans():
        return [(potentials.sobolev_refinement_scan(mu, 2.0 * n - 0.5, 0, levels, 9,
                                                    samples_per_stratum=samples),
                 measures.riesz_refinement_scan(mu, 0, 1.0, 1.5, 0, 0.5, levels, 9,
                                                samples_per_stratum=samples))
                for levels in (1, 2, 3, 4)]

    got = scans()
    monkeypatch.setattr(potentials, "log_radial_levels", log_radial_levels_per_stratum)
    monkeypatch.setattr(measures, "log_radial_levels", log_radial_levels_per_stratum)
    assert got == scans()


DIRAC = pl.dirac(pl.normalize([1, 0]))
TRIPLE = random_measure(1, 3, 32)


@pytest.mark.parametrize("scan, name", [
    # the first used to warn, then raise NonConvergent; the second raised
    # numpy's bare ValueError
    (lambda: measures.riesz_lp_scan(DIRAC, 0, 1.0, 1.0, 1.0, 0, samples=0), "samples = 0"),
    (lambda: measures.riesz_lp_scan(DIRAC, 0, 1.0, 1.0, 1.0, 0, samples=-3), "samples = -3"),
    # both used to raise NonConvergent from a level of no draws
    (lambda: potentials.sobolev_refinement_scan(DIRAC, 1.0, 0, 2, 0, samples_per_stratum=0),
     "samples_per_stratum = 0"),
    (lambda: measures.riesz_refinement_scan(DIRAC, 0, 1.0, 1.5, 0, 0.5, 2, 0,
                                            samples_per_stratum=0), "samples_per_stratum = 0"),
    # used to return [-4.98, -4.98], a negative integral of a positive integrand
    (lambda: measures.riesz_refinement_scan(DIRAC, 0, 1.0, 1.5, 0, -1.0, 2, 0), "r0 = -1"),
    # these used to raise IndexError, or to pick the last atom
    (lambda: potentials.sobolev_refinement_scan(DIRAC, 1.0, 1, 2, 0), "atom_index = 1"),
    (lambda: potentials.sobolev_refinement_scan(DIRAC, 1.0, -1, 2, 0), "atom_index = -1"),
    (lambda: measures.riesz_refinement_scan(DIRAC, 0, 1.0, 1.5, 1, 0.5, 2, 0),
     "atom_index = 1"),
    # these raised numpy's bare ValueError from np.delete
    (lambda: potentials.sobolev_refinement_scan(TRIPLE, 1.0, True, 2, 0), "atom_index = True"),
    (lambda: measures.riesz_refinement_scan(TRIPLE, 0, 1.0, 1.5, True, 0.5, 2, 0),
     "atom_index = True"),
    # p = nan drew every stratum, then raised NonConvergent
    (lambda: potentials.sobolev_refinement_scan(DIRAC, math.nan, 0, 2, 0), "p = nan"),
    (lambda: potentials.sobolev_refinement_scan(DIRAC, 0.5, 0, 2, 0), "p = 0.5"),
    # these raised a bare OverflowError from the Philox key
    (lambda: potentials.sobolev_scan(DIRAC, 1.0, -1, 10), "seed = -1"),
    (lambda: measures.riesz_lp_scan(DIRAC, 0, 1.0, 1.0, 1.0, -1, samples=10), "seed = -1"),
    (lambda: potentials.sobolev_scan(DIRAC, 1.0, 2**64, 10), f"seed = {2**64}"),
    # these raised a bare TypeError
    (lambda: potentials.sobolev_scan(DIRAC, 1.0, 0, 2.5), "samples = 2.5"),
    (lambda: measures.riesz_lp_scan(DIRAC, 0, 1.0, 1.0, 1.0, 0, samples=2.5), "samples = 2.5"),
    (lambda: potentials.sobolev_refinement_scan(DIRAC, 1.0, 0, 2.5, 0), "levels = 2.5"),
    (lambda: measures.riesz_refinement_scan(DIRAC, 0, 1.0, 1.5, 0, 0.5, 2.5, 0),
     "levels = 2.5"),
    (lambda: potentials.sobolev_refinement_scan(DIRAC, 1.0, 0, 2, 0, samples_per_stratum=2.5),
     "samples_per_stratum = 2.5"),
    (lambda: measures.riesz_refinement_scan(DIRAC, 0, 1.0, 1.5, 0, 0.5, 2, 0,
                                            samples_per_stratum=2.5), "samples_per_stratum = 2.5"),
    # a bare OverflowError from the Philox key
    (lambda: potentials.sobolev_scan(DIRAC, 1.0, 0, 10, start=-5), "start = -5"),
    # these were taken: one sample with SE 0, and alpha 1
    (lambda: potentials.sobolev_scan(DIRAC, 1.0, 0, True), "samples = True"),
    (lambda: measures.riesz_lp_scan(DIRAC, 0, True, 1.0, 1.0, 0, samples=10), "alpha = True"),
    # drew every stratum, then raised NonConvergent
    (lambda: measures.riesz_refinement_scan(DIRAC, 0, 1.0, math.nan, 0, 0.5, 2, 0), "p = nan"),
], ids=["lp-no-samples", "lp-negative-samples", "sobolev-refinement-no-samples",
        "riesz-refinement-no-samples", "riesz-refinement-negative-r0",
        "sobolev-refinement-atom-index", "sobolev-refinement-negative-atom-index",
        "riesz-refinement-atom-index", "sobolev-refinement-bool-atom-index",
        "riesz-refinement-bool-atom-index", "sobolev-refinement-p-nan",
        "sobolev-refinement-p-below-1", "sobolev-negative-seed", "lp-negative-seed",
        "sobolev-seed-2-to-64", "sobolev-fractional-samples", "lp-fractional-samples",
        "sobolev-refinement-fractional-levels", "riesz-refinement-fractional-levels",
        "sobolev-refinement-fractional-samples", "riesz-refinement-fractional-samples",
        "sobolev-negative-start", "sobolev-bool-samples", "lp-bool-alpha",
        "riesz-refinement-p-nan"])
def test_scans_name_the_argument_they_reject(scan, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=name):
            scan()


P2 = random_measure(2, 2, 33)


@pytest.mark.parametrize("call, name", [
    # these raised a bare TypeError
    (lambda: pl.sample_fs_array(0, 2.5, 1), "count = 2.5"),
    (lambda: pl.sample_fs_array(0, 3, 1.5), "n = 1.5"),
    (lambda: pl.sample_fs_array(0, 3, 1, start=0.5), "start = 0.5"),
    (lambda: pl.smooth_wedge_density(P2, 0, 1.5, np.zeros((1, 2))), "m = 1.5"),
    (lambda: pl.psh_lift(DIRAC, 0, "0.3"), "eps = '0.3'"),
    # a bare ValueError from float(".")
    (lambda: pl.ball_mass_profile(TRIPLE, TRIPLE.point(0), "0.5"), r"radii\[0\] = '0'"),
    # a bare TypeError from enumerate
    (lambda: pl.ball_mass_profile(TRIPLE, TRIPLE.point(0), 0.5), "radii must be a nonempty"),
    # these were taken: an empty sample, nan, inf, 3.0, -1/3, two numbers and fields at eps 1
    (lambda: pl.sample_fs_array(0, -2, 1), "count = -2"),
    (lambda: pl.sobolev_bound(1, math.nan), "p = nan"),
    (lambda: pl.sobolev_bound(0, 1.0), "n = 0"),
    (lambda: pl.sobolev_bound(1.5, 1.0), "n = 1.5"),
    (lambda: pl.mean_log_kernel(1.5), "n = 1.5"),
    (lambda: pl.sphere_area(1.5, 0.3), "n = 1.5"),
    (lambda: pl.fs_ball_volume(1.5, 0.3), "n = 1.5"),
    (lambda: pl.psh_lift(DIRAC, 0, True), "eps = True"),
    (lambda: pl.ma_total_mass(DIRAC, 64, eps=True), "eps = True"),
], ids=["sample-fractional-count", "sample-fractional-n", "sample-fractional-start",
        "wedge-fractional-m", "lift-text-eps", "profile-text-radii", "profile-number-radii",
        "sample-negative-count",
        "bound-p-nan", "bound-n-0", "bound-fractional-n", "mean-log-kernel-fractional-n",
        "sphere-area-fractional-n", "ball-volume-fractional-n", "lift-bool-eps",
        "mass-bool-eps"])
def test_library_functions_name_the_argument_they_reject(call, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=name):
            call()
