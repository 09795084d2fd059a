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
    random_measure,
    sobolev_bound_closed_form,
    wallis_sin_power_integral,
)
from projlog import measures, potentials
from projlog.errors import ValidationError
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
        assert abs(quad_val - (-1.0 / (2 * n))) < 1e-10
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
                < 1e-9 * max(1.0, sobolev_bound_closed_form(n, p))


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
    atoms = pl.AffineAtoms.from_measure(mu, 0)

    def scans():
        return [(potentials.sobolev_refinement_scan(mu, 2.0 * n - 0.5, 0, levels, 9,
                                                    samples_per_stratum=samples),
                 measures.riesz_refinement_scan(atoms, 1.0, 1.5, 0, 0.5, levels, 9,
                                                samples_per_stratum=samples))
                for levels in (1, 2, 3, 4)]

    got = scans()
    monkeypatch.setattr(potentials, "log_radial_levels", log_radial_levels_per_stratum)
    monkeypatch.setattr(measures, "log_radial_levels", log_radial_levels_per_stratum)
    assert got == scans()


DIRAC = pl.dirac(pl.normalize([1, 0]))
DIRAC_ATOMS = pl.AffineAtoms.from_measure(DIRAC, 0)


@pytest.mark.parametrize("scan, name", [
    # the first used to warn, then raise NonConvergent; the second raised
    # numpy's bare ValueError
    (lambda: measures.riesz_lp_scan(DIRAC_ATOMS, 1.0, 1.0, 1.0, 0, samples=0), "samples = 0"),
    (lambda: measures.riesz_lp_scan(DIRAC_ATOMS, 1.0, 1.0, 1.0, 0, samples=-3), "samples = -3"),
    # both used to raise NonConvergent from a level of no draws
    (lambda: potentials.sobolev_refinement_scan(DIRAC, 1.0, 0, 2, 0, samples_per_stratum=0),
     "samples_per_stratum = 0"),
    (lambda: measures.riesz_refinement_scan(DIRAC_ATOMS, 1.0, 1.5, 0, 0.5, 2, 0,
                                            samples_per_stratum=0), "samples_per_stratum = 0"),
    # used to return [-4.98, -4.98], a negative integral of a positive integrand
    (lambda: measures.riesz_refinement_scan(DIRAC_ATOMS, 1.0, 1.5, 0, -1.0, 2, 0), "r0 = -1"),
    # these used to raise IndexError, or to pick the last atom
    (lambda: potentials.sobolev_refinement_scan(DIRAC, 1.0, 1, 2, 0), "atom_index = 1"),
    (lambda: potentials.sobolev_refinement_scan(DIRAC, 1.0, -1, 2, 0), "atom_index = -1"),
    (lambda: measures.riesz_refinement_scan(DIRAC_ATOMS, 1.0, 1.5, 1, 0.5, 2, 0),
     "atom_index = 1"),
], ids=["lp-no-samples", "lp-negative-samples", "sobolev-refinement-no-samples",
        "riesz-refinement-no-samples", "riesz-refinement-negative-r0",
        "sobolev-refinement-atom-index", "sobolev-refinement-negative-atom-index",
        "riesz-refinement-atom-index"])
def test_scans_name_the_argument_they_reject(scan, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=name):
            scan()
