"""Pinned outputs of the refinement scans, the Sobolev doubling scan, the
Monge-Ampere grids and the wedge-ratio kernels.

The values were recorded before these paths were merged onto shared
helpers (one log-radial refinement skeleton, one cell-sum stage, one wedge
ratio); refactors of those helpers must reproduce them.  On one machine the
paths are deterministic to the bit, so 1e-14 relative leaves room only for
a different BLAS or CPU.
"""

import numpy as np
import pytest

import projlog as pl
from projlog.geometry import geodesic_distance_batch, sample_fs_array
from projlog.kernels import projective_log_kernel_batch
from projlog.measures import riesz_refinement_scan
from projlog.potentials import sobolev_doubling, sobolev_refinement_scan

RTOL = 1e-14


def measure(n, atoms, seed):
    pts = sample_fs_array(seed, atoms, n)
    w = np.random.default_rng(seed).uniform(0.2, 1.0, atoms)
    return pl.build_measure(pts, w / w.sum())


@pytest.mark.parametrize("atoms, expected", [
    (1, [7.652127687877577, 10.098304145991575, 10.098313629282162]),
    (5, [0.16695631031371855, 0.17386382151798346, 0.1738638341568177]),
])
def test_riesz_refinement_scan_pinned(atoms, expected):
    got = riesz_refinement_scan(measure(2, atoms, 3), 0, 1.0, 3.0, atom_index=0, r0=0.5,
                                levels=3, seed=5, samples_per_stratum=256)
    np.testing.assert_allclose(got, expected, rtol=RTOL, atol=0)


@pytest.mark.parametrize("n, atoms, expected", [
    (1, 1, [0.6697251218664978, 1.3756360981509603, 1.377054279529658]),
    (1, 2, [0.8135732524814233, 0.9646508072111255, 0.9649265952837647]),
    (1, 3, [0.32400702364415523, 0.38647219773920527, 0.3865908206762209]),
    (2, 1, [0.6415453371670149, 1.3568863191535654, 1.3582863974254387]),
    (2, 2, [0.01659691944103606, 0.03236667566540839, 0.032397350887712686]),
    (2, 3, [0.005686785748017828, 0.008006139768239495, 0.00801042365996726]),
])
def test_sobolev_refinement_scan_pinned(n, atoms, expected):
    got = sobolev_refinement_scan(measure(n, atoms, 11), 2.0 * n - 0.5, 0, levels=3,
                                  seed=7, samples_per_stratum=256)
    np.testing.assert_allclose(got, expected, rtol=RTOL, atol=0)


@pytest.mark.parametrize("n, expected, excised", [
    (1, [0.8080114714153237, 0.009645338902044635, 0.8066768203118788, 0.006342302908523171],
     [0, 0]),
    (2, [0.2130316767359715, 0.007724014116909019, 0.2155890289146858, 0.0054523377593681515],
     [0, 0]),
])
def test_sobolev_doubling_pinned(n, expected, excised):
    first, doubled = sobolev_doubling(measure(n, 3, 11), 2.0 * n - 1.0, 7, 20000, workers=1)
    got = [first.estimate, first.std_error, doubled.estimate, doubled.std_error]
    np.testing.assert_allclose(got, expected, rtol=RTOL, atol=0)
    assert [first.excised, doubled.excised] == excised


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n, grid, expected", [
    (1, 256, [0.999999995346847, 0.9999999940167185, 0]),
    (2, 12, [1.0019166666158363, 1.0014095664458402, 0]),
])
def test_ma_total_mass_pinned(n, grid, expected, workers):
    rep = pl.ma_total_mass(measure(n, 3, 42), grid=grid, eps=0.3, workers=workers,
                           vol_tol=0.05)
    np.testing.assert_allclose([rep.total_mass, rep.vol_check], expected[:2],
                               rtol=RTOL, atol=0)
    assert rep.clipped_cells == expected[2]


@pytest.mark.parametrize("eps, expected", [
    (0.1, [0.11747145549082445, 0.18238131413272993, 0.21712581259695346,
           0.169781572557638, 0]),
    (0.005, [0.21895399483990866, 0.21932180119976397, 0.21943002919930604,
             0.16978158318950895, 0]),
])
def test_ball_mass_profile_pinned(eps, expected):
    mu = measure(1, 3, 71)
    rep = pl.ball_mass_profile(mu, mu.point(0), [0.6, 0.3, 0.15], h=1e-4,
                               eps_list=[eps], points_per_axis=32)[0]
    got = [m for _, m in rep.ball_profile] + [rep.vol_check]
    np.testing.assert_allclose(got, expected[:-1], rtol=RTOL, atol=0)
    assert rep.clipped_cells == expected[-1]


def test_ball_mass_profile_pinned_unsmoothed():
    # eps = 0 on P^1: the lift is harmonic off the atoms, so every cell's
    # density is rounding and thousands of cells clip; each mass is the
    # atomic part, atom 0's weight, plus the grid's part of order 1e-17
    mu = measure(1, 3, 71)
    rep = pl.ball_mass_profile(mu, mu.point(0), [0.8, 0.4], eps_list=[0.0],
                               points_per_axis=32)[0]
    expected = [0.21964531414634716, 0.2196453141463472, 0.28645873641574005, 2445]
    got = [m for _, m in rep.ball_profile] + [rep.vol_check]
    np.testing.assert_allclose(got, expected[:-1], rtol=RTOL, atol=0)
    assert rep.clipped_cells == expected[-1]


def test_wedge_ratio_kernels_pinned():
    u = sample_fs_array(13, 6, 2)
    v = sample_fs_array(14, 1, 2)[0]
    distance = [1.077606023641191, 0.21057422024830824, 0.6765527437494651,
                0.8944889760618211, 1.564558116826636, 1.647802048361566]
    kernel = [-0.3705462832529008, -1.908188547858336, -0.7757573832777568,
              -0.525664587015077, -0.11199174771058831, -0.08462561875408127]
    np.testing.assert_allclose(geodesic_distance_batch(u, v), distance, rtol=RTOL, atol=0)
    np.testing.assert_allclose(projective_log_kernel_batch(u, v), kernel, rtol=RTOL, atol=0)
