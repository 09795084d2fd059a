import math
import sys

import numpy as np
import pytest

import projlog as pl
from oracles import chart_gradient_norms, chart_measure, fd_gradient, holo_to_real_gradient, \
    lift_gradient, random_measure
from projlog import analytic, geometry, potentials
from projlog.errors import NonConvergent, SingularStencil, ValidationError
from projlog.geometry import _CHUNK, canonicalize_batch, chart_lift, chart_project, \
    fs_gradient_norm_sq, gaussian_rows, sample_fs_array
from projlog.kernels import projective_log_kernel_batch
from projlog.potentials import log_potential_batch


def random_points(n, count, rng):
    """count canonical points, drawn one at a time."""
    return np.stack([pl.normalize(rng.standard_normal(n + 1)
                                  + 1j * rng.standard_normal(n + 1)).coords
                     for _ in range(count)])


# ---------- projective potential ----------------------------------------------

def test_potential_single_atom_is_kernel():
    eta = pl.normalize([1, 0.5j, 0.2])
    mu = pl.dirac(eta)
    Z = random_points(2, 20, np.random.default_rng(1))
    np.testing.assert_allclose(log_potential_batch(mu, Z),
                               projective_log_kernel_batch(Z, eta.coords), rtol=0, atol=1e-15)


def test_potential_orthogonal_atoms_zero():
    mu = pl.build_measure([pl.normalize([1, 0, 0]).coords,
                           pl.normalize([0, 1, 0]).coords], [0.5, 0.5])
    assert log_potential_batch(mu, pl.normalize([0, 0, 1]).coords).tolist() == [0.0]


def test_potential_nonpositive_and_singular_at_atoms():
    mu = random_measure(2, 5, seed=2)
    pts = sample_fs_array(3, 200, 2)
    vals = log_potential_batch(mu, pts)
    assert np.all(vals <= 0.0)
    assert log_potential_batch(mu, mu.points[2]).tolist() == [-math.inf]


def test_potential_dimension_mismatch():
    mu = random_measure(2, 3, seed=4)
    with pytest.raises(ValidationError, match="points in P"):
        log_potential_batch(mu, pl.normalize([1, 0]).coords)


def test_potential_linear_in_measure():
    a = random_measure(2, 4, seed=5)
    b = random_measure(2, 3, seed=6)
    t = 0.25
    mix = pl.build_measure(np.concatenate([a.points, b.points]),
                           np.concatenate([t * a.weights, (1 - t) * b.weights]))
    Z = random_points(2, 20, np.random.default_rng(7))
    lhs = log_potential_batch(mix, Z)
    rhs = t * log_potential_batch(a, Z) + (1 - t) * log_potential_batch(b, Z)
    assert np.all(np.abs(lhs - rhs) < 1e-12)


def test_potential_decomposition_linearity():
    mu = random_measure(2, 100, seed=8)
    dec = pl.decompose(mu)
    Z = random_points(2, 20, np.random.default_rng(9))
    direct = log_potential_batch(mu, Z)
    split = sum(dec.masses[j] * log_potential_batch(comp, Z)
                for j, comp in dec.components.items())
    assert np.all(np.abs(direct - split) < 1e-12)


# ---------- affine potential -----------------------------------------------------

def test_affine_potential_of_origin_atom():
    field = pl.psh_lift(chart_measure(np.zeros((1, 2)), [1.0]), 0)
    rng = np.random.default_rng(10)
    for _ in range(20):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert abs(field(z[None])[0] - math.log(np.linalg.norm(z))) < 1e-13


def test_affine_potential_upper_bound_many():
    rng = np.random.default_rng(11)
    field = pl.psh_lift(chart_measure(rng.standard_normal((6, 2))
                                      + 1j * rng.standard_normal((6, 2)), np.full(6, 1.0 / 6)), 0)
    z = rng.standard_normal((100_000, 2)) + 1j * rng.standard_normal((100_000, 2))
    vals = field(z)
    bound = pl.fs_potential(z)
    assert np.all(vals <= bound + 1e-12)


# ---------- psh lift ---------------------------------------------------------------

def test_psh_lift_dirac_origin_is_log_abs():
    mu = pl.dirac(pl.normalize([1, 0]))
    lift = pl.psh_lift(mu, 0)
    rng = np.random.default_rng(13)
    for _ in range(20):
        z = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        assert abs(lift(z[None])[0] - math.log(abs(z[0]))) < 1e-13


def test_psh_lift_equals_potential_plus_rho():
    mu = random_measure(2, 5, seed=14)
    lift = pl.psh_lift(mu, 0)
    rng = np.random.default_rng(15)
    for _ in range(30):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        zeta = pl.normalize(chart_lift(z[None], 0)[0])
        expected = log_potential_batch(mu, zeta.coords)[0] + pl.fs_potential(z)
        assert abs(lift(z[None])[0] - expected) < 1e-12


def test_affine_regularization_monotone_decreasing_to_V():
    # phi_eps = sum_i w_i (1/2) log(Ptilde_i + eps^2 (1 + |z|^2)) falls to phi
    # as eps falls, and phi_eps - phi <= sum_i w_i eps^2 (1 + |z|^2) / (2 Ptilde_i)
    # since log(x + d) - log(x) <= d / x; Ptilde_i comes from the minor-form
    # kernel, Ptilde_i = exp(2 K(zeta, eta_i)) (1 + |z|^2)
    rng = np.random.default_rng(12)
    for n in (1, 2, 3):
        for atoms in (1, 3):
            mu = random_measure(n, atoms, seed=10 * n + atoms)
            u = rng.standard_normal((200, n)) + 1j * rng.standard_normal((200, n))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            near = chart_project(mu.points, 0)[rng.integers(0, atoms, 200)] \
                + 10.0 ** rng.uniform(-6, -1, (200, 1)) * u
            Z = np.vstack([rng.standard_normal((300, n)) + 1j * rng.standard_normal((300, n)),
                           near])
            t = 1.0 + np.sum(np.abs(Z) ** 2, axis=1)
            ptilde = t * np.exp(2.0 * np.stack([projective_log_kernel_batch(
                chart_lift(Z, 0), eta) for eta in mu.points]))
            lift = pl.psh_lift(mu, 0)(Z)
            above = np.full(Z.shape[0], np.inf)
            for eps in (1.0, 0.3, 0.1, 1e-2, 1e-3, 1e-6):
                smoothed = pl.psh_lift(mu, 0, eps)(Z)
                assert np.all((lift <= smoothed) & (smoothed <= above))
                bound = eps ** 2 * t * np.sum(mu.weights[:, None] / (2.0 * ptilde), axis=0)
                assert np.all(smoothed - lift <= bound + 1e-12)
                above = smoothed


def test_psh_lift_submean_along_lines():
    mu = random_measure(2, 3, seed=18)
    lift = pl.psh_lift(mu, 0, eps=0.1)
    rng = np.random.default_rng(19)
    thetas = np.exp(1j * np.linspace(0, 2 * math.pi, 64, endpoint=False))
    for _ in range(30):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        r = rng.uniform(0.01, 0.1)
        ring = np.mean([lift((z + r * t * v)[None])[0] for t in thetas])
        assert ring >= lift(z[None])[0] - 1e-9


# ---------- finite-difference gradient ------------------------------------------------

def test_fd_gradient_critical_point():
    g = fd_gradient(pl.fs_potential, np.zeros(2), h=1e-4)
    assert np.max(np.abs(g)) < 1e-10


def test_fd_gradient_log_abs():
    mu = pl.dirac(pl.normalize([1, 0]))
    lift = pl.psh_lift(mu, 0)
    g = fd_gradient(lift, np.array([1.0 + 0j]), h=1e-4)
    np.testing.assert_allclose(g, [1.0, 0.0], atol=1e-8)


def test_fd_gradient_matches_analytic():
    mu = random_measure(2, 4, seed=20)
    lift = pl.psh_lift(mu, 0, eps=0.15)
    rng = np.random.default_rng(21)
    for _ in range(10):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        g = fd_gradient(lift, z, h=1e-4)
        ref = holo_to_real_gradient(lift_gradient(lift, z[None])[0])
        assert np.max(np.abs(g - ref)) < 1e-6


def test_fd_gradient_singular_stencil():
    mu = pl.dirac(pl.normalize([1, 0]))
    lift = pl.psh_lift(mu, 0)
    # place the evaluation point so one stencil node hits the atom exactly
    with pytest.raises(SingularStencil):
        fd_gradient(lift, np.array([1e-4 + 0j]), h=1e-4)


def test_gradient_bound_along_geodesic():
    # for a Dirac measure the radial derivative is cot(d/sqrt2)/sqrt2
    eta = pl.normalize([1, 0, 0])
    mu = pl.dirac(eta)
    for d in (0.5, 1.0, 1.8):
        t = d / math.sqrt(2)
        zeta = pl.normalize([math.cos(t), math.sin(t), 0.0])
        k = 0 if abs(math.cos(t)) >= abs(math.sin(t)) else 1
        z = chart_project(zeta.coords, k)
        lift = pl.psh_lift(mu, k)

        def u(pts, _lift=lift):
            return _lift(pts) - pl.fs_potential(pts)

        g = fd_gradient(u, z, h=1e-5)
        fz = 0.5 * (g[:z.size] - 1j * g[z.size:])  # df/dz from the real gradient
        norm = math.sqrt(float(fs_gradient_norm_sq(z, fz)))
        exact = 1.0 / (math.tan(t) * math.sqrt(2))
        assert abs(norm - exact) < 1e-6
        assert norm <= 1.0 / math.tan(t) + 1e-6  # the absorbed-constant bound


# ---------- Sobolev scans ---------------------------------------------------------------

def test_sobolev_scan_single_atom_below_bound():
    mu = pl.dirac(pl.normalize([1, 0]))
    res = pl.sobolev_scan(mu, p=1.0, seed=23, samples=20_000)
    assert res.estimate <= res.analytic_bound
    # exact value 2 * 2^(-1/2) * c_1 * int cos^2 = pi / (2 sqrt 2)
    exact = math.pi / (2 * math.sqrt(2))
    assert abs(res.estimate - exact) < 5 * max(res.std_error, 1e-4)


def test_sobolev_scan_doubling_stable_subcritical():
    mu = pl.dirac(pl.normalize([1, 0]))
    first, doubled = pl.sobolev_doubling(mu, p=1.0, seed=29, samples=50_000)
    assert abs(doubled.estimate - first.estimate) / first.estimate < 0.05


def test_sobolev_refinement_critical_grows_tenfold():
    mu = pl.dirac(pl.normalize([1, 0]))
    ests = pl.sobolev_refinement_scan(mu, p=2.0, atom_index=0, levels=4, seed=31,
                                      samples_per_stratum=512)
    for a, b in zip(ests, ests[1:]):
        assert b >= 9.0 * a


def test_sobolev_refinement_subcritical_converges():
    mu = pl.dirac(pl.normalize([1, 0]))
    ests = pl.sobolev_refinement_scan(mu, p=1.0, atom_index=0, levels=4, seed=31,
                                      samples_per_stratum=512)
    assert abs(ests[-1] - ests[-2]) / ests[-2] < 0.05


def test_sobolev_refinement_rejects_zero_levels():
    # used to return an empty list
    mu = pl.dirac(pl.normalize([1, 0]))
    for levels in (0, -2):
        with pytest.raises(ValidationError, match=f"levels = {levels}"):
            pl.sobolev_refinement_scan(mu, p=1.0, atom_index=0, levels=levels, seed=1)


def test_sobolev_refinement_overflow_raises_nonconvergent():
    # at p = 300 the deepest decade is 280/300 of a decade, yet |grad|^p
    # overflows there; numpy's RuntimeWarning used to escape instead
    mu = pl.dirac(pl.normalize([1, 0]))
    with pytest.raises(NonConvergent, match="not finite"):
        pl.sobolev_refinement_scan(mu, p=300.0, atom_index=0, levels=2, seed=1,
                                   samples_per_stratum=256)


def test_sobolev_refinement_two_atoms():
    mu = pl.build_measure([pl.normalize([1, 0]).coords,
                           pl.normalize([1, 1]).coords], [0.5, 0.5])
    ests = pl.sobolev_refinement_scan(mu, p=2.0, atom_index=0, levels=3, seed=33,
                                      samples_per_stratum=512)
    assert ests[1] >= 8.0 * ests[0] and ests[2] >= 9.0 * ests[1]


def test_sobolev_scan_rejects_small_p():
    mu = pl.dirac(pl.normalize([1, 0]))
    with pytest.raises(ValidationError):
        pl.sobolev_scan(mu, p=0.5, seed=1, samples=100)


def test_sobolev_scans_reject_no_samples():
    # both used to raise numpy's bare ValueError from concatenating no chunks
    mu = pl.dirac(pl.normalize([1, 0]))
    for scan in (pl.sobolev_scan, pl.sobolev_doubling):
        with pytest.raises(ValidationError, match="samples = 0"):
            scan(mu, p=1.0, seed=1, samples=0)


def test_sobolev_scan_worker_independence():
    # 70,000 samples from index 1000 on span two 65,536-row chunks, so two
    # workers start a pool, and the chunk boundary falls inside a Philox block
    mu = random_measure(1, 2, seed=35)
    start = 1000
    assert (start + 65_536) % _CHUNK
    a = pl.sobolev_scan(mu, p=1.0, seed=37, samples=70_000, workers=1, start=start)
    b = pl.sobolev_scan(mu, p=1.0, seed=37, samples=70_000, workers=2, start=start)
    assert (a.estimate.hex(), a.std_error.hex()) == (b.estimate.hex(), b.std_error.hex())


def test_excision_blocked_over_atoms_matches_one_block(monkeypatch):
    # a difference block of one (row, site) pair at a time against the
    # unblocked array: the running minimum must give the same bits
    rng = np.random.default_rng(57)
    Z = rng.standard_normal((400, 2)) + 1j * rng.standard_normal((400, 2))
    sites = rng.standard_normal((90, 2)) + 1j * rng.standard_normal((90, 2))
    direct = np.min(np.linalg.norm(Z[:, None, :] - sites[None, :, :], axis=2), axis=1)
    assert potentials.nearest_site_distance(Z, sites).tobytes() == direct.tobytes()
    monkeypatch.setattr(analytic, "_BLOCK_ENTRIES", 1)
    assert potentials.nearest_site_distance(Z, sites).tobytes() == direct.tobytes()


def planes(rows):
    """The slot planes (n+1, m) of homogeneous rows (m, n+1)."""
    return np.ascontiguousarray(np.asarray(rows).T)


@pytest.mark.parametrize("atoms", [1, 3, 50])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_scan_gradient_norms_match_the_chart_oracle(n, atoms):
    # the scan's chunk worker, from the float draw in Philox-block tiles (one
    # full tile and a short one), against each row's max-modulus chart
    mu = random_measure(n, atoms, seed=90 + n)
    count = _CHUNK + 500
    norms = potentials._sobolev_chunk((mu, 93, 700), (0, count))
    ref = chart_gradient_norms(mu, gaussian_rows(93, count, n, start=700))
    np.testing.assert_allclose(norms, ref, rtol=1e-12, atol=0)


def test_sobolev_scan_takes_no_chart(monkeypatch):
    # count chart_project and max_modulus_chart calls in every projlog
    # namespace that binds them while the doubling scan runs (the near-atom
    # refinement still takes the atom's chart for the other atoms)
    mu = random_measure(2, 3, seed=95)
    calls = []
    for name in ("chart_project", "max_modulus_chart"):
        original = getattr(geometry, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        for module in [m for key, m in list(sys.modules.items())
                       if key == "projlog" or key.startswith("projlog.")]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    pl.sobolev_doubling(mu, p=1.0, seed=97, samples=5000, workers=1)
    assert calls == []
    pl.sobolev_refinement_scan(mu, p=2.0, atom_index=1, levels=1, seed=99,
                               samples_per_stratum=64)
    assert calls.count("max_modulus_chart") == 1          # the counters are live


@pytest.mark.parametrize("atoms", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gradient_norms_ignore_the_scale_and_phase_of_a_row(n, atoms):
    # the scan hands _gradient_norms raw Gaussian draws: their canonical
    # form and any nonzero complex multiple give the same norms
    mu = random_measure(n, atoms, seed=80 + n)
    raw = gaussian_rows(181, 3000, n)
    rng = np.random.default_rng(82)
    scale = rng.uniform(0.01, 100.0, 3000) * np.exp(2j * np.pi * rng.uniform(size=3000))
    ref = potentials._gradient_norms(mu, planes(raw))
    for rows in (canonicalize_batch(raw), raw * scale[:, None]):
        np.testing.assert_allclose(potentials._gradient_norms(mu, planes(rows)), ref,
                                   rtol=1e-12, atol=0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gradient_norms_near_an_atom_match_the_dirac_closed_form(n):
    # |grad U| of a Dirac is cot(d / sqrt 2) / sqrt 2 at FS distance d; the
    # closed-form gradient keeps it to 1e-9 however near the atom, so the
    # Sobolev scan keeps every draw
    eta = sample_fs_array(71, 1, n)[0]
    mu = pl.dirac(pl.normalize(eta))
    d = 10.0 ** -np.arange(1, 7)
    tangent = sample_fs_array(73, d.size, n)
    tangent -= (tangent @ np.conj(eta))[:, None] * eta[None, :]
    tangent /= np.linalg.norm(tangent, axis=1)[:, None]
    points = np.cos(d / math.sqrt(2))[:, None] * eta + np.sin(d / math.sqrt(2))[:, None] * tangent
    exact = 1.0 / (math.sqrt(2) * np.tan(d / math.sqrt(2)))
    np.testing.assert_allclose(potentials._gradient_norms(mu, planes(points)), exact,
                               rtol=1e-9, atol=0)


def test_fd_gradient_evaluates_each_stencil_point_once():
    rows = []

    def counted(pts):
        pts = np.atleast_2d(pts)
        rows.append(pts.shape[0])
        return 0.5 * np.log1p(np.sum(np.abs(pts) ** 2, axis=1))

    for n in (1, 2, 3):
        rows.clear()
        fd_gradient(counted, np.full(n, 0.3 + 0.2j), h=1e-4)
        assert sum(rows) == 4 * n


def test_fd_gradient_richardson_fallback_on_steep_field():
    # synthetic field whose stencil values span > 6 orders of magnitude
    def steep(pts):
        pts = np.atleast_2d(pts)
        return np.sum(np.abs(pts) ** 2, axis=1) ** 4

    z = np.array([1e-5 + 0j])
    g = fd_gradient(steep, z, h=1e-3)
    # d/dx (x^2)^4 = 8 x^7: negligible at 1e-5; fallback path must stay finite
    assert np.all(np.isfinite(g))
    # and at a regular point the fallback is not needed and stays accurate
    z = np.array([0.7 + 0j])
    g = fd_gradient(steep, z, h=1e-4)
    assert abs(g[0] - 8 * 0.7**7) < 1e-6


def test_gradient_pnorm_profile_in_p_for_dirac():
    # radial quadrature of (cot(r/sqrt2)/sqrt2)^p: dips between p=1 and p=2
    # for n=2, then increases on [2, 2n); frozen from the Beta closed form
    # 2 * 2^(-p/2) * B(2 - p/2, 1 + p/2)
    import math as m
    from scipy.special import beta as B
    closed = lambda p: 2.0 * 2 ** (-p / 2) * B(2 - p / 2, 1 + p / 2)
    assert abs(closed(1) - 0.5554) < 1e-3
    assert abs(closed(2) - 0.5) < 1e-12
    assert abs(closed(3) - 0.8330) < 1e-3
    vals = {}
    for p in (1.0, 2.0, 2.5, 3.0, 3.5):
        vals[p] = pl.radial_quadrature(
            lambda r: (1.0 / (m.tan(r / m.sqrt(2)) * m.sqrt(2))) ** p, 2)
        assert abs(vals[p] - closed(p)) < 1e-9
    assert vals[1.0] > vals[2.0]  # the FS-normalized profile is NOT monotone at p=1..2
    assert vals[2.0] < vals[2.5] < vals[3.0] < vals[3.5]  # monotone above p=2
