import math
import re

import numpy as np
import pytest

import projlog as pl
from oracles import ball_reach, box_cells_by_index, chart_measure, ma_det_mpmath, \
    mixed_discriminant_lapack, nested_cells, random_measure, smoothed_dirac_ball_mass
from projlog import analytic, geometry, monge_ampere, verification
from projlog.errors import GridTooCoarse, NegativeDensity, NonConvergent, SingularStencil, \
    ValidationError
from projlog.geometry import chart_lift, chart_mask, chart_project, fs_ball_volume, \
    fs_hessian_norm, fs_volume_density, geodesic_distance_batch, row_sum, sample_fs_array
from projlog.measures import support_threshold
from projlog.monge_ampere import hessian_fd_batch


def random_hermitian(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


# ---------- FD Hessians -------------------------------------------------------

def fd_hessian(fieldfn, z, h):
    """The FD complex Hessian (n, n) at one point, which must be finite."""
    H, finite = hessian_fd_batch(fieldfn, np.asarray(z, dtype=complex)[None], h)
    assert finite[0]
    return H[0]


def test_hessian_fs_at_origin():
    H = fd_hessian(pl.fs_potential, np.zeros(2), h=1e-4)
    np.testing.assert_allclose(H, 0.5 * np.eye(2), atol=1e-7)
    assert abs(np.linalg.det(H).real - 0.25) < 1e-6


def test_hessian_quadratic_field_exact():
    def quad(pts):
        return 0.5 * np.sum(np.abs(np.atleast_2d(pts)) ** 2, axis=1)

    rng = np.random.default_rng(1)
    for _ in range(5):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        H = fd_hessian(quad, z, h=1e-3)
        np.testing.assert_allclose(H, 0.5 * np.eye(3), atol=1e-9)


def test_hessian_matches_analytic_kernel():
    mu = random_measure(2, 3, seed=2)
    chart = max(pl.decompose(mu).components)
    comp = pl.decompose(mu).components[chart]
    field = pl.psh_lift(comp, chart)
    sites = pl.chart_coordinates(comp, chart)
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = 2.0 + rng.standard_normal(2) + 1j * rng.standard_normal(2)
        if np.min(np.linalg.norm(sites - z[None, :], axis=1)) < 0.3:
            continue
        H = fd_hessian(field, z, h=1e-3)
        ref = field.complex_hessian(z[None])[0]
        assert np.max(np.abs(H - ref)) < 1e-5


def test_hessian_hermitian_and_psd_for_smoothed_lift():
    mu = random_measure(2, 4, seed=4)
    lift = pl.psh_lift(mu, 0, eps=0.2)
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        H = fd_hessian(lift, z, h=5e-4)
        assert np.max(np.abs(H - H.conj().T)) <= 1e-9 * np.linalg.norm(H)
        lam = np.linalg.eigvalsh(H)
        assert lam[0] / max(np.max(np.abs(lam)), 1e-300) >= -1e-6


def test_hessian_singular_stencil(monkeypatch):
    # verify's smooth-wedge check refuses a reference Hessian whose stencil
    # met a value that is not finite
    monkeypatch.setattr(geometry, "fs_potential", lambda Z: np.full(len(Z), -np.inf))
    with pytest.raises(SingularStencil, match="singular on the Hessian stencil"):
        verification.check_smooth_wedge_density()


def test_hessian_batch_masks_singular_rows():
    mu = pl.dirac(pl.normalize([1, 0]))
    lift = pl.psh_lift(mu, 0)
    Z = np.array([[1e-3 + 0j], [1.0 + 0j]])
    H, finite = hessian_fd_batch(lift, Z, h=1e-3)
    assert not finite[0] and finite[1]


# ---------- closed-form determinants ---------------------------------------------

def hermitian_cases(n, rng, m=20_000):
    """Named (m, n, n) Hermitian batches: random indefinite, PSD and
    rank-deficient PSD matrices, smoothed field Hessians and, at n >= 2,
    single-kernel Hessians (rank n-1).  At n = 1 the single kernel is
    harmonic: its Hessians are rounding residue near 1e-17, where LAPACK's
    exp(logdet) is itself off by up to 17 ulp, so it is left out."""
    a = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    Z = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    cases = {"indefinite": 0.5 * (a + np.conj(np.swapaxes(a, 1, 2))),
             "psd": a @ np.conj(np.swapaxes(a, 1, 2))}
    if n > 1:
        b = a[:, :, :n - 1]
        cases["rank-deficient"] = b @ np.conj(np.swapaxes(b, 1, 2))
        dirac = pl.dirac(pl.normalize([1] + [0] * n))
        cases["kernel"] = pl.psh_lift(dirac, 0, 0.0).complex_hessian(Z + 0.1)
    cases["field"] = pl.psh_lift(random_measure(n, 3, seed=n), 0, 0.3).complex_hessian(Z)
    return cases


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hermitian_det_within_rounding_of_lapack(n):
    # |closed form - LAPACK| <= 8 ulp of ||H||_F^n, and the signs agree
    # wherever |det| clears that bound
    for name, H in hermitian_cases(n, np.random.default_rng(60 + n)).items():
        got = monge_ampere.hermitian_det(H)
        ref = np.linalg.det(H).real
        bound = 8 * 2.0**-52 * np.linalg.norm(H, axis=(1, 2)) ** n
        assert np.all(np.abs(got - ref) <= bound), (n, name)
        sure = np.abs(ref) > bound
        assert np.array_equal(np.sign(got[sure]), np.sign(ref[sure])), (n, name)
        if n == 1:
            assert np.array_equal(got, H[:, 0, 0].real), name
        if n == 4:
            assert np.array_equal(got, ref), name


@pytest.mark.parametrize("n", [2, 3])
def test_hermitian_det_reads_only_the_upper_triangle(n):
    # the lower triangle and the imaginary part of the diagonal are never read
    H = hermitian_cases(n, np.random.default_rng(70 + n), m=100)["indefinite"]
    junk = H + np.tril(np.full((n, n), 5.0 - 3.0j), -1) + 2.0j * np.eye(n)
    assert np.array_equal(monge_ampere.hermitian_det(junk), monge_ampere.hermitian_det(H))


def test_ma_paths_take_no_lapack_determinant(monkeypatch):
    def lapack_det(_):
        raise AssertionError("np.linalg.det called on a Monge-Ampere path")

    monkeypatch.setattr(np.linalg, "det", lapack_det)
    for n, grid in ((1, 16), (2, 4)):
        pl.ma_total_mass(random_measure(n, 2, seed=80 + n), grid=grid, eps=0.3, vol_tol=1.0)
    mu = random_measure(1, 2, seed=83)
    pl.ball_mass_profile(mu, mu.point(0), [0.5], eps_list=[0.3], points_per_axis=8)
    rng = np.random.default_rng(84)
    for n in (1, 2, 3):
        Z = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
        pl.ma_density(random_measure(n, 2, seed=85 + n), 0, Z, eps=0.3)
        pl.mixed_discriminant(mixed_cases(n, rng, m=5)["indefinite"])
        pl.ma_product_expansion_check(random_affine_atoms(n, 3, rng), 0, 3.0 * Z)
        for m in range(n + 1):
            pl.smooth_wedge_density(random_affine_atoms(n, 2, rng), 0, m, 3.0 * Z)


# ---------- mixed discriminant ---------------------------------------------------

def random_affine_atoms(n, N, rng):
    """N atoms at standard normal chart-0 coordinates, seeded random weights."""
    w = rng.uniform(0.2, 1.0, N)
    return chart_measure(rng.standard_normal((N, n)) + 1j * rng.standard_normal((N, n)),
                         w / w.sum())


def mixed_cases(n, rng, m=1000):
    """Named (m, n, n, n) stacks of n Hermitian matrices: the hermitian_cases
    families, and at n >= 2 the expansion check's own kernel Hessians at
    random multisets of 5 atoms (at n = 1 these are harmonic rounding
    residue, left out as in hermitian_cases)."""
    cases = {name: H.reshape(m, n, n, n)
             for name, H in hermitian_cases(n, rng, m * n).items() if name != "kernel"}
    if n > 1:
        Z = 3.0 * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
        eta = random_affine_atoms(n, 5, rng).points
        H = np.stack([analytic.field_hessian_batch(Z, e, 1.0, 0) for e in eta], axis=1)
        multisets = np.sort(rng.integers(0, 5, (m, n)), axis=1)
        cases["kernel"] = H[np.arange(m)[:, None], multisets]
    return cases


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mixed_discriminant_within_rounding_of_lapack(n):
    # |batched - LAPACK oracle| <= 8 ulp of (sum_i ||A_i||_F)^n, and the signs
    # agree wherever |D| clears that bound
    for name, A in mixed_cases(n, np.random.default_rng(100 + n)).items():
        got = pl.mixed_discriminant(A)
        ref = np.array([mixed_discriminant_lapack(list(mats)) for mats in A])
        bound = 8 * 2.0**-52 * np.sum(np.linalg.norm(A, axis=(2, 3)), axis=1) ** n
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= bound), (n, name)
        sure = np.abs(ref) > bound
        assert np.array_equal(np.sign(got[sure]), np.sign(ref[sure])), (n, name)
        if n == 1:
            assert np.array_equal(got, A[:, 0, 0, 0].real), name
        if n == 4:
            assert np.array_equal(got, ref), name


def test_mixed_discriminant_rejects_a_stack_of_the_wrong_count():
    with pytest.raises(ValidationError, match="need 3 matrices"):
        pl.mixed_discriminant(np.zeros((5, 2, 3, 3)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_zero_rows_give_empty_arrays(n):
    # each used to read n from the first matrix and raise IndexError
    assert pl.mixed_discriminant(np.zeros((0, n, n, n))).shape == (0,)
    nu = random_affine_atoms(n, 2, np.random.default_rng(n))
    Z = np.empty((0, n), dtype=complex)
    for m in range(n + 1):
        assert pl.smooth_wedge_density(nu, 0, m, Z).shape == (0,)
    chk = pl.ma_product_expansion_check(nu, 0, Z)
    for name in ("lhs", "rhs", "scale", "residual", "relative"):
        assert getattr(chk, name).shape == (0,), name


def test_mixed_discriminant_identity_matrices():
    assert abs(pl.mixed_discriminant([np.eye(2), np.eye(2)]) - 1.0) < 1e-14


def test_mixed_discriminant_hand_example():
    A, B = np.diag([1.0, 2.0]), np.diag([3.0, 4.0])
    assert abs(pl.mixed_discriminant([A, B]) - 5.0) < 1e-12


def test_mixed_discriminant_diagonal_is_det():
    rng = np.random.default_rng(6)
    for n in (2, 3):
        A = random_hermitian(n, rng)
        D = pl.mixed_discriminant([A] * n)
        assert abs(D - np.linalg.det(A).real) < 1e-10 * max(1, abs(np.linalg.det(A)))


def test_mixed_discriminant_symmetric_multilinear():
    rng = np.random.default_rng(7)
    A, B, C = (random_hermitian(3, rng) for _ in range(3))
    d1 = pl.mixed_discriminant([A, B, C])
    d2 = pl.mixed_discriminant([C, A, B])
    assert abs(d1 - d2) < 1e-10
    lam = 0.7
    lhs = pl.mixed_discriminant([lam * A + (1 - lam) * B, B, C])
    rhs = lam * pl.mixed_discriminant([A, B, C]) + (1 - lam) * pl.mixed_discriminant([B, B, C])
    assert abs(lhs - rhs) < 1e-10


def test_mixed_discriminant_psd_nonnegative():
    rng = np.random.default_rng(8)
    for _ in range(20):
        mats = []
        for _ in range(3):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            mats.append(a @ a.conj().T)
        assert pl.mixed_discriminant(mats) >= -1e-10


def test_mixed_discriminant_polarization_identity():
    # det(sum t_i A_i) as a polynomial in t matches the multinomial expansion
    rng = np.random.default_rng(9)
    for n in (2, 3):
        mats = [random_hermitian(n, rng) for _ in range(n)]
        from itertools import combinations_with_replacement
        for _ in range(10):
            t = rng.uniform(0.2, 1.5, n)
            lhs = np.linalg.det(sum(ti * A for ti, A in zip(t, mats))).real
            rhs = 0.0
            for ms in combinations_with_replacement(range(n), n):
                mult: dict[int, int] = {}
                for i in ms:
                    mult[i] = mult.get(i, 0) + 1
                coeff = math.factorial(n)
                for c in mult.values():
                    coeff //= math.factorial(c)
                rhs += coeff * float(np.prod([t[i] for i in ms])) \
                    * pl.mixed_discriminant([mats[i] for i in ms])
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_mixed_discriminant_dimension_mismatch():
    with pytest.raises(ValidationError, match="need 2 matrices"):
        pl.mixed_discriminant([np.eye(2), np.eye(3)])


# ---------- product-formula expansion check ------------------------------------------

def test_expansion_single_atom_exact_zero():
    nu = chart_measure([[0.3 + 0.1j, -0.2]], [1.0])
    chk = pl.ma_product_expansion_check(nu, 0, np.array([[1.0, 1.0]], dtype=complex))
    assert chk.residual[0] < 1e-14 * chk.scale[0]


def test_expansion_random_configs():
    rng = np.random.default_rng(10)
    for n in (2, 3):
        for _ in range(10):
            N = rng.integers(2, 5)
            w = rng.uniform(0.2, 1.0, N)
            sites = rng.standard_normal((N, n)) + 1j * rng.standard_normal((N, n))
            nu = chart_measure(sites, w / w.sum())
            z = 3.0 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            if np.min(np.linalg.norm(sites - z[None, :], axis=1)) < 0.5:
                continue
            assert pl.ma_product_expansion_check(nu, 0, z[None]).relative[0] < 1e-9


def test_expansion_term_cap():
    rng = np.random.default_rng(11)
    N, n = 30, 5
    nu = chart_measure(rng.standard_normal((N, n)) + 1j * rng.standard_normal((N, n)),
                       np.full(N, 1.0 / N))
    with pytest.raises(ValidationError, match="term cap"):
        pl.ma_product_expansion_check(nu, 0, 5.0 * np.ones((1, n), dtype=complex))


def test_expansion_rows_do_not_depend_on_each_other():
    # row i of a batched check equals the one-row check bit for bit; the
    # multisets take more than one atom block even for one row, and the
    # block boundaries move with the row count
    rng = np.random.default_rng(12)
    n, N = 2, 730
    nu = random_affine_atoms(n, N, rng)
    Z = 5.0 * (rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n)))
    assert len(analytic.atom_blocks(math.comb(N + n - 1, n), 1, n ** 3)) > 1
    batch = pl.ma_product_expansion_check(nu, 0, Z)
    assert np.all(batch.relative < 1e-9)
    for i in range(3):
        one = pl.ma_product_expansion_check(nu, 0, Z[i:i + 1])
        for name in ("lhs", "rhs", "scale", "residual"):
            assert np.array_equal(getattr(one, name), getattr(batch, name)[i:i + 1]), (i, name)


# ---------- smooth wedge density ---------------------------------------------------

def brute_force_wedge_term(H_V, H_psi, m, n):
    """Independent polarization: coefficient of s^m t^(n-m) in det(sH_V + tH_psi),
    extracted by polynomial interpolation on a grid of (s, t) values."""
    ss = np.linspace(0.5, 1.5, n + 1)
    vals = [np.linalg.det(s * H_V + H_psi).real for s in ss]
    coeffs = np.polyfit(ss, vals, n)[::-1]  # coeff of s^m is the m-th entry
    return coeffs[m]


def test_smooth_wedge_endpoints():
    rng = np.random.default_rng(13)
    n = 2
    nu = chart_measure(rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n)),
                       [0.5, 0.25, 0.25])
    Z = np.array([[1.2 + 0.1j, -0.7 + 0.4j]])
    d0 = pl.smooth_wedge_density(nu, 0, 0, Z)[0]
    dn = pl.smooth_wedge_density(nu, 0, n, Z)[0]
    H_rho = pl.fs_hessian(Z[0])
    H_V = pl.psh_lift(nu, 0).complex_hessian(Z)[0]
    assert abs(d0 - np.linalg.det(H_rho).real) < 1e-12
    assert abs(dn - np.linalg.det(H_V).real) < 1e-12


def test_smooth_wedge_matches_brute_force_polarization():
    rng = np.random.default_rng(14)
    n = 2
    for _ in range(20):
        sites = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        nu = chart_measure(sites, [0.6, 0.4])
        z = 2.0 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        if np.min(np.linalg.norm(sites - z[None, :], axis=1)) < 0.4:
            continue
        H_V = pl.psh_lift(nu, 0).complex_hessian(z[None])[0]
        H_rho = pl.fs_hessian(z)
        for m in (0, 1, 2):
            val = pl.smooth_wedge_density(nu, 0, m, z[None])[0]
            ref = brute_force_wedge_term(H_V, H_rho, m, n)
            assert abs(val - ref) < 1e-5 * max(1.0, abs(ref))


# ---------- MA density ----------------------------------------------------------------

def test_ma_density_fs_symmetric_is_one():
    # the density divides by fs_volume_density, the closed form of
    # det fs_hessian that the grids also weight cells by: the two forms of
    # det H_rho agree, so with phi = rho the density is identically 1
    rng = np.random.default_rng(15)
    for n in (1, 2, 3):
        Z = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
        det = np.linalg.det(pl.fs_hessian(Z))
        vol = fs_volume_density(Z)
        assert np.max(np.abs(det - vol) / vol) < 1e-13


def test_ma_density_unsmoothed_log_abs_vanishes():
    # for n = 1 the unsmoothed lift of a Dirac is log|z|, maximal off the atom
    mu = pl.dirac(pl.normalize([1, 0]))
    rng = np.random.default_rng(16)
    Z = np.stack([rng.standard_normal(1) + 1j * rng.standard_normal(1) for _ in range(10)])
    val = pl.ma_density(mu, 0, Z[np.abs(Z[:, 0]) >= 0.3], eps=0.0)
    assert val.size and np.all((0.0 <= val) & (val < 1e-6))


def test_ma_density_near_atom_guard():
    # at eps = 0 only a row at an atom itself, where T is exactly 0, has no
    # finite density at n >= 2; the error names that row
    mu = pl.dirac(pl.normalize([1, 0, 0]))
    assert analytic.quad_form_batch(np.zeros((1, 2)), mu.points, 0, 0.0, 0.0)[0][0, 0] == 0.0
    with pytest.raises(SingularStencil, match=r"\(row 1\)"):
        pl.ma_density(mu, 0, np.array([[0.5, 0.1j], [0, 0], [1e-7, 0]], dtype=complex))
    # a row at chart distance 1e-7 has a finite density, which is large with
    # a second atom; at n = 1 a row at an atom gets the other atoms' density
    near = np.array([[1e-7, 0j]])
    assert pl.ma_density(mu, 0, near).tolist() == [0.0]
    two = chart_measure([[0.0, 0.0], [0.5, -0.3j]], [0.6, 0.4])
    assert 1e6 < pl.ma_density(two, 0, near)[0] < np.inf
    pair = chart_measure([[0.0], [0.5]], [0.6, 0.4])
    assert 0.0 <= pl.ma_density(pair, 0, np.zeros((1, 1)))[0] < 1e-6


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ma_density_matches_mpmath_near_an_atom(n):
    # det H_phi = ma_density * det H_rho against a 60-digit determinant, at
    # chart distance d from atom 0 along a fixed direction: the Schur form
    # about the nearest atom keeps its digits where the direct determinant
    # of sum_i w_i H_i is off by 1e5 relative at d = 1e-7
    mu = pl.build_measure(sample_fs_array(5, 2, n), [0.6, 0.4])
    rng = np.random.default_rng(n)
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for d in (1e-1, 1e-3, 1e-5, 1e-7):
        z = chart_project(mu.points[0], 0) + d * u / np.linalg.norm(u)
        det = pl.ma_density(mu, 0, z[None])[0] * fs_volume_density(z[None])[0]
        ref = ma_det_mpmath(mu, 0, z)
        assert abs(det - ref) <= max(1e-12, 3e-15 / d) * abs(ref), (n, d)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("last_chart", [False, True])
def test_ma_density_matches_mpmath_near_an_atom_at_infinity(n, last_chart):
    # rows far out in the chart, nearest to an atom on its hyperplane at
    # infinity (eta_chart = 0), where A's null vector is conj(eta_pos); the
    # relative error grows like |z|^2 ulps
    chart = n if last_chart else 0
    pts = sample_fs_array(7, 3, n)
    pts[0, chart] = 0.0
    mu = pl.build_measure(pts, [0.5, 0.3, 0.2])
    away = np.delete(mu.points[0], chart)
    rng = np.random.default_rng(10 + n)
    for size in (1e2, 1e4):
        for _ in range(3):
            z = size * away / np.linalg.norm(away) + rng.standard_normal(n) \
                + 1j * rng.standard_normal(n)
            lifted = chart_lift(z[None], chart)
            assert np.argmin(geodesic_distance_batch(mu.points, lifted[0])) == 0
            det = pl.ma_density(mu, chart, z[None])[0] * fs_volume_density(z[None])[0]
            ref = ma_det_mpmath(mu, chart, z)
            assert abs(det - ref) <= 4e-15 * size ** 2 * abs(ref), (n, chart, size)


def test_ma_density_negative_rows(monkeypatch):
    # a smoothed lift's det H_phi is not negative beyond rounding, so the
    # determinants are replaced: each row's density is the given value; a
    # row below -1e-6 * scale raises, naming that row, and a row just below
    # 0 is rounding, clipped to 0
    mu = random_measure(2, 3, seed=86)
    Z = np.array([[0.3 + 0.1j, -0.2j], [1.0, 0.5], [-0.4j, 0.2]])
    H = pl.psh_lift(mu, 0, 0.3).complex_hessian(Z)
    scale = np.maximum(1.0, (np.linalg.norm(H, axis=(1, 2)) / fs_hessian_norm(Z)) ** 2)

    def densities(*values):
        monkeypatch.setattr(monge_ampere, "hermitian_det",
                            lambda _: np.array(values) * fs_volume_density(Z))
        return pl.ma_density(mu, 0, Z, eps=0.3)

    assert scale[1] > 2.0      # so that -0.5e-6 * scale is below -1e-6
    with pytest.raises(NegativeDensity, match=r"\(row 1\)"):
        densities(1.0, -2e-6 * scale[1], -1e-12)
    got = densities(1.0, -0.5e-6 * scale[1], -1e-12)
    assert got[0] == pytest.approx(1.0) and got[1:].tolist() == [0.0, 0.0]


def inject_det(monkeypatch, row, value):
    """Set det H_phi of one row of the first tile of a smoothed lift to value."""
    first = []

    def det(H):
        out = hermitian_det(H)
        if not first:
            first.append(True)
            out[row] = value
        return out

    hermitian_det = monge_ampere.hermitian_det
    monkeypatch.setattr(monge_ampere, "hermitian_det", det)


GRIDS = {
    "total-mass": lambda mu: pl.ma_total_mass(mu, grid=8, eps=0.3, vol_tol=1.0),
    "ball-profile": lambda mu: pl.ball_mass_profile(mu, mu.point(0), [0.5], eps_list=[0.3],
                                                    points_per_axis=8)[0],
}


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
def test_grids_hold_determinants_to_the_density_guard(grid, monkeypatch):
    # both grids take det H_phi under ma_density's guard: a rounding-size
    # negative row is clipped to 0 and counted, and a row below
    # -1e-6 * scale raises NegativeDensity naming it (the grids used to clip
    # every negative row)
    mu = random_measure(2, 3, seed=87)
    clipped = grid(mu).clipped_cells
    with monkeypatch.context() as mp:
        inject_det(mp, 5, -1e-300)
        assert grid(mu).clipped_cells == clipped + 1
    inject_det(monkeypatch, 5, -1.0)
    with pytest.raises(NegativeDensity, match=r"below -1e-6 \* .* \(row 5\)"):
        grid(mu)


def test_ma_density_smoothed_dirac_matches_closed_form():
    # the smoothed lift of the Dirac mass at [1:0:..:0] is
    # (1/2) log((1+e^2) t + e^2) with t = |z|^2; its density relative to FS
    # volume is (1+e^2)^n e^2 (1+t)^(n+1) / ((1+e^2) t + e^2)^(n+1)
    rng = np.random.default_rng(17)
    for n in (1, 2, 3):
        mu = pl.dirac(pl.normalize([1] + [0] * n))
        Z = rng.standard_normal((10, n)) + 1j * rng.standard_normal((10, n))
        t = np.sum(np.abs(Z) ** 2, axis=1)
        for eps in (0.05, 0.3, 3.0):
            e2 = eps**2
            expected = (1 + e2) ** n * e2 * (1 + t) ** (n + 1) / ((1 + e2) * t + e2) ** (n + 1)
            val = pl.ma_density(mu, 0, Z, eps=eps)
            assert np.max(np.abs(val - expected) / expected) < 1e-10, (n, eps)


@pytest.mark.parametrize("eps", [0.0, 0.05])
def test_ma_density_does_not_depend_on_the_request_size(eps):
    # the densities go through the grids' tiles, whose bits do not depend on
    # the number of rows: the first 1000 rows of a 20000-row call are the
    # 1000-row call, bit for bit
    mu = random_measure(2, 64, seed=88)
    rng = np.random.default_rng(89)
    Z = 2.0 * (rng.standard_normal((20000, 2)) + 1j * rng.standard_normal((20000, 2)))
    many = pl.ma_density(mu, 0, Z, eps=eps)
    assert many[:1000].tobytes() == pl.ma_density(mu, 0, Z[:1000], eps=eps).tobytes()


@pytest.mark.parametrize("Z", [np.zeros(2), np.zeros((4, 3)), np.zeros((4, 1))],
                         ids=["one-dimensional", "too-wide", "too-narrow"])
def test_chart_rows_must_be_m_by_n(Z):
    # these used to raise a bare IndexError or ValueError
    mu = random_measure(2, 3, seed=90)
    for call in (lambda: pl.ma_density(mu, 0, Z), lambda: pl.ma_product_expansion_check(mu, 0, Z),
                 lambda: pl.smooth_wedge_density(mu, 0, 1, Z)):
        with pytest.raises(ValidationError, match=r"shape \(m, 2\)"):
            call()


@pytest.mark.parametrize("n, eps", [(1, 0.3), (2, 0.3), (2, 0.05), (2, 0.0)])
def test_ma_density_batch_matches_one_row_calls(n, eps):
    # one call over m rows gives the densities of m one-row calls
    mu = random_measure(n, 20, seed=40 + n)
    pts = sample_fs_array(41, 300, n)
    for chart in (0, 1):
        Z = chart_project(pts[chart_mask(pts, chart)], chart)
        batch = pl.ma_density(mu, chart, Z, eps=eps)
        rows = np.array([pl.ma_density(mu, chart, z[None], eps=eps)[0] for z in Z])
        assert batch.shape == (Z.shape[0],)
        assert np.all(np.abs(batch - rows) <= 1e-12 * np.maximum(1.0, np.abs(rows)))


# ---------- total mass -----------------------------------------------------------------

def test_total_mass_requires_positive_eps():
    mu = pl.dirac(pl.normalize([1, 0]))
    with pytest.raises(ValidationError, match="eps > 0"):
        pl.ma_total_mass(mu, grid=32, eps=0.0)


def test_total_mass_requires_a_grid_point():
    # grid 0 (the CLI default of --grid) has no cells to integrate
    with pytest.raises(ValidationError):
        pl.ma_total_mass(pl.dirac(pl.normalize([1, 0])), grid=0)


@pytest.mark.parametrize("grid, vol_tol", [(2.5, 0.01), (True, 0.01), (np.float64(8.0), 0.01),
                                           (8, math.nan), (8, -1.0), (8, 0.0), (8, math.inf)])
def test_total_mass_validates_grid_and_volume_tolerance(grid, vol_tol):
    # grid is an integer >= 1 (True is no grid), vol_tol finite and positive:
    # a NaN tolerance switched the self-check off, a negative one failed it
    with pytest.raises(ValidationError, match=re.escape(f"grid = {grid!r}" if vol_tol == 0.01
                                                       else f"vol_tol = {vol_tol!r}")):
        pl.ma_total_mass(pl.dirac(pl.normalize([1, 0])), grid=grid, vol_tol=vol_tol)


@pytest.mark.parametrize("n, grid", [(1, 256), (2, 18), (3, 6)])
def test_total_mass_reports_its_ball_and_live_cells(n, grid):
    # cells: the midpoints with |z|^2 <= 2n+1; live cells: those of them
    # where chart 0's partition of unity is positive.  At grid 18 many
    # midpoints lie on the sphere |z|^2 = 5, so both counts take the
    # grid's own arithmetic, np.abs(z) ** 2 summed over the coordinates
    L = math.sqrt(2 * n + 1)
    step = 2 * L / grid
    ticks = -L + (np.arange(grid) + 0.5) * step
    axes = [x.ravel() for x in np.meshgrid(*[ticks] * (2 * n), indexing="ij")]
    Z = np.column_stack(axes[:n]) + 1j * np.column_stack(axes[n:])
    ball = Z[np.sum(np.abs(Z) ** 2, axis=1) <= 2 * n + 1]
    live = np.count_nonzero(pl.partition_of_unity(chart_lift(ball, 0))[:, 0] > 0.0)
    rep = pl.ma_total_mass(random_measure(n, 2, seed=24), grid=grid, eps=0.3, vol_tol=1.0)
    assert (rep.grid["cells"], rep.grid["live_cells"]) == (len(ball), live)
    assert (n, grid) != (1, 256) or rep.grid["cells"] == 51468


def test_total_mass_n1_single_and_multi_atom():
    mu = pl.dirac(pl.normalize([1, 0]))
    rep = pl.ma_total_mass(mu, grid=128, h=1e-4, eps=0.3)
    assert abs(rep.total_mass - 1.0) < 0.01
    mu4 = random_measure(1, 4, seed=18)
    rep4 = pl.ma_total_mass(mu4, grid=128, h=1e-4, eps=0.3)
    assert abs(rep4.total_mass - 1.0) < 0.01


def test_total_mass_grid_too_coarse():
    mu = pl.dirac(pl.normalize([1, 0]))
    with pytest.raises(GridTooCoarse):
        pl.ma_total_mass(mu, grid=6, h=1e-3, eps=0.3, vol_tol=0.001)


def test_total_mass_worker_independence():
    mu = random_measure(1, 2, seed=19)
    a = pl.ma_total_mass(mu, grid=64, h=1e-4, eps=0.3, workers=1, vol_tol=0.05)
    b = pl.ma_total_mass(mu, grid=64, h=1e-4, eps=0.3, workers=2, vol_tol=0.05)
    assert a.total_mass == b.total_mass
    # at n = 3, over three chunks, the whole report; charts 2 and 3 are where
    # the shared weight row is not the chart's own to the bit
    mu = random_measure(3, 3, seed=25)
    a, b = (repr(pl.ma_total_mass(mu, grid=6, eps=0.3, workers=w, vol_tol=1.0)) for w in (1, 2))
    assert a == b


def test_grids_ignore_h():
    # ma_total_mass and ball_mass_profile keep h only because the
    # benchmark's workloads pass it: it changes no bit of their reports
    mu2, mu1 = random_measure(2, 2, seed=19), random_measure(1, 3, seed=19)
    assert len({repr(pl.ma_total_mass(mu2, grid=8, h=h, eps=0.3, vol_tol=1.0))
                for h in (1e-4, 0.5)}) == 1
    assert len({repr(pl.ball_mass_profile(mu1, mu1.point(0), [0.5], h=h, eps_list=[0.3, 0.0]))
                for h in (1e-4, 0.5)}) == 1


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n, grid", [(1, 300), (2, 12)])
def test_total_mass_is_one_chunked_pass(n, grid, workers, monkeypatch):
    # every chart is integrated on the same cells, in one run_chunked call
    # over the grid^(2n) flat cells (two chunks at these grids)
    totals = []

    def counted(fn, total, **kwargs):
        totals.append(total)
        return real(fn, total, **kwargs)

    real = monge_ampere.run_chunked
    monkeypatch.setattr(monge_ampere, "run_chunked", counted)
    rep = pl.ma_total_mass(random_measure(n, 2, seed=19), grid=grid, eps=0.3,
                           workers=workers, vol_tol=0.05)
    assert totals == [grid ** (2 * n)]
    assert rep.grid["charts"] == n + 1


# ---------- ball profiles ----------------------------------------------------------------

def nondecreasing(profile):
    """Masses of a [(radius, mass)] profile never drop by more than 1e-12."""
    masses = [m for _, m in profile]
    return all(b >= a - 1e-12 for a, b in zip(masses, masses[1:]))


def test_ball_profile_dirac_oracle_n1():
    center = pl.normalize([1, 0])
    mu = pl.dirac(center)
    for eps in (0.1, 0.03):
        rep = pl.ball_mass_profile(mu, center, [10 * eps], h=1e-4,
                                   eps_list=[eps], points_per_axis=64)[0]
        assert abs(rep.total_mass - smoothed_dirac_ball_mass(eps, 10 * eps)) < 0.01
        assert nondecreasing(rep.ball_profile)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chart_halfwidth_box_holds_the_ball(n):
    # every box below the cap reaches at least as far from c as the ball
    # does along random chart directions and along +-c, and along +c the
    # ball reaches exactly the box's half-width less its 5 percent margin;
    # r = 2.0 at |c| = 0 reaches 6.33 out
    rng = np.random.default_rng(40 + n)
    radii = [*np.linspace(0.05, math.pi / math.sqrt(2), 24), 2.0]
    for c_abs in (0.0, 0.3, 0.8, 1.3, 2.5):
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c = c_abs * u / np.linalg.norm(u)
        dirs = rng.standard_normal((32, n)) + 1j * rng.standard_normal((32, n))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        if c_abs:
            dirs = np.vstack([c / c_abs, -c / c_abs, dirs])
        for r in radii:
            a = monge_ampere._chart_halfwidth(c_abs, r)
            if a == 20.0 * (1.0 + c_abs):
                continue
            reach = ball_reach(c, r, dirs)
            assert np.max(reach) <= a, (c_abs, r)
            assert abs(np.max(reach) * 1.05 / a - 1.0) < 1e-6, (c_abs, r)


def test_ball_profile_volume_where_the_box_was_short():
    # about [1, 0] these balls reach 4.3-11.6 out in the chart, where the
    # grid's cells are coarse; a box short of the ball loses FS volume
    center = pl.normalize([1, 0])
    for r in (1.9, 2.0, 2.1):
        rep = pl.ball_mass_profile(pl.dirac(center), center, [r], eps_list=[0.3],
                                   points_per_axis=256)[0]
        assert abs(rep.vol_check / fs_ball_volume(1, r) - 1.0) < 1e-4, r


def test_verify_dirac_profile_matches_the_closed_form():
    # verify's eps = 0.3 profile: B(0.3), and B(3.0), which is all of P^1
    center = pl.normalize([1, 0])
    rep = pl.ball_mass_profile(pl.dirac(center), center, [3.0, 0.3], eps_list=[0.3],
                               points_per_axis=64)[0]
    for r, mass in rep.ball_profile:
        assert abs(mass - smoothed_dirac_ball_mass(0.3, r)) < 1e-3, r


def test_ball_profile_profile_monotone_and_ratios():
    center = pl.normalize([1, 0])
    mu = pl.dirac(center)
    rep = pl.ball_mass_profile(mu, center, [0.6, 0.3, 0.15], h=1e-4,
                               eps_list=[0.1], points_per_axis=64)[0]
    assert nondecreasing(rep.ball_profile)
    assert len(rep.vol_ratios) == 3
    # density concentrates: small balls carry far more than their volume
    assert rep.vol_ratios[0][1] > 1.0


def test_ball_profile_antipodal_center_mass_vanishes():
    eta = pl.normalize([1, 0])
    mu = pl.dirac(eta)
    anti = pl.normalize([0, 1])
    reps = pl.ball_mass_profile(mu, anti, [0.4, 0.2], h=1e-4,
                                eps_list=[0.05], points_per_axis=64)
    masses = [m for _, m in reps[0].ball_profile]
    assert masses[-1] < 0.01 and masses[0] <= masses[-1] + 1e-12


def test_ball_profile_unsmoothed_masses_are_atomic_on_p1():
    # on P^1 the unsmoothed lift is harmonic off the atoms, so the grid's
    # absolutely continuous part is rounding and each eps = 0 mass is the
    # sum of w_i over the atoms in the ball (0.21964531 for atom 0 alone)
    center = pl.normalize([1, 0])
    rep = pl.ball_mass_profile(pl.dirac(center), center, [0.5], eps_list=[0.0],
                               points_per_axis=64)[0]
    assert abs(rep.total_mass - 1.0) < 1e-6
    mu = random_measure(1, 3, seed=71)
    d = geodesic_distance_batch(mu.points, mu.point(0).coords)
    radii = [1.2, 0.8, 0.4]
    assert [int(np.sum(d <= r)) for r in radii] == [2, 1, 1]
    rep = pl.ball_mass_profile(mu, mu.point(0), radii, eps_list=[0.0], points_per_axis=32)[0]
    for r, mass in rep.ball_profile:
        assert abs(mass - np.sum(mu.weights[d <= r])) < 1e-6, r
    assert abs(rep.ball_profile[0][1] - 0.21964531) < 1e-6


def test_ball_profile_unsmoothed_is_the_small_eps_limit():
    # at n = 2 the eps = 0 profile (atomic part w_i^n plus the grid's
    # absolutely continuous part) is the limit of the smoothed profiles
    mu = random_measure(2, 3, seed=71)
    unsmoothed, smoothed = (pl.ball_mass_profile(mu, mu.point(0), [0.8, 0.4], eps_list=[eps],
                                                 points_per_axis=16)[0] for eps in (0.0, 0.003))
    for (_, a), (_, b) in zip(unsmoothed.ball_profile, smoothed.ball_profile):
        assert abs(a - b) < 1e-3


def test_ball_profile_unsmoothed_blocked_over_atoms(monkeypatch):
    # the eps = 0 determinants take their rows in atom_blocks slices; one
    # row a block gives the same bits
    mu = random_measure(1, 6, seed=71)
    center = mu.point(0)

    def profile():
        rep = pl.ball_mass_profile(mu, center, [0.8], eps_list=[0.0], points_per_axis=32)[0]
        return rep.ball_profile, rep.vol_check, rep.clipped_cells

    whole = profile()
    monkeypatch.setattr(analytic, "_BLOCK_ENTRIES", 1)
    assert whole[0][0][1] > 0.0 and profile() == whole


def test_ball_profile_eps_whose_square_underflows_is_unsmoothed():
    # eps = 1e-200 squares to b = 0, so the grid integrates the unsmoothed
    # field; its masses add the atomic part as at eps = 0, to the same bits
    # (they used to be the grid's rounding alone, of order 1e-17)
    mu = random_measure(1, 3, seed=71)
    zero, tiny = ([(rep.ball_profile, rep.vol_ratios, rep.vol_check, rep.clipped_cells)
                   for rep in pl.ball_mass_profile(mu, mu.point(0), [0.8, 0.4], eps_list=[eps],
                                                   points_per_axis=32)]
                  for eps in (0.0, 1e-200))
    assert tiny == zero and zero[0][0][0][1] > 0.2


@pytest.mark.parametrize("eps", [1e100, 1e154])
def test_huge_eps_raises_nonconvergent(eps):
    # b = eps^2 is finite, but the Hessian's Tz Tz^H / T^2 term overflows to
    # inf times an underflowed 1 / T^2: the guards see a value that is not
    # finite, never a finite wrong mass
    mu = random_measure(2, 3, seed=72)
    with pytest.raises(NonConvergent, match="not finite"):
        pl.ma_total_mass(mu, grid=4, eps=eps, vol_tol=1.0)
    with pytest.raises(NonConvergent, match="not finite"):
        pl.ball_mass_profile(mu, mu.point(0), [0.5], eps_list=[eps], points_per_axis=4)
    Z = chart_project(sample_fs_array(73, 5, 2), 0)
    with pytest.raises(NonConvergent, match="not finite"):
        pl.ma_density(mu, 0, Z, eps=eps)


@pytest.mark.parametrize("n, m", [(1, 4), (1, 32), (1, 64), (2, 4), (2, 8), (2, 16)])
@pytest.mark.parametrize("levels", [1, 2, 3])
def test_box_cells_chunks_join_to_the_nested_levels(n, m, levels):
    # the generator's chunks, joined per level, are the whole-level cells bit
    # for bit (n = 2, m = 16 has 4 chunks a level)
    c = chart_project(sample_fs_array(90 + n, 1, n), 0)[0]
    want = list(nested_cells(c, 0.7, levels, m))
    for level, (Z, cellvol) in enumerate(want):
        chunks = monge_ampere._cell_chunks(
            lambda _, rng: monge_ampere._box_cells(c, 0.7 / 2.0**level, m, rng,
                                                   level < levels - 1), n, m, 1, None)
        assert all(vol == cellvol for _, vol in chunks)
        got = np.concatenate([cells for cells, _ in chunks])
        assert got.shape == Z.shape and got.tobytes() == Z.tobytes()


@pytest.mark.parametrize("n, m, levels, complex_center", [
    (2, 18, 1, False),   # the mass-grid box: 16384-cell chunks straddle axis boundaries
    (2, 18, 1, True),
    (3, 8, 2, True),     # 16 chunks a level
    (3, 8, 1, False),
    (1, 12, 3, True),
])
def test_box_cells_chunks_join_to_the_whole_box(n, m, levels, complex_center):
    # as above on boxes whose m is not a power of two, at n = 3, and about
    # the real zero centre that the mass grid passes
    c = (chart_project(sample_fs_array(95 + n, 1, n), 0)[0] if complex_center
         else np.zeros(n))
    for level, (Z, cellvol) in enumerate(nested_cells(c, 0.7, levels, m)):
        chunks = monge_ampere._cell_chunks(
            lambda _, rng: monge_ampere._box_cells(c, 0.7 / 2.0**level, m, rng,
                                                   level < levels - 1), n, m, 1, None)
        assert all(vol == cellvol for _, vol in chunks)
        got = np.concatenate([cells for cells, _ in chunks])
        assert got.shape == Z.shape and got.tobytes() == Z.tobytes()


@pytest.mark.parametrize("n, m", [(1, 7), (2, 18), (3, 900)])
def test_box_cells_of_any_range_are_the_unraveled_cells(n, m):
    # ranges that start and end inside runs of every axis, one cell, and the
    # last cells of a box too large to build (900^6 cells at n = 3)
    c = chart_project(sample_fs_array(97, 1, n), 0)[0]
    total = m ** (2 * n)
    for lo, hi in ((0, 1), (1, 5000), (total // 3, total // 3 + 777), (total - 11, total)):
        hi = min(hi, total)
        got, _ = monge_ampere._box_cells(c, 1.3, m, (lo, hi), False)
        assert got.tobytes() == box_cells_by_index(c, 1.3, m, lo, hi).tobytes()


@pytest.mark.parametrize("n, m", [(1, 7), (1, 256), (2, 9), (2, 18), (3, 5), (3, 8)])
def test_ball_cells_are_the_box_cells_inside_the_ball(n, m):
    # the total mass builds only the cells inside |z|^2 <= 2n+1: they are
    # _box_cells followed by the exact ball test, in order and bit for bit,
    # with their squared moduli, over the mass grid's own chunks, ranges that
    # start and end inside a prefix's run of last-axis cells, one cell, and
    # a corner range with no ball cell
    a, r2 = math.sqrt(2 * n + 1), 2 * n + 1
    total = m ** (2 * n)
    chunk = 65536 if n == 1 else 16384
    ranges = [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
    ranges += [(1, total - 1), (total // 3 + 1, total // 2 + m // 2), (total // 2, total // 2 + 1),
               (0, m - 1), (total - 3 * m - 2, total - 5)]
    for lo, hi in ranges:
        Z, sq, cellvol = monge_ampere._ball_cells(n, a, m, (lo, hi), r2)
        box, box_vol = monge_ampere._box_cells(np.zeros(n), a, m, (lo, hi), False)
        box_sq = np.abs(box) ** 2
        ball = row_sum(box_sq) <= r2
        assert cellvol == box_vol
        assert Z.shape == box[ball].shape and Z.tobytes() == box[ball].tobytes(), (lo, hi)
        assert sq.tobytes() == box_sq[ball].tobytes()
    assert monge_ampere._ball_cells(n, a, m, (0, 1), r2)[0].shape == (0, n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cell_sums_do_not_depend_on_the_tile_size(n, monkeypatch):
    # det H_phi is taken in tiles of _tile_rows contiguous cells; the
    # determinants, clipped counts and the sums of both grids keep their bits
    # for every tile size down to 2 rows, at eps = 0 and eps > 0.  With 12
    # atoms the engine sums a lone row's atoms in another order, so a lone
    # last row joins the tile before it: the 961 cells leave one over for
    # each of the sizes below
    mu = random_measure(n, 12, seed=70 + n)
    rng = np.random.default_rng(n)
    Z = 1.5 * (rng.standard_normal((961, n)) + 1j * rng.standard_normal((961, n)))
    chi = rng.uniform(0.1, 1.0, 961)
    balls = np.stack([rng.uniform(size=961) < 0.5, np.arange(961) == 960])

    def sums():
        out = []
        for eps in (0.0, 0.05):
            dets, clipped = monge_ampere._cell_dets(pl.psh_lift(mu, 0, eps), Z)
            out.append((dets.tobytes(), clipped, float(np.sum(chi * dets)),
                        [float(np.sum(dets[ball])) for ball in balls]))
        return out

    whole = sums()
    assert monge_ampere._tile_rows(12, n) > 961
    assert n > 1 or whole[0][1] > 0                  # n = 1 clips cells at eps = 0
    for rows in (2, 3, 5, 64, 960):
        monkeypatch.setattr(monge_ampere, "_tile_rows", lambda atoms, n: rows)
        assert sums() == whole, rows


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chart_weights_are_the_partition_of_each_lift(n):
    # every chart integrates its own cells under one weight row, chart 0's
    # partition of unity to the bit; each chart's own partition of its lifted
    # cells has the same support and lies within 4 ulps of 1 of it.  The
    # cells include ones on the ball's edge |z|^2 = 2n+1 and on both band
    # edges of every slot (|z|^2 = 2n+1 and n for the chart's own slot,
    # |z_j|^2 = 1/(2n+1) and 1/n for the others), each nudged by up to 40
    # ulps, and cells whose t are exactly 1/(n+1) (z = 1) or 1/(2(n+1))
    # (z = (2, 1) at n = 2)
    a, b = support_threshold(n), 1.0 / (n + 1)
    rng = np.random.default_rng(n)
    Z = [rng.uniform(-2.0, 2.0, (500, n)) + 1j * rng.uniform(-2.0, 2.0, (500, n)),
         np.ones((1, n)), np.eye(n) + 1.0]
    for edge in (2 * n + 1, n, 1.0 / (2 * n + 1), 1.0 / n):
        x = math.sqrt(edge) + np.arange(-40, 41) * np.spacing(math.sqrt(edge))
        for j in range(n):
            cells = np.zeros((x.size, n), dtype=complex)
            cells[:, j] = x
            Z.append(cells)
            Z.append(cells * np.exp(0.3j))
    Z = np.concatenate(Z)
    chi = monge_ampere._chart_weight(np.abs(Z) ** 2)
    assert chi.tobytes() == pl.partition_of_unity(chart_lift(Z, 0))[:, 0].tobytes()
    knots = []
    for k in range(n + 1):
        lifted = chart_lift(Z, k)
        want = pl.partition_of_unity(lifted)[:, k]
        assert np.array_equal(want > 0.0, chi > 0.0), k
        assert np.max(np.abs(want - chi)) <= 4 * 2.0 ** -52, k
        t = np.abs(lifted) ** 2
        u = (t / row_sum(t)[:, None] - a) / (b - a)
        knots.append([np.any(u == 0.0), np.any(u == 1.0)])
    # both band edges, the smoothstep's knots u = 0 and u = 1, are hit exactly
    assert np.all(np.any(knots, axis=0))


def test_ball_profile_distances_stay_within_one_chunk(monkeypatch):
    # a level of m^(2n) = 32^4 cells is walked 16384 cells at a time
    rows = []

    def counted(U, v):
        rows.append(len(U))
        return geodesic_distance_batch(U, v)

    monkeypatch.setattr(monge_ampere, "geodesic_distance_batch", counted)
    mu = random_measure(2, 2, seed=86)
    rep = pl.ball_mass_profile(mu, mu.point(0), [0.5], eps_list=[10.0], points_per_axis=32)[0]
    assert rep.grid["levels"] == 1
    assert sum(rows) == 32 ** 4 and max(rows) == 16384


@pytest.mark.parametrize("eps_list, match", [([0.3, 1e200], "overflows"),
                                             ([0.3, -0.1], ">= 0")])
def test_ball_profile_checks_every_eps_before_any_cell(eps_list, match, monkeypatch):
    def no_cells(*_):
        raise AssertionError("a cell was integrated")

    monkeypatch.setattr(monge_ampere, "_cell_dets", no_cells)
    mu = random_measure(1, 2, seed=83)
    with pytest.raises(ValidationError, match=match):
        pl.ball_mass_profile(mu, mu.point(0), [0.5], eps_list=eps_list)


@pytest.mark.parametrize("points, match", [
    (8.0, "points_per_axis = 8.0"), (-4, "points_per_axis = -4"), (True, "points_per_axis = True"),
    (6, "points_per_axis = 6 must be 0 or a positive multiple of 4")],
    ids=["float", "negative", "bool", "not-a-multiple-of-4"])
def test_ball_profile_points_per_axis_is_0_or_a_positive_multiple_of_4(points, match):
    # these raised a bare TypeError, a ZeroDivisionError and a message that
    # called True no multiple of 4
    mu = random_measure(1, 2, seed=84)
    with pytest.raises(ValidationError, match=match):
        pl.ball_mass_profile(mu, mu.point(0), [0.5], points_per_axis=points)


def test_ball_profile_center_lives_where_the_measure_does():
    # a P^1 centre for a P^2 measure raised numpy's bare "cannot reshape"
    mu = random_measure(2, 2, seed=85)
    with pytest.raises(ValidationError, match=r"center is a point of P\^1, not of P\^2"):
        pl.ball_mass_profile(mu, pl.normalize([1, 0.5]), [0.5])


def test_ball_profile_volume_check_counts_excised_cells():
    # the self-check compares the grid's volume with the exact ball volume,
    # and at eps = 0 it counts the cells near the atoms that a distance guard
    # used to excise: on the same cells it has the volume of eps = 1e-3 (the
    # level rule reads max(eps, 1e-3), so both get the same levels)
    mu = pl.build_measure([pl.normalize([1, 0.3]).coords,
                           pl.normalize([1, -0.5 + 0.2j]).coords], [0.6, 0.4])
    unsmoothed, smoothed = (pl.ball_mass_profile(mu, mu.point(0), [1.0, 0.5],
                                                 eps_list=[eps])[0]
                            for eps in (0.0, 1e-3))
    assert unsmoothed.grid["levels"] == smoothed.grid["levels"]
    assert unsmoothed.vol_check == smoothed.vol_check
    # a grid too coarse for the ball still fails the check (by 2.07%); a
    # huge eps gives a single level, whose cells do not depend on eps
    one_level = pl.ball_mass_profile(mu, mu.point(0), [1.0, 0.5], eps_list=[10.0])[0]
    assert one_level.grid["levels"] == 1
    with pytest.raises(GridTooCoarse, match="2.07%"):
        pl.ball_mass_profile(mu, mu.point(0), [1.0, 0.5], eps_list=[10.0],
                             points_per_axis=4)


def test_total_mass_matches_finite_difference_reference():
    # masses from the central-difference Hessian route (h = 1e-4 at n = 1,
    # 5e-4 at n = 2), recorded before the grids switched to closed forms;
    # the two routes differ by the O(h^2) stencil error only
    mu1 = random_measure(1, 4, seed=41)
    rep1 = pl.ma_total_mass(mu1, grid=64, eps=0.3, vol_tol=0.05)
    assert abs(rep1.total_mass - 0.9999966130147163) < 1e-6 * 0.9999966130147163
    mu2 = random_measure(2, 2, seed=42)
    rep2 = pl.ma_total_mass(mu2, grid=12, eps=0.3, vol_tol=0.05)
    assert abs(rep2.total_mass - 0.9946143679312607) < 1e-6 * 0.9946143679312607
    assert rep1.clipped_cells == rep2.clipped_cells == 0


def test_total_mass_pure_volume_check_is_one():
    # with phi = rho (no potential) the integral is the chi-weighted FS
    # volume itself, which the report carries as vol_check
    mu = pl.dirac(pl.normalize([1, 0]))
    rep = pl.ma_total_mass(mu, grid=128, h=1e-4, eps=0.3)
    assert abs(rep.vol_check - 1.0) < 1e-3
