import math

import numpy as np
import pytest

import projlog as pl
from projlog.errors import ValidationError
from projlog.geometry import chart_project, geodesic_distance_batch, wedge_norm_sq_batch
from projlog.kernels import _affine_log_arg_batch, affine_log_kernel_batch, \
    chart_identity_residual_batch, projective_log_kernel_batch, sin_distance_residual_batch


def random_point(n, rng):
    return pl.normalize(rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1))


def random_affine(n, rng, scale=1.0):
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def kernel(a, b):
    """K of one pair of points through the batch kernel."""
    return float(projective_log_kernel_batch(a.coords, b.coords)[0])


def affine_kernel(z, w):
    """N(z, w) of one pair through the batch kernel."""
    return float(affine_log_kernel_batch(z, w)[0])


# ---------- projective kernel ------------------------------------------------

def test_kernel_orthogonal_pair_is_zero():
    k = kernel(pl.normalize([1, 0]), pl.normalize([0, 1]))
    assert k == 0.0 and k != -math.inf


def test_kernel_diagonal_singular():
    p = pl.normalize([1, 2j, 3])
    assert kernel(p, p) == -math.inf


def test_kernel_matches_log_sin_example():
    eta = pl.normalize([math.cos(0.3), math.sin(0.3)])
    k = kernel(pl.normalize([1, 0]), eta)
    assert abs(k - math.log(math.sin(0.3))) < 1e-14


def test_sin_distance_identity_random():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3, 4):
        pairs = [(random_point(n, rng).coords, random_point(n, rng).coords)
                 for _ in range(200)]
        a, b = (np.stack(side) for side in zip(*pairs))
        k = projective_log_kernel_batch(a, b)
        assert np.all(sin_distance_residual_batch(k, geodesic_distance_batch(a, b)) < 1e-12)


def test_sin_distance_residual_zero_on_diagonal():
    p = pl.normalize([1, 2j, 3]).coords
    k = projective_log_kernel_batch(p, p)
    assert sin_distance_residual_batch(k, geodesic_distance_batch(p, p)).tolist() == [0.0]


def test_kernel_nonpositive_and_exactly_symmetric():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = rng.integers(1, 4)
        a, b = random_point(n, rng), random_point(n, rng)
        kab = kernel(a, b)
        kba = kernel(b, a)
        assert kab == kba  # same fp expression ordering
        assert kab <= 0.0


# ---------- affine wedge and kernel -------------------------------------------

def wedge(u, v):
    """|u ^ v|^2 of one pair through the batch wedge."""
    return float(wedge_norm_sq_batch(u, v)[0])


def test_affine_wedge_n1_vanishes():
    rng = np.random.default_rng(3)
    for _ in range(20):
        assert wedge(random_affine(1, rng), random_affine(1, rng)) == 0.0


def test_affine_wedge_examples():
    assert wedge(np.array([1, 0.0j]), np.array([0, 1.0j])) == 1.0
    val = wedge(np.array([1.0, 2.0], dtype=complex), np.array([3.0, 4.0], dtype=complex))
    assert abs(val - 4.0) < 1e-14


def test_wedge_consistency_with_homogeneous():
    # for lifts (1, z), (1, w): full wedge = |z-w|^2 + affine wedge
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = rng.integers(1, 5)
        z, w = random_affine(n, rng), random_affine(n, rng)
        lhs = wedge(np.concatenate([[1.0], z]), np.concatenate([[1.0], w]))
        rhs = float(np.sum(np.abs(z - w) ** 2)) + wedge(z, w)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, rhs)


def test_affine_kernel_examples():
    z = np.array([1.0, 0.0], dtype=complex)
    assert affine_kernel(z, np.zeros(2)) == 0.0  # log|z| at |z|=1
    v = affine_kernel(np.zeros(2), z)
    assert abs(v + 0.5 * math.log(2)) < 1e-15
    assert affine_kernel(z, z) == -math.inf


def test_affine_kernel_log_abs_at_origin_measure():
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = random_affine(3, rng)
        v = affine_kernel(z, np.zeros(3))
        assert abs(v - math.log(np.linalg.norm(z))) < 1e-13


# ---------- smoothed kernel -----------------------------------------------------

def test_smoothed_kernel_diagonal_is_log_eps():
    # at its atom the globally smoothed one-atom lift is log eps + rho: the
    # smoothed kernel, the lift minus rho, is log eps on the diagonal
    rng = np.random.default_rng(6)
    for n in (1, 2, 3):
        eta = random_point(n, rng)
        z = chart_project(eta.coords, 0)[None]
        for eps in (0.5, 0.1, 1e-3):
            lift = pl.psh_lift(pl.dirac(eta), 0, eps)(z)[0]
            assert abs(lift - (math.log(eps) + pl.fs_potential(z)[0])) < 1e-13


def test_smoothed_kernel_monotone_and_bounded_increment():
    # the smoothed kernel, the globally smoothed one-atom lift minus rho, is
    # (1/2) log(exp(2K) + eps^2): it rises with eps from the unsmoothed kernel,
    # by at most eps^2 (1 + |z|^2) / (2 arg) since log(x + d) - log(x) <= d / x
    rng = np.random.default_rng(6)
    for n in (1, 2, 3):
        for _ in range(10):
            eta = random_point(n, rng)
            w = chart_project(eta.coords, 0)
            u = random_affine(n, rng)
            near = w + 10.0 ** rng.uniform(-6, -1, (200, 1)) * u / np.linalg.norm(u)
            Z = np.vstack([np.stack([random_affine(n, rng) for _ in range(300)]), near])
            t = 1.0 + np.sum(np.abs(Z) ** 2, axis=1)
            arg = _affine_log_arg_batch(Z, w)
            base = pl.psh_lift(pl.dirac(eta), 0)(Z)
            lo = base
            for eps in (1e-6, 1e-3, 1e-2, 0.1, 0.3, 1.0):
                hi = pl.psh_lift(pl.dirac(eta), 0, eps)(Z)
                assert np.all(hi >= lo)  # monotone in eps
                assert np.all(hi - base <= eps * eps * t / (2 * arg) + 1e-12)
                lo = hi


def test_smoothed_kernel_rejects_bad_eps():
    # eps = 0 is the unsmoothed kernel; a negative eps is an error
    with pytest.raises(ValidationError, match="eps = -0.1 must be a real >= 0"):
        pl.psh_lift(pl.dirac(pl.normalize([1, 0])), 0, -0.1)


# ---------- chart identity --------------------------------------------------------

def chart_residual(a, b, chart=0):
    """|K - (N - rho)| of one pair of points in the chart."""
    k = projective_log_kernel_batch(a.coords, b.coords)
    z, w = chart_project(a.coords, chart)[None], chart_project(b.coords, chart)[None]
    return float(chart_identity_residual_batch(k, z, w)[0])


def test_chart_identity_random_pairs():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        for _ in range(300):
            a = pl.normalize(np.concatenate([[1.0], random_affine(n, rng)]))
            b = pl.normalize(np.concatenate([[1.0], random_affine(n, rng)]))
            assert chart_residual(a, b) < 1e-12


def test_chart_identity_diagonal_zero():
    p = pl.normalize([1, 2, 3j])
    assert chart_residual(p, p) == 0.0


def test_chart_identity_near_floor_stable():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = 2
        tail = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        tail /= np.linalg.norm(tail)
        a = pl.normalize(np.concatenate([[1e-6], tail]))
        b = pl.normalize(np.concatenate([[1.0], random_affine(n, rng)]))
        assert chart_residual(a, b) < 1e-9


# ---------- two-sided bounds --------------------------------------------------------

def bounds_hold(z, w, slack=1e-12):
    """(lower_ok, upper_ok) over rows of the two-sided chart-kernel bound

    (1/2) log(|z-w|^2 / (1+|w|^2))  <=  N(z,w)  <=  (1/2) log(1+|z|^2).
    """
    z, w = np.atleast_2d(np.asarray(z, dtype=complex)), np.asarray(w, dtype=complex)
    value = affine_log_kernel_batch(z, w)
    with np.errstate(divide="ignore"):
        lower = 0.5 * (np.log(np.sum(np.abs(z - w) ** 2, axis=1))
                       - np.log1p(np.sum(np.abs(w) ** 2, axis=-1)))
    upper = pl.fs_potential(z)
    return bool(np.all(lower <= value + slack)), bool(np.all(value <= upper + slack))


def test_bounds_diagonal():
    z = np.array([1.0, 2.0], dtype=complex)
    assert bounds_hold(z, z) == (True, True)


def test_bounds_random_pairs():
    rng = np.random.default_rng(9)
    z = rng.standard_normal((100_000, 2)) + 1j * rng.standard_normal((100_000, 2))
    w = rng.standard_normal((100_000, 2)) + 1j * rng.standard_normal((100_000, 2))
    # the same inequality in the argument of the log
    diff = np.sum(np.abs(z - w) ** 2, axis=1)
    denom = 1.0 + np.sum(np.abs(w) ** 2, axis=1)
    arg = _affine_log_arg_batch(z, w)
    upper = 1.0 + np.sum(np.abs(z) ** 2, axis=1)
    assert np.all(diff / denom <= arg * (1 + 1e-12))
    assert np.all(arg <= upper * (1 + 1e-12))


def test_bounds_scalar_samples():
    rng = np.random.default_rng(10)
    for _ in range(200):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert bounds_hold(z, w) == (True, True)


def test_bounds_at_w_zero():
    rng = np.random.default_rng(11)
    for _ in range(50):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert bounds_hold(z, np.zeros(3)) == (True, True)


# ---------- analytic properties ------------------------------------------------------

def test_radial_derivative_of_log_sin():
    # d/dr log sin(r / sqrt 2) = cot(r / sqrt 2) / sqrt 2 along a geodesic
    eta = pl.normalize([1, 0])
    for r in (0.4, 0.9, 1.6):
        h = 1e-4

        def f(t):
            p = pl.normalize([math.cos(t / math.sqrt(2)), math.sin(t / math.sqrt(2))])
            return kernel(p, eta)

        fd = (f(r + h) - f(r - h)) / (2 * h)
        exact = 1.0 / (math.tan(r / math.sqrt(2)) * math.sqrt(2))
        assert abs(fd - exact) < 1e-6


def test_submean_property_of_affine_kernel():
    # 64-point circle average of N(z + r e^(i theta) v, w) >= N(z, w)
    rng = np.random.default_rng(12)
    thetas = np.exp(1j * np.linspace(0, 2 * math.pi, 64, endpoint=False))
    for _ in range(100):
        n = rng.integers(1, 4)
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        r = rng.uniform(0.01, 0.1)
        center = affine_kernel(z, w)
        ring = np.mean(affine_log_kernel_batch(z + r * thetas[:, None] * v, w))
        assert ring >= center - 1e-9
