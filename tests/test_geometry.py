import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, stats

import projlog as pl
from oracles import fs_metric, fs_metric_inverse, to_chart
from projlog.errors import ValidationError
from projlog.geometry import (
    Stream,
    _sample_stream,
    abs_sq_sum,
    canonicalize_batch,
    chart_lift,
    chart_mask,
    chart_project,
    complex_from_json,
    fs_gradient_norm_sq,
    fs_hessian,
    fs_hessian_norm,
    fs_volume_norm,
    geodesic_distance_batch,
    max_modulus_chart,
    row_norm,
    row_sum,
    sample_fs_array,
    wedge_norm_sq_batch,
)

RNG = np.random.default_rng(20260810)


def random_point(n, rng=RNG):
    v = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    return pl.normalize(v)


def distance(a, b):
    """d(a, b) of one pair of points through the batch distance."""
    return float(geodesic_distance_batch(a.coords, b.coords)[0])


# ---------- canonical form -------------------------------------------------

def test_normalize_scaling():
    assert pl.normalize([2, 0, 0]) == pl.normalize([1, 0, 0])
    np.testing.assert_allclose(pl.normalize([2, 0, 0]).coords, [1, 0, 0])


def test_normalize_phase_removal():
    np.testing.assert_allclose(pl.normalize([0, 1j, 0]).coords, [0, 1, 0], atol=1e-15)


def test_normalize_unit_norm_positive_pivot():
    p = pl.normalize([1 + 1j, 0])
    np.testing.assert_allclose(p.coords, [1, 0], atol=1e-15)


def test_normalize_scale_invariance_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = rng.integers(1, 5)
        v = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        lam = (rng.standard_normal() + 1j * rng.standard_normal()) or 1.0
        assert pl.normalize(v) == pl.normalize(lam * v)


def test_normalize_zero_raises():
    with pytest.raises(ValidationError, match="zero or non-finite"):
        pl.normalize([0, 0, 0])


def test_canonical_pivot_real():
    arr = canonicalize_batch(np.array([[0.5j, 0.5, 0.70710678j]]))
    piv = np.argmax(np.abs(arr[0]))
    assert arr[0, piv].imag == 0.0 and arr[0, piv].real > 0


# ---------- wedge norm and distance ----------------------------------------

def wedge_norm_sq(u, v):
    return float(wedge_norm_sq_batch(u, v)[0])


def test_wedge_basis_vectors():
    assert wedge_norm_sq([1, 0, 0], [0, 1, 0]) == 1.0
    assert wedge_norm_sq([1, 0, 0], [1, 0, 0]) == 0.0


def test_wedge_hand_example():
    s = 1 / math.sqrt(2)
    val = wedge_norm_sq([s, s], [s, -s])
    assert abs(val - 1.0) < 1e-15


def test_wedge_cauchy_schwarz_and_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = rng.integers(1, 5)
        u = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        v = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        w = wedge_norm_sq(u, v)
        assert w == wedge_norm_sq(v, u)  # exact fp symmetry
        assert w <= np.sum(np.abs(u) ** 2) * np.sum(np.abs(v) ** 2) * (1 + 1e-12)


def test_distance_endpoints():
    e0, e1 = pl.normalize([1, 0]), pl.normalize([0, 1])
    assert distance(e0, e0) == 0.0
    assert abs(distance(e0, e1) - math.pi / math.sqrt(2)) < 1e-15


def test_distance_against_formula():
    th = 0.3
    eta = pl.normalize([math.cos(th), math.sin(th)])
    d = distance(pl.normalize([1, 0]), eta)
    assert abs(d - math.sqrt(2) * th) < 1e-14


def test_distance_metric_axioms_random_triples():
    rng = np.random.default_rng(11)
    pts = [random_point(2, rng) for _ in range(30)]
    for _ in range(1000):
        a, b, c = (pts[i] for i in rng.integers(0, len(pts), 3))
        dab = distance(a, b)
        dba = distance(b, a)
        assert abs(dab - dba) < 1e-14
        assert dab >= 0
        assert dab <= distance(a, c) + distance(c, b) + 1e-10


def test_geodesic_curve_is_additive_and_matches_metric():
    # along theta -> [cos theta : sin theta : 0] the distance from theta=0
    # is sqrt(2) theta, segment distances add up exactly, and the arclength
    # computed from the Riemannian metric 4 H_rho agrees.
    thetas = np.linspace(0.0, math.pi / 2, 33)
    pts = [pl.normalize([math.cos(t), math.sin(t), 0.0]) for t in thetas]
    total = sum(distance(a, b) for a, b in zip(pts, pts[1:]))
    assert abs(total - math.sqrt(2) * math.pi / 2) < 1e-10

    def speed(theta):
        z = np.array([math.tan(theta), 0.0], dtype=complex)
        vel = np.array([1.0 / math.cos(theta) ** 2, 0.0], dtype=complex)
        return math.sqrt(4.0 * np.real(np.conj(vel) @ fs_metric(z) @ vel))

    arc, _ = integrate.quad(speed, 0.0, 1.2)
    assert abs(arc - math.sqrt(2) * 1.2) < 1e-10


# ---------- charts ----------------------------------------------------------

def test_to_chart_ratio():
    a = chart_project(pl.normalize([2, 4]).coords, 0)
    np.testing.assert_allclose(a, [2.0])


def test_from_chart_origin():
    p = pl.normalize(chart_lift(np.zeros((1, 2), dtype=complex), 1)[0])
    assert p == pl.normalize([0, 1, 0])


def test_chart_round_trip_random():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = rng.integers(1, 5)
        p = random_point(n, rng)
        k = max_modulus_chart(p.coords)
        back = pl.normalize(chart_lift(chart_project(p.coords, k)[None], k)[0])
        assert np.max(np.abs(back.coords - p.coords)) < 1e-14


def test_chart_floor_raises():
    p = pl.normalize([1e-12, 1.0])
    assert chart_mask(p.coords[None], 0).tolist() == [False]
    assert chart_mask(p.coords[None], 1).tolist() == [True]
    with pytest.raises(ValidationError, match="not inside chart 0"):
        pl.AffineAtoms.from_measure(pl.dirac(p), 0)


def test_chart_transition_consistency():
    # transition between overlapping charts round-trips within 1e-12
    rng = np.random.default_rng(9)
    for _ in range(50):
        p = random_point(3, rng)
        mods = np.abs(p.coords)
        usable = [k for k in range(4) if mods[k] > 0.2]
        if len(usable) < 2:
            continue
        j, k = usable[:2]
        zj = chart_project(p.coords, j)
        via = chart_project(pl.normalize(chart_lift(zj[None], j)[0]).coords, k)
        direct = chart_project(p.coords, k)
        assert np.max(np.abs(via - direct)) < 1e-12


def test_chart_project_inverts_chart_lift_and_matches_to_chart():
    rows = sample_fs_array(3, 40, 2)
    for k in range(3):
        z = chart_project(rows, k)
        assert z.shape == (40, 2)
        assert z.tobytes() == np.stack([to_chart(r, k) for r in rows]).tobytes()
        np.testing.assert_allclose(chart_project(chart_lift(z, k), k), z, rtol=0, atol=0)
        np.testing.assert_allclose(chart_lift(z, k) * rows[:, k, None], rows, atol=1e-15)


def test_chart_lift_batch_layout():
    z = np.array([[1 + 2j, 3.0], [0j, 0j]])
    lifted = chart_lift(z, 1)
    np.testing.assert_allclose(lifted[:, 1], [1.0, 1.0])
    np.testing.assert_allclose(lifted[0], [1 + 2j, 1.0, 3.0])


# ---------- sums over the coordinate axis ------------------------------------

@pytest.mark.parametrize("lead", [(300,), (40, 6)])
@pytest.mark.parametrize("width", range(0, 8))
def test_row_helpers_have_the_bits_of_numpy(width, lead):
    # zero-width rows sum to 0, as in numpy (the n = 1 affine kernel has no minors)
    rng = np.random.default_rng(width)
    shape = lead + (width,)
    x = rng.standard_normal(shape) * np.exp(8.0 * rng.standard_normal(shape))
    z = x + 1j * rng.standard_normal(shape) * np.exp(8.0 * rng.standard_normal(shape))
    assert np.array_equal(row_sum(x), np.sum(x, axis=-1))
    for a in (x, z):
        assert np.array_equal(row_norm(a), np.linalg.norm(a, axis=-1))
        assert np.array_equal(abs_sq_sum(a), np.sum(np.abs(a) ** 2, axis=-1))
    # a complex row sum adds left to right like a real one; numpy does so
    # only below 4 complex columns and adds them in pairs from 4 on
    left = z[..., 0] if width else np.zeros(lead, complex)
    for j in range(1, width):
        left = left + z[..., j]
    assert np.array_equal(row_sum(z), left)
    if width < 4:
        assert np.array_equal(row_sum(z), np.sum(z, axis=-1))


# ---------- FS potential, metric, volume ------------------------------------

def test_fs_hessian_diagonal_is_exact_far_out():
    # the diagonal (1 + sum_{j != i} |z_j|^2) / (2t^2) adds positive terms;
    # 1/(2t) - |z_i|^2/(2t^2) lost about t ulps to cancellation
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        for scale in (0.3, 10.0, 100.0, 700.0 / math.sqrt(n)):
            for _ in range(40):
                z = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
                sq = [Fraction(c.real) ** 2 + Fraction(c.imag) ** 2 for c in z]
                t = 1 + sum(sq)
                if t > 10**6:
                    continue
                H = fs_hessian(z)
                for i in range(n):
                    exact = (t - sq[i]) / (2 * t * t)
                    assert abs(Fraction(H[i, i].real) - exact) <= 8 * Fraction(2) ** -52 * exact
                    assert H[i, i].imag == 0.0


def test_fs_hessian_norm_is_the_frobenius_norm():
    rng = np.random.default_rng(6)
    for n in (1, 2, 3, 4):
        for scale in (0.1, 1.0, 30.0):
            Z = scale * (rng.standard_normal((50, n)) + 1j * rng.standard_normal((50, n)))
            np.testing.assert_allclose(fs_hessian_norm(Z),
                                       np.linalg.norm(fs_hessian(Z), axis=(1, 2)),
                                       rtol=1e-14, atol=0)


def test_fs_potential_values():
    assert pl.fs_potential(np.zeros(2)) == 0.0
    assert abs(pl.fs_potential(np.array([1.0 + 0j])) - 0.5 * math.log(2)) < 1e-15
    assert abs(pl.fs_potential(np.array([1.0, 1.0], dtype=complex)) - 0.5 * math.log(3)) < 1e-15


def test_fs_metric_inverse_closed_form():
    rng = np.random.default_rng(13)
    for _ in range(20):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        prod = fs_metric(z) @ fs_metric_inverse(z)
        np.testing.assert_allclose(prod, np.eye(3), atol=1e-12)


def test_fs_volume_density_total():
    # int det H_rho dLeb = 2^-n pi^n / n!, checked for n = 1 by quadrature
    val, _ = integrate.quad(lambda r: 0.5 * (1 + r * r) ** -2 * 2 * math.pi * r, 0, np.inf)
    assert abs(val - fs_volume_norm(1)) < 1e-12


def test_fs_gradient_norm_distance_is_one():
    # |grad d(., eta)| = 1 under the library normalization
    eta = pl.normalize([1, 0])
    z = np.array([0.7 + 0.2j])

    def dist(x):
        return distance(pl.normalize(np.concatenate([[1.0], x])), eta)

    h = 1e-6
    gx = (dist(z + h) - dist(z - h)) / (2 * h)
    gy = (dist(z + 1j * h) - dist(z - 1j * h)) / (2 * h)
    fz = 0.5 * (gx - 1j * gy)
    norm2 = fs_gradient_norm_sq(z, np.array([fz]))
    assert abs(norm2 - 1.0) < 1e-6


def test_fs_ball_volume_closed_form():
    # antiderivative of A(r) is sin^(2n)(r/sqrt 2)
    for n in (1, 2, 3):
        r = 0.8
        val, _ = integrate.quad(lambda t: pl.sphere_area(n, t), 0.0, r)
        assert abs(val - pl.fs_ball_volume(n, r)) < 1e-12


# ---------- sampling ---------------------------------------------------------

def test_sampler_deterministic_and_prefix_stable():
    a = sample_fs_array(42, 100, 2)
    b = sample_fs_array(42, 100, 2)
    np.testing.assert_array_equal(a, b)
    longer = sample_fs_array(42, 250, 2)
    np.testing.assert_array_equal(a, longer[:100])
    offset = sample_fs_array(42, 30, 2, start=70)
    np.testing.assert_array_equal(offset, longer[70:100])


def test_sampler_streams_are_distinct():
    # each sampler draws from its own Philox stream; an alias would make two
    # of them share draws under one seed
    values = [stream.value for stream in Stream.__members__.values()]
    assert len(set(values)) == len(values) == 4
    np.testing.assert_array_equal(_sample_stream(42, 10, 6),
                                  _sample_stream(42, 10, 6, stream=Stream.FS))
    assert not np.allclose(_sample_stream(42, 10, 6),
                           _sample_stream(42, 10, 6, stream=Stream.SOBOLEV_REFINEMENT))


def test_sampler_mean_distance_matches_coarea():
    # mean geodesic distance to a fixed point vs the radial quadrature oracle
    n = 1
    eta = pl.normalize([1, 0])
    pts = sample_fs_array(101, 100_000, n)
    dists = geodesic_distance_batch(pts, eta.coords)
    mean_mc = float(np.mean(dists))
    se = float(np.std(dists) / math.sqrt(dists.size))
    mean_quad = pl.radial_quadrature(lambda r: r, n)
    assert abs(mean_quad - math.pi / (2 * math.sqrt(2))) < 1e-10  # closed form
    assert abs(mean_mc - mean_quad) < 3 * se


def test_sampler_unitary_invariance_ks():
    n = 2
    rngu = np.random.default_rng(77)
    m = rngu.standard_normal((n + 1, n + 1)) + 1j * rngu.standard_normal((n + 1, n + 1))
    q, r = np.linalg.qr(m)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    eta = pl.normalize([1, 0, 0])
    a = sample_fs_array(5, 20_000, n)
    b = sample_fs_array(5, 20_000, n, start=20_000)
    db = geodesic_distance_batch(canonicalize_batch(b @ q.T), eta.coords)
    da = geodesic_distance_batch(a, eta.coords)
    assert stats.ks_2samp(da, db).pvalue > 0.01


def test_complex_from_json_matches_the_per_entry_loop():
    rng = np.random.default_rng(29)
    rows = [[[float(x), int(y)] for x, y in rng.standard_normal((3, 2)) * 1e3]
            for _ in range(50)]
    loop = np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)
    assert complex_from_json(rows, 3, str).tobytes() == loop.tobytes()


def test_point_json_round_trip():
    p = pl.normalize([1 + 2j, -0.5, 0.25j])
    rows = complex_from_json([[[float(c.real), float(c.imag)] for c in p.coords]], 3,
                             lambda i: f"points[{i}]")
    assert p == pl.normalize(rows[0])
