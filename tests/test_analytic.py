"""The closed-form derivatives are the oracle for all FD machinery, so they
are themselves validated here against high-order Richardson differences of
the plain field values."""

import numpy as np

import projlog as pl
from projlog import analytic


def richardson_gradient(f, z, h=1e-3):
    """O(h^4) real gradient from two central-difference levels."""
    def g(hh):
        out = np.empty(2 * z.size)
        for j in range(z.size):
            e = np.zeros(z.size, dtype=complex)
            e[j] = hh
            out[j] = (f(z + e) - f(z - e)) / (2 * hh)
            out[z.size + j] = (f(z + 1j * e) - f(z - 1j * e)) / (2 * hh)
        return out
    return (4.0 * g(h / 2) - g(h)) / 3.0


def richardson_hessian_entry(f, z, j, k, h=2e-3):
    """O(h^4) estimate of d^2 f / dz_j dzbar_k via complex-line Laplacians."""
    def lap(v, hh):
        return (f(z + hh * v) + f(z - hh * v) + f(z + 1j * hh * v)
                + f(z - 1j * hh * v) - 4.0 * f(z)) / (4.0 * hh * hh)

    def entry(hh):
        if j == k:
            e = np.zeros(z.size, dtype=complex)
            e[j] = 1.0
            return lap(e, hh)
        ej = np.zeros(z.size, dtype=complex)
        ek = np.zeros(z.size, dtype=complex)
        ej[j] = 1.0
        ek[k] = 1.0
        lpp = lap(ej + ek, hh)
        lpm = lap(ej - ek, hh)
        lpi = lap(ej + 1j * ek, hh)
        lmi = lap(ej - 1j * ek, hh)
        return 0.25 * ((lpp - lpm) + 1j * (lpi - lmi))

    return (4.0 * entry(h / 2) - entry(h)) / 3.0


def random_measure(n, atoms, seed):
    pts = pl.sample_fs_uniform(seed, atoms, n)
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.2, 1.0, atoms)
    return pl.build_measure(pts, w / w.sum())


def fields_to_check():
    mu = random_measure(2, 3, seed=51)
    aff = pl.AffineAtoms.from_measure(
        pl.build_measure(
            [pl.normalize([1, 0.4 + 0.1j, -0.2]).coords,
             pl.normalize([1, -0.5, 0.3j]).coords], [0.6, 0.4]), 0)
    return [
        pl.fs_field(2),
        pl.psh_lift(mu, 0, eps=0.25),
        pl.psh_lift(mu, 1, eps=0.1),
        pl.affine_field(aff, eps=0.0),
        pl.affine_field(aff, eps=0.3),
    ]


def test_analytic_gradient_matches_richardson():
    rng = np.random.default_rng(61)
    for fld in fields_to_check():
        for _ in range(5):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            g_ref = richardson_gradient(lambda x: float(fld(x)), z)
            g_an = analytic.holo_to_real_gradient(fld.holomorphic_gradient(z))
            assert np.max(np.abs(g_ref - g_an)) < 1e-8 * max(1, np.max(np.abs(g_ref)))


def test_analytic_hessian_matches_richardson():
    rng = np.random.default_rng(62)
    for fld in fields_to_check():
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        H_an = fld.complex_hessian(z)
        for j in range(2):
            for k in range(2):
                ref = richardson_hessian_entry(lambda x: float(fld(x)), z, j, k)
                assert abs(H_an[j, k] - ref) < 1e-7 * max(1.0, abs(ref))


def test_fs_hessian_is_fs_metric():
    rng = np.random.default_rng(63)
    for _ in range(10):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        np.testing.assert_allclose(pl.fs_field(3).complex_hessian(z),
                                   pl.fs_metric(z), atol=1e-14)


def test_quad_form_matches_kernel_values():
    # the eta-form of the chart kernel equals the w-form within rounding
    rng = np.random.default_rng(64)
    for _ in range(50):
        n = rng.integers(1, 4)
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        eta = pl.normalize(np.concatenate([[1.0], w])).coords
        T, _, _ = analytic.quad_form_batch(z[None, :], eta, 0, 0.0, 0.0)
        assert abs(0.5 * np.log(T[0]) - pl.affine_log_kernel(z, w).value) < 1e-12


def test_gradient_conversions_invert():
    rng = np.random.default_rng(65)
    fz = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    back = analytic.real_to_holo_gradient(analytic.holo_to_real_gradient(fz))
    np.testing.assert_allclose(back, fz, atol=1e-15)
