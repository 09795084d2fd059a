"""The closed-form derivatives are the oracle for all FD machinery, so they
are themselves validated here against high-order Richardson differences of
the plain field values."""

import numpy as np

import projlog as pl
from oracles import chart_measure, fs_metric, holo_to_real_gradient, lift_gradient, \
    random_measure
from projlog import analytic
from projlog.geometry import chart_lift, chart_project
from projlog.kernels import affine_log_kernel_batch


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


def fields_to_check():
    mu = random_measure(2, 3, seed=51)
    two = pl.build_measure([pl.normalize([1, 0.4 + 0.1j, -0.2]).coords,
                            pl.normalize([1, -0.5, 0.3j]).coords], [0.6, 0.4])
    return [
        pl.psh_lift(mu, 0, eps=0.25),
        pl.psh_lift(mu, 1, eps=0.1),
        pl.psh_lift(two, 0),
    ]


def test_analytic_gradient_matches_richardson():
    rng = np.random.default_rng(61)
    for fld in fields_to_check():
        for _ in range(5):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            g_ref = richardson_gradient(lambda x: float(fld(x[None])[0]), z)
            g_an = holo_to_real_gradient(lift_gradient(fld, z[None])[0])
            assert np.max(np.abs(g_ref - g_an)) < 1e-8 * max(1, np.max(np.abs(g_ref)))


def test_analytic_hessian_matches_richardson():
    rng = np.random.default_rng(62)
    for fld in fields_to_check():
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        H_an = fld.complex_hessian(z[None])[0]
        for j in range(2):
            for k in range(2):
                ref = richardson_hessian_entry(lambda x: float(fld(x[None])[0]), z, j, k)
                assert abs(H_an[j, k] - ref) < 1e-7 * max(1.0, abs(ref))


def test_fs_gradient_matches_richardson():
    # rho's closed-form gradient against differences of fs_potential
    rng = np.random.default_rng(69)
    for _ in range(5):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        g_ref = richardson_gradient(lambda x: float(pl.fs_potential(x)), z)
        g_an = holo_to_real_gradient(pl.fs_gradient(z))
        assert np.max(np.abs(g_ref - g_an)) < 1e-8 * max(1, np.max(np.abs(g_ref)))


def test_fs_hessian_matches_richardson():
    rng = np.random.default_rng(70)
    for _ in range(5):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        H_an = pl.fs_hessian(z)
        for j in range(2):
            for k in range(2):
                ref = richardson_hessian_entry(lambda x: float(pl.fs_potential(x)), z, j, k)
                assert abs(H_an[j, k] - ref) < 1e-7 * max(1.0, abs(ref))


def test_fs_hessian_is_fs_metric():
    rng = np.random.default_rng(63)
    for _ in range(10):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        np.testing.assert_allclose(pl.fs_hessian(z), fs_metric(z), atol=1e-14)


def test_quad_form_matches_kernel_values():
    # the eta-form of the chart kernel equals the w-form within rounding
    rng = np.random.default_rng(64)
    for _ in range(50):
        n = rng.integers(1, 4)
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        eta = pl.normalize(np.concatenate([[1.0], w])).coords
        T, _, _ = analytic.quad_form_batch(z[None, :], eta, 0, 0.0, 0.0)
        assert abs(0.5 * np.log(T[0, 0]) - affine_log_kernel_batch(z, w)[0]) < 1e-12


# ---------------------------------------------------------------------------
# the atom-stacked kernel against the per-atom minor-tensor form
# ---------------------------------------------------------------------------

def minor_quad_form(Z, eta, chart, b):
    """One atom at a time through the full (m, n+1, n+1) minor tensor."""
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    m, n = Z.shape
    T = np.full(m, b) + b * np.sum(np.abs(Z) ** 2, axis=1)
    Tz = b * np.conj(Z)
    lifts = chart_lift(Z, chart)
    pos = np.delete(np.arange(n + 1), chart)
    M = lifts[:, :, None] * eta[None, None, :] - eta[None, :, None] * lifts[:, None, :]
    T = T + 0.5 * np.sum(np.abs(M) ** 2, axis=(1, 2))
    Tz = Tz + np.einsum("mij,j->mi", np.conj(M), eta)[:, pos]
    Thess = (b * np.eye(n) + np.eye(n) * np.sum(np.abs(eta) ** 2)
             - np.outer(np.conj(eta[pos]), eta[pos]))
    return T, Tz, Thess


def minor_terms(Z, atoms_eta, weights, chart, b):
    """Value, gradient and Hessian summed atom by atom from minor_quad_form,
    and for each the (m, k) magnitudes of the per-atom terms before any
    cancellation (the value's floored at the atom's weight)."""
    terms = []
    for eta, w in zip(atoms_eta, weights):
        T, Tz, Thess = minor_quad_form(Z, eta, chart, b)
        value = w * (0.5 * np.log(T))
        grad = w * Tz / (2.0 * T[:, None])
        outer = np.max(np.abs(Tz), axis=1) ** 2 / (2.0 * T ** 2)
        # the Hessian of (1/2) log T: Thess / (2T) - Tz Tz^H / (2T^2)
        hess = Thess / (2.0 * T[:, None, None]) \
            - Tz[:, :, None] * np.conj(Tz)[:, None, :] / (2.0 * T[:, None, None] ** 2)
        terms.append((value, grad, w * hess,
                      np.maximum(np.abs(value), w), np.max(np.abs(grad), axis=1),
                      w * np.maximum(np.max(np.abs(Thess)) / (2.0 * T), outer)))
    value, grad, hess, *sizes = (np.stack(t, axis=1) for t in zip(*terms))
    return (value.sum(axis=1), grad.sum(axis=1), hess.sum(axis=1)), sizes


def row_error(x, ref, scale):
    """Largest deviation of each row, over the row's scale."""
    dev = np.abs(x - ref).reshape(ref.shape[0], -1)
    return np.max(dev, axis=1) / scale


def stacked_cases():
    """(n, k, atoms, weights, points, b) for n = 1..4, k in {1, 3, 64},
    unsmoothed (b = 0) and globally smoothed (b = 0.01); the points are
    homogeneous (48, n+1) rows, random or 1e-3 to 1e-2 from an atom
    (projectively: eta + d u with u a unit vector orthogonal to eta), to be
    taken in a chart with chart_project."""
    for n in (1, 2, 3, 4):
        for k in (1, 3, 64):
            rng = np.random.default_rng(100 * n + k)
            mu = random_measure(n, k, seed=7 * n + k)
            eta = mu.points[rng.integers(0, k, 24)]
            u = rng.standard_normal((24, n + 1)) + 1j * rng.standard_normal((24, n + 1))
            u -= np.sum(u * np.conj(eta), axis=1, keepdims=True) * eta
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            near = eta + 10.0 ** rng.uniform(-3, -2, (24, 1)) * u
            far = rng.standard_normal((24, n)) + 1j * rng.standard_normal((24, n))
            far = np.hstack([np.ones((24, 1)), far])
            for b in (0.0, 0.1 ** 2):
                yield n, k, mu.points, mu.weights, np.vstack([far, near]), b


def charted_cases():
    """stacked_cases in every chart: (chart, n, k, atoms, weights, Z, b)
    with Z the points' (48, n) chart rows."""
    for n, k, atoms, weights, rows, b in stacked_cases():
        for chart in range(n + 1):
            yield chart, n, k, atoms, weights, chart_project(rows, chart), b


def test_stacked_quad_form_matches_minor_oracle():
    for chart, n, k, atoms, weights, Z, b in charted_cases():
        T, Tz, Thess = analytic.quad_form_batch(Z, atoms, chart, 0.0, b)
        assert T.shape == (Z.shape[0], k) and Tz.shape == (Z.shape[0], k, n)
        assert Thess.shape == (k, n, n)
        refs = [minor_quad_form(Z, eta, chart, b) for eta in atoms]
        T_ref = np.stack([r[0] for r in refs], axis=1)
        Tz_ref = np.stack([r[1] for r in refs], axis=1)
        assert np.max(row_error(T, T_ref, np.max(T_ref, axis=1))) <= 1e-11
        tz_scale = np.max(np.abs(Tz_ref), axis=(1, 2))
        assert np.max(row_error(Tz, Tz_ref, tz_scale)) <= 1e-11
        np.testing.assert_allclose(Thess, np.stack([r[2] for r in refs]), atol=1e-14)


def test_fields_match_minor_oracle():
    for chart, n, k, atoms, weights, Z, b in charted_cases():
        refs, sizes = minor_terms(Z, atoms, weights, chart, b)
        for fn, ref, size in zip((analytic.field_value_batch, analytic.field_gradient_batch,
                                  analytic.field_hessian_batch), refs, sizes):
            got = fn(Z, atoms, weights, chart, b)
            assert got.shape == ref.shape
            # a row's largest entry: its largest per-atom term
            assert np.max(row_error(got, ref, np.max(size, axis=1))) <= 1e-11


def test_one_vector_and_one_row_stack_agree():
    # one (n+1,) vector is a stack of one atom: same shapes, same bits
    rng = np.random.default_rng(66)
    for n in (1, 2, 3):
        eta = random_measure(n, 1, seed=n).points[0]
        Z = rng.standard_normal((30, n)) + 1j * rng.standard_normal((30, n))
        for chart in range(n + 1):
            one = analytic.quad_form_batch(Z, eta, chart, 0.0, 0.02)
            stack = analytic.quad_form_batch(Z, eta[None, :], chart, 0.0, 0.02)
            for x, y in zip(one, stack):
                assert x.shape == y.shape and x.tobytes() == y.tobytes()


def test_one_atom_blocks_match_one_block(monkeypatch):
    # the fields add per-atom terms in atom order, and an atom's terms do not
    # depend on its block, so one atom per block gives the same bits
    fields = (analytic.field_value_batch, analytic.field_gradient_batch,
              analytic.field_hessian_batch)
    for chart, n, k, atoms, weights, Z, b in charted_cases():
        whole = [fn(Z, atoms, weights, chart, b) for fn in fields]
        with monkeypatch.context() as mp:
            mp.setattr(analytic, "_BLOCK_ENTRIES", 1)
            assert len(analytic.atom_blocks(k, Z.shape[0], n + 1)) == k
            blocked = [fn(Z, atoms, weights, chart, b) for fn in fields]
        for x, y in zip(blocked, whole):
            assert x.tobytes() == y.tobytes()


def test_zero_row_weights_drop_their_atom_exactly():
    # (k, m) weights: a row's zero weight adds exactly 0, also at the row
    # z = 0 that sits on atom 0 (T = 0), so each row's Hessian is the one of
    # the other atoms, to the bit
    mu = chart_measure([[0.0, 0.0], [0.5, -0.3j], [1j, 0.2]], [0.5, 0.3, 0.2])
    Z = np.array([[0.0, 0.0], [0.1, 0.2j], [0.4, -0.3j], [-1.0, 0.4]])
    assert analytic.quad_form_batch(Z[:1], mu.points[0], 0, 0.0, 0.0)[0][0, 0] == 0.0
    W = np.repeat(mu.weights[:, None], 4, axis=1)
    W[0, :2] = W[1, 2:] = 0.0
    H = analytic.field_hessian_batch(Z, mu.points, W, 0)
    for rows, drop in ((slice(0, 2), 0), (slice(2, 4), 1)):
        keep = np.arange(3) != drop
        other = analytic.field_hessian_batch(Z[rows], mu.points[keep], mu.weights[keep], 0)
        assert np.all(np.isfinite(H[rows])) and np.array_equal(H[rows], other)


def test_one_quad_form_call_per_atom_block(monkeypatch):
    real = analytic.quad_form_batch
    calls = []

    def counting(Z, eta, *args):
        calls.append(np.shape(eta)[0])
        return real(Z, eta, *args)

    monkeypatch.setattr(analytic, "quad_form_batch", counting)
    mu = random_measure(2, 64, seed=67)
    Z = np.random.default_rng(68).standard_normal((200, 2)) + 0.5j
    for fn in (analytic.field_value_batch, analytic.field_gradient_batch,
               analytic.field_hessian_batch):
        calls.clear()
        fn(Z, mu.points, mu.weights, 0, 0.01)
        assert calls == [64]
        with monkeypatch.context() as mp:
            # a budget of 16 atoms per block at 200 points: four calls
            mp.setattr(analytic, "_BLOCK_ENTRIES", 200 * 3 * 16)
            calls.clear()
            fn(Z, mu.points, mu.weights, 0, 0.01)
            assert calls == [16, 16, 16, 16]
