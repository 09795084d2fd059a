"""Closed-form first and second derivatives of the chart kernels.

Every field this library differentiates is a weighted sum of terms

    (1/2) log T(z),     T(z) = Ptilde(z) + a + b (1 + |z|^2),

where Ptilde(z) = (1/2) || M ||_F^2 with M_ij = l_i eta_j - l_j eta_i,
l = chart lift of z and eta a unit homogeneous vector.  Ptilde is a
Hermitian quadratic polynomial of z with constant complex Hessian

    d2 Ptilde / dz_c dzbar_d = delta_cd - conj(eta_pc) eta_pd,

and holomorphic gradient (conj(M) @ eta) restricted to the lifted slots.
For eta the canonical representative of an atom with chart coordinates w,
Ptilde(z) = (|z - w|^2 + |z ^ w|^2) / (1 + |w|^2), so b = 0 gives the
chart kernel N(., w) and b = eps^2 the chart lift of the globally smoothed
projective kernel.  The field functions take b only and pass a = 0 to
quad_form_batch, whose constant a stays because the benchmark's own test
calls the kernel with five positional arguments.

rho = (1/2) log(1 + |z|^2) is the Ptilde = 0 member with (a, b) = (0, 1).
Its closed forms live in geometry (fs_potential, fs_gradient, fs_hessian),
so this module handles atoms only.

quad_form_batch evaluates a whole (k, n+1) stack of atoms per call: it lifts
the points once and uses the projection form

    S = <l, eta> / |eta|^2,   l_perp = l - S eta,
    Ptilde = |eta|^2 |l_perp|^2,   dPtilde/dz = |eta|^2 conj(l_perp[pos]),

which equals the minor form in exact arithmetic.  l_perp is formed directly,
so near an atom, at chart distance d, its relative rounding error is about
1e-16 / d, the order of the minors themselves; the Lagrange form
|l|^2 |eta|^2 - |<l, eta>|^2 would cancel to about 1e-16 / d^2.  The field
functions take the atoms in blocks (atom_blocks) that keep every (m, k, n+1)
intermediate near _BLOCK_ENTRIES complex numbers, whatever k is, and make
one quad_form_batch call per block.  They add the per-atom terms along the
atom axis of atom-major (k, m) arrays.  For m >= 2 rows numpy reduces that
axis in atom order, so one-atom blocks give the same bits as one block; at
m = 1 it sums the (k, 1) atom column pairwise, so the last bits can differ.

This module is the library's one derivative engine for atoms: every
production gradient, Hessian and Monge-Ampere density of a field with atoms
is computed from these closed forms.  monge_ampere.hessian_fd_batch, the
one finite-difference Hessian, is kept only as the independent oracle that
`verify` compares against.
"""

from __future__ import annotations

import numpy as np

from .geometry import abs_sq_sum, chart_lift, row_sum


#: complex entries of one (rows, atoms, width) intermediate block (32 MiB);
#: every loop over atoms in the library takes its atoms in blocks of this size
_BLOCK_ENTRIES = 1 << 21


def atom_blocks(count: int, rows: int, width: int) -> list[slice]:
    """Slices over `count` atoms so that a (rows, atoms, width) array stays
    near _BLOCK_ENTRIES entries; one slice covers every atom when they fit."""
    step = max(1, _BLOCK_ENTRIES // max(1, rows * width))
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _lift_positions(n: int, chart: int) -> np.ndarray:
    """Indices of the affine coordinates inside the homogeneous lift."""
    return np.delete(np.arange(n + 1), chart)


def quad_form_batch(Z: np.ndarray, eta: np.ndarray, chart: int, a: float, b: float):
    """Evaluate T, dT/dz and the constant Hessian of T at rows of Z.

    Z : (m, n) complex points in the chart
    eta : (k, n+1) stack of homogeneous atom vectors (one (n+1,) vector is
          a stack of one)
    a : 0 from every field function; only perfbench/test_perfbench.py's
        five-positional call sets it
    returns (T (m, k), Tz (m, k, n), Thess (k, n, n))
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    m, n = Z.shape
    t = abs_sq_sum(Z)
    T = np.full(m, a + b, dtype=float) + b * t
    E = np.atleast_2d(np.asarray(eta, dtype=complex))
    e2 = row_sum(E.real ** 2 + E.imag ** 2)[:, None]             # |eta|^2, (k, 1)
    # atom-major (k, m) work arrays, written in place to spare temporaries;
    # the (m, k) results are views of them
    lifts = chart_lift(Z, chart).T                                # (n+1, m), once for all atoms
    # S = <l, eta> / |eta|^2 slot by slot, so that an atom's values do not
    # depend on which other atoms share its block
    Ec = np.conj(E / e2)
    S = Ec[:, 0, None] * lifts[0]
    buf = np.empty_like(S)
    for j in range(1, n + 1):
        S += np.multiply(Ec[:, j, None], lifts[j], out=buf)
    perp_sq = np.zeros(S.shape)
    sq = np.empty(S.shape)
    Tz = np.empty((n,) + S.shape, dtype=complex)
    for j in range(n + 1):
        c = j - (j > chart)
        perp = buf if j == chart else Tz[c]
        np.subtract(lifts[j], np.multiply(S, E[:, j, None], out=perp), out=perp)
        perp_sq += np.multiply(perp.real, perp.real, out=sq)
        perp_sq += np.multiply(perp.imag, perp.imag, out=sq)
        if j != chart:                                            # Tz from slot j of l_perp
            np.conj(perp, out=perp)
            perp *= e2
            if b:
                perp += b * np.conj(Z[:, c])
    perp_sq *= e2
    perp_sq += T
    T = perp_sq.T
    Tz = Tz.transpose(2, 1, 0)
    pos = _lift_positions(n, chart)
    Thess = (b * np.eye(n, dtype=complex) + e2[:, :, None] * np.eye(n)
             - np.conj(E[:, pos, None]) * E[:, None, pos])
    return T, Tz, Thess


def log_half_hessian(T: np.ndarray, Tz: np.ndarray, Thess: np.ndarray) -> np.ndarray:
    """Complex Hessian (..., n, n) of (1/2) log T from T (...) and Tz (..., n).

    Thess broadcasts against the leading axes: one (n, n) matrix, or the
    (k, n, n) stack of a quad_form_batch call against its (m, k) T.
    """
    outer = Tz[..., :, None] * np.conj(Tz)[..., None, :]
    return Thess / (2.0 * T[..., None, None]) - outer / (2.0 * T[..., None, None] ** 2)


def _field_blocks(Z, atoms_eta, weights):
    """Points as (m, n), atoms as (k, n+1), weights as a (k, 1) column and
    the atom blocks."""
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    E = np.asarray(atoms_eta, dtype=complex).reshape(-1, Z.shape[1] + 1)
    w = np.asarray(weights, dtype=float).reshape(-1, 1)
    return Z, E, w, atom_blocks(E.shape[0], Z.shape[0], Z.shape[1] + 1)


def field_value_batch(Z, atoms_eta, weights, chart, b=0.0):
    """Sum of w_i (1/2) log T_i at rows of Z."""
    Z, E, w, blocks = _field_blocks(Z, atoms_eta, weights)
    out = np.zeros(Z.shape[0])
    for blk in blocks:
        T, _, _ = quad_form_batch(Z, E[blk], chart, 0.0, b)
        with np.errstate(divide="ignore"):
            terms = np.log(T.T)                                   # (k, m)
        terms *= 0.5 * w[blk]
        out += np.sum(terms, axis=0)
    return out


def field_gradient_batch(Z, atoms_eta, weights, chart, b=0.0):
    """Holomorphic gradient (m, n) of the weighted field."""
    Z, E, w, blocks = _field_blocks(Z, atoms_eta, weights)
    out = np.zeros(Z.shape, dtype=complex)
    for blk in blocks:
        T, Tz, _ = quad_form_batch(Z, E[blk], chart, 0.0, b)
        r = w[blk] / (2.0 * T.T)                                  # (k, m)
        terms = np.empty(r.shape, dtype=complex)
        for c, Tz_c in enumerate(Tz.transpose(2, 1, 0)):
            out[:, c] += np.sum(np.multiply(Tz_c, r, out=terms), axis=0)
    return out


def field_hessian_batch(Z, atoms_eta, weights, chart, b=0.0):
    """Complex Hessian (m, n, n) of the weighted field.

    Each upper-triangle entry sums w (Thess / (2T) - Tz Tz^H / (2T^2)) over
    the atoms; the lower triangle is the conjugate of the upper and the
    diagonal is real, so the result is exactly Hermitian.
    """
    Z, E, w, blocks = _field_blocks(Z, atoms_eta, weights)
    m, n = Z.shape
    upper = list(zip(*np.triu_indices(n)))
    out = np.zeros((m, n, n), dtype=complex)
    for blk in blocks:
        T, Tz, Thess = quad_form_batch(Z, E[blk], chart, 0.0, b)
        T, Tz = T.T, Tz.transpose(2, 1, 0)                        # (k, m), (n, k, m)
        r = w[blk] / (2.0 * T)
        q = r / T
        outer, first = np.empty(T.shape, dtype=complex), np.empty(T.shape, dtype=complex)
        sq, diag = np.empty(T.shape), np.empty(T.shape)
        for c, d in upper:
            if c == d:
                np.multiply(Tz[c].real, Tz[c].real, out=sq)
                sq += np.multiply(Tz[c].imag, Tz[c].imag, out=diag)
                sq *= q
                np.multiply(r, Thess[:, c, c, None].real, out=diag)
                out[:, c, c] += np.sum(np.subtract(diag, sq, out=diag), axis=0)
            else:
                np.conj(Tz[d], out=outer)
                outer *= Tz[c]
                outer *= q
                np.multiply(r, Thess[:, c, d, None], out=first)
                out[:, c, d] += np.sum(np.subtract(first, outer, out=first), axis=0)
    for c, d in upper:
        if c != d:
            out[:, d, c] = np.conj(out[:, c, d])
    return out

