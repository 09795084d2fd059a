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
|l|^2 |eta|^2 - |<l, eta>|^2 would cancel to about 1e-16 / d^2.

Buffer layout.  quad_form_batch writes T (k, m) and Tz (n, k, m) atom-major,
as planes of one allocation, and returns the (m, k) and (m, k, n) transposed
views, which the field functions transpose back (no copy) and contract along
the atom axis.  It works with conj(S) and conj(l_perp) from contiguous
conjugated lift rows, so no pass conjugates; conjugation is exact, so only
the sign of an exactly cancelled zero can differ.

Blocks.  The field functions take the atoms in atom_blocks, which keep
every (m, k, n+1) intermediate near _BLOCK_ENTRIES complex numbers, with one
quad_form_batch call per block.  Each sum over atoms reduces the atom axis of
a (k, m) array (np.sum(axis=0) or np.einsum); for m >= 2 rows numpy adds the
atoms in order, one (m,) row at a time, and each block's sum joins a running
sum, so one-atom blocks give the bits of one block.  That holds only for an
accumulator of one kind of term, so the Hessian keeps two (see
field_hessian_batch).  At m = 1 numpy sums the (k, 1) atom column pairwise,
and a lone (1, 1) buffer rounds its complex products apart from a longer
loop, so the last bits can differ.

No chart.  _homogeneous_gradient gives the Sobolev scan dF/dzeta at
homogeneous points, with no chart lift, projection or rho gradient;
field_gradient_batch, the chart gradient, serves the near-atom refinement's
other atoms.

This module is the library's one derivative engine for atoms: every
production gradient, Hessian and Monge-Ampere density of a field with atoms
is computed from these closed forms.  monge_ampere.hessian_fd_batch, the
one finite-difference Hessian, is kept only as the independent oracle that
`verify` compares against.
"""

from __future__ import annotations

import numpy as np

from .geometry import _abs_sq_planes, abs_sq_sum, chart_lift, row_sum


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
    k = E.shape[0]
    e2 = row_sum(E.real ** 2 + E.imag ** 2)[:, None]             # |eta|^2, (k, 1)
    lc = np.empty((n + 1, m), dtype=complex)                      # conj lift rows, for all atoms
    np.conj(chart_lift(Z, chart).T, out=lc)
    # atom-major (k, m) work arrays, written in place; the (m, k) results are
    # views of them.  They are planes of one allocation (Tz's n planes,
    # conj(S), and a real plane split into |l_perp|^2 and a scratch), which
    # glibc keeps for the next call; arrays allocated one by one went back to
    # the system and had their pages faulted in again on every call
    work = np.empty((n + 2, k, m), dtype=complex)
    Tz, Sc = work[:n], work[n]
    perp_sq, sq = work[n + 1].view(float).reshape(2, k, m)
    # conj(S) = sum_j (eta_j / |eta|^2) conj(l_j) slot by slot, so that an
    # atom's values do not depend on which other atoms share its block; the
    # chart slot's l_j = 1 adds its column with no multiply
    Eh = E / e2
    if chart == 0:
        np.copyto(Sc, Eh[:, :1])
    else:
        np.multiply(Eh[:, :1], lc[0], out=Sc)
    Sc_f = Sc.view(float)
    for j in range(1, n + 1):
        if j == chart:
            Sc += Eh[:, j, None]
        else:                                                     # Tz[0]: scratch until l_perp
            Sc_f += np.multiply(Eh[:, j, None], lc[j], out=Tz[0]).view(float)
    # conj(l_perp) slot by slot into Tz, the chart slot's into a free buffer
    Ec = np.conj(E)
    for j in range(n + 1):
        c = j - (j > chart)
        if j != chart:
            perp = Tz[c]
        else:                                                     # slot j+1's Tz, or spent S
            perp = Tz[chart] if chart < n else Sc
        np.multiply(Sc, Ec[:, j, None], out=perp)
        perp_f = perp.view(float)
        np.subtract(lc[j].view(float), perp_f, out=perp_f)
        if j == 0:
            np.multiply(perp.real, perp.real, out=perp_sq)
        else:
            perp_sq += np.multiply(perp.real, perp.real, out=sq)
        perp_sq += np.multiply(perp.imag, perp.imag, out=sq)
        if j != chart:                                            # Tz from slot j of conj(l_perp)
            perp_f *= e2
            if b:
                perp_f += (b * lc[j]).view(float)
    perp_sq *= e2
    perp_sq += T
    T = perp_sq.T
    Tz = Tz.transpose(2, 1, 0)
    pos = _lift_positions(n, chart)
    Thess = (b * np.eye(n, dtype=complex) + e2[:, :, None] * np.eye(n)
             - np.conj(E[:, pos, None]) * E[:, None, pos])
    return T, Tz, Thess


def _homogeneous_gradient(zeta: np.ndarray, atoms_eta, weights) -> np.ndarray:
    """dF/dzeta (n+1, m) of F = sum_i w_i log(|zeta ^ eta_i| / (|zeta| |eta_i|))
    at the columns of the slot planes zeta (n+1, m): homogeneous coordinates
    of any scale and phase, each plane contiguous.

    F lifts the potential U_mu to C^(n+1) \\ 0.  In the projection form
    zeta_perp = zeta - S eta, S = <zeta, eta> / |eta|^2,

        dF/dzeta = sum_i w_i conj(zeta_perp_i) / (2 |zeta_perp_i|^2)
                   - (sum_i w_i) conj(zeta) / (2 |zeta|^2),

    and |grad U_mu|^2 = 2 |zeta|^2 |dF/dzeta|^2 in the FS metric, with no
    chart.  zeta_perp is formed directly, as in quad_form_batch, so near an
    atom its relative rounding error stays about 1e-16 / d.  The atoms come
    in atom_blocks, each block as (n+1, k, m) planes of zeta_perp that one
    np.einsum contracts along the atom axis.
    """
    n1, m = zeta.shape
    E = np.asarray(atoms_eta, dtype=complex).reshape(-1, n1)
    w = np.asarray(weights, dtype=float).reshape(-1, 1)
    # conj(dF/dzeta): the term of (sum_i w_i) log |zeta|, then each block's
    # w zeta_perp / (2 |zeta_perp|^2)
    out = zeta * (-0.5 * float(np.sum(w)) / _abs_sq_planes(zeta))
    out_f = out.view(float)
    for blk in atom_blocks(E.shape[0], m, n1):
        Eb = E[blk]
        Eh = np.conj(Eb) / row_sum(Eb.real ** 2 + Eb.imag ** 2)[:, None]
        S = Eh[:, :1] * zeta[0]                                   # (k, m), slot by slot
        for j in range(1, n1):
            S += Eh[:, j, None] * zeta[j]
        perp = np.multiply(Eb.T[:, :, None], S)                   # (n+1, k, m)
        np.subtract(zeta[:, None, :], perp, out=perp)
        # r = w / (2 |zeta_perp|^2) on both parts of each complex entry
        r = np.repeat(np.divide(0.5 * w[blk], _abs_sq_planes(perp)), 2, axis=1)
        out_f += np.einsum("kx,jkx->jx", r, perp.view(float))
    return np.conj(out, out=out)


def _field_blocks(Z, atoms_eta, weights):
    """Points as (m, n), atoms as (k, n+1), weights as a (k, 1) column, or
    (k, m) for weights of each row, and the atom blocks."""
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    E = np.asarray(atoms_eta, dtype=complex).reshape(-1, Z.shape[1] + 1)
    w = np.asarray(weights, dtype=float).reshape(E.shape[0], -1)
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

    Each upper-triangle entry is sum_i r_i Thess_i - sum_i q_i Tz_i Tz_i^H,
    r = w / (2T) and q = r / T; the lower triangle is the conjugate of the
    upper and the diagonal is real, so the result is exactly Hermitian.
    weights may be (k, m), one for each row; a zero weight adds 0, even at T = 0.
    Both sums contract quad_form_batch's atom-major buffers along the atom
    axis, real and imaginary parts apart: the constant sum reads Thess's
    (k,) column, and the quadratic one the atom's Re and Im of
    Tz_c conj(Tz_d), formed from Tz's real planes.  The two sums have their
    own accumulators across atom blocks, and the entry is their difference,
    formed once after the last block.
    """
    Z, E, w, blocks = _field_blocks(Z, atoms_eta, weights)
    m, n = Z.shape
    upper = [(c, d) for c in range(n) for d in range(c, n)]
    # per upper entry: Re and Im of the constant sum, then of the quadratic
    # one; part takes each block's contraction before it is added
    sums, part = np.zeros((len(upper), 4, m)), np.empty(m)
    for blk in blocks:
        T, Tz, Thess = quad_form_batch(Z, E[blk], chart, 0.0, b)
        T, Tz = T.T, Tz.transpose(2, 1, 0)                        # (k, m), (n, k, m) buffers
        if np.ndim(weights) == 2:                                 # r = q = 0, not 0 / 0
            np.copyto(T, np.inf, where=w[blk] == 0.0)
        r = np.divide(0.5 * w[blk], T)                            # w / (2T)
        q = np.divide(r, T, out=T)                                # r / T, in T's buffer
        for acc, (c, d) in zip(sums, upper):
            acc[0] += np.einsum("km,k->m", r, Thess[:, c, d].real, out=part)
            if c != d:
                acc[1] += np.einsum("km,k->m", r, Thess[:, c, d].imag, out=part)
        # Re and Im of Tz_c conj(Tz_d), then times q: a Tz that overflows
        # gives inf * 0 = nan, which the grids' guards raise on, never 0
        x, y = Tz.real, Tz.imag
        s, tmp = r, np.empty_like(r)                              # r is spent
        for acc, (c, d) in zip(sums, upper):
            np.multiply(x[c], x[d], out=s)
            s += np.multiply(y[c], y[d], out=tmp)
            acc[2] += np.einsum("km,km->m", q, s, out=part)
            if c != d:
                np.multiply(y[c], x[d], out=s)
                s -= np.multiply(x[c], y[d], out=tmp)
                acc[3] += np.einsum("km,km->m", q, s, out=part)
    out = np.empty((m, n, n), dtype=complex)
    for acc, (c, d) in zip(sums, upper):
        np.subtract(acc[0], acc[2], out=out.real[:, c, d])
        np.subtract(acc[1], acc[3], out=out.imag[:, c, d])
        if c != d:
            out.real[:, d, c] = out.real[:, c, d]
            np.negative(out.imag[:, c, d], out=out.imag[:, d, c])
    return out
