"""Closed-form Monge-Ampere densities, masses, ball profiles and mixed
discriminants, with finite-difference complex Hessians as the oracle.

Densities are reported relative to the unit-mass FS volume as the ratio
det(H_phi) / det(H_rho) of complex Hessians, which eliminates every d^c and
pi normalization constant.  Total masses integrate det(H_phi) over chart
balls weighted by the partition of unity, one row of which serves every
chart, and divide by the chart integral of det(H_rho) (= 2^-n pi^n / n!
for the unit-volume convention); for any
smooth global field rho + u the answer is 1 by cohomology, which is the
grid's strongest self-check.  _ma_det owns det(H_phi): hermitian_det (closed
form for n <= 3, as are the mixed discriminants' subset sums) at eps > 0, an
expansion about the nearest atom at eps = 0 whose terms are complex_det's
(closed form at n = 2, 3); fs_volume_density is det(H_rho).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement, islice, product

import numpy as np

from . import analytic
from .errors import GridTooCoarse, NegativeDensity, NonConvergent, SingularStencil, \
    ValidationError
from .geometry import (
    HomogeneousPoint,
    chart_lift,
    chart_project,
    check_chart,
    fs_ball_volume,
    fs_hessian,
    fs_hessian_norm,
    fs_volume_density,
    fs_volume_norm,
    geodesic_distance_batch,
    max_modulus_chart,
    row_sum,
)
from .measures import AtomicMeasure, partition_from_sq_moduli
from .parallel import run_chunked
from .potentials import PotentialField, _check_eps, psh_lift

SQRT2 = math.sqrt(2.0)

#: most n-tuples of atoms that ma_product_expansion_check expands
TERM_CAP = 10**7

#: work-array entries of one det H_phi tile of the grids; see _tile_rows
_TILE_ENTRIES = 1 << 17


# ---------------------------------------------------------------------------
# finite-difference complex Hessians
# ---------------------------------------------------------------------------

def _hessian_stencil(n: int, h: float):
    """Displacements and assembly indices for the FD complex Hessian.

    Layout: [center] + per-coordinate 4-point Laplacian blocks + per-pair
    16-point cross blocks for the four real mixed partials.
    """
    shifts = [np.zeros(n, dtype=complex)]
    for j in range(n):
        e = np.zeros(n, dtype=complex)
        e[j] = h
        shifts.extend([e, -e, 1j * e, -1j * e])
    pair_base = len(shifts)
    pairs = list(combinations(range(n), 2))
    for j, k in pairs:
        for a_im in (False, True):
            for b_im in (False, True):
                a = np.zeros(n, dtype=complex)
                b = np.zeros(n, dtype=complex)
                a[j] = 1j * h if a_im else h
                b[k] = 1j * h if b_im else h
                shifts.extend([a + b, a - b, -a + b, -a - b])
    return np.stack(shifts), pairs, pair_base


def hessian_fd_batch(fieldfn, Z: np.ndarray, h: float):
    """FD complex Hessians at rows of Z: returns (H (m,n,n), finite (m,)).

    fieldfn must accept an (M, n) batch and return (M,) real values.
    O(h^2) accurate on smooth fields; each H is Hermitian by construction.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    m, n = Z.shape
    shifts, pairs, pair_base = _hessian_stencil(n, h)
    S = shifts.shape[0]
    pts = (Z[None, :, :] + shifts[:, None, :]).reshape(S * m, n)
    vals = np.asarray(fieldfn(pts), dtype=float).reshape(S, m)
    finite = np.all(np.isfinite(vals), axis=0)
    v = np.where(np.isfinite(vals), vals, 0.0)
    H = np.zeros((m, n, n), dtype=complex)
    h2 = h * h
    center = v[0]
    for j in range(n):
        base = 1 + 4 * j
        H[:, j, j] = (v[base] + v[base + 1] + v[base + 2] + v[base + 3]
                      - 4.0 * center) / (4.0 * h2)
    for idx, (j, k) in enumerate(pairs):
        base = pair_base + 16 * idx
        P = []
        for blk in range(4):
            b = base + 4 * blk
            P.append((v[b] - v[b + 1] - v[b + 2] + v[b + 3]) / (4.0 * h2))
        Pxx, Pxy, Pyx, Pyy = P
        H[:, j, k] = 0.25 * ((Pxx + Pyy) + 1j * (Pxy - Pyx))
        H[:, k, j] = np.conj(H[:, j, k])
    return H, finite


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------

def hermitian_det(H: np.ndarray) -> np.ndarray:
    """Real determinant of a (..., n, n) Hermitian batch.

    Reads only the real diagonal and the upper triangle.  For n <= 3 it
    expands the determinant in real arithmetic (cofactors along the first
    row, with Re(h01 h12 conj(h02)) as the one cross term); larger n goes
    through LAPACK.  The closed forms differ from LAPACK by a few ulps of
    ||H||_F^n, and at n = 1 they return h00 exactly.
    """
    H = np.asarray(H)
    n = H.shape[-1]
    if n > 3:
        return np.linalg.det(H).real
    h00 = H[..., 0, 0].real
    if n == 1:
        return h00.copy()
    h11 = H[..., 1, 1].real
    h01 = H[..., 0, 1]
    a01 = h01.real ** 2 + h01.imag ** 2
    if n == 2:
        return h00 * h11 - a01
    h22 = H[..., 2, 2].real
    h02, h12 = H[..., 0, 2], H[..., 1, 2]
    # Re(h01 h12 conj(h02)) with the product h01 h12 = p + iq
    p = h01.real * h12.real - h01.imag * h12.imag
    q = h01.real * h12.imag + h01.imag * h12.real
    cross = p * h02.real + q * h02.imag
    return (h00 * h11 * h22 + 2.0 * cross
            - h00 * (h12.real ** 2 + h12.imag ** 2)
            - h11 * (h02.real ** 2 + h02.imag ** 2)
            - h22 * a01)


def complex_det(M: np.ndarray) -> np.ndarray:
    """Complex determinant of a (..., n, n) batch of general matrices.

    n = 2 and 3 expand the determinant along the first row in complex
    arithmetic; n = 1 and n >= 4 go through LAPACK, whose 1 x 1 value
    sign * exp(log|m|) is not m to the bit.
    """
    n = M.shape[-1]
    if n not in (2, 3):
        return np.linalg.det(M)
    if n == 2:
        return M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    m = [[M[..., r, c] for c in range(3)] for r in range(3)]
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


# ---------------------------------------------------------------------------
# mixed discriminants
# ---------------------------------------------------------------------------

def mixed_discriminant(mats) -> np.ndarray:
    """Normalized mixed discriminant: symmetric multilinear, D(A,..,A) = det A.

    mats is a (..., n, n, n) Hermitian stack, the n matrices on axis -3 (a
    list of n (n, n) matrices is one stack); returns (...).  Computed by
    subset inclusion-exclusion with hermitian_det over the leading axes,
    D = (1/n!) sum_{S nonempty} (-1)^(n-|S|) det(sum_{i in S} A_i).
    For PSD Hermitian inputs the value is nonnegative.
    """
    try:
        A = np.asarray(mats, dtype=complex)
        n, got = A.shape[-1], A.shape
    except ValueError:                           # ragged: the matrices differ in shape
        n, got = np.shape(mats[0])[-1], [np.shape(B) for B in mats]
    if got[-3:] != (n, n, n):
        raise ValidationError(f"need {n} matrices of shape ({n},{n}) on axis -3; got {got}")
    total = 0.0
    for size in range(1, n + 1):
        for S in combinations(range(n), size):
            total += (-1) ** (n - size) * hermitian_det(sum(A[..., i, :, :] for i in S))
    return total / math.factorial(n)


def _atom_hessians(atoms: np.ndarray, chart: int, Z: np.ndarray):
    """T (m, N) and every atom's kernel Hessian (m, N, n, n) at the chart rows Z."""
    T, Tz, Thess = analytic.quad_form_batch(Z, atoms, chart, 0.0, 0.0)
    return T, analytic.log_half_hessian(T, Tz, Thess)


@dataclass(frozen=True)
class ExpansionCheck:
    residual: np.ndarray
    scale: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray

    @property
    def relative(self) -> np.ndarray:
        return self.residual / self.scale


def ma_product_expansion_check(mu: AtomicMeasure, chart: int, Z) -> ExpansionCheck:
    """Product-formula check for the chart lift of U_mu at the chart rows Z (m, n).

    Compares det(sum_i w_i H_i) against the multilinear expansion
    sum over n-tuples of atoms of w_(i1)..w_(in) D(H_(i1), .., H_(in)),
    where H_i is the complex Hessian of the kernel with atom i at the row.
    Raises ValidationError when N^n exceeds TERM_CAP.  The multisets go to
    mixed_discriminant in analytic.atom_blocks blocks, and each row adds
    its terms one by one in multiset order (cumsum), so its values depend
    neither on the blocks nor on the other rows; every field is (m,).

    The reported scale is max(|lhs| + sum |terms|, ||sum w_i H_i||_F^n): the
    second term is the natural rounding scale of a determinant, which keeps
    the relative residual meaningful when the determinant itself vanishes
    (the single-kernel Hessian is degenerate away from its atom for n >= 2).
    """
    n = mu.n
    N = mu.num_atoms
    if N**n > TERM_CAP:
        raise ValidationError(f"N^n = {N}^{n} exceeds the {TERM_CAP} term cap")
    T, hessians = _atom_hessians(mu.points, check_chart(chart, n), Z)
    w = mu.weights
    lhs_mat = np.sum(w[:, None, None] * hessians, axis=1)
    lhs = hermitian_det(lhs_mat)
    rhs, abssum = np.zeros_like(lhs), np.abs(lhs)
    multisets = combinations_with_replacement(range(N), n)
    for blk in analytic.atom_blocks(math.comb(N + n - 1, n), T.shape[0], n ** 3):
        idx = np.array(list(islice(multisets, blk.stop - blk.start))).reshape(-1, n)
        # multinomial coefficient n! / prod(c!) over the runs of the sorted multiset
        coeff, run = np.full(len(idx), float(math.factorial(n))), np.ones(len(idx))
        for k in range(1, n):
            run = np.where(idx[:, k] == idx[:, k - 1], run + 1.0, 1.0)
            coeff /= run
        terms = coeff * np.prod(w[idx], axis=1) * mixed_discriminant(hessians[:, idx])
        rhs = np.cumsum(np.column_stack([rhs, terms]), axis=1)[:, -1]
        abssum = np.cumsum(np.column_stack([abssum, np.abs(terms)]), axis=1)[:, -1]
    scale = np.maximum(np.maximum(abssum, np.linalg.norm(lhs_mat, axis=(1, 2)) ** n), 1e-300)
    return ExpansionCheck(residual=np.abs(lhs - rhs), scale=scale, lhs=lhs, rhs=rhs)


def smooth_wedge_density(mu: AtomicMeasure, chart: int, m: int, Z) -> np.ndarray:
    """Density (r,) of the m-fold potential / (n-m)-fold FS-form wedge at the
    chart rows Z (r, n), V the chart lift of U_mu: binom(n, m) *
    D(H_V x m, H_rho x (n-m)) relative to Lebesgue, the m-th binomial term
    in the expansion of det(H_V + H_rho).  Reduces to det H_rho at m = 0
    and to det H_V at m = n.
    """
    n = mu.n
    lift = psh_lift(mu, chart)
    if not 0 <= m <= n:
        raise ValidationError(f"m = {m} outside 0..{n}")
    mats = [lift.complex_hessian(Z)] * m + [fs_hessian(Z)] * (n - m)
    return math.comb(n, m) * mixed_discriminant(np.stack(mats, axis=-3))


# ---------------------------------------------------------------------------
# Monge-Ampere density and mass
# ---------------------------------------------------------------------------

def _ma_det(lift: PotentialField, Z: np.ndarray):
    """det H_phi (m,) and H_phi (m, n, n) at the chart rows Z (m, n).

    eps > 0: hermitian_det of the closed-form Hessian.  At eps = 0 that
    determinant cancels near an atom, so H_phi = w_i A + R about each row's
    nearest atom i (the argmin of T), A its kernel Hessian and R the other
    atoms' weighted sum, and det H_phi = sum_S w_i^|S| det(A's columns S, R's
    others) over the column subsets S but the full one, whose w_i^n det A is
    exactly 0 off the atom; complex_det takes each of them.  A row at an
    atom (T = 0) gives NaN at n >= 2.
    """
    if lift.b > 0.0:
        H = lift.complex_hessian(Z)
        return hermitian_det(H), H
    m, n = Z.shape
    w = lift.weights
    subsets = np.array(list(product((False, True), repeat=n))[:-1])
    dets, H = np.empty(m), np.empty((m, n, n), dtype=complex)
    for blk in analytic.atom_blocks(m, w.size, n * n):
        T, hess = _atom_hessians(lift.atoms_eta, lift.chart, Z[blk])
        rows, near = np.arange(T.shape[0]), np.argmin(T, axis=1)
        A, wi, terms = hess[rows, near], w[near], w[:, None, None] * hess
        terms[rows, near] = 0.0              # R sums the other atoms, never H - w_i A
        R = np.sum(terms, axis=1)
        dets[blk] = sum(wi ** S.sum() * complex_det(np.where(S, A, R)) for S in subsets).real
        H[blk] = wi[:, None, None] * A + R
    return dets, H


def ma_density(mu: AtomicMeasure, chart: int, Z: np.ndarray, eps: float = 0.0) -> np.ndarray:
    """det(H_phi) / det(H_rho) at the chart rows Z (m, n), phi the (smoothed)
    chart lift of U_mu; returns (m,) densities.

    Both Hessians are closed form, det(H_phi) from _ma_det.  Values in
    [-tol, 0) are rounding and are clipped to 0; below -tol raises
    NegativeDensity.  A density that is not finite raises SingularStencil at
    eps = 0, where only a row at an atom gives one, and NonConvergent at
    eps > 0 (the Hessians overflow at a huge eps).  Each error names the
    first row that trips it.
    """
    Z = np.asarray(Z, dtype=complex)
    lift = psh_lift(mu, chart, eps)
    # a huge eps overflows the Hessians, a row at an atom divides by T = 0;
    # the finiteness guard below raises
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        det, H_phi = _ma_det(lift, Z)
        density = det / fs_volume_density(Z)
        scale = np.maximum(1.0, (np.linalg.norm(H_phi, axis=(1, 2)) / fs_hessian_norm(Z)) ** mu.n)
    bad = np.flatnonzero(~np.isfinite(density))
    if bad.size:
        error = NonConvergent if lift.b > 0.0 else SingularStencil
        raise error(f"density {density[bad[0]]} is not finite (row {bad[0]})")
    bad = np.flatnonzero(density < -1e-6 * scale)
    if bad.size:
        i = bad[0]
        raise NegativeDensity(f"density {density[i]:.3e} below -1e-6 * {scale[i]:.3e} (row {i})")
    return np.where(density < 0.0, 0.0, density)


@dataclass
class MassReport:
    """Mass of a Monge-Ampere measure over a grid or a family of balls."""

    total_mass: float
    ball_profile: list = field(default_factory=list)   # [(radius, mass)], ascending
    grid: dict = field(default_factory=dict)
    clipped_cells: int = 0
    vol_check: float = 0.0        # quadrature of the exact FS volume (should be ~ target)
    vol_ratios: list = field(default_factory=list)     # [(radius, mass / ball volume)]


def _tile_rows(atoms: int, n: int) -> int:
    """Cells per det H_phi tile, at least 2: about _TILE_ENTRIES entries of
    the engine's work arrays, which hold atoms * (n+1) entries a row for the
    atoms (T, the lift's products, Tz) and about 16 for the row itself (its
    lift, Hessian and determinant terms)."""
    return max(2, _TILE_ENTRIES // (atoms * (n + 1) + 16))


def _cell_dets(lift: PotentialField, Z: np.ndarray):
    """det H_phi (_ma_det) at the cells Z in tiles of _tile_rows contiguous
    cells, so the engine's work arrays stay in cache; a lone last row joins
    the tile before it, since the engine sums one row's atoms in another
    order, and so the bits do not depend on the tile size.  Negative
    determinants are rounding, set to 0 and counted.  Returns (dets, clipped)."""
    m, n = Z.shape
    starts = list(range(0, m, _tile_rows(lift.weights.size, n)))
    if len(starts) > 1 and m - starts[-1] == 1:
        starts.pop()
    dets = np.empty(m)
    # a huge eps overflows, a cell at an atom divides by 0: the callers' guards raise
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lo, hi in zip(starts, starts[1:] + [m]):
            dets[lo:hi] = _ma_det(lift, Z[lo:hi])[0]
    neg = dets < 0.0
    dets[neg] = 0.0
    return dets, int(np.count_nonzero(neg))


def _self_check(mass, eps: float, vol: float, exact_vol: float, tol: float) -> None:
    """The grids' one self-check: NonConvergent when the mass (a float or a
    list) is not finite (the Hessians overflow at a huge eps), GridTooCoarse
    when the grid's FS volume vol misses exact_vol by more than the relative tol."""
    if not np.all(np.isfinite(mass)):
        raise NonConvergent(f"MA mass {mass} at eps = {eps!r} is not finite")
    miss = abs(vol - exact_vol) / max(exact_vol, 1e-300)
    if miss > tol:
        raise GridTooCoarse(f"grid self-check: FS volume off by {miss:.2%} (tolerance {tol:.2%})")


def _axis_columns(ticks: np.ndarray, axes: int, lo: int, hi: int) -> list:
    """Midpoint columns of the cells with flat (C order) indices lo..hi-1
    of a grid of `axes` axes whose midpoints on every axis are ticks (m,).
    Axis j's midpoint holds for runs of m^(axes-1-j) flat indices, so its
    column is an np.repeat of ticks over the runs that the range meets."""
    m = ticks.size
    cols = []
    for j in range(axes):
        run = m ** (axes - 1 - j)
        first, last = lo // run, (hi - 1) // run
        # the midpoints of runs first..last, the first and the last run cut to the range
        col = np.tile(ticks, last // m - first // m + 1)[first % m:first % m + last + 1 - first]
        if run > 1:          # np.repeat copies element by element: 0.3 ms on 16384 runs of 1
            counts = np.full(col.size, run)
            counts[0] -= lo - first * run
            counts[-1] -= (last + 1) * run - hi
            col = np.repeat(col, counts)
        cols.append(col)
    return cols


def _cells_from_columns(center: np.ndarray, cols: list) -> np.ndarray:
    """Cells center + (cols[:n] + i cols[n:]): real parts on the first n columns."""
    n = len(cols) // 2
    center = np.asarray(center, dtype=complex)
    Z = np.empty((cols[0].size, n), dtype=complex)
    for j in range(n):
        np.add(center[j].real, cols[j], out=Z.real[:, j])
        np.add(center[j].imag, cols[n + j], out=Z.imag[:, j])
    return Z


def _box_cells(center: np.ndarray, a: float, m: int, rng, hole: bool):
    """Midpoint cells of the box center + [-a, a]^(2n), m per axis.

    Returns the cells with flat (C order) indices rng = (lo, hi), real
    parts on the first n axes, and the cell volume.  Each axis's column
    comes from _axis_columns, and Z's real and imaginary parts are written
    from the columns.  With hole set, the cells inside the box of half-width
    a / 2 (every |column| <= a / 2) are left out; m a multiple of 4 aligns
    that box with cell boundaries.  The ball profile's levels are these
    cells; the total mass builds only its ball's cells (_ball_cells).
    """
    n = center.shape[0]
    step = 2.0 * a / m
    cols = _axis_columns(-a + (np.arange(m) + 0.5) * step, 2 * n, *rng)
    if hole:
        out = np.abs(cols[0]) > a / 2.0
        for col in cols[1:]:
            out |= np.abs(col) > a / 2.0
        cols = [col[out] for col in cols]
    return _cells_from_columns(center, cols), step ** (2 * n)


def _ball_cells(n: int, a: float, m: int, rng, r2: float):
    """The cells of _box_cells(zeros(n), a, m, rng, False) with
    row_sum(np.abs(Z) ** 2) <= r2, in the same order and with the same
    bits, built without the others.

    A prefix (the first 2n-1 axes' midpoints) with squared sum s holds its
    ball cells in one run of last-axis midpoints, |t| <= sqrt(r2 - s).  Each
    prefix that rng meets gets that run, widened by one midpoint each way
    and cut to rng, and the exact test then drops the few extra cells.
    Returns (Z, its squared moduli np.abs(Z) ** 2, cell volume).
    """
    lo, hi = rng
    step = 2.0 * a / m
    ticks = -a + (np.arange(m) + 0.5) * step
    first, last = lo // m, (hi - 1) // m
    prefix = _axis_columns(ticks, 2 * n - 1, first, last + 1)
    s = sum(col * col for col in prefix)
    half = np.sqrt(np.maximum(r2 - s, 0.0))
    start = np.maximum(np.ceil((a - half) / step - 0.5) - 1.0, 0.0).astype(np.int64)
    stop = np.minimum(np.floor((a + half) / step - 0.5) + 2.0, m).astype(np.int64)
    start[0] = max(start[0], lo - first * m)
    stop[-1] = min(stop[-1], hi - last * m)
    # a prefix beyond r2, rounding aside, holds no ball cell
    counts = np.where(s <= r2 * (1.0 + 1e-12), np.maximum(stop - start, 0), 0)
    cols = [np.repeat(col, counts) for col in prefix]
    # last-axis indices start[p]..stop[p]-1, prefix after prefix
    offsets = np.repeat(start - (np.cumsum(counts) - counts), counts)
    cols.append(ticks[np.arange(offsets.size) + offsets])
    Z = _cells_from_columns(np.zeros(n), cols)
    sq = np.abs(Z) ** 2
    ball = row_sum(sq) <= r2
    return Z[ball], sq[ball], step ** (2 * n)


def _cell_chunks(fn, n: int, m: int, workers: int | None, payload) -> list:
    """run_chunked over a box's m^(2n) cells, 65536 a chunk at n = 1, else 16384."""
    return run_chunked(fn, m ** (2 * n), chunk=65536 if n == 1 else 16384, workers=workers,
                       payload=payload)


def _chart_weight(sq: np.ndarray) -> np.ndarray:
    """chi_k (m,) at chart k's own cells of squared moduli sq (m, n), for
    every k: each chart lifts them to {1, sq} and adds those in its own
    order, a few ulps apart, so this is chart 0's row (the 1.0 first), the
    bits of partition_of_unity(chart_lift(Z, 0))[:, 0]."""
    return partition_from_sq_moduli(np.insert(sq, 0, 1.0, axis=1))[:, 0]


def _mass_chunk(payload, rng):
    """Integrate one range of flat cells on every chart (module level): the
    range's cells inside |z|^2 <= 2n+1 (_ball_cells) of positive
    _chart_weight, their FS volume density and volume are taken once, and
    each chart takes only its determinants.  Returns (cells, live cells,
    volume, [(mass, clipped) per chart])."""
    lifts, g, L = payload
    n = len(lifts) - 1
    Z, sq, cellvol = _ball_cells(n, L, g, rng, 2 * n + 1)
    chi = _chart_weight(sq)
    live = chi > 0.0
    Z, chi, sq = Z[live], chi[live], sq[live]
    density = 2.0 ** (-n) * (1.0 + row_sum(sq)) ** (-(n + 1))    # fs_volume_density(Z)'s bits

    def mass(x):
        return float(np.sum(chi * x)) * cellvol / fs_volume_norm(n)

    charts = (_cell_dets(lift, Z) for lift in lifts)       # one chart's determinants at a time
    return live.size, chi.size, mass(density), [(mass(dets), clipped) for dets, clipped in charts]


def ma_total_mass(mu: AtomicMeasure, grid: int, h: float = 5e-4,
                  eps: float = 0.3, workers: int | None = None,
                  vol_tol: float = 0.01) -> MassReport:
    """Total mass of the smoothed Monge-Ampere measure over all of P^n.

    Integrates det(H_phi) over the chi_k-supported ball |z|^2 <= 2n+1 of
    every chart with midpoint cells (`grid` points per axis), weighting by
    the partition of unity (_chart_weight, one row for every chart).  For
    any measure and any eps > 0 the answer is 1 up to grid error;
    _self_check holds the grid's FS volume to 1 within vol_tol.  An eps
    whose square underflows to 0 would integrate the unsmoothed field, so
    it is refused; grid must be an integer >= 1 and vol_tol finite and
    positive.  report.grid counts the ball's cells and the live ones, those
    of positive weight, which every chart integrates.  h is accepted and
    ignored: the benchmark's workloads still pass it.
    """
    if not (eps > 0.0 and eps * eps > 0.0):
        raise ValidationError(f"total-mass integration requires eps > 0 with eps^2 > 0, "
                              f"got eps = {eps!r}")
    if not (isinstance(grid, (int, np.integer)) and not isinstance(grid, bool) and grid >= 1):
        raise ValidationError(f"grid must be an integer of at least 1 point per axis, "
                              f"got {grid!r}")
    if not 0.0 < vol_tol < math.inf:
        raise ValidationError(f"vol_tol must be finite and positive, got {vol_tol!r}")
    n = mu.n
    L = math.sqrt(2.0 * n + 1.0)
    lifts = [psh_lift(mu, chart, eps) for chart in range(n + 1)]
    parts = _cell_chunks(_mass_chunk, n, grid, workers, (lifts, grid, L))
    cells, live, vol, charts = zip(*parts)
    # summed in chart-major order, so the totals keep their bits; every
    # chart has the chunk's one volume
    mass, clipped = zip(*(part[chart] for chart in range(n + 1) for part in charts))
    total = float(np.sum(mass))
    vol_check = float(np.sum(vol * (n + 1)))
    _self_check(total, eps, vol_check, 1.0, vol_tol)
    return MassReport(total_mass=total,
                      grid={"points_per_axis": grid, "charts": n + 1, "box_halfwidth": L,
                            "eps": eps, "cells": sum(cells), "live_cells": sum(live)},
                      clipped_cells=sum(clipped), vol_check=vol_check)


# ---------------------------------------------------------------------------
# ball-mass profiles
# ---------------------------------------------------------------------------

def _chart_halfwidth(c_abs: float, r: float) -> float:
    """Half-width of the chart box about c for the FS ball B_r(c), |c| = c_abs.

    With t = min(r, pi / sqrt 2) / sqrt 2 the ball is the chart region
    |1 + <z, c>|^2 >= cos^2 t (1 + |z|^2)(1 + |c|^2), whose farthest point
    from c lies at (1 + |c|^2) sin t / (cos t - |c| sin t), out along c; the
    box is 5 percent wider.  When cos t <= |c| sin t the ball meets the
    hyperplane at infinity, and the box, like any box past 20 (1 + |c|),
    is cut to that cap and holds only part of the ball.
    """
    t = min(r, math.pi / SQRT2) / SQRT2
    cap = 20.0 * (1.0 + c_abs)
    gap = math.cos(t) - c_abs * math.sin(t)
    reach = (1.0 + c_abs**2) * math.sin(t) / gap if gap > 0.0 else math.inf
    return cap if reach > cap else 1.05 * reach


def _ball_chunk(payload, rng):
    """Integrate one range of a level's cells over every ball (module level):
    keeps the cells within the largest radius, and each ball sums its own
    in cell order.  Returns (masses, vols, clipped)."""
    lift, center, radii, c, a, m, hole = payload
    Z, cellvol = _box_cells(c, a, m, rng, hole)
    d = geodesic_distance_batch(chart_lift(Z, lift.chart), center)
    near = d <= radii[-1]
    Z, in_ball = Z[near], d[None, near] <= np.array(radii)[:, None]
    dets, clipped = _cell_dets(lift, Z)
    masses, vols = (np.array([float(np.sum(x[ball])) * cellvol / fs_volume_norm(Z.shape[1])
                              for ball in in_ball]) for x in (dets, fs_volume_density(Z)))
    return masses, vols, clipped


def ball_mass_profile(mu: AtomicMeasure, center: HomogeneousPoint, radii,
                      h: float = 5e-4, eps_list=(0.3,), points_per_axis: int = 0
                      ) -> list[MassReport]:
    """Mass of the (smoothed) Monge-Ampere measure in FS balls around center.

    For each eps in eps_list (decreasing), integrates det(H_phi) over the
    geodesic balls B_r(center) for each radius (given decreasing; reported
    ascending) on dyadically refined local grids, and reports the mass and
    its ratio to the exact ball volume sin^(2n)(r / sqrt 2).  _self_check
    holds the grid's FS volume of the largest ball to the exact volume
    within 2%.  The outer box about the center's chart point c has
    half-width a0 = _chart_halfwidth(|c|, r) at the largest radius: the
    ball's exact reach plus 5%, or the cap 20 (1 + |c|).  Levels per eps:
    min(9, ceil(log2(a0 / 2f)) + 1), or 1 when a0 <= 2f, where f =
    max(eps, 1e-3) (1 + |c|^2).  At eps = 0 the grid gives
    the absolutely continuous part, and each mass adds the atomic part
    sum w_i^n over the atoms in the ball; so does an eps whose square
    underflows, which _ma_det treats as eps = 0 (the lift's b = 0).  h is
    accepted and ignored: the benchmark's workloads still pass it.
    """
    n = mu.n
    radii = sorted(float(r) for r in radii)
    if not radii or not all(0 < r < math.inf for r in radii):
        raise ValidationError(f"radii = {radii} must be a nonempty list of positive reals")
    if fs_ball_volume(n, radii[0]) == 0.0:
        raise ValidationError(f"radius = {radii[0]!r}: the ball's volume underflows to 0")
    eps_list = list(eps_list)
    for eps in eps_list:
        _check_eps(eps)
    chart = int(max_modulus_chart(center.coords))
    c = chart_project(center.coords, chart)
    a0 = _chart_halfwidth(float(np.linalg.norm(c)), radii[-1])
    m = points_per_axis or (64 if n == 1 else 16)
    if m % 4:
        raise ValidationError(f"points_per_axis must be a multiple of 4, got {m}")
    reports = []
    for eps in eps_list:
        feature = max(eps, 1e-3) * (1.0 + float(np.linalg.norm(c)) ** 2)
        ratio = a0 / (2.0 * feature)      # may underflow to 0 at a huge eps
        nlev = 1 if ratio <= 1.0 else min(9, math.ceil(math.log2(ratio)) + 1)
        lift = psh_lift(mu, chart, eps)
        parts = [part for level in range(nlev) for part in _cell_chunks(_ball_chunk, n, m, 1, (
            lift, center.coords, radii, c, a0 / 2.0**level, m, level < nlev - 1))]
        masses, vols, clipped = (sum(field) for field in zip(*parts))
        if lift.b == 0.0:                  # eps = 0, or an eps whose square underflows
            d = geodesic_distance_batch(mu.points, center.coords)
            masses = masses + [np.sum(mu.weights[d <= r] ** n) for r in radii]
        exact_vols = [fs_ball_volume(n, r) for r in radii]
        _self_check(masses.tolist(), eps, vols[-1], exact_vols[-1], 0.02)
        reports.append(MassReport(
            total_mass=float(masses[-1]),
            ball_profile=[(r, float(mm)) for r, mm in zip(radii, masses)],
            grid={"points_per_axis": m, "levels": nlev, "chart": chart,
                  "outer_halfwidth": a0, "eps": eps},
            clipped_cells=clipped,
            vol_check=float(vols[-1]),
            vol_ratios=[(r, float(mm / max(v, 1e-300)))
                        for r, mm, v in zip(radii, masses, exact_vols)],
        ))
    return reports
