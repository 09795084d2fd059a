"""Closed-form Monge-Ampere densities, masses, ball profiles and mixed
discriminants, with finite-difference complex Hessians as the oracle.

Densities are reported relative to the unit-mass FS volume as the ratio
det(H_phi) / det(H_rho) of complex Hessians, which eliminates every d^c and
pi normalization constant.  Total masses integrate det(H_phi) over chart
boxes weighted by the partition of unity and divide by the chart integral
of det(H_rho) (= 2^-n pi^n / n! for the unit-volume convention); for any
smooth global field rho + u the answer is 1 by cohomology, which is the
grid's strongest self-check.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement

import numpy as np

from . import analytic
from .errors import GridTooCoarse, NegativeDensity, NonConvergent, SingularStencil, \
    ValidationError
from .geometry import (
    HomogeneousPoint,
    chart_lift,
    chart_project,
    fs_ball_volume,
    fs_hessian,
    fs_volume_density,
    fs_volume_norm,
    geodesic_distance_batch,
    max_modulus_chart,
)
from .measures import AffineAtoms, AtomicMeasure, partition_of_unity
from .parallel import resolve_workers, run_chunked
from .potentials import PotentialField, affine_field, psh_lift, within_guard

SQRT2 = math.sqrt(2.0)

#: most n-tuples of atoms that ma_product_expansion_check expands
TERM_CAP = 10**7


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
    O(h^2) accurate on smooth fields.
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


def complex_hessian_fd(fieldfn, z, h: float = 1e-3) -> np.ndarray:
    """FD complex Hessian (n, n) at a single point; SingularStencil on -inf values.

    Hermitian by stencil symmetry: the (k, j) entry is the conjugate of the
    (j, k) entry assembled from the same real mixed partials.
    """
    z = np.asarray(z, dtype=complex)
    H, finite = hessian_fd_batch(fieldfn, z[None, :], h)
    if not finite[0]:
        raise SingularStencil(f"field is singular on the Hessian stencil at {z}")
    return H[0]


# ---------------------------------------------------------------------------
# mixed discriminants
# ---------------------------------------------------------------------------

def mixed_discriminant(mats) -> float:
    """Normalized mixed discriminant: symmetric multilinear, D(A,..,A) = det A.

    Computed by subset inclusion-exclusion,
    D = (1/n!) sum_{S nonempty} (-1)^(n-|S|) det(sum_{i in S} A_i).
    For PSD Hermitian inputs the value is nonnegative.
    """
    mats = [np.asarray(A, dtype=complex) for A in mats]
    n = len(mats)
    for A in mats:
        if A.shape != (n, n):
            raise ValidationError(
                f"need {n} matrices of shape ({n},{n}); got {A.shape}")
    total = 0.0
    for size in range(1, n + 1):
        sign = (-1) ** (n - size)
        for S in combinations(range(n), size):
            acc = mats[S[0]].copy()
            for i in S[1:]:
                acc += mats[i]
            total += sign * float(np.linalg.det(acc).real)
    return total / math.factorial(n)


@dataclass(frozen=True)
class ExpansionCheck:
    residual: float
    scale: float
    lhs: float
    rhs: float

    @property
    def relative(self) -> float:
        return self.residual / self.scale


def ma_product_expansion_check(atoms: AffineAtoms, z) -> ExpansionCheck:
    """Pointwise product-formula check for the affine potential.

    Compares det(sum_i w_i H_i) against the multilinear expansion
    sum over n-tuples of atoms of w_(i1)..w_(in) D(H_(i1), .., H_(in)),
    where H_i is the complex Hessian of the kernel with atom i at z.
    Raises ValidationError when N^n exceeds TERM_CAP.

    The reported scale is max(|lhs| + sum |terms|, ||sum w_i H_i||_F^n): the
    second term is the natural rounding scale of a determinant, which keeps
    the relative residual meaningful when the determinant itself vanishes
    (the single-kernel Hessian is degenerate away from its atom for n >= 2).
    """
    n = atoms.n
    N = atoms.num_atoms
    if N**n > TERM_CAP:
        raise ValidationError(f"N^n = {N}^{n} exceeds the {TERM_CAP} term cap")
    # every atom's kernel Hessian at z from one stacked quad-form call
    T, Tz, Thess = analytic.quad_form_batch(np.asarray(z, dtype=complex),
                                            affine_field(atoms).atoms_eta, atoms.chart,
                                            0.0, 0.0)
    hessians = analytic.log_half_hessian(T[0], Tz[0], Thess)      # (N, n, n)
    w = atoms.weights
    lhs_mat = np.tensordot(w, hessians, axes=(0, 0))
    lhs = float(np.linalg.det(lhs_mat).real)
    rhs = 0.0
    abssum = abs(lhs)
    for multiset in combinations_with_replacement(range(N), n):
        coeff = math.factorial(n)
        for c in Counter(multiset).values():
            coeff //= math.factorial(c)
        wprod = float(np.prod([w[i] for i in multiset]))
        term = coeff * wprod * mixed_discriminant([hessians[i] for i in multiset])
        rhs += term
        abssum += abs(term)
    scale = max(abssum, float(np.linalg.norm(lhs_mat)) ** n, 1e-300)
    return ExpansionCheck(residual=abs(lhs - rhs), scale=scale, lhs=lhs, rhs=rhs)


def smooth_wedge_density(atoms: AffineAtoms, m: int, z) -> float:
    """Density of the m-fold potential / (n-m)-fold FS-form wedge.

    Returns binom(n, m) * D(H_V x m, H_rho x (n-m)) relative to Lebesgue:
    the m-th binomial term in the expansion of det(H_V + H_rho).  Reduces to
    det H_rho at m = 0 and to det H_V at m = n.
    """
    n = atoms.n
    if not 0 <= m <= n:
        raise ValidationError(f"m = {m} outside 0..{n}")
    Z = np.asarray(z, dtype=complex)[None, :]
    H_rho = fs_hessian(Z)[0] if m < n else None
    H_V = affine_field(atoms).complex_hessian(Z)[0] if m > 0 else None
    mats = [H_V] * m + [H_rho] * (n - m)
    return math.comb(n, m) * mixed_discriminant(mats)


# ---------------------------------------------------------------------------
# Monge-Ampere density and mass
# ---------------------------------------------------------------------------

def ma_density(mu: AtomicMeasure, chart: int, Z: np.ndarray, h: float = 1e-4,
               eps: float = 0.0) -> np.ndarray:
    """det(H_phi) / det(H_rho) at the chart rows Z (m, n), phi the (smoothed)
    chart lift of U_mu; returns (m,) densities.

    Both Hessians are closed form.  h is only the singular guard: with
    eps = 0, every row must lie at chart distance > 10h from every atom, else
    SingularStencil.  Values in [-tol, 0) are rounding and are clipped to 0;
    below -tol raises NegativeDensity, and a density that is not finite (the
    Hessians overflow at a huge eps) raises NonConvergent.  Each error names
    the first row that trips it.
    """
    Z = np.asarray(Z, dtype=complex)
    lift = psh_lift(mu, chart, eps)
    near = np.flatnonzero(within_guard(Z, lift.singular_sites(), h))
    if near.size:
        raise SingularStencil(f"unsmoothed density requested within 10h of an atom "
                              f"(row {near[0]})")
    # a huge eps overflows the Hessians; the finiteness guard below raises
    with np.errstate(over="ignore", invalid="ignore"):
        H = np.stack([lift.complex_hessian(Z), fs_hessian(Z)])
        det_phi, det_rho = np.linalg.det(H).real
        norm_phi, norm_rho = np.linalg.norm(H, axis=(2, 3))
        density = det_phi / det_rho
        scale = np.maximum(1.0, (norm_phi / norm_rho) ** mu.n)
    bad = np.flatnonzero(~np.isfinite(density))
    if bad.size:
        raise NonConvergent(f"density {density[bad[0]]} is not finite (row {bad[0]})")
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
    excised_singular_mass: float = 0.0
    clipped_cells: int = 0
    vol_check: float = 0.0        # quadrature of the exact FS volume (should be ~ target)
    vol_ratios: list = field(default_factory=list)     # [(radius, mass / ball volume)]


def _cell_sums(lift: PotentialField, Z: np.ndarray, weights: np.ndarray,
               cellvol: float):
    """MA mass and FS volume of the cells Z under each row of weights.

    Takes det H_phi 16384 cells at a time; negative determinants are
    rounding, set to 0 and counted.  A row's sums run over its cells of
    positive weight.  Returns (masses, volumes, clipped cells).
    """
    n = Z.shape[1]
    dets = np.empty(Z.shape[0])
    # a huge eps overflows the Hessians; the callers' finiteness guards raise
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, Z.shape[0], 16384):
            part = slice(lo, lo + 16384)
            dets[part] = np.linalg.det(lift.complex_hessian(Z[part])).real
    neg = dets < 0.0
    dets[neg] = 0.0
    fsdens = fs_volume_density(Z)
    masses = [float(np.sum((w * dets)[w > 0])) * cellvol / fs_volume_norm(n)
              for w in weights]
    vols = [float(np.sum((w * fsdens)[w > 0])) * cellvol / fs_volume_norm(n)
            for w in weights]
    return masses, vols, int(np.sum(neg))


def _mass_chunk(payload, rng):
    """Integrate one range of flat cells on every chart (module level).

    The midpoint cells and the ball filter are built once; each chart k then
    weights them by chi_k and keeps the cells where chi_k > 0.  Returns one
    (mass, vol, clipped) per chart.
    """
    lifts, g, L = payload
    n = len(lifts) - 1
    coords = np.unravel_index(np.arange(*rng), (g,) * (2 * n))
    step = 2.0 * L / g
    axes = [(-L + (c + 0.5) * step) for c in coords]
    Z = np.stack(axes[0::2], axis=1) + 1j * np.stack(axes[1::2], axis=1)
    Z = Z[np.sum(np.abs(Z) ** 2, axis=1) <= (2 * n + 1)]
    sums = []
    for chart, lift in enumerate(lifts):
        chi = partition_of_unity(chart_lift(Z, chart))[:, chart]
        keep = chi > 0.0
        (mass,), (vol,), clipped = _cell_sums(lift, Z[keep], chi[None, keep], step ** (2 * n))
        sums.append((mass, vol, clipped))
    return sums


def ma_total_mass(mu: AtomicMeasure, grid: int, h: float = 5e-4,
                  eps: float = 0.3, workers: int | None = None,
                  vol_tol: float = 0.01) -> MassReport:
    """Total mass of the smoothed Monge-Ampere measure over all of P^n.

    Integrates det(H_phi) over the chi_k-supported ball |z|^2 <= 2n+1 of
    every chart with midpoint cells (`grid` points per axis), weighting by
    the partition of unity.  For any measure and any eps > 0 the answer is
    1 up to grid error.  Raises GridTooCoarse when the same grid misses the
    exact FS volume by more than vol_tol, and NonConvergent when the mass is
    not finite (the Hessians overflow at a huge eps).  h is deprecated and
    ignored.
    """
    if eps <= 0.0:
        raise ValidationError("total-mass integration requires eps > 0")
    if grid < 1:
        raise ValidationError(f"grid must be at least 1 point per axis, got {grid}")
    n = mu.n
    L = math.sqrt(2.0 * n + 1.0)
    lifts = [psh_lift(mu, chart, eps) for chart in range(n + 1)]
    parts = run_chunked(_mass_chunk, grid ** (2 * n), chunk=65536 if n == 1 else 16384,
                        workers=resolve_workers(workers), payload=(lifts, grid, L))
    # summed in chart-major order, so the totals keep their bits
    mass, vol, clipped = zip(*(part[chart] for chart in range(n + 1) for part in parts))
    total = float(np.sum(mass))
    if not math.isfinite(total):
        raise NonConvergent(f"total mass {total} at eps = {eps!r} is not finite")
    vol_check = float(np.sum(vol))
    report = MassReport(total_mass=total,
                        grid={"points_per_axis": grid, "charts": n + 1,
                              "box_halfwidth": L, "eps": eps},
                        clipped_cells=sum(clipped), vol_check=vol_check)
    if abs(vol_check - 1.0) > vol_tol:
        raise GridTooCoarse(
            f"chart-overlap volume check {vol_check:.4f} deviates from 1 "
            f"by more than {vol_tol:.2%}")
    return report


# ---------------------------------------------------------------------------
# ball-mass profiles
# ---------------------------------------------------------------------------

def _chart_halfwidth(c_abs: float, r: float) -> float:
    """Half-width of a chart box guaranteed to contain the FS ball B_r.

    Uses sin(d / sqrt 2) >= |z - c| / sqrt((1+|z|^2)(1+|c|^2)) and a fixed
    point iteration on the implied bound, with a 5 percent margin.
    """
    s = math.sin(min(r, math.pi / SQRT2) / SQRT2)
    delta = s * (1.0 + c_abs**2)
    for _ in range(60):
        new = s * math.sqrt((1.0 + (c_abs + delta) ** 2) * (1.0 + c_abs**2))
        if new > 20.0 * (1.0 + c_abs):
            return 20.0 * (1.0 + c_abs)  # ball nearly fills the chart
        if abs(new - delta) < 1e-12 * max(1.0, delta):
            delta = new
            break
        delta = new
    return 1.05 * delta


def _nested_cells(c: np.ndarray, a0: float, levels: int, m: int):
    """Midpoint cells of dyadically nested boxes around chart point c.

    Level l covers the box of half-width a0 / 2^l minus the next box; the
    innermost level keeps its full box.  m must be a multiple of 4 so inner
    boxes align exactly with cell boundaries.  Yields (centers, cellvol).
    """
    n = c.shape[0]
    ticks = np.arange(m) + 0.5
    for level in range(levels):
        a = a0 / 2.0**level
        step = 2.0 * a / m
        axis = -a + ticks * step
        mesh = np.meshgrid(*([axis] * (2 * n)), indexing="ij")
        pts = np.stack([g.ravel() for g in mesh], axis=1)
        if level < levels - 1:
            keep = np.max(np.abs(pts), axis=1) > a / 2.0
            pts = pts[keep]
        Z = c[None, :] + pts[:, :n] + 1j * pts[:, n:]
        yield Z, step ** (2 * n)


def ball_mass_profile(mu: AtomicMeasure, center: HomogeneousPoint, radii,
                      h: float = 5e-4, eps_list=(0.3,), points_per_axis: int = 0
                      ) -> list[MassReport]:
    """Mass of the smoothed Monge-Ampere measure in FS balls around center.

    For each eps in eps_list (decreasing), integrates det(H_phi) over the
    geodesic balls B_r(center) for each radius (given decreasing; reported
    ascending) on dyadically refined local grids, and reports the mass, the
    ratio to the exact ball volume sin^(2n)(r / sqrt 2), and a pure-volume
    self-check per radius, which must hold within 2%.  Levels per eps:
    min(9, ceil(log2(a0 / 2f)) + 1), or 1 when a0 <= 2f, where a0 is the
    outer half-width and f = max(eps, 1e-3) (1 + |c|^2) at the center's
    chart point c.  Hessians are closed form; h only sets the singular
    guard.  With eps = 0 in the list, cells within 10h of an atom are
    excised; their FS volume is reported as excised_singular_mass (a bounded
    diagnostic of the removed region, not a mass estimate).  A mass that is
    not finite (the Hessians overflow at a huge eps) raises NonConvergent.
    """
    n = mu.n
    radii = sorted(float(r) for r in radii)
    if not radii or not all(0 < r < math.inf for r in radii):
        raise ValidationError(f"radii = {radii} must be a nonempty list of positive reals")
    if fs_ball_volume(n, radii[0]) == 0.0:
        raise ValidationError(f"radius = {radii[0]!r}: the ball's volume underflows to 0")
    eps_list = list(eps_list)
    if any(e < 0 for e in eps_list):
        raise ValidationError("eps values must be >= 0")
    chart = max_modulus_chart(center.coords)
    c = chart_project(center.coords, chart)
    r_max = radii[-1]
    a0 = _chart_halfwidth(float(np.linalg.norm(c)), r_max)
    m = points_per_axis or (64 if n == 1 else 16)
    if m % 4:
        raise ValidationError(f"points_per_axis must be a multiple of 4, got {m}")
    reports = []
    for eps in eps_list:
        feature = max(eps, 1e-3) * (1.0 + float(np.linalg.norm(c)) ** 2)
        ratio = a0 / (2.0 * feature)      # may underflow to 0 at a huge eps
        nlev = 1 if ratio <= 1.0 else min(9, math.ceil(math.log2(ratio)) + 1)
        lift = psh_lift(mu, chart, eps)
        sites = lift.singular_sites()
        masses = np.zeros(len(radii))
        vols = np.zeros(len(radii))
        clipped = 0
        excised_volume = 0.0
        for Z, cellvol in _nested_cells(c, a0, nlev, m):
            lifts = chart_lift(Z, chart)
            d = geodesic_distance_batch(lifts, center.coords)
            in_any = d <= r_max
            if not np.any(in_any):
                continue
            Z, d = Z[in_any], d[in_any]
            if sites.shape[0]:
                cut = within_guard(Z, sites, h)
                excised_volume += float(np.sum(
                    fs_volume_density(Z[cut]))) * cellvol / fs_volume_norm(n)
                Z, d = Z[~cut], d[~cut]
            in_ball = (d[None, :] <= np.array(radii)[:, None]).astype(float)
            ball_mass, ball_vol, ball_clipped = _cell_sums(lift, Z, in_ball, cellvol)
            masses += ball_mass
            vols += ball_vol
            clipped += ball_clipped
        if not np.all(np.isfinite(masses)):
            raise NonConvergent(f"ball masses {masses.tolist()} at eps = {eps!r} are not finite")
        exact_vols = [fs_ball_volume(n, r) for r in radii]
        # the excised cells are part of the grid's ball, so the check counts them
        rel = abs(vols[-1] + excised_volume - exact_vols[-1]) / max(exact_vols[-1], 1e-300)
        if rel > 0.02:
            raise GridTooCoarse(
                f"ball-volume self-check off by {rel:.2%} at r = {radii[-1]:.3g} "
                f"(grid {m}/axis, {nlev} levels)")
        reports.append(MassReport(
            total_mass=float(masses[-1]),
            ball_profile=[(r, float(mm)) for r, mm in zip(radii, masses)],
            grid={"points_per_axis": m, "levels": nlev, "chart": chart,
                  "outer_halfwidth": a0, "h": h, "eps": eps},
            excised_singular_mass=excised_volume,
            clipped_cells=clipped,
            vol_check=float(vols[-1]),
            vol_ratios=[(r, float(mm / max(v, 1e-300)))
                        for r, mm, v in zip(radii, masses, exact_vols)],
        ))
    return reports
