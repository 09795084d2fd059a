"""Atomic probability measures on P^n, chart decomposition, Riesz diagnostics.

A measure is a finite convex combination of Dirac masses at canonical
points.  The chart decomposition splits it along a partition of unity
chi_j subordinate to the chart covering: chi_j = beta(t_j) / sum beta(t_k)
with t_j = |zeta_j|^2 / |zeta|^2 and beta a quintic smoothstep vanishing
for t <= 1/(2(n+1)) and equal to 1 for t >= 1/(n+1).  Since max_j t_j is
always >= 1/(n+1), the denominator never vanishes, and each component
measure is supported compactly inside its chart.

Non-atomic measures are represented by empirical N-atom approximants,
whose diagnostics are read in the N -> infinity limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analytic import atom_blocks
from .coarea import log_radial_levels, mc_estimate
from .errors import ValidationError
from .geometry import (
    CANONICAL_TOL,
    CHART_FLOOR,
    HomogeneousPoint,
    Stream,
    _sample_stream,
    canonicalize_batch,
    chart_mask,
    chart_project,
    check_chart,
    check_int,
    check_real,
    complex_from_json,
    json_real,
    json_records,
    row_norm,
    row_sum,
)

WEIGHT_TOL = 1e-12

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class AtomicMeasure:
    """Convex combination of Dirac masses; points stored canonically."""

    points: np.ndarray = field(repr=False)   # (N, n+1) canonical rows
    weights: np.ndarray = field(repr=False)  # (N,) positive, sums to 1
    n: int

    @property
    def num_atoms(self) -> int:
        return self.points.shape[0]

    def point(self, i: int) -> HomogeneousPoint:
        return HomogeneousPoint(self.points[i])

    @staticmethod
    def from_json(text: str) -> "AtomicMeasure":
        what = "measure JSON"
        n, atoms = json_records(text, what, "atoms", ("zeta", "weight"))
        points = complex_from_json([atom["zeta"] for atom in atoms], n + 1,
                                   lambda i: f"{what}: atoms[{i}].zeta", point=True)
        weights = [atom["weight"] for atom in atoms]
        for i, w in enumerate(weights):
            if not (json_real(w) and w > 0):
                raise ValidationError(f"{what}: atoms[{i}].weight = {w!r:.60} must be a "
                                      f"finite positive real")
        return build_measure(points, np.array(weights, dtype=float))


def _merge_labels(pts: np.ndarray) -> np.ndarray:
    """For each canonical row, the index of the kept row it merges into.

    Same result as the greedy scan that compares every row, in input order,
    with every kept row: a row joins the first kept row within CANONICAL_TOL
    (max complex modulus of the difference), else it is kept itself.

    Candidates come from one real projection x = real_view @ c: rows within
    tolerance have |dx| <= |c|_1 * tol, so after sorting on x a row whose
    neighbours are all farther than that reach is kept without a test.  Only
    rows that share a window are replayed in input order, each against the
    kept rows of its own window.
    """
    count = pts.shape[0]
    labels = np.arange(count)
    real = pts.view(float)
    # fixed, incommensurate weights so that structured inputs do not collide
    c = 1.0 + np.modf(np.arange(1, real.shape[1] + 1) * _GOLDEN)[0]
    x = real @ c
    # |real| <= 1 on canonical rows; the margin covers rounding in x and in
    # the window arithmetic below
    reach = float(np.sum(c)) * (CANONICAL_TOL + 16.0 * real.shape[1] * np.finfo(float).eps)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    close = np.diff(xs) <= reach
    shared = np.zeros(count, dtype=bool)
    shared[:-1] |= close
    shared[1:] |= close
    slot = np.empty(count, dtype=np.intp)
    slot[order] = np.arange(count)
    lo = np.searchsorted(xs, xs - reach, side="left")
    hi = np.searchsorted(xs, xs + reach, side="right")
    kept = np.zeros(count, dtype=bool)      # by sorted slot, shared rows only
    for i in np.sort(order[shared]):
        s = slot[i]
        window = lo[s] + np.flatnonzero(kept[lo[s]:hi[s]])
        if window.size:
            rows = order[window]
            hits = rows[np.max(np.abs(pts[rows] - pts[i]), axis=1) <= CANONICAL_TOL]
            if hits.size:
                labels[i] = hits.min()
                continue
        kept[s] = True
    return labels


def build_measure(points, weights) -> AtomicMeasure:
    """Validate, canonicalize and merge duplicate atoms of a measure on P^n,
    n + 1 the width of points.

    Rows are taken in input order.  A row whose canonical coordinates differ
    from those of an already kept row by at most CANONICAL_TOL in every
    coordinate (complex modulus) merges into the first such kept row;
    otherwise it is kept as a new atom.  Kept atoms stay in input order with
    their first row's coordinates, and the weights of merged rows are added
    to it in input order.  Points in any memory order are taken as C-ordered
    rows (a copy only when they are not).
    """
    points = np.ascontiguousarray(points, dtype=complex)
    weights = np.asarray(weights, dtype=float)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValidationError("a measure needs at least one atom")
    if weights.shape != (points.shape[0],):
        raise ValidationError("one weight per atom required")
    if not np.all(weights > 0.0):      # NaN is no positive weight
        bad = int(np.argmin(weights > 0.0))
        raise ValidationError(f"atoms[{bad}].weight = {weights[bad]} must be > 0")
    total = float(np.sum(weights))
    if abs(total - 1.0) > WEIGHT_TOL:
        raise ValidationError(f"weights sum to {total!r}, expected 1 within {WEIGHT_TOL}")
    pts = canonicalize_batch(points)
    labels = _merge_labels(pts)
    roots = labels == np.arange(labels.size)
    # bincount adds in index order, i.e. in input order
    merged = np.bincount((np.cumsum(roots) - 1)[labels], weights=weights)
    return AtomicMeasure(points=pts[roots], weights=merged, n=points.shape[1] - 1)


def dirac(point: HomogeneousPoint) -> AtomicMeasure:
    return build_measure(point.coords[None, :], np.array([1.0]))


def uniform_on(points) -> AtomicMeasure:
    """Equal-weight measure on the rows of points (after duplicate merge)."""
    return build_measure(points, np.full(len(points), 1.0) / len(points))


# ---------------------------------------------------------------------------
# partition of unity and decomposition
# ---------------------------------------------------------------------------

def smoothstep(u):
    """Quintic smoothstep: 0 below 0, 1 above 1, C^2 at the knots."""
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    return u**3 * (10.0 - 15.0 * u + 6.0 * u * u)


def support_threshold(n: int) -> float:
    return 1.0 / (2.0 * (n + 1))


def partition_of_unity(zeta: np.ndarray) -> np.ndarray:
    """Weights chi_0..chi_n at the rows of zeta (m, n+1): nonnegative, sum to 1.

    chi_j vanishes whenever t_j = |zeta_j|^2/|zeta|^2 <= 1/(2(n+1)).  The
    arithmetic is partition_from_sq_moduli's, on np.abs(zeta) ** 2.
    """
    return partition_from_sq_moduli(np.abs(zeta) ** 2)


def partition_from_sq_moduli(s: np.ndarray) -> np.ndarray:
    """partition_of_unity of rows whose squared moduli are s (m, n+1).

    The MA grid calls it on its cells' squared moduli with chart 0's 1.0
    inserted first, which is np.abs(chart_lift(Z, 0)) ** 2 without the lift.
    """
    t = s / row_sum(s)[:, None]
    n = s.shape[1] - 1
    a = support_threshold(n)
    b = 1.0 / (n + 1)
    beta = smoothstep((t - a) / (b - a))
    return beta / row_sum(beta)[:, None]


@dataclass(frozen=True)
class ChartDecomposition:
    """mu = sum_j m_j mu_j with each mu_j compactly supported in chart j."""

    n: int
    masses: np.ndarray                      # (n+1,), zero where chart unused
    components: dict[int, AtomicMeasure]    # only charts with m_j != 0

    def reassemble(self) -> AtomicMeasure:
        """Recombine sum m_j mu_j into a single measure (for the identity test)."""
        pts, ws = [], []
        for j, comp in self.components.items():
            pts.append(comp.points)
            ws.append(self.masses[j] * comp.weights)
        return build_measure(np.concatenate(pts), np.concatenate(ws))


def decompose(mu: AtomicMeasure) -> ChartDecomposition:
    """Convex chart decomposition via the partition of unity.

    m_j = sum_atoms weight * chi_j(atom); mu_j reweights each atom by
    chi_j / m_j, dropping atoms where chi_j = 0.  Charts with m_j = 0 are
    omitted.
    """
    chi = partition_of_unity(mu.points)      # (N, n+1)
    masses = chi.T @ mu.weights              # (n+1,)
    components: dict[int, AtomicMeasure] = {}
    for j in range(mu.n + 1):
        if masses[j] == 0.0:
            continue
        keep = chi[:, j] > 0.0
        w = mu.weights[keep] * chi[keep, j] / masses[j]
        # renormalize away accumulated rounding so each mu_j validates
        w = w / np.sum(w)
        components[j] = build_measure(mu.points[keep], w)
    return ChartDecomposition(n=mu.n, masses=masses, components=components)


# ---------------------------------------------------------------------------
# chart coordinates of a measure
# ---------------------------------------------------------------------------

def chart_coordinates(mu: AtomicMeasure, chart: int) -> np.ndarray:
    """Chart coordinates (N, n) of every atom; ValidationError names the
    first atom whose chart coordinate is at or below CHART_FLOOR."""
    pts = mu.points
    off = np.flatnonzero(~chart_mask(pts, check_chart(chart, mu.n)))
    if off.size:
        i = int(off[0])
        raise ValidationError(
            f"atom {i} is not inside chart {chart}: |zeta_{chart}|/|zeta| = "
            f"{abs(pts[i, chart]) / np.linalg.norm(pts[i]):.3e} <= chart_floor = "
            f"{CHART_FLOOR:.1e}")
    return chart_project(pts, chart)


# ---------------------------------------------------------------------------
# Riesz potential diagnostics
# ---------------------------------------------------------------------------

def _uniform_ball(seed: int, count: int, dim: int) -> np.ndarray:
    """Uniform draws from the unit ball of R^dim, reproducible by index."""
    from scipy.special import ndtr

    g = _sample_stream(seed, count, dim + 1, stream=Stream.RIESZ_BALL)
    direction = g[:, :dim]
    direction /= row_norm(direction)[:, None]
    # push the last normal through the CDF for a uniform radius variate
    u = ndtr(g[:, dim])
    return direction * u[:, None] ** (1.0 / dim)


def _riesz_sum(points: np.ndarray, sites: np.ndarray, weights: np.ndarray,
               alpha: float) -> np.ndarray:
    """sum_i w_i |z - site_i|^(-alpha) for each row z of points (m, n).

    The sites are taken in analytic.atom_blocks, so the difference array
    stays near analytic._BLOCK_ENTRIES complex numbers however many sites
    there are.  With one block this is exactly the unblocked sum (the terms
    are >= 0, so adding it to 0.0 is exact).
    """
    total = np.zeros(points.shape[0])
    for blk in atom_blocks(sites.shape[0], *points.shape):
        d = row_norm(points[:, None, :] - sites[None, blk, :])
        with np.errstate(divide="ignore"):
            total += np.sum(weights[None, blk] * d ** (-alpha), axis=1)
    return total


@dataclass(frozen=True)
class ScanResult:
    """Monte Carlo estimate with its standard error."""

    estimate: float
    std_error: float


def riesz_lp_scan(mu: AtomicMeasure, chart: int, alpha: float, p: float, radius: float,
                  seed: int, samples: int) -> ScanResult:
    """MC estimate of int_ball J^p dLeb over the ball |z| <= radius of the chart.

    Finite and stable under sample doubling when p < 2n/alpha; see
    riesz_refinement_scan for behavior at and above the threshold.
    """
    sites = chart_coordinates(mu, chart)
    n = mu.n
    check_real(alpha, "alpha", 0, 2 * n, open_lo=True)
    check_real(p, "p", 0, math.inf, open_lo=True)
    check_real(radius, "radius", 0, math.inf, open_lo=True)
    check_int(samples, "samples", 1)
    dim = 2 * n
    try:
        vol = math.pi**n / math.factorial(n) * radius**dim
    except OverflowError:
        raise ValidationError(f"radius = {radius!r}: the ball's volume overflows") from None
    if vol == 0.0:
        raise ValidationError(f"radius = {radius!r}: the ball's volume underflows to 0")
    pts = _uniform_ball(seed, samples, dim)
    z = radius * (pts[:, :n] + 1j * pts[:, n:])
    est, se = mc_estimate(_riesz_sum(z, sites, mu.weights, alpha), p, vol)
    return ScanResult(estimate=est, std_error=se)


def riesz_refinement_scan(mu: AtomicMeasure, chart: int, alpha: float, p: float,
                          atom_index: int, r0: float, levels: int, seed: int,
                          samples_per_stratum: int = 2048) -> list[float]:
    """Singularity-refined estimates of int J^p over shrinking annuli.

    Level l integrates over { r0 * 10^(-D_l) <= |z - w| <= r0 } with the
    resolved log-depth D_l of coarea.log_radial_levels, using log-radial
    strata of at most one decade each.  The integrand of the critical case
    p = 2n/alpha contributes a constant per decade (log divergence), so the
    estimates grow by ~10x per level; for p < 2n/alpha they converge.  J^p
    blows up like |z - w|^(-alpha p), the power that sets the deepest decade.
    """
    sites = chart_coordinates(mu, chart)
    n = mu.n
    check_real(alpha, "alpha", 0, 2 * n, open_lo=True)
    check_real(p, "p", 0, math.inf, open_lo=True)
    check_int(atom_index, "atom_index", 0, mu.num_atoms - 1)
    w1 = sites[atom_index]
    others = np.delete(sites, atom_index, axis=0) - w1[None, :]
    other_weights = np.delete(mu.weights, atom_index)
    # the area of the unit sphere of R^(2n)
    sphere = 2.0 * math.pi**n / math.factorial(n - 1)

    def stratum(g: np.ndarray, s: np.ndarray) -> np.ndarray:
        dirs = g[:, : 2 * n]
        dirs /= row_norm(dirs)[:, None]
        cdir = dirs[:, :n] + 1j * dirs[:, n:]
        # J in displacement form: the self term is exact in s, the other
        # atoms are evaluated at w1 + s * dir (fp collapse to w1 is fine)
        J = mu.weights[atom_index] * s ** (-alpha)
        if others.shape[0]:
            J = J + _riesz_sum(s[:, None] * cdir, others, other_weights, alpha)
        return J ** p * (sphere * s ** (2 * n - 1))

    return log_radial_levels(stratum, levels, alpha * p, r0, seed, width=2 * n,
                             samples=samples_per_stratum, stream=Stream.RIESZ_REFINEMENT)
