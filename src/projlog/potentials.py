"""Logarithmic potentials of atomic measures and their Sobolev diagnostics.

The projective potential of mu is the weighted kernel sum

    U_mu(zeta) = sum_i w_i log( |zeta ^ eta_i| / (|zeta| |eta_i|) )  <= 0,

its chart representative lifts to the plurisubharmonic function

    phi(z) = U_mu([z]) + rho(z) = sum_i w_i (1/2) log Ptilde_i(z),

and the globally smoothed version replaces Ptilde by
Ptilde + eps^2 (1 + |z|^2), which is again plurisubharmonic (a smooth max
of psh logs) and keeps total Monge-Ampere mass 1 on P^n for every eps > 0.
That is the one smoothing, and psh_lift(mu, chart, eps) the one chart field
of a measure: every chart computation takes the measure and a chart index.
rho's own closed forms are geometry.fs_potential, fs_gradient and
fs_hessian.  The Sobolev scan takes no chart (see sobolev_scan).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import analytic
from .coarea import log_radial_levels, mc_estimate, sobolev_bound, sphere_area
from .errors import ValidationError
from .geometry import (
    _CHUNK,
    Stream,
    _abs_sq_planes,
    _sample_stream,
    chart_project,
    check_chart,
    fs_gradient,
    fs_gradient_norm_sq,
    max_modulus_chart,
    row_norm,
    row_sum,
)
from .kernels import projective_log_kernel_batch
from .measures import AtomicMeasure, _check_atom_index
from .parallel import run_chunked


def nearest_site_distance(Z: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """Euclidean distance from each chart row of Z to its nearest site.

    The sites are taken in analytic.atom_blocks, so the difference array
    stays near analytic._BLOCK_ENTRIES complex numbers whatever the number
    of sites; the running minimum is exact, so the blocking does not change
    the result.
    """
    nearest = np.full(Z.shape[0], np.inf)
    for blk in analytic.atom_blocks(sites.shape[0], *Z.shape):
        np.minimum(nearest, np.min(row_norm(Z[:, None, :] - sites[None, blk, :]), axis=1),
                   out=nearest)
    return nearest


@dataclass(frozen=True)
class PotentialField:
    """Evaluatable scalar field on a chart of P^n (or on C^n).

    The field is sum_i w_i (1/2) log(Ptilde_i + b (1 + |z|^2)) over its
    atoms (see analytic), the chart representative of U_mu + rho, optionally
    globally smoothed (b = eps^2).  psh_lift is its one constructor.  rho
    itself has no atoms; its closed forms are geometry.fs_potential,
    fs_gradient and fs_hessian.  Evaluation is deterministic and vectorized
    over rows.
    """

    chart: int
    atoms_eta: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    b: float = 0.0

    def __call__(self, Z) -> np.ndarray:
        """Values (m,) at the chart rows Z (m, n)."""
        return analytic.field_value_batch(Z, self.atoms_eta, self.weights, self.chart, self.b)

    def complex_hessian(self, Z) -> np.ndarray:
        """Closed-form complex Hessian (m, n, n) at the chart rows Z (m, n)."""
        return analytic.field_hessian_batch(Z, self.atoms_eta, self.weights, self.chart, self.b)


def _check_eps(eps: float) -> None:
    if eps < 0.0:
        raise ValidationError(f"eps = {eps} must be >= 0")
    if not math.isfinite(eps * eps):
        raise ValidationError(f"eps = {eps!r}: its square overflows")


def psh_lift(mu: AtomicMeasure, chart: int, eps: float = 0.0) -> PotentialField:
    """Chart lift phi = U_mu o chart + rho, with optional global smoothing.

    For eps > 0 the lifted field is smooth and plurisubharmonic on the whole
    chart; for eps = 0 it is -inf exactly at the atoms inside the chart.
    """
    _check_eps(eps)
    return PotentialField(chart=check_chart(chart, mu.n), atoms_eta=mu.points.copy(),
                          weights=mu.weights.copy(), b=eps * eps)


# ---------------------------------------------------------------------------
# pointwise evaluation
# ---------------------------------------------------------------------------

def log_potential_batch(mu: AtomicMeasure, points: np.ndarray) -> np.ndarray:
    """U_mu on rows of (m, n+1); -inf rows at atoms."""
    points = np.atleast_2d(np.asarray(points, dtype=complex))
    if points.shape[-1] != mu.n + 1:
        raise ValidationError(f"points in P^{points.shape[-1] - 1}, measure on P^{mu.n}")
    out = np.zeros(points.shape[0])
    for w, eta in zip(mu.weights, mu.points):
        out += w * projective_log_kernel_batch(points, eta)
    return out


# ---------------------------------------------------------------------------
# Sobolev scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SobolevScanResult:
    estimate: float
    std_error: float
    analytic_bound: float
    # every draw is kept, so this reads 0; it stays while the benchmark's
    # sobolev-mc gate reads it
    excised: int = 0


def _sobolev_chunk(payload, rng):
    """Module-level chunk worker (picklable for process pools): |grad U_mu| at
    the chunk's draws, one Philox block of rows at a time.  Each row of the
    float draw holds a point's real parts, then its imaginary parts; they
    fill the block's slot planes with no complex rows in between."""
    mu, seed, start = payload
    lo, hi = rng
    n1 = mu.n + 1
    draw = _sample_stream(seed, hi - lo, 2 * n1, start=start + lo)
    norms = np.empty(hi - lo)
    planes = np.empty((n1, _CHUNK), dtype=complex)
    for a in range(0, hi - lo, _CHUNK):
        tile = draw[a:a + _CHUNK]
        zeta = planes[:, :tile.shape[0]]
        zeta.real, zeta.imag = tile[:, :n1].T, tile[:, n1:].T
        norms[a:a + tile.shape[0]] = _gradient_norms(mu, zeta)
    return norms


def _gradient_norms(mu: AtomicMeasure, zeta: np.ndarray) -> np.ndarray:
    """FS gradient norms |grad U_mu| = sqrt(2 |zeta|^2 |dF/dzeta|^2) at the
    columns of the slot planes zeta (n+1, m), each plane contiguous.

    The columns are homogeneous coordinates of any scale and phase (the scan
    passes raw Gaussian draws), and no chart is taken.  The closed-form
    gradient needs no guard near an atom: a Dirac's norm holds to 1e-9
    relative down to FS distance 1e-6.
    """
    grad = analytic._homogeneous_gradient(zeta, mu.points, mu.weights)
    return np.sqrt(2.0 * _abs_sq_planes(zeta) * _abs_sq_planes(grad))


def _check_p(p: float) -> None:
    """The Sobolev exponent: a finite real >= 1."""
    if not 1 <= p < math.inf:
        raise ValidationError(f"p = {p!r} must be a finite real >= 1 (smaller p follows "
                              f"by concavity)")


def sobolev_scan(mu: AtomicMeasure, p: float, seed: int, samples: int,
                 workers: int | None = None, start: int = 0) -> SobolevScanResult:
    """MC estimate of int |grad U_mu|^p dV over P^n (FS-uniform sampling).

    Each draw is a standard complex Gaussian in C^(n+1) (the rows of
    geometry.gaussian_rows, taken as slot planes straight off the float
    draw), left uncanonicalized.  The gradient norm is
    sqrt(2 |zeta|^2 |dF/dzeta|^2) from the closed-form homogeneous gradient,
    which ignores scale and phase, so no chart is taken.  Every draw is
    kept, however near an atom.  Reports the co-area majorant
    2 sqrt(2) c_n int sin^(2n-1-p), which is finite iff p < 2n.  Estimates depend only on (seed, sample
    index), so extending the sample count keeps the earlier draws
    (common-random doubling).
    """
    _check_p(p)
    if samples < 1:
        raise ValidationError(f"samples = {samples} must be at least 1")
    parts = run_chunked(_sobolev_chunk, samples, chunk=65536, workers=workers,
                        payload=(mu, seed, start))
    est, se = mc_estimate(np.concatenate(parts), p, 1.0)
    return SobolevScanResult(estimate=est, std_error=se, analytic_bound=sobolev_bound(mu.n, p))


def sobolev_doubling(mu: AtomicMeasure, p: float, seed: int, samples: int,
                     workers: int | None = None
                     ) -> tuple[SobolevScanResult, SobolevScanResult]:
    """Scan at `samples` and at `2 * samples` sharing the first half."""
    first = sobolev_scan(mu, p, seed, samples, workers=workers)
    second_half = sobolev_scan(mu, p, seed, samples, workers=workers, start=samples)
    return first, SobolevScanResult(
        estimate=0.5 * (first.estimate + second_half.estimate),
        std_error=0.5 * math.hypot(first.std_error, second_half.std_error),
        analytic_bound=first.analytic_bound)


def sobolev_refinement_scan(mu: AtomicMeasure, p: float, atom_index: int,
                            levels: int, seed: int,
                            samples_per_stratum: int = 2048) -> list[float]:
    """Near-atom estimates of int |grad U_mu|^p dV over shrinking FS annuli.

    Level l covers { 0.5 * 10^(-D_l) <= d(zeta, atom) <= 0.5 } with the
    log-depth D_l of coarea.log_radial_levels, sampled log-radially along
    random geodesics from the atom.  At p = 2n the radial integrand behaves
    like C/r, contributing a constant per resolved decade, so estimates grow
    by ~10x per level; for p < 2n they converge.  The integrand blows up like
    r^(-p), the power that sets the deepest decade.

    The self-atom term of the gradient is exact in the radius (the kernel
    gradient is radial with magnitude cot(r/sqrt 2)/sqrt 2); the remaining
    atoms enter through their gradient at the sampled point, which is
    insensitive to fp collapse of tiny radii.
    """
    _check_p(p)
    _check_atom_index(mu, atom_index)
    n = mu.n
    eta = mu.points[atom_index]
    w_self = mu.weights[atom_index]
    rest_pts = np.delete(mu.points, atom_index, axis=0)
    rest_w = np.delete(mu.weights, atom_index)
    k = max_modulus_chart(eta)
    sqrt2 = math.sqrt(2.0)

    def stratum(g: np.ndarray, s: np.ndarray) -> np.ndarray:
        self_mag = w_self / (sqrt2 * np.tan(s / sqrt2))
        if rest_pts.shape[0]:
            # unit geodesic direction: a Gaussian projected off eta
            tau = g[:, : n + 1] + 1j * g[:, n + 1: 2 * (n + 1)]
            tau -= row_sum(tau * np.conj(eta))[:, None] * eta[None, :]
            tau /= row_norm(tau)[:, None]
            # geodesic points (fp collapse to eta for tiny s is harmless)
            pts = np.cos(s / sqrt2)[:, None] * eta[None, :] \
                + np.sin(s / sqrt2)[:, None] * tau
            Z = chart_project(pts, k)
            # chart velocity of the geodesic (radial direction at pts)
            vel = (-np.sin(s / sqrt2)[:, None] * eta[None, :]
                   + np.cos(s / sqrt2)[:, None] * tau) / sqrt2
            dchart = np.delete(vel / pts[:, k, None], k, axis=1) \
                - Z * (vel[:, k] / pts[:, k])[:, None]
            # dU/dz of the other atoms: their lift's gradient minus their mass times rho's
            fz = analytic.field_gradient_batch(Z, rest_pts, rest_w, k) \
                - rest_w.sum() * fs_gradient(Z)
            # radial component: Riemannian inner product with the unit radial
            # field, computed as the directional derivative along the geodesic
            radial = 2.0 * row_sum(fz * dchart).real
            grad2 = self_mag**2 + 2.0 * self_mag * radial + fs_gradient_norm_sq(Z, fz)
        else:
            grad2 = self_mag**2
        return grad2 ** (p / 2.0) * sphere_area(n, s)

    return log_radial_levels(stratum, levels, p, 0.5, seed, width=2 * (n + 1),
                             samples=samples_per_stratum, stream=Stream.SOBOLEV_REFINEMENT)
