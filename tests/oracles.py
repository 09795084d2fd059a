"""Independent reference computations that the tests compare the library to.

None of these is on a production path: each recomputes a quantity the
library gets another way (a finite-difference gradient against the closed
forms, the FS metric against the closed-form Hessian, the Sobolev scan's
chart-free gradient norms in the max-modulus chart, LAPACK mixed
discriminants one tuple at a time against the batched engine, a 60-digit
Monge-Ampere determinant against the double-precision one, chart
coordinates one point at a time against the batch projection, quadratures
and closed forms of the co-area constants, the refinement skeleton with one
draw per stratum against its one draw per level, the ball grid's cells a whole
level at a time, or any range of them by unraveling each flat index, against its
chunks, the FS ball's reach along chart rays by bisection against the ball
box's closed form, the smoothed Dirac's ball masses against the grid), or
makes an input the way a user would (the measure file of a measure, a seeded
random measure, the measure of given chart coordinates).
"""

import json
import math
from itertools import combinations

import mpmath
import numpy as np

from projlog import analytic
from projlog.coarea import DEPTH_FACTOR, SQRT2, area_constant
from projlog.errors import SingularStencil, ValidationError
from projlog.geometry import CHART_FLOOR, HomogeneousPoint, _sample_stream, chart_lift, \
    chart_project, fs_gradient, fs_gradient_norm_sq, geodesic_distance_batch, \
    max_modulus_chart, sample_fs_array
from projlog.measures import build_measure
from projlog.potentials import psh_lift


# ---------------------------------------------------------------------------
# finite-difference gradient
# ---------------------------------------------------------------------------

def _gradient_stencil_values(fieldfn, z: np.ndarray, h: float) -> np.ndarray:
    """Field values at z +- h e_j and z +- ih e_j, four per coordinate."""
    n = z.shape[0]
    shifts = []
    for j in range(n):
        e = np.zeros(n, dtype=complex)
        e[j] = h
        shifts.extend([e, -e, 1j * e, -1j * e])
    return np.asarray(fieldfn(np.stack([z + s for s in shifts])))


def _central_gradient(vals: np.ndarray, h: float) -> np.ndarray:
    """Real gradient [d/dx_1.., d/dy_1..] from _gradient_stencil_values."""
    v = vals.reshape(-1, 4)
    return np.concatenate([(v[:, 0] - v[:, 1]) / (2.0 * h),
                           (v[:, 2] - v[:, 3]) / (2.0 * h)])


def fd_gradient(fieldfn, z, h: float = 1e-4) -> np.ndarray:
    """O(h^2) central-difference gradient in (Re, Im) coordinates.

    Falls back to one Richardson extrapolation step when the stencil values
    span more than six orders of magnitude; raises SingularStencil when a
    stencil point is singular.
    """
    z = np.asarray(z, dtype=complex)
    raw = _gradient_stencil_values(fieldfn, z, h)
    if not np.all(np.isfinite(raw)):
        raise SingularStencil(f"singular field value on the gradient stencil at {z}")
    span = np.max(np.abs(raw)) / max(np.min(np.abs(raw)), 1e-300)
    g_h = _central_gradient(raw, h)
    if span <= 1e6:
        return g_h
    g_h2 = _central_gradient(_gradient_stencil_values(fieldfn, z, h / 2.0), h / 2.0)
    return (4.0 * g_h2 - g_h) / 3.0


def holo_to_real_gradient(fz: np.ndarray) -> np.ndarray:
    """Convert df/dz_j to the real gradient [d/dx_1.., d/dy_1..].

    For real-valued f: df/dx_j = 2 Re(df/dz_j), df/dy_j = -2 Im(df/dz_j).
    """
    fz = np.asarray(fz, dtype=complex)
    return np.concatenate([2.0 * fz.real, -2.0 * fz.imag], axis=-1)


# ---------------------------------------------------------------------------
# chart coordinates of one point
# ---------------------------------------------------------------------------

def to_chart(zeta, k: int) -> np.ndarray:
    """Affine coordinates of one point in chart k; ValidationError at or below CHART_FLOOR."""
    c = zeta.coords if isinstance(zeta, HomogeneousPoint) else np.asarray(zeta, dtype=complex)
    k = int(k)
    if not 0 <= k < c.shape[0]:
        raise ValidationError(f"chart index {k} out of range for P^{c.shape[0]-1}")
    scale = abs(c[k]) / np.linalg.norm(c)
    if scale <= CHART_FLOOR:
        raise ValidationError(
            f"|zeta_{k}|/|zeta| = {scale:.3e} <= chart_floor = {CHART_FLOOR:.1e}")
    return np.delete(c / c[k], k)


# ---------------------------------------------------------------------------
# Fubini-Study metric
# ---------------------------------------------------------------------------

def fs_metric(z: np.ndarray) -> np.ndarray:
    """Complex Hessian H_rho of the Kahler potential at z (Hermitian n x n)."""
    z = np.asarray(z, dtype=complex)
    n = z.shape[-1]
    t = 1.0 + np.sum(np.abs(z) ** 2)
    return 0.5 * (t * np.eye(n) - np.outer(np.conj(z), z)) / t**2


def fs_metric_inverse(z: np.ndarray) -> np.ndarray:
    """Closed-form inverse of fs_metric: 2 (1 + |z|^2) (I + conj(z) z^T)."""
    z = np.asarray(z, dtype=complex)
    n = z.shape[-1]
    t = 1.0 + np.sum(np.abs(z) ** 2)
    return 2.0 * t * (np.eye(n) + np.outer(np.conj(z), z))


# ---------------------------------------------------------------------------
# FS gradient norms in charts
# ---------------------------------------------------------------------------

def lift_gradient(lift, Z) -> np.ndarray:
    """Closed-form dphi/dz (m, n) of a chart field at its chart rows Z (m, n)."""
    return analytic.field_gradient_batch(Z, lift.atoms_eta, lift.weights, lift.chart, lift.b)


def chart_gradient_norms(mu, samples: np.ndarray) -> np.ndarray:
    """FS gradient norms |grad U_mu| at the rows (m, n+1) of samples, in charts.

    Each row is projected to its max-modulus chart, where dU_mu/dz is the
    closed-form gradient of the chart lift minus rho's, and the norm comes
    from the inverse FS metric.  The rows may have any scale and phase.
    """
    charts = max_modulus_chart(samples)
    norms = np.empty(samples.shape[0])
    for k in range(mu.n + 1):
        idx = np.flatnonzero(charts == k)
        Z = chart_project(samples[idx], k)
        fz = lift_gradient(psh_lift(mu, k), Z) - fs_gradient(Z)
        norms[idx] = np.sqrt(fs_gradient_norm_sq(Z, fz))
    return norms


# ---------------------------------------------------------------------------
# mixed discriminants
# ---------------------------------------------------------------------------

def mixed_discriminant_lapack(mats) -> float:
    """Mixed discriminant of one tuple of n (n, n) matrices by subset
    inclusion-exclusion, each subset sum's determinant from LAPACK."""
    mats = [np.asarray(A, dtype=complex) for A in mats]
    n = len(mats)
    total = 0.0
    for size in range(1, n + 1):
        sign = (-1) ** (n - size)
        for S in combinations(range(n), size):
            acc = mats[S[0]].copy()
            for i in S[1:]:
                acc += mats[i]
            total += sign * float(np.linalg.det(acc).real)
    return total / math.factorial(n)


# ---------------------------------------------------------------------------
# Monge-Ampere determinant in high precision
# ---------------------------------------------------------------------------

def ma_det_mpmath(mu, chart: int, z) -> float:
    """det H_phi of the unsmoothed chart lift at one chart row z, in 60-digit
    mpmath arithmetic, from the Lagrange form of each atom's kernel Hessian:
    (1/2) (M_(p_d p_c) / P - (l^* M)_(p_c) (M l)_(p_d) / P^2), where
    M = |eta|^2 I - eta eta^*, P = l^* M l, l the chart lift of z and p_c
    the lift slot of coordinate c.  At 60 digits the cancellation of P and
    of the determinant near an atom is harmless."""
    n = mu.n
    pos = [p for p in range(n + 1) if p != chart]
    with mpmath.workdps(60):
        l = mpmath.matrix([[1] if p == chart else [mpmath.mpc(z[pos.index(p)])]
                           for p in range(n + 1)])
        H = mpmath.zeros(n, n)
        for w, eta in zip(mu.weights, mu.points):
            e = mpmath.matrix([[mpmath.mpc(c)] for c in eta])
            M = (e.H * e)[0] * mpmath.eye(n + 1) - e * e.H
            P = (l.H * M * l)[0]
            lM, Ml = l.H * M, M * l
            for c in range(n):
                for d in range(n):
                    H[c, d] += mpmath.mpf(w) / 2 * (M[pos[d], pos[c]] / P
                                                    - lM[pos[c]] * Ml[pos[d]] / P**2)
        return float(mpmath.re(mpmath.det(H)))


# ---------------------------------------------------------------------------
# co-area constants
# ---------------------------------------------------------------------------

def area_constant_quadrature(n: int) -> float:
    """c_n recomputed by numerically solving int A(r) dr = 1."""
    from scipy import integrate

    raw, _ = integrate.quad(
        lambda r: math.sin(r / SQRT2) ** (2 * n - 2) * math.sin(SQRT2 * r),
        0.0, math.pi / SQRT2, epsabs=1e-14, epsrel=1e-13, limit=200,
    )
    return 1.0 / raw


def mean_log_kernel_closed_form(n: int) -> float:
    """-c_n / (sqrt 2 n^2) = -1/(2n) under the unit-volume convention."""
    return -area_constant(n) / (SQRT2 * n * n)


def smoothed_dirac_ball_mass(eps: float, r: float) -> float:
    """Smoothed-Dirac MA mass of B_r about the atom on P^1: T / (1 + T) with
    T = (1 + eps^2) tan^2(r / sqrt 2) / eps^2, written with sin^2 so that
    radii at or past the diameter pi / sqrt 2 give 1."""
    s2 = math.sin(min(r, math.pi / SQRT2) / SQRT2) ** 2
    return (1.0 + eps * eps) * s2 / (s2 + eps * eps)


def sobolev_bound_closed_form(n: int, p: float) -> float:
    """Beta-function form: sqrt 2 c_n B((2n-p)/2, 1/2), +inf for p >= 2n."""
    if p >= 2 * n:
        return math.inf
    from scipy.special import beta

    q = 2 * n - 1 - p
    return SQRT2 * area_constant(n) * beta((q + 1) / 2.0, 0.5)


def wallis_sin_power_integral(m: int) -> float:
    """int_0^(pi/2) sin^m t dt by the Wallis recursion I_m = I_(m-2) (m-1)/m."""
    if m < 0:
        raise ValueError("m must be >= 0")
    val = math.pi / 2.0 if m % 2 == 0 else 1.0
    for k in range(2 if m % 2 == 0 else 3, m + 1, 2):
        val *= (k - 1) / k
    return val


# ---------------------------------------------------------------------------
# the log-radial refinement skeleton
# ---------------------------------------------------------------------------

def log_radial_levels_per_stratum(stratum, levels: int, power: float, r0: float,
                                  seed: int, width: int, samples: int,
                                  stream: int) -> list[float]:
    """coarea.log_radial_levels with one _sample_stream call per stratum.

    Stratum si of level l draws its own `samples` rows from index
    (l * 4096 + si) * samples, so each call draws whole Philox blocks and
    keeps only its rows; the library draws each level's strata in one call.
    Same arithmetic otherwise, so the two agree bit for bit.
    """
    from scipy.special import ndtr

    base = min(60.0, 280.0 / max(power, 1.0)) / DEPTH_FACTOR ** (levels - 1)
    estimates = []
    depth_prev = 0.0
    running = 0.0
    for level in range(levels):
        depth = base * DEPTH_FACTOR**level
        strata = max(1, int(math.ceil(depth - depth_prev)))
        edges = np.linspace(depth_prev, depth, strata + 1)
        total = 0.0
        for si, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            lo, hi = r0 * 10.0 ** (-b), r0 * 10.0 ** (-a)
            g = _sample_stream(seed, samples, width + 1,
                               start=(level * 4096 + si) * samples, stream=stream)
            s = lo * (hi / lo) ** ndtr(g[:, width])
            total += math.log(hi / lo) * float(np.mean(stratum(g, s) * s))
        running += total
        estimates.append(running)
        depth_prev = depth
    return estimates


# ---------------------------------------------------------------------------
# the ball grid's cells
# ---------------------------------------------------------------------------

def nested_cells(c: np.ndarray, a0: float, levels: int, m: int):
    """Midpoint cells of dyadically nested boxes around chart point c, one
    whole level at a time (the library builds them in chunks).

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


def ball_reach(c: np.ndarray, r: float, directions: np.ndarray, steps: int = 100) -> np.ndarray:
    """How far the FS ball B_r(c) reaches from chart point c (chart 0) along
    each unit direction (rows of directions), by bisection on the FS
    distance; inf where the ray still lies in the ball 1e6 (1 + |c|) out.
    The ball is convex in the chart, so each ray meets it in one segment."""
    center = chart_lift(c[None, :], 0)[0]

    def inside(s):
        z = c[None, :] + s[:, None] * directions
        return geodesic_distance_batch(chart_lift(z, 0), center) <= r

    lo = np.zeros(directions.shape[0])
    hi = np.full(directions.shape[0], 1e6 * (1.0 + np.linalg.norm(c)))
    unbounded = inside(hi)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        into = inside(mid)
        lo, hi = np.where(into, mid, lo), np.where(into, hi, mid)
    return np.where(unbounded, np.inf, lo)


def box_cells_by_index(c: np.ndarray, a: float, m: int, lo: int, hi: int) -> np.ndarray:
    """The midpoint cells with flat (C order) indices lo..hi-1 of the box
    c + [-a, a]^(2n), m per axis, each index unraveled into its 2n axis
    indices (the library builds each axis's column from runs)."""
    n = c.shape[0]
    step = 2.0 * a / m
    idx = np.stack(np.unravel_index(np.arange(lo, hi), (m,) * (2 * n)), axis=1)
    pts = -a + (idx + 0.5) * step
    return c[None, :] + pts[:, :n] + 1j * pts[:, n:]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def measure_json(mu) -> str:
    """The measure file of mu: {"n": n, "atoms": [{"zeta": [[re, im], ...], "weight": w}]}."""
    atoms = [{"zeta": [[float(c.real), float(c.imag)] for c in row], "weight": float(w)}
             for row, w in zip(mu.points, mu.weights)]
    return json.dumps({"n": mu.n, "atoms": atoms}, indent=2)


def chart_measure(sites, weights):
    """The measure with atoms at the chart-0 coordinates sites (N, n) and the given weights."""
    return build_measure(chart_lift(np.asarray(sites, dtype=complex), 0),
                         np.asarray(weights, dtype=float))


def random_measure(n: int, atoms: int, seed: int):
    """FS-uniform atoms on P^n with seeded random weights in [0.2, 1), normalized."""
    pts = sample_fs_array(seed, atoms, n)
    w = np.random.default_rng(seed).uniform(0.2, 1.0, atoms)
    return build_measure(pts, w / w.sum())
