"""Quantitative verification suite.

Each check runs one acceptance-grade experiment at a fixed tolerance and
returns (name, passed, detail); run_checks times each call into a
CheckResult for the CLI `verify` subcommand and the acceptance tests.
Checks compare independent computation routes (Monte Carlo vs closed-form
quadrature, finite differences vs analytic derivatives, direct determinants
vs multilinear expansions), so a pass is evidence about the mathematics,
not about a single code path.  Sub-seeds wrap mod 2^64.
"""

from __future__ import annotations

import math as _math
import time
from dataclasses import dataclass

import numpy as np

from . import geometry, measures
from .coarea import mc_estimate, mean_log_kernel, sobolev_bound
from .errors import SingularStencil, ValidationError
from .geometry import chart_lift, geodesic_distance_batch, sample_fs_array
from .kernels import affine_log_kernel_batch, chart_identity_residual_batch, \
    projective_log_kernel_batch, sin_distance_residual_batch
from .measures import build_measure, decompose, riesz_lp_scan, riesz_refinement_scan, \
    uniform_on
from .monge_ampere import ball_mass_profile, hessian_fd_batch, \
    ma_product_expansion_check, ma_total_mass, smooth_wedge_density
from .potentials import log_potential_batch, nearest_site_distance, psh_lift, \
    sobolev_doubling, sobolev_refinement_scan


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name} ({self.seconds:.1f}s): {self.detail}"


def _subseed(seed: int, k: int) -> int:
    return (seed + k) % 2**64


def _random_measure(n, atoms, seed):
    pts = sample_fs_array(seed, atoms, n)
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.2, 1.0, atoms)
    return build_measure(pts, w / w.sum())


def check_sin_distance_identity(seed: int = 1):
    """Kernel equals log sin of the scaled distance, n = 1..4, 1e-12."""
    pairs = 10_000
    worst = 0.0
    for n in (1, 2, 3, 4):
        a = sample_fs_array(_subseed(seed, n), pairs, n)
        b = sample_fs_array(_subseed(seed, n + 100), pairs, n)
        k = projective_log_kernel_batch(a, b)
        d = geodesic_distance_batch(a, b)
        worst = max(worst, float(np.max(sin_distance_residual_batch(k, d))))
    return ("sin-distance identity", worst < 1e-12,
            f"max |K - log sin(d/sqrt2)| = {worst:.2e} over 4x{pairs} pairs (tol 1e-12)")


def check_chart_identity(seed: int = 2):
    """K = N - rho in the chart, n = 1..3, 1e-12."""
    pairs = 10_000
    worst = 0.0
    rng = np.random.default_rng(seed)
    for n in (1, 2, 3):
        z = rng.standard_normal((pairs, n)) + 1j * rng.standard_normal((pairs, n))
        w = rng.standard_normal((pairs, n)) + 1j * rng.standard_normal((pairs, n))
        lifts_z = geometry.canonicalize_batch(geometry.chart_lift(z, 0))
        lifts_w = geometry.canonicalize_batch(geometry.chart_lift(w, 0))
        k = projective_log_kernel_batch(lifts_z, lifts_w)
        worst = max(worst, float(np.max(chart_identity_residual_batch(k, z, w))))
    return ("chart identity", worst < 1e-12,
            f"max |K - (N - rho)| = {worst:.2e} over 3x{pairs} chart pairs (tol 1e-12)")


def check_kernel_bounds(seed: int = 3):
    """Two-sided chart-kernel bounds with 1e-12 slack at n = 2."""
    pairs = 100_000
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((pairs, 2)) + 1j * rng.standard_normal((pairs, 2))
    w = rng.standard_normal((pairs, 2)) + 1j * rng.standard_normal((pairs, 2))
    mid = affine_log_kernel_batch(z, w)
    with np.errstate(divide="ignore"):
        lower = 0.5 * np.log(geometry.abs_sq_sum(z - w) / (1.0 + geometry.abs_sq_sum(w)))
    upper = geometry.fs_potential(z)
    ok = np.all(lower <= mid + 1e-12) and np.all(mid <= upper + 1e-12)
    margin_lo = float(np.min(mid - lower))
    margin_hi = float(np.min(upper - mid))
    return ("two-sided kernel bounds", bool(ok),
            f"{pairs} pairs, min margins lower {margin_lo:.3e} / upper {margin_hi:.3e}")


def check_normalization_constant(seed: int = 4):
    """Quadrature mean = -1/(2n) for n = 1..6; MC agrees within 3 SE, n = 1, 2."""
    samples = 1_000_000
    quad_ok = True
    worst = 0.0
    for n in range(1, 7):
        dev = abs(mean_log_kernel(n) + 1.0 / (2 * n))
        worst = max(worst, dev)
        quad_ok &= dev < 1e-10
    mc_ok = True
    mc_detail = []
    for n in (1, 2):
        eta = geometry.normalize(np.eye(n + 1)[0])
        pts = sample_fs_array(_subseed(seed, n), samples, n)
        mean, se = mc_estimate(projective_log_kernel_batch(pts, eta.coords), 1.0, 1.0)
        dev = abs(mean + 1.0 / (2 * n))
        mc_ok &= dev < 3 * se
        mc_detail.append(f"n={n}: MC {mean:.5f} vs -{1/(2*n)} (dev {dev:.1e}, 3SE {3*se:.1e})")
    return ("kernel normalization constant", quad_ok and mc_ok,
            f"quad dev {worst:.1e} (tol 1e-10); " + "; ".join(mc_detail))


def check_sobolev_threshold(seed: int = 5, workers: int | None = None):
    """Doubling-stable at p = 2n-1; refinement grows >= 10x at p = 2n."""
    ok = True
    parts = []
    for n, S in ((1, 400_000), (2, 2_000_000)):
        eta = geometry.normalize(np.eye(n + 1)[0])
        mu = measures.dirac(eta)
        p_stable, sub = 2 * n - 1, _subseed(seed, n)
        first, doubled = sobolev_doubling(mu, p=float(p_stable), seed=sub, samples=S,
                                         workers=workers)
        drift = abs(doubled.estimate - first.estimate) / first.estimate
        below = first.estimate <= first.analytic_bound
        ests = sobolev_refinement_scan(mu, p=float(2 * n), atom_index=0,
                                       levels=4, seed=sub,
                                       samples_per_stratum=1024)
        ratios = [b / a for a, b in zip(ests, ests[1:])]
        grows = all(r >= 10.0 * (1.0 - 1e-9) for r in ratios)
        fin = sobolev_bound(n, 2 * n - 1) < _math.inf and sobolev_bound(n, 2 * n) == _math.inf
        ok &= drift < 0.05 and grows and below and fin
        parts.append(
            f"n={n}: drift {drift:.2%} at p={p_stable} (S={S}), MC {first.estimate:.4f} "
            f"<= bound {first.analytic_bound:.4f}, p={2*n} refinement x"
            + "/x".join(f"{r:.4f}" for r in ratios))
    return ("Sobolev threshold", ok, "; ".join(parts))


def check_riesz_ranges(seed: int = 6):
    """Unit-disc integral of |z|^-1 = 2 pi within 1 percent; critical refinement."""
    nu = measures.dirac(geometry.normalize([1, 0]))
    res = riesz_lp_scan(nu, 0, alpha=1.0, p=1.0, radius=1.0, seed=seed, samples=500_000)
    rel = abs(res.estimate - 2 * _math.pi) / (2 * _math.pi)
    ests = riesz_refinement_scan(nu, 0, alpha=1.0, p=2.0, atom_index=0, r0=0.5,
                                 levels=4, seed=seed)
    ratios = [b / a for a, b in zip(ests, ests[1:])]
    grows = all(r >= 10.0 * (1.0 - 1e-9) for r in ratios)
    sub = riesz_refinement_scan(nu, 0, alpha=1.0, p=1.5, atom_index=0, r0=0.5,
                                levels=4, seed=seed)
    converges = sub[-1] / sub[-2] < 1.05
    ok = rel < 0.01 and grows and converges
    return ("Riesz integrability ranges", ok,
            f"disc integral {res.estimate:.4f} vs 2pi (rel {rel:.2%}); critical "
            f"refinement x" + "/x".join(f"{r:.4f}" for r in ratios)
            + f"; subcritical tail ratio {sub[-1]/sub[-2]:.4f}")


def check_mixed_discriminant_expansion(seed: int = 7):
    """Pointwise product-formula expansion, n = 2, 3, atoms <= 4, rel 1e-9."""
    configs = 100
    rng = np.random.default_rng(seed)
    worst = 0.0
    done = 0
    while done < configs:
        n = int(rng.integers(2, 4))
        N = int(rng.integers(1, 5))
        w = rng.uniform(0.2, 1.0, N)
        sites = rng.standard_normal((N, n)) + 1j * rng.standard_normal((N, n))
        nu = build_measure(chart_lift(sites, 0), w / w.sum())
        z = 3.0 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        if nearest_site_distance(z[None], sites)[0] < 0.5:
            continue
        worst = max(worst, float(ma_product_expansion_check(nu, 0, z[None]).relative[0]))
        done += 1
    return ("mixed-discriminant expansion", worst < 1e-9,
            f"max relative residual {worst:.2e} over {configs} configs (tol 1e-9)")


def check_mass_conservation(seed: int = 8, workers: int | None = None):
    """Total smoothed MA mass = 1: n=1 within 1%, n=2 within 2% (eps = 0.3)."""
    mu1 = _random_measure(1, 4, seed)
    rep1 = ma_total_mass(mu1, grid=256, eps=0.3, workers=workers)
    dev1 = abs(rep1.total_mass - 1.0)
    mu2 = _random_measure(2, 2, _subseed(seed, 1))
    rep2 = ma_total_mass(mu2, grid=48, eps=0.3, vol_tol=0.02, workers=workers)
    dev2 = abs(rep2.total_mass - 1.0)
    ok = dev1 < 0.01 and dev2 < 0.02
    return ("MA mass conservation", ok,
            f"n=1 (256^2/chart): {rep1.total_mass:.4f} (tol 1%); "
            f"n=2 (48^4/chart): {rep2.total_mass:.4f} (tol 2%)")


def check_dirac_concentration(seed: int = 9):
    """Smoothed Dirac mass in B(10 eps) >= 0.9; fixed-ball mass grows as eps drops.

    The shrinking-ball masses m(B_(10 eps)) themselves are slightly
    decreasing in decreasing eps (they tend to (50/51) for n=1 from above),
    so the monotone-concentration clause is checked on the smallest fixed
    ball, which is the weak-convergence statement.
    """
    center = geometry.normalize([1, 0])
    mu = measures.dirac(center)
    eps_list = [0.3, 0.1, 0.03]
    r_fixed = 10 * min(eps_list)
    own_masses = []
    fixed_masses = []
    for eps in eps_list:
        radii = sorted({10 * eps, r_fixed})
        rep = ball_mass_profile(mu, center, radii, eps_list=[eps], points_per_axis=64)[0]
        masses = dict(rep.ball_profile)
        own_masses.append(min(masses[10 * eps], 1.0))
        fixed_masses.append(masses[r_fixed])
    ok_level = all(m >= 0.9 for m in own_masses)
    ok_mono = all(b > a for a, b in zip(fixed_masses, fixed_masses[1:]))
    return ("Dirac concentration", ok_level and ok_mono,
            "m(B(10eps)) = " + "/".join(f"{m:.3f}" for m in own_masses)
            + " (each >= 0.9); fixed-ball m(B(0.3)) = "
            + "/".join(f"{m:.3f}" for m in fixed_masses) + " increasing")


def check_absolute_continuity_dichotomy(seed: int = 23):
    """Per-atom singular mass ~ N^-n within factor 2 (N = 4, 16, 64, n = 2);
    a true Dirac keeps ball mass >= 0.9."""
    n, eps = 2, 0.005
    ok = True
    parts = []
    for N in (4, 16, 64):
        muN = uniform_on(sample_fs_array(seed, N, n))
        center = muN.point(0)
        rep = ball_mass_profile(muN, center, [10 * eps], eps_list=[eps],
                                points_per_axis=16)[0]
        ratio = rep.total_mass * N**n
        ok &= 0.5 <= ratio <= 2.0
        parts.append(f"N={N}: m*N^2 = {ratio:.2f}")
    eta = geometry.normalize([1.0, 0.3, -0.2j])
    rep = ball_mass_profile(measures.dirac(eta), eta, [10 * eps], eps_list=[eps],
                            points_per_axis=16)[0]
    ok &= rep.total_mass >= 0.9
    parts.append(f"delta: m(B(10eps)) = {rep.total_mass:.3f} >= 0.9")
    return ("absolute-continuity dichotomy", ok,
            "; ".join(parts) + " (factor-2 window)")


def check_smooth_wedge_density(seed: int = 11):
    """binom(n,m) D(H_V^m, H_rho^(n-m)) vs brute-force polarization, 1e-5.

    The density uses closed-form Hessians; the polarization reference is
    built from finite-difference Hessians (h = 1e-3) of the field values,
    an independent route.
    """
    rng = np.random.default_rng(seed)
    n, points = 2, 50
    worst = 0.0
    done = 0
    while done < points:
        sites = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        nu = build_measure(chart_lift(sites, 0), np.array([0.6, 0.4]))
        z = 2.0 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        if nearest_site_distance(z[None], sites)[0] < 0.4:
            continue
        H_V, fin_V = hessian_fd_batch(psh_lift(nu, 0), z[None], 1e-3)
        H_rho, fin_rho = hessian_fd_batch(geometry.fs_potential, z[None], 1e-3)
        if not (fin_V[0] and fin_rho[0]):
            raise SingularStencil(f"field is singular on the Hessian stencil at {z}")
        ss = np.linspace(0.5, 1.5, n + 1)
        dets = [float(np.linalg.det(s * H_V[0] + H_rho[0]).real) for s in ss]
        coeffs = np.polyfit(ss, dets, n)[::-1]
        for m in (0, 1, 2):
            val = smooth_wedge_density(nu, 0, m, z[None])[0]
            worst = max(worst, abs(val - coeffs[m]) / max(1.0, abs(coeffs[m])))
        done += 1
    return ("smooth-wedge density", worst < 1e-5,
            f"max deviation from brute-force polarization {worst:.2e} "
            f"over {points} points, m in 0..2 (tol 1e-5)")


def check_decomposition_reassembly(seed: int = 12):
    """mu = sum m_j mu_j and U_mu = sum m_j U_(mu_j) within 1e-12, n = 2."""
    mu = _random_measure(2, 100, seed)
    dec = decompose(mu)
    back = dec.reassemble()
    worst_w = 0.0
    for i in range(mu.num_atoms):
        diffs = np.max(np.abs(back.points - mu.points[i][None, :]), axis=1)
        j = int(np.argmin(diffs))
        worst_w = max(worst_w, float(diffs[j]), abs(back.weights[j] - mu.weights[i]))
    g = np.random.default_rng(_subseed(seed, 1)).standard_normal((20, 2, 3))
    Z = geometry.canonicalize_batch(g[:, 0] + 1j * g[:, 1])
    direct = log_potential_batch(mu, Z)
    split = sum(dec.masses[j] * log_potential_batch(comp, Z)
                for j, comp in dec.components.items())
    worst_p = float(np.max(np.abs(direct - split)))
    ok = worst_w < 1e-12 and worst_p < 1e-12
    return ("decomposition reassembly", ok,
            f"atom/weight residual {worst_w:.2e}, potential linearity {worst_p:.2e} "
            "(tol 1e-12)")


ALL_CHECKS = [
    ("sin-distance", check_sin_distance_identity),
    ("chart-identity", check_chart_identity),
    ("kernel-bounds", check_kernel_bounds),
    ("kernel-mean", check_normalization_constant),
    ("sobolev", check_sobolev_threshold),
    ("riesz", check_riesz_ranges),
    ("mixed-discriminant", check_mixed_discriminant_expansion),
    ("mass-conservation", check_mass_conservation),
    ("dirac-concentration", check_dirac_concentration),
    ("dichotomy", check_absolute_continuity_dichotomy),
    ("smooth-wedge", check_smooth_wedge_density),
    ("reassembly", check_decomposition_reassembly),
]

QUICK_CHECKS = {"sin-distance", "chart-identity", "kernel-bounds", "kernel-mean",
                "mixed-discriminant", "smooth-wedge", "reassembly"}

#: the checks whose scans run on run_chunked, so take a worker count
CHUNKED_CHECKS = {"sobolev", "mass-conservation"}


def require_checks(names) -> None:
    """Raise ValidationError naming every entry of names that is no check key."""
    keys = [key for key, _ in ALL_CHECKS]
    if unknown := [name for name in names or () if name not in keys]:
        raise ValidationError(f"unknown check key {', '.join(map(repr, unknown))}; "
                              f"valid keys: {', '.join(keys)}")


def run_checks(names=None, seed: int = 0, quick: bool = False,
               workers: int | None = None) -> list[CheckResult]:
    """Run the named checks (all by default; quick skips the slow grids);
    workers goes to the CHUNKED_CHECKS (None reads PROJLOG_WORKERS)."""
    require_checks(names)
    results = []
    for key, fn in ALL_CHECKS:
        if (names and key not in names) or (not names and quick and key not in QUICK_CHECKS):
            continue
        kwargs = {"seed": seed} if seed else {}
        if key in CHUNKED_CHECKS:
            kwargs["workers"] = workers
        t0 = time.perf_counter()
        name, passed, detail = fn(**kwargs)
        results.append(CheckResult(name, passed, detail, time.perf_counter() - t0))
    return results
