"""Radial (co-area) quadrature on P^n.

Under the unit-volume convention the geodesic-sphere area density is

    A(r) = c_n sin^(2n-2)(r / sqrt 2) sin(sqrt 2 r),   0 <= r <= pi / sqrt 2,

with c_n = n / sqrt 2 fixed by int A dr = 1 (the antiderivative of A is
sin^(2n)(r / sqrt 2), so the integral is sqrt(2) c_n / n).  A radial
integral over P^n reduces, after the substitution u = sin(r / sqrt 2), to

    int f(r) A(r) dr = 2 sqrt(2) c_n int_0^1 f(sqrt 2 arcsin u) u^(2n-1) du,

which turns the log singularity of the kernel mean into the elementary
integral of u^(2n-1) log u.  adaptive Gauss-Kronrod (QUADPACK) does the rest.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import NonConvergent, ValidationError
from .geometry import _sample_stream

# scipy is imported inside the functions that use it: scipy.integrate pulls in
# scipy.optimize and numpy.f2py, which would otherwise load with every import
# of projlog

SQRT2 = math.sqrt(2.0)

#: growth of the log-depth from one refinement level to the next
DEPTH_FACTOR = 10.0


def area_constant(n: int) -> float:
    """c_n = n / sqrt 2 under the unit-volume convention."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    return n / SQRT2


def sphere_area(n: int, r) -> np.ndarray | float:
    """A(r), the area density of the geodesic sphere of radius r."""
    r = np.asarray(r, dtype=float)
    out = area_constant(n) * np.sin(r / SQRT2) ** (2 * n - 2) * np.sin(SQRT2 * r)
    return float(out) if out.ndim == 0 else out


def radial_quadrature(f, n: int) -> float:
    """int_0^(pi/sqrt 2) f(r) A(r) dr by adaptive Gauss-Kronrod.

    Uses the endpoint substitution u = sin(r / sqrt 2); f may have a known
    integrable log/power singularity at r = 0.  Raises NonConvergent when the
    QUADPACK error estimate exceeds the relative target 1e-10.
    """
    from scipy import integrate

    rel_tol = 1e-10
    pref = 2.0 * SQRT2 * area_constant(n)

    def integrand(u: float) -> float:
        return f(SQRT2 * math.asin(u)) * u ** (2 * n - 1)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-14,
                                  epsrel=rel_tol / 10.0, limit=400)
    val *= pref
    err *= pref
    if err > rel_tol * max(abs(val), 1e-8):
        raise NonConvergent(
            f"radial quadrature error estimate {err:.2e} exceeds target "
            f"{rel_tol:.1e} * {abs(val):.3e}"
        )
    return val


def mean_log_kernel(n: int) -> float:
    """Quadrature value of int log sin(r / sqrt 2) A(r) dr = -1/(2n).

    The closed form follows from int_0^1 u^(2n-1) log u du = -1/(2n)^2; this
    routine returns the adaptive-quadrature value so the identity can be
    checked.
    """
    from scipy import integrate

    pref = 2.0 * SQRT2 * area_constant(n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        # QUADPACK QAWS with weight u^(2n-1) log u and unit remainder
        val, err = integrate.quad(lambda u: 1.0, 0.0, 1.0,
                                  weight="alg-loga", wvar=(2 * n - 1, 0))
    if err > 1e-11:
        raise NonConvergent(f"log-kernel mean error estimate {err:.2e}")
    return pref * val


def sobolev_bound(n: int, p: float) -> float:
    """2 sqrt(2) c_n int_0^(pi/2) sin^(2n-1-p) t dt; +inf iff p >= 2n.

    Adaptive quadrature; the endpoint power t^(2n-1-p) is handled by
    QUADPACK's algebraic-weight rule when the exponent is negative.
    """
    if p < 0:
        raise ValidationError("p must be >= 0")
    if p >= 2 * n:
        return math.inf
    from scipy import integrate

    q = 2 * n - 1 - p
    pref = 2.0 * SQRT2 * area_constant(n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        if q >= 0:
            val, err = integrate.quad(lambda t: math.sin(t) ** q, 0.0, math.pi / 2,
                                      epsabs=1e-14, epsrel=1e-12, limit=200)
        else:
            # sin^q t = t^q (sin t / t)^q with the power split into the weight
            val, err = integrate.quad(lambda t: float(np.sinc(t / math.pi)) ** q,
                                      0.0, math.pi / 2, weight="alg", wvar=(q, 0))
    if err > 1e-9 * max(abs(val), 1.0):
        raise NonConvergent(f"sobolev bound error estimate {err:.2e}")
    return pref * val


def mc_estimate(values: np.ndarray, p: float, scale: float) -> tuple[float, float]:
    """The Monte Carlo estimate scale * mean(values^p) and its standard error.

    Every MC estimate and SE of the library comes from here.  Raises
    NonConvergent when either is not finite (a large p overflows the powers).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        powers = values ** p
        est = scale * float(np.mean(powers))
        se = scale * float(np.std(powers) / math.sqrt(values.shape[0]))
    if not (math.isfinite(est) and math.isfinite(se)):
        raise NonConvergent(f"the Monte Carlo estimate {est!r} (SE {se!r}) of a mean of "
                            f"p = {p!r} powers is not finite")
    return est, se


def log_radial_levels(stratum, levels: int, deepest: float, r0: float, seed: int,
                      width: int, samples: int, stream: int,
                      scale: float = 1.0) -> list[float]:
    """Cumulative Monte Carlo integrals in d(log s) over shrinking annuli.

    Level l covers r0 * 10^(-D_l) <= s <= r0 with the log-depth
    D_l = base * DEPTH_FACTOR^l, base = deepest / DEPTH_FACTOR^(levels - 1),
    so the last level reaches `deepest` decades.  Each level adds only its newly
    exposed annulus, so the comparison between levels is structural, not
    statistical.  The annulus is split into strata of at most one decade;
    stratum si of level l takes the `samples` rows of width + 1 normals of
    `stream` from index (l * 4096 + si) * samples on, and turns the last
    column into a log-uniform radius s.  stratum(g, s) returns the integrand
    per row; its mean times log(hi / lo) * scale is the stratum's integral.

    The strata of one level read one contiguous range of the stream, so a
    level draws it with one _sample_stream call and hands each stratum its
    slice; every Philox block is drawn once per level.  A level has at most
    ceil(deepest) strata, so its draw holds at most
    ceil(deepest) * samples * (width + 1) floats: 60 strata of 2048 samples
    at width + 1 = 7 (n = 2) come to about 6.9 MB.  levels must be at least
    1; a level whose estimate is not finite raises NonConvergent.
    """
    if levels < 1:
        raise ValidationError(f"levels = {levels} must be at least 1")
    from scipy.special import ndtr

    base = deepest / DEPTH_FACTOR ** (levels - 1)
    estimates = []
    depth_prev = 0.0
    running = 0.0
    for level in range(levels):
        depth = base * DEPTH_FACTOR**level
        strata = max(1, int(math.ceil(depth - depth_prev)))
        edges = np.linspace(depth_prev, depth, strata + 1)
        draw = _sample_stream(seed, strata * samples, width + 1,
                              start=level * 4096 * samples, stream=stream)
        total = 0.0
        for si, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            lo, hi = r0 * 10.0 ** (-b), r0 * 10.0 ** (-a)
            g = draw[si * samples:(si + 1) * samples]
            s = lo * (hi / lo) ** ndtr(g[:, width])
            total += math.log(hi / lo) * scale * float(np.mean(stratum(g, s)))
        running += total
        if not math.isfinite(running):
            raise NonConvergent(f"refinement level {level} estimate {running!r} is not finite")
        estimates.append(running)
        depth_prev = depth
    return estimates
