"""Radial (co-area) quadrature on P^n.

Under the unit-volume convention the geodesic-sphere area density is

    A(r) = c_n sin^(2n-2)(r / sqrt 2) sin(sqrt 2 r),   0 <= r <= pi / sqrt 2,

with c_n = n / sqrt 2 fixed by int A dr = 1 (the antiderivative of A is
sin^(2n)(r / sqrt 2), so the integral is sqrt(2) c_n / n).  A radial
integral over P^n reduces, after the substitution u = sin(r / sqrt 2), to

    int f(r) A(r) dr = 2 sqrt(2) c_n int_0^1 f(sqrt 2 arcsin u) u^(2n-1) du,

which turns the log singularity of the kernel mean into the integrable
u^(2n-1) log u.  A tanh-sinh rule on numpy does the rest; the Sobolev bound
is a closed Beta form.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonConvergent, ValidationError
from .geometry import _sample_stream, check_int, check_real

SQRT2 = math.sqrt(2.0)

#: growth of the log-depth from one refinement level to the next
DEPTH_FACTOR = 10.0


def area_constant(n: int) -> float:
    """c_n = n / sqrt 2 under the unit-volume convention."""
    return check_int(n, "n", 1) / SQRT2


def sphere_area(n: int, r) -> np.ndarray | float:
    """A(r), the area density of the geodesic sphere of radius r."""
    r = np.asarray(r, dtype=float)
    out = area_constant(n) * np.sin(r / SQRT2) ** (2 * n - 2) * np.sin(SQRT2 * r)
    return float(out) if out.ndim == 0 else out


def _quad(g, bound) -> float:
    """Tanh-sinh integral of g over (0, 1) (H. Takahasi and M. Mori, Publ. RIMS 9, 1974).

    The trapezoid rule in t on |t| <= tmax, with u = 1 / (1 + e^(-pi sinh t))
    keeping u and 1 - u exact near the ends, halves its step h (adding only
    the new nodes) until two levels agree within bound(value).  Raises
    NonConvergent when none do, when the end nodes add more than bound (g has
    not decayed by tmax: a divergent integral) or when g overflows at a node.
    """
    tmax, h0, halvings = 4.5, 0.5, 8
    total = math.nan
    for level in range(halvings + 1):
        h = h0 / 2**level    # every node is a dyadic fraction, so arange is exact
        t = np.arange(-tmax, tmax + h / 2, h) if level == 0 else np.arange(h - tmax, tmax, 2 * h)
        s = math.pi * np.sinh(t)
        u = 1.0 / (1.0 + np.exp(-s))
        try:    # the weight is du/dt, with 1 - u exact
            terms = math.pi * np.cosh(t) * u / (1.0 + np.exp(s)) * [g(x) for x in u.tolist()]
        except OverflowError:
            raise NonConvergent(f"the integrand overflows at a node of step {h}") from None
        ends = abs(terms[0]) + abs(terms[-1]) if level == 0 else ends
        prev, total = total, h * math.fsum(terms) + (0.5 * total if level else 0.0)
        if abs(total - prev) <= bound(total):
            if h * ends > bound(total):
                raise NonConvergent(f"the end nodes add {h * ends:.2e} to {total:.3e}")
            return total
    raise NonConvergent(f"levels {prev:.6e} and {total:.6e} differ by over {bound(total):.2e}")


def radial_quadrature(f, n: int) -> float:
    """int_0^(pi/sqrt 2) f(r) A(r) dr by _quad's tanh-sinh rule in u = sin(r / sqrt 2).

    f may have a known integrable log/power singularity at r = 0 but must be
    finite at the nodes, which come within 6e-62 of it (r^-p overflows for p > 5).
    Raises NonConvergent when the rule misses the relative target 1e-10 / 10
    (as on a divergent integral) or when f overflows.
    """
    rel_tol, pref = 1e-10, 2.0 * SQRT2 * area_constant(n)
    return pref * _quad(lambda u: f(SQRT2 * math.asin(u)) * u ** (2 * n - 1),
                        lambda val: rel_tol / 10.0 * max(abs(val), 1e-8 / pref))


def mean_log_kernel(n: int) -> float:
    """Quadrature value of int log sin(r / sqrt 2) A(r) dr = -1/(2n).

    The closed form follows from int_0^1 u^(2n-1) log u du = -1/(2n)^2; this
    routine returns radial_quadrature's value so the identity can be checked.
    """
    return radial_quadrature(lambda r: math.log(math.sin(r / SQRT2)), n)


def sobolev_bound(n: int, p: float) -> float:
    """2 sqrt(2) c_n int_0^(pi/2) sin^(2n-1-p) t dt; +inf iff p >= 2n.

    That is sqrt 2 c_n B(a, 1/2) = sqrt 2 c_n Gamma(a) sqrt(pi) / Gamma(a + 1/2)
    with a = (2n - p) / 2, taken through lgamma where Gamma overflows (n > 171).
    """
    if check_real(p, "p", 0) >= 2 * check_int(n, "n", 1):
        return math.inf
    a = (2 * n - p) / 2.0
    try:
        ratio = math.gamma(a) / math.gamma(a + 0.5)
    except OverflowError:
        ratio = math.exp(math.lgamma(a) - math.lgamma(a + 0.5))
    return n * math.sqrt(math.pi) * ratio    # sqrt 2 c_n = n


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


def log_radial_levels(stratum, levels: int, power: float, r0: float, seed: int,
                      width: int, samples: int, stream: int) -> list[float]:
    """Cumulative Monte Carlo integrals in d(log s) over shrinking annuli.

    stratum(g, s) returns, per row, the radial density at radius s: the
    integrand, which blows up like s^(-power) at s = 0, times the area of the
    sphere of radius s; the skeleton applies the factor s of d(log s).  Level
    l covers r0 * 10^(-D_l) <= s <= r0 with D_l = deepest * DEPTH_FACTOR^(l -
    levels + 1); deepest = min(60, 280 / max(power, 1)) decades at every level
    count keeps s^(-power) below about 1e280, inside float64 range.  Each
    level adds only its newly exposed annulus, so the comparison between
    levels is structural, not statistical.  The annulus is split into strata of
    at most one decade; stratum si of level l takes the `samples` rows of
    width + 1 normals of `stream` from index (l * 4096 + si) * samples on, and
    turns the last column into a log-uniform radius s.  The mean of
    stratum(g, s) * s times log(hi / lo) is the stratum's integral.

    The strata of one level read one contiguous range of the stream, so a
    level draws it with one _sample_stream call and hands each stratum its
    slice; every Philox block is drawn once per level.  A level has at most
    60 strata, so its draw holds at most 60 * samples * (width + 1) floats:
    60 strata of 2048 samples at width + 1 = 7 (n = 2) come to about 6.9 MB.
    levels and samples (the scans' samples_per_stratum) must be at least 1,
    with DEPTH_FACTOR^(levels - 1) finite, and r0 positive and finite.
    numpy's overflow and invalid-value warnings are off inside a level; a
    level whose estimate is not finite raises NonConvergent.
    """
    check_int(levels, "levels", 1)
    check_int(samples, "samples_per_stratum", 1)
    check_real(r0, "r0", 0, math.inf, open_lo=True)
    from scipy.special import ndtr    # here, so that importing projlog loads no scipy module

    deepest = min(60.0, 280.0 / max(power, 1.0))
    try:
        base = deepest / DEPTH_FACTOR ** (levels - 1)
    except OverflowError:
        raise ValidationError(f"levels = {levels} overflows DEPTH_FACTOR^(levels - 1)") from None
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
        with np.errstate(over="ignore", invalid="ignore"):
            for si, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
                lo, hi = r0 * 10.0 ** (-b), r0 * 10.0 ** (-a)
                g = draw[si * samples:(si + 1) * samples]
                s = lo * (hi / lo) ** ndtr(g[:, width])
                total += math.log(hi / lo) * float(np.mean(stratum(g, s) * s))
        running += total
        if not math.isfinite(running):
            raise NonConvergent(f"refinement level {level} estimate {running!r} is not finite")
        estimates.append(running)
        depth_prev = depth
    return estimates
