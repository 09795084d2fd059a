"""Homogeneous coordinates, chart atlas and Fubini-Study geometry on P^n.

Conventions used throughout the library:

* Points of P^n are stored in canonical form: unit Euclidean norm, and the
  first component of largest modulus is real and positive.  Two points are
  equal iff their canonical coordinates agree componentwise within 1e-12.
* The Fubini-Study volume is normalized to total mass 1 on P^n.  With the
  local Kahler potential rho(z) = (1/2) log(1 + |z|^2) the volume density
  relative to Lebesgue measure in a chart is
  det H_rho = 2^-n (1 + |z|^2)^-(n+1), whose integral over C^n is
  2^-n pi^n / n!; FS_VOLUME_NORM(n) divides that out.
* The geodesic distance is d(zeta, eta) = sqrt(2) * arcsin of the wedge
  ratio |zeta ^ eta| / (|zeta| |eta|); its range is [0, pi/sqrt(2)].  The
  real Riemannian metric consistent with this normalization is
  4 * H_rho, which makes |grad d| = 1 (checked numerically in the tests).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ValidationError

#: componentwise tolerance for canonical-form equality
CANONICAL_TOL = 1e-12

#: minimum |zeta_k| / |zeta| for a chart to be usable
CHART_FLOOR = 1e-10

#: maximal geodesic distance on P^n
MAX_DISTANCE = math.pi / math.sqrt(2.0)

#: samples per RNG block; the stream for sample index i depends only on
#: (seed, i // _CHUNK) and the offset within the block, never on how many
#: samples are requested or on any worker count.
_CHUNK = 4096


# ---------------------------------------------------------------------------
# sums over the coordinate axis
# ---------------------------------------------------------------------------

def row_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the last axis, adding its columns left to right.

    numpy reduces a short last axis one row at a time, which is several
    times slower than adding whole columns.  For real input with fewer than
    8 columns numpy also adds left to right, so this gives the bits of
    np.sum(a, axis=-1).  From 8 real columns on numpy keeps 8 partial sums,
    and from 4 complex columns on it adds the columns in pairs, so there the
    last bits can differ.  Zero-width rows sum to 0, as in numpy.
    """
    out = a[..., 0].copy() if a.shape[-1] else np.zeros(a.shape[:-1], a.dtype)
    for j in range(1, a.shape[-1]):
        out += a[..., j]
    return out


def abs_sq_sum(z: np.ndarray) -> np.ndarray:
    """sum_j |z_j|^2 over the last axis, squaring as np.abs(z) ** 2."""
    return row_sum(np.abs(z) ** 2)


def _abs_sq_planes(x: np.ndarray) -> np.ndarray:
    """sum_j |x_j|^2 over the first axis of complex slot planes x (n+1, ...),
    a batch with its coordinate axis first; the last axis must be
    contiguous.  np.einsum sums the squares of the planes' float views, then
    each entry's real and imaginary parts are added."""
    f = x.view(float)
    s = np.einsum("j...,j...->...", f, f)
    return s[..., ::2] + s[..., 1::2]


def row_norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis.

    Squares as (conj(x) x).real, the form np.linalg.norm(x, axis=-1)
    reduces, so the bits are its bits wherever row_sum's are np.sum's;
    np.abs(x) ** 2 would round differently.
    """
    return np.sqrt(row_sum((x.conj() * x).real))


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def canonicalize_batch(raw: np.ndarray) -> np.ndarray:
    """Canonicalize rows of an (m, n+1) complex array in place-free fashion."""
    raw = np.asarray(raw, dtype=complex)
    if raw.ndim == 1:
        return canonicalize_batch(raw[None, :])[0]
    norms = row_norm(raw)
    if np.any(norms == 0.0) or not np.all(np.isfinite(norms)):
        raise ValidationError("cannot canonicalize a zero or non-finite vector")
    v = raw / norms[:, None]
    piv = max_modulus_chart(v)
    rows = np.arange(v.shape[0])
    pivots = v[rows, piv]
    v = v * np.conj(pivots / np.abs(pivots))[:, None]
    # force the pivot exactly real-positive (kills 1e-17 phase residue)
    v[rows, piv] = np.abs(v[rows, piv])
    return v


@dataclass(frozen=True, eq=False)
class HomogeneousPoint:
    """A point of P^n held as a canonical complex (n+1)-vector."""

    coords: np.ndarray


def normalize(raw) -> HomogeneousPoint:
    """Canonical representative of [raw]; scale invariant, raises ValidationError
    (through canonicalize_batch) for a zero or non-finite vector."""
    arr = np.asarray(raw, dtype=complex)
    if arr.ndim != 1 or arr.size < 2:
        raise ValidationError("homogeneous coordinates must be a vector of length >= 2")
    return HomogeneousPoint(canonicalize_batch(arr))


# ---------------------------------------------------------------------------
# JSON inputs: measure files, pairs files and points
# ---------------------------------------------------------------------------

def parse_json(text: str, what: str):
    """The data of JSON text; ValidationError naming `what` if it does not parse."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too long an int, too deep a nesting
        raise ValidationError(f"{what} does not parse as JSON: {exc}") from exc


def json_records(text: str, what: str, key: str, fields: tuple[str, ...]):
    """n and the records of JSON text {"n": positive int, key: [records]}: a
    nonempty list of objects, each with every field."""
    data = parse_json(text, what)
    if not isinstance(data, dict) or "n" not in data:
        raise ValidationError(f'{what} must be {{"n": int, "{key}": [...]}}')
    n = data["n"]
    if type(n) is not int or n < 1:  # a bool is not an int here
        raise ValidationError(f"{what}: n = {n!r:.60} must be a positive integer")
    records = data.get(key)
    if not isinstance(records, list) or not records:
        raise ValidationError(f'{what}: "{key}" must be a nonempty list, got {records!r:.60}')
    for i, item in enumerate(records):
        if not isinstance(item, dict):
            raise ValidationError(f"{what}: {key}[{i}] must be an object, got {item!r:.60}")
        for name in fields:
            if name not in item:
                raise ValidationError(f"{what}: {key}[{i}].{name} is missing")
    return n, records


def json_real(x) -> bool:
    """True for a finite JSON real; a bool is not one."""
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


def complex_from_json(rows: list, width: int, where, point: bool = False) -> np.ndarray:
    """The (len(rows), width) complex array of JSON rows, each `width` [re, im]
    pairs of finite reals and, if point, of nonzero finite norm; checked in
    one pass, built as one array.  Errors name where(i), the row's JSON path."""
    for i, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == width and all(
                isinstance(c, list) and len(c) == 2 and json_real(c[0]) and json_real(c[1])
                for c in row)):
            raise ValidationError(f"{where(i)} must be a list of {width} [re, im] pairs "
                                  f"of finite reals, got {row!r:.60}")
    out = np.array(rows, dtype=float).reshape(-1, 2).view(complex).reshape(len(rows), width)
    if point:
        norms = row_norm(out)
        bad = np.flatnonzero(~((norms > 0.0) & (norms < math.inf)))
        if bad.size:
            raise ValidationError(f"{where(bad[0])} has norm {norms[bad[0]]}, so it is no point")
    return out


# ---------------------------------------------------------------------------
# wedge norm and distance
# ---------------------------------------------------------------------------

def wedge_norm_sq_batch(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sum of squared 2x2 minors |u_i v_j - u_j v_i|^2 over i < j, batched.

    Accepts (m, k) against (m, k) or (k,) and broadcasts.  Computed from the
    minors directly, which stays accurate near the diagonal where the
    Lagrange form |u|^2 |v|^2 - |<u, v>|^2 would cancel catastrophically.
    The i < j pair order makes the result bitwise symmetric in (u, v).
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.ndim == 1:
        u = u[None, :]
    if v.ndim == 1:
        v = np.broadcast_to(v, u.shape)
    if u.shape[-1] != v.shape[-1]:
        raise ValidationError(f"length {u.shape[-1]} vs {v.shape[-1]}")
    i, j = np.triu_indices(u.shape[-1], k=1)
    # explicit real arithmetic: float multiply/add are bitwise commutative,
    # so swapping u and v negates each minor exactly and the squared sum is
    # bitwise symmetric (numpy's fused complex multiply is not)
    ur, ui = np.ascontiguousarray(u.real), np.ascontiguousarray(u.imag)
    vr, vi = np.broadcast_to(v.real, u.shape), np.broadcast_to(v.imag, u.shape)
    re = (ur[:, i] * vr[:, j] - ui[:, i] * vi[:, j]) \
        - (ur[:, j] * vr[:, i] - ui[:, j] * vi[:, i])
    im = (ur[:, i] * vi[:, j] + ui[:, i] * vr[:, j]) \
        - (ur[:, j] * vi[:, i] + ui[:, j] * vr[:, i])
    return row_sum(re * re + im * im)


def wedge_ratio_sq_batch(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """|u ^ v|^2 / (|u|^2 |v|^2) = sin^2(d / sqrt 2), clipped into [0, 1]."""
    u, v = np.atleast_2d(np.asarray(u, dtype=complex)), np.asarray(v, dtype=complex)
    return np.clip(wedge_norm_sq_batch(u, v) / (abs_sq_sum(u) * abs_sq_sum(v)), 0.0, 1.0)


def geodesic_distance_batch(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Fubini-Study geodesic distance of row pairs, in [0, pi/sqrt(2)]."""
    return math.sqrt(2.0) * np.arcsin(np.sqrt(wedge_ratio_sq_batch(u, v)))


# ---------------------------------------------------------------------------
# chart atlas
# ---------------------------------------------------------------------------

def _is_int(x) -> bool:
    """x is a Python or numpy integer; a bool is not one here."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def check_chart(k: int, n: int, name: str = "chart") -> int:
    """k as a chart index of P^n; ValidationError naming it unless an integer in 0..n."""
    if not (_is_int(k) and 0 <= k <= n):
        raise ValidationError(f"{name} {k} is out of range 0..{n} for P^{n}")
    return k


def chart_mask(rows: np.ndarray, k: int) -> np.ndarray:
    """True for the rows (m, n+1) that chart k holds: |zeta_k|/|zeta| > CHART_FLOOR."""
    return np.abs(rows[:, k]) / row_norm(rows) > CHART_FLOOR


def chart_project(rows: np.ndarray, k: int) -> np.ndarray:
    """Chart-k coordinates zeta_j / zeta_k (j != k): the inverse of chart_lift.

    Accepts (n+1,) or (m, n+1) homogeneous rows and does not check the floor.
    The result is C-ordered (np.take; indexing with the list of kept slots
    returns Fortran-ordered rows from n = 2 on).
    """
    rows = np.asarray(rows, dtype=complex)
    keep = [j for j in range(rows.shape[-1]) if j != k]
    return np.take(rows, keep, axis=-1) / rows[..., k, None]


def chart_lift(z: np.ndarray, k: int) -> np.ndarray:
    """Insert 1 at slot k: the homogeneous lift (m, n+1) of the affine rows
    z (m, n); the result is not normalized.
    """
    m, n = z.shape
    out = np.empty((m, n + 1), dtype=complex)
    out[:, :k] = z[:, :k]
    out[:, k] = 1.0
    out[:, k + 1:] = z[:, k:]
    return out


def max_modulus_chart(coords: np.ndarray) -> np.ndarray:
    """Index of the component of largest modulus (first on ties) of each
    (..., n+1) row: one index for one vector, (...) indices for rows."""
    return np.argmax(np.abs(coords), axis=-1)


# ---------------------------------------------------------------------------
# Fubini-Study potential, metric and volume
# ---------------------------------------------------------------------------

def fs_potential(z) -> np.ndarray:
    """Local Kahler potential rho(z) = (1/2) log(1 + |z|^2) over the last axis."""
    return 0.5 * np.log1p(abs_sq_sum(np.asarray(z, dtype=complex)))


def fs_gradient(z) -> np.ndarray:
    """Holomorphic gradient d rho / dz = conj(z) / (2 (1 + |z|^2)) over the last axis."""
    z = np.asarray(z, dtype=complex)
    t = 1.0 + abs_sq_sum(z)
    return np.conj(z) / (2.0 * t[..., None])


def fs_hessian(z) -> np.ndarray:
    """Complex Hessian H_rho = I / (2t) - conj(z) z^T / (2t^2), t = 1 + |z|^2.

    The FS metric, batched over leading axes: (..., n) points give
    (..., n, n) matrices.  The diagonal is formed as
    (1 + sum_{j != i} |z_j|^2) / (2t^2), a sum of positive terms, since
    1/(2t) - |z_i|^2/(2t^2) cancels far out in the chart and loses about t ulps.
    """
    z = np.asarray(z, dtype=complex)
    a = np.abs(z) ** 2
    t = 1.0 + row_sum(a)
    d = 2.0 * t ** 2
    out = np.conj(z)[..., :, None] * z[..., None, :]
    out /= -d[..., None, None]
    n = z.shape[-1]
    for i in range(n):
        out[..., i, i] = (1.0 + sum(a[..., j] for j in range(n) if j != i)) / d
    return out


def fs_hessian_norm(z) -> np.ndarray:
    """Frobenius norm of H_rho, sqrt((n - 1) / (4t^2) + 1 / (4t^4)), t = 1 + |z|^2,
    from its eigenvalues 1/(2t) (n - 1 times) and 1/(2t^2)."""
    z = np.asarray(z, dtype=complex)
    t = 1.0 + abs_sq_sum(z)
    return np.sqrt((z.shape[-1] - 1) / (4.0 * t ** 2) + 1.0 / (4.0 * t ** 4))


def fs_gradient_norm_sq(z: np.ndarray, fz: np.ndarray) -> np.ndarray:
    """Squared FS-Riemannian gradient norm from holomorphic derivatives.

    For a real function f with Wirtinger derivatives fz = (df/dz_j),
    |grad f|^2 = 2 (1 + |z|^2) (|fz|^2 + |z . fz|^2) under the distance
    normalization above (so |grad d| = 1).  Batched over leading axes.
    """
    z = np.asarray(z, dtype=complex)
    fz = np.asarray(fz, dtype=complex)
    t = 1.0 + abs_sq_sum(z)
    dot = row_sum(z * fz)
    return 2.0 * t * (abs_sq_sum(fz) + np.abs(dot) ** 2)


def fs_volume_density(z) -> np.ndarray:
    """det H_rho = 2^-n (1 + |z|^2)^-(n+1), the unnormalized FS volume density."""
    z = np.asarray(z, dtype=complex)
    n = z.shape[-1]
    return 2.0 ** (-n) * (1.0 + abs_sq_sum(z)) ** (-(n + 1))


def fs_volume_norm(n: int) -> float:
    """Integral of fs_volume_density over C^n: 2^-n pi^n / n!."""
    return 2.0 ** (-n) * math.pi**n / math.factorial(n)


def fs_ball_volume(n: int, r) -> np.ndarray | float:
    """Normalized FS volume of a geodesic ball: sin^(2n)(r / sqrt(2)).

    Radii beyond the diameter pi/sqrt(2) cover all of P^n (volume 1).
    """
    r = np.minimum(np.asarray(r, dtype=float), MAX_DISTANCE)
    return np.sin(r / math.sqrt(2.0)) ** (2 * n)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

class Stream(IntEnum):
    """The Philox stream of each sampler, the high 32 bits of its key's
    second word (stream * 2^32 + block); distinct, so that no two samplers
    share draws under one seed, and fixed, since renumbering moves every draw."""

    FS = 0                  # FS-uniform samples
    RIESZ_BALL = 1          # uniform ball draws of the Riesz scan
    RIESZ_REFINEMENT = 2    # the Riesz near-atom refinement
    SOBOLEV_REFINEMENT = 4  # the Sobolev near-atom refinement


def _sample_stream(seed: int, count: int, width: int, start: int = 0,
                   stream: int = Stream.FS) -> np.ndarray:
    """Reproducible standard-normal draws of shape (count, width).

    Row i (absolute index start + i) is a pure function of (seed, stream,
    index): draws come in fixed blocks of _CHUNK rows keyed by Philox(key=
    [seed, stream * 2^32 + block]), so seed is an integer in 0..2^64-1.  Each
    block the range touches is drawn whole, once per call, so a caller that
    needs several nearby ranges draws their span in one call and slices it
    (coarea.log_radial_levels draws each refinement level this way).
    """
    if not (_is_int(seed) and 0 <= seed < 2**64):
        raise ValidationError(f"seed = {seed!r} must be an integer in 0..2^64-1")
    out = np.empty((count, width))
    first = start // _CHUNK
    last = (start + count - 1) // _CHUNK if count else first
    for block in range(first, last + 1):
        gen = np.random.Generator(
            np.random.Philox(key=[np.uint64(seed), np.uint64((stream << 32) + block)])
        )
        rows = gen.standard_normal((_CHUNK, width))
        lo = max(start, block * _CHUNK)
        hi = min(start + count, (block + 1) * _CHUNK)
        out[lo - start:hi - start] = rows[lo - block * _CHUNK:hi - block * _CHUNK]
    return out


def gaussian_rows(seed: int, count: int, n: int, start: int = 0) -> np.ndarray:
    """(count, n+1) standard complex Gaussians, the raw FS draw: row i is a pure
    function of (seed, start + i), and its class is FS-uniform on P^n."""
    g = _sample_stream(seed, count, 2 * (n + 1), start=start)
    out = np.empty((count, n + 1), dtype=complex)
    out.real, out.imag = g[:, : n + 1], g[:, n + 1:]
    return out


def sample_fs_array(seed: int, count: int, n: int, start: int = 0) -> np.ndarray:
    """(count, n+1) canonical points, FS-uniform: canonicalize_batch of gaussian_rows.

    Normalizing a standard complex Gaussian in C^(n+1) gives the unique
    unitarily invariant probability measure on P^n.  Deterministic in
    (seed, absolute sample index); extending count keeps earlier rows.
    """
    if count <= 0:
        return np.empty((0, n + 1), dtype=complex)
    return canonicalize_batch(gaussian_rows(seed, count, n, start))

