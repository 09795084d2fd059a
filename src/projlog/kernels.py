"""Logarithmic kernels on P^n x P^n and their affine-chart forms.

The projective kernel is log of the wedge ratio,

    K(zeta, eta) = log ( |zeta ^ eta| / (|zeta| |eta|) )  <= 0,

which equals log sin(d(zeta, eta) / sqrt 2).  Its restriction to a chart is
the affine kernel

    N(z, w) = (1/2) log ( (|z - w|^2 + |z ^ w|^2) / (1 + |w|^2) ),

related by K = N(z, w) - rho(z) with rho the local Kahler potential.  Both
are -inf exactly on the diagonal; KernelValue carries an explicit singular
flag so downstream quadrature can excise singular cells deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .geometry import (
    HomogeneousPoint,
    fs_potential,
    geodesic_distance,
    to_chart,
    wedge_norm_sq_batch,
    wedge_ratio_sq_batch,
)

@dataclass(frozen=True)
class KernelValue:
    """A kernel evaluation; value is -inf iff is_singular."""

    value: float
    is_singular: bool = False


def _pair_coords(zeta, eta):
    a = zeta.coords if isinstance(zeta, HomogeneousPoint) else np.asarray(zeta, dtype=complex)
    b = eta.coords if isinstance(eta, HomogeneousPoint) else np.asarray(eta, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatch(f"points live in P^{a.shape[-1]-1} vs P^{b.shape[-1]-1}")
    return a, b


def projective_log_kernel_batch(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """log wedge-ratio for batches; -inf rows mark the diagonal."""
    with np.errstate(divide="ignore"):
        return 0.5 * np.log(wedge_ratio_sq_batch(u, v))


def projective_log_kernel(zeta, eta) -> KernelValue:
    """The kernel on P^n x P^n; symmetric, <= 0, singular on the diagonal."""
    ratio = float(wedge_ratio_sq_batch(*_pair_coords(zeta, eta))[0])
    if ratio == 0.0:
        return KernelValue(-math.inf, is_singular=True)
    return KernelValue(0.5 * math.log(ratio))


def _affine_log_arg_batch(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(|z - w|^2 + |z ^ w|^2) / (1 + |w|^2), batched over rows of z."""
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    w = np.asarray(w, dtype=complex)
    diff = np.sum(np.abs(z - w) ** 2, axis=-1)
    wedge = wedge_norm_sq_batch(z, w)
    return (diff + wedge) / (1.0 + np.sum(np.abs(w) ** 2, axis=-1))


def affine_log_kernel_batch(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return 0.5 * np.log(_affine_log_arg_batch(z, w))


def affine_log_kernel(z, w) -> KernelValue:
    """The chart kernel N(z, w); plurisubharmonic in z, singular at z = w."""
    arg = float(_affine_log_arg_batch(np.asarray(z, dtype=complex), w)[0])
    if arg == 0.0:
        return KernelValue(-math.inf, is_singular=True)
    return KernelValue(0.5 * math.log(arg))


def chart_identity_residual(zeta, eta, chart: int = 0) -> float:
    """| K(zeta,eta) - (N(z,w) - rho(z)) | in the given chart.

    Both sides are -inf on the diagonal; the residual is defined as 0 there.
    """
    z, w = to_chart(zeta, chart), to_chart(eta, chart)
    lhs = projective_log_kernel(zeta, eta)
    rhs = affine_log_kernel(z, w)
    if lhs.is_singular and rhs.is_singular:
        return 0.0
    return abs(lhs.value - (rhs.value - fs_potential(z)))


def sin_distance_residual(zeta, eta) -> float:
    """| K(zeta,eta) - log sin(d(zeta,eta)/sqrt 2) |, 0 on the diagonal."""
    k = projective_log_kernel(zeta, eta)
    if k.is_singular:
        return 0.0
    d = geodesic_distance(zeta, eta)
    return abs(k.value - math.log(math.sin(d / math.sqrt(2.0))))
