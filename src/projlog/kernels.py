"""Logarithmic kernels on P^n x P^n and their affine-chart forms.

The projective kernel is log of the wedge ratio,

    K(zeta, eta) = log ( |zeta ^ eta| / (|zeta| |eta|) )  <= 0,

which equals log sin(d(zeta, eta) / sqrt 2).  Its restriction to a chart is
the affine kernel

    N(z, w) = (1/2) log ( (|z - w|^2 + |z ^ w|^2) / (1 + |w|^2) ),

related by K = N(z, w) - rho(z) with rho the local Kahler potential.  Both
are -inf exactly on the diagonal, which is how callers flag singular pairs.
Every function here is batched over rows.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import abs_sq_sum, fs_potential, wedge_norm_sq_batch, wedge_ratio_sq_batch


def projective_log_kernel_batch(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """log wedge-ratio for batches; -inf rows mark the diagonal."""
    with np.errstate(divide="ignore"):
        return 0.5 * np.log(wedge_ratio_sq_batch(u, v))


def _affine_log_arg_batch(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(|z - w|^2 + |z ^ w|^2) / (1 + |w|^2), batched over rows of z."""
    z, w = np.atleast_2d(np.asarray(z, dtype=complex)), np.asarray(w, dtype=complex)
    return (abs_sq_sum(z - w) + wedge_norm_sq_batch(z, w)) / (1.0 + abs_sq_sum(w))


def affine_log_kernel_batch(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The chart kernel N(z, w); plurisubharmonic in z, -inf at z = w."""
    with np.errstate(divide="ignore"):
        return 0.5 * np.log(_affine_log_arg_batch(z, w))


def _residual(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """|lhs - rhs|, defined as 0 where both sides are -inf."""
    with np.errstate(invalid="ignore"):
        return np.where(np.isneginf(lhs) & np.isneginf(rhs), 0.0, np.abs(lhs - rhs))


def sin_distance_residual_batch(k: np.ndarray, d: np.ndarray) -> np.ndarray:
    """|K - log sin(d / sqrt 2)| from kernel values k and distances d of the same pairs."""
    with np.errstate(divide="ignore"):
        return _residual(k, np.log(np.sin(d / math.sqrt(2.0))))


def chart_identity_residual_batch(k: np.ndarray, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """|K - (N(z, w) - rho(z))| from kernel values k and the pairs' chart coordinates."""
    return _residual(k, affine_log_kernel_batch(z, w) - fs_potential(z))
