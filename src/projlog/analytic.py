"""Closed-form first and second derivatives of the chart kernels.

Every field this library differentiates is a weighted sum of terms

    (1/2) log T(z),     T(z) = Ptilde(z) + a + b (1 + |z|^2),

where Ptilde(z) = (1/2) || M ||_F^2 with M_ij = l_i eta_j - l_j eta_i,
l = chart lift of z and eta a unit homogeneous vector.  Ptilde is a
Hermitian quadratic polynomial of z with constant complex Hessian

    d2 Ptilde / dz_c dzbar_d = delta_cd - conj(eta_pc) eta_pd,

and holomorphic gradient (conj(M) @ eta) restricted to the lifted slots.
For eta the canonical representative of an atom with chart coordinates w,
Ptilde(z) = (|z - w|^2 + |z ^ w|^2) / (1 + |w|^2), so

* (a, b) = (0, 0)      gives the chart kernel N(., w),
* (a, b) = (eps^2, 0)  gives the constant-eps smoothing N_eps,
* (a, b) = (0, eps^2)  gives the chart lift of the globally smoothed
                       projective kernel,

and rho = (1/2) log(1 + |z|^2) is the Ptilde = 0 member with (a, b) = (0, 1),
which quad_form_batch evaluates when eta is None.

This module is the library's one derivative engine: every production
gradient, Hessian and Monge-Ampere density is computed from these closed
forms.  The finite-difference stencils in monge_ampere and potentials are
kept only as the independent oracle that tests and `verify` compare against.
"""

from __future__ import annotations

import numpy as np

from .geometry import chart_lift


def _lift_positions(n: int, chart: int) -> np.ndarray:
    """Indices of the affine coordinates inside the homogeneous lift."""
    return np.delete(np.arange(n + 1), chart)


def quad_form_batch(Z: np.ndarray, eta: np.ndarray | None, chart: int,
                    a: float, b: float):
    """Evaluate T, dT/dz and the constant Hessian of T at rows of Z.

    Z : (m, n) complex points in the chart
    eta : unit homogeneous (n+1,) vector, or None for the Ptilde = 0 member
    returns (T (m,), Tz (m, n), Thess (n, n))
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    m, n = Z.shape
    t = np.sum(np.abs(Z) ** 2, axis=1)
    T = np.full(m, a + b, dtype=float) + b * t
    Tz = (b * np.conj(Z)).astype(complex)
    Thess = b * np.eye(n, dtype=complex)
    if eta is not None:
        lifts = chart_lift(Z, chart)  # (m, n+1)
        pos = _lift_positions(n, chart)
        # minors M_ij = l_i eta_j - l_j eta_i, per point
        M = lifts[:, :, None] * eta[None, None, :] - eta[None, :, None] * lifts[:, None, :]
        T = T + 0.5 * np.sum(np.abs(M) ** 2, axis=(1, 2))
        Tz = Tz + np.einsum("mij,j->mi", np.conj(M), eta)[:, pos]
        Thess = Thess + (np.eye(n) * np.sum(np.abs(eta) ** 2)
                         - np.outer(np.conj(eta[pos]), eta[pos]))
    return T, Tz, Thess


def log_half_value(T: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return 0.5 * np.log(T)


def log_half_gradient(T: np.ndarray, Tz: np.ndarray) -> np.ndarray:
    """d/dz of (1/2) log T, shape (m, n)."""
    return Tz / (2.0 * T[:, None])


def log_half_hessian(T: np.ndarray, Tz: np.ndarray, Thess: np.ndarray) -> np.ndarray:
    """Complex Hessian of (1/2) log T, shape (m, n, n)."""
    outer = Tz[:, :, None] * np.conj(Tz)[:, None, :]
    return Thess[None, :, :] / (2.0 * T[:, None, None]) - outer / (2.0 * T[:, None, None] ** 2)


def field_value_batch(Z, atoms_eta, weights, chart, a=0.0, b=0.0):
    """Sum of w_i (1/2) log T_i at rows of Z."""
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    out = np.zeros(Z.shape[0])
    for eta, w in zip(atoms_eta, weights):
        T, _, _ = quad_form_batch(Z, eta, chart, a, b)
        out += w * log_half_value(T)
    return out


def field_gradient_batch(Z, atoms_eta, weights, chart, a=0.0, b=0.0):
    """Holomorphic gradient (m, n) of the weighted field."""
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    out = np.zeros(Z.shape, dtype=complex)
    for eta, w in zip(atoms_eta, weights):
        T, Tz, _ = quad_form_batch(Z, eta, chart, a, b)
        out += w * log_half_gradient(T, Tz)
    return out


def field_hessian_batch(Z, atoms_eta, weights, chart, a=0.0, b=0.0):
    """Complex Hessian (m, n, n) of the weighted field."""
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    m, n = Z.shape
    out = np.zeros((m, n, n), dtype=complex)
    for eta, w in zip(atoms_eta, weights):
        T, Tz, Thess = quad_form_batch(Z, eta, chart, a, b)
        out += w * log_half_hessian(T, Tz, Thess)
    return out


def holo_to_real_gradient(fz: np.ndarray) -> np.ndarray:
    """Convert df/dz_j to the real gradient [d/dx_1.., d/dy_1..].

    For real-valued f: df/dx_j = 2 Re(df/dz_j), df/dy_j = -2 Im(df/dz_j).
    """
    fz = np.asarray(fz, dtype=complex)
    return np.concatenate([2.0 * fz.real, -2.0 * fz.imag], axis=-1)


def real_to_holo_gradient(g: np.ndarray) -> np.ndarray:
    """Inverse of holo_to_real_gradient."""
    g = np.asarray(g, dtype=float)
    n = g.shape[-1] // 2
    return 0.5 * (g[..., :n] - 1j * g[..., n:])
