"""Time the field engine at the benchmark's tile shapes.

    python3 tools/engine_bench.py --repeats 25

For each shape (atoms x rows at dimension n) it calls
analytic.quad_form_batch and field_value_batch, field_gradient_batch and
field_hessian_batch in turn, `repeats` rounds, and prints each function's
fastest call in nanoseconds per point-atom pair.  Taking the calls in turn
spreads a busy moment of a shared host over all four functions, and the
minimum drops it.  The shapes are the det H_phi tiles of the benchmark's
workloads, monge_ampere._tile_rows rows for the atoms: 16 atoms x 2048 rows
at n = 2 (ball-atoms, eps 0.005), 2 x 5957 at n = 2 and 4 x 5461 at n = 1
(mass-grid, eps 0.3).

The Sobolev scan's gradient norms are timed the same way on one Philox
block of raw draws, 1 and 16 atoms x 4096 rows at n = 2: the scan's
chart-free path (potentials._gradient_norms on the block's slot planes)
against the chart path that tests/oracles.py keeps (each row's max-modulus
chart, the chart gradient and the inverse FS metric).

det H_phi (monge_ampere._ma_det) is timed in nanoseconds per row on one
n = 3 tile, 3 atoms x _tile_rows(3, 3) rows, at eps = 0 (the Schur form
about each row's nearest atom) beside eps = 0.003 (hermitian_det of the
field Hessian), as an unsmoothed and a smoothed ball profile take it.  The
inputs come from a fixed seed.  Not part of the test suite.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from oracles import chart_gradient_norms  # noqa: E402  (the chart path)
from projlog import analytic, potentials  # noqa: E402  (this checkout's engine)
from projlog.geometry import _CHUNK  # noqa: E402
from projlog.measures import build_measure  # noqa: E402
from projlog.monge_ampere import _ma_det, _tile_rows  # noqa: E402
from projlog.potentials import psh_lift  # noqa: E402

#: (atoms, rows, n, eps) of the benchmark's tiles: ball-atoms, then mass-grid's two
SHAPES = tuple((atoms, _tile_rows(atoms, n), n, eps)
               for atoms, n, eps in ((16, 2, 0.005), (2, 2, 0.3), (4, 1, 0.3)))

#: (atoms, rows, n) of the Sobolev scan's gradient-norm blocks, one Philox block of rows
SOBOLEV_SHAPES = ((1, _CHUNK, 2), (16, _CHUNK, 2))

#: (atoms, rows, n) of the det H_phi tile timed at each of MA_DET_EPS
MA_DET_SHAPE = (3, _tile_rows(3, 3), 3)
MA_DET_EPS = (0.0, 0.003)

FIELDS = ("field_value_batch", "field_gradient_batch", "field_hessian_batch")


def engine_calls(atoms: int, rows: int, n: int, eps: float) -> dict:
    """The four engine calls at one shape, as argument-free functions."""
    rng = np.random.default_rng(atoms * rows + n)
    eta = rng.standard_normal((atoms, n + 1)) + 1j * rng.standard_normal((atoms, n + 1))
    eta /= np.linalg.norm(eta, axis=1, keepdims=True)
    Z = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    w = np.full(atoms, 1.0 / atoms)
    b = eps * eps
    calls = {"quad_form_batch": lambda: analytic.quad_form_batch(Z, eta, 0, 0.0, b)}
    for name in FIELDS:
        calls[name] = lambda fn=getattr(analytic, name): fn(Z, eta, w, 0, b)
    return calls


def sobolev_calls(atoms: int, rows: int, n: int) -> dict:
    """The scan's gradient norms at one shape and the chart path's, as
    argument-free functions of the same raw draws."""
    rng = np.random.default_rng(atoms * rows + n)
    eta = rng.standard_normal((atoms, n + 1)) + 1j * rng.standard_normal((atoms, n + 1))
    mu = build_measure(eta, np.full(atoms, 1.0 / atoms))
    draws = rng.standard_normal((rows, n + 1)) + 1j * rng.standard_normal((rows, n + 1))
    zeta = np.ascontiguousarray(draws.T)
    return {"gradient_norms": lambda: potentials._gradient_norms(mu, zeta),
            "chart_gradient_norms": lambda: chart_gradient_norms(mu, draws)}


def ma_det_calls(atoms: int, rows: int, n: int) -> dict:
    """_ma_det at one tile for each eps in MA_DET_EPS, as argument-free functions."""
    rng = np.random.default_rng(atoms * rows + n)
    eta = rng.standard_normal((atoms, n + 1)) + 1j * rng.standard_normal((atoms, n + 1))
    mu = build_measure(eta, np.full(atoms, 1.0 / atoms))
    Z = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    return {f"eps={eps}": lambda lift=psh_lift(mu, 0, eps): _ma_det(lift, Z)
            for eps in MA_DET_EPS}


def time_calls(calls: dict, pairs: int, repeats: int) -> dict:
    """Nanoseconds per one of `pairs` units (point-atom pairs, or rows) of
    each call, the minimum over `repeats` rounds that make each call once in
    turn."""
    best = dict.fromkeys(calls, float("inf"))
    for _ in range(repeats):
        for name, call in calls.items():
            t0 = time.perf_counter()
            call()
            best[name] = min(best[name], time.perf_counter() - t0)
    return {name: 1e9 * s / pairs for name, s in best.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=25, help="rounds of calls per shape")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    for atoms, rows, n, eps in SHAPES:
        ns = time_calls(engine_calls(atoms, rows, n, eps), atoms * rows, args.repeats)
        print(f"n={n} atoms={atoms} rows={rows} eps={eps}: "
              + ", ".join(f"{name} {v:.2f}" for name, v in ns.items()) + " ns/pair")
    for atoms, rows, n in SOBOLEV_SHAPES:
        ns = time_calls(sobolev_calls(atoms, rows, n), atoms * rows, args.repeats)
        print(f"n={n} atoms={atoms} rows={rows} sobolev: "
              + ", ".join(f"{name} {v:.2f}" for name, v in ns.items()) + " ns/pair")
    atoms, rows, n = MA_DET_SHAPE
    ns = time_calls(ma_det_calls(atoms, rows, n), rows, args.repeats)
    print(f"n={n} atoms={atoms} rows={rows} ma_det: "
          + ", ".join(f"{name} {v:.2f}" for name, v in ns.items()) + " ns/row")
    return 0


if __name__ == "__main__":
    sys.exit(main())
