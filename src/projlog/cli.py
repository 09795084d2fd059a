"""Command-line interface.

Subcommands: kernel, potential, measure, sobolev, riesz, ma-density,
ma-mass, ball-profile, prop25-check, constants, sample, verify.

Artifacts are CSV files with a self-describing header block of comment
lines (seed, configuration, library version).  Bodies are byte-identical
across reruns with the same inputs; the timestamp lives on its own comment
line outside the determinism contract.  Exit codes: 0 success, 2 input or
configuration error, 3 numeric nonconvergence.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .coarea import area_constant, mean_log_kernel, sobolev_bound
from .errors import NumericError, ValidationError
from .geometry import HomogeneousPoint, canonicalize_batch, chart_mask, chart_project, \
    complex_from_json, geodesic_distance_batch, json_records, parse_json, sample_fs_array
from .kernels import affine_log_kernel_batch, chart_identity_residual_batch, \
    projective_log_kernel_batch, sin_distance_residual_batch
from .measures import AffineAtoms, AtomicMeasure, decompose, riesz_lp_scan, \
    riesz_refinement_scan
from .monge_ampere import ball_mass_profile, ma_density, ma_total_mass, \
    ma_product_expansion_check
from .parallel import resolve_workers
from .potentials import log_potential_batch, sobolev_doubling
from .verification import ALL_CHECKS, run_checks

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3


def write_csv(path: Path, command: str, params: dict, columns: list[str],
              rows) -> None:
    """CSV with a provenance header; body deterministic, timestamp separate.

    Floats, numpy's included, get 17 significant digits, which round-trips
    them and prints inf, -inf and nan as such.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# projlog {__version__}\n")
        fh.write(f"# command = {command}\n")
        for key in sorted(params):
            fh.write(f"# {key} = {params[key]}\n")
        fh.write(f"# generated_at = {time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(columns)
        out.writerows([f"{v:.17g}" if isinstance(v, float) else v for v in row]
                      for row in rows)


def _read(path: str, what: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {what} file {path}: {exc}") from exc


def _load_measure(path: str) -> AtomicMeasure:
    return AtomicMeasure.from_json(_read(path, "measure"))


def _load_pairs(path: str, affine: bool):
    """n and the two (m, width) row stacks of a pairs file (canonical points
    unless affine)."""
    keys = ("z", "w") if affine else ("zeta", "eta")
    what = f"pairs file {path}"
    n, pairs = json_records(_read(path, "pairs"), what, "pairs", keys)
    sides = [complex_from_json([pair[key] for pair in pairs], n if affine else n + 1,
                               lambda i, key=key: f"{what}: pairs[{i}].{key}", point=not affine)
             for key in keys]
    return (n, *(sides if affine else map(canonicalize_batch, sides)))


def _chart(args, n: int) -> int:
    """The --chart index, checked against P^n once per run."""
    if not 0 <= args.chart <= n:
        raise ValidationError(f"--chart {args.chart} is out of range 0..{n} for P^{n}")
    return args.chart


def _reals(text: str, option: str) -> list[float]:
    """The comma-separated reals of an option, at least one; ValidationError names it."""
    try:
        vals = [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        vals = []
    if not vals:
        raise ValidationError(f"{option} must be comma-separated reals, got {text!r}")
    return vals


def _parse_eps_list(text: str) -> list[float]:
    """Finite and strictly decreasing; the library checks the range."""
    vals = _reals(text, "--eps")
    if not all(map(math.isfinite, vals)):
        raise ValidationError(f"--eps must be finite reals, got {text!r}")
    if any(b >= a for a, b in zip(vals, vals[1:])):
        raise ValidationError("--eps list must be strictly decreasing")
    return vals


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def cmd_kernel(args) -> int:
    n, U, V = _load_pairs(args.pairs, args.affine)
    chart = _chart(args, n)
    if args.affine:
        value = affine_log_kernel_batch(U, V)
        rows = zip(value, (value == -np.inf).astype(int))
        cols = ["value", "is_singular"]
    else:
        value = projective_log_kernel_batch(U, V)
        d = geodesic_distance_batch(U, V)
        # NaN where either point lies off the chart
        inside = chart_mask(U, chart) & chart_mask(V, chart)
        res_chart = np.full(value.shape, np.nan)
        res_chart[inside] = chart_identity_residual_batch(
            value[inside], chart_project(U[inside], chart), chart_project(V[inside], chart))
        rows = zip(value, (value == -np.inf).astype(int), d,
                   sin_distance_residual_batch(value, d), res_chart)
        cols = ["value", "is_singular", "distance", "sin_residual", "chart_residual"]
    write_csv(Path(args.output) / "kernel.csv", "kernel",
              {"pairs": args.pairs, "n": n, "affine": args.affine, "chart": chart},
              cols, rows)
    return EXIT_OK


def cmd_potential(args) -> int:
    mu = _load_measure(args.measure)
    pts = sample_fs_array(args.seed, args.samples, mu.n)
    vals = log_potential_batch(mu, pts)
    cols = [f"c{i}_{p}" for i in range(mu.n + 1) for p in ("re", "im")] + ["potential"]
    write_csv(Path(args.output) / "potential.csv", "potential",
              {"measure": args.measure, "seed": args.seed, "samples": args.samples},
              cols, np.column_stack([pts.view(float), vals]).tolist())
    return EXIT_OK


def cmd_measure(args) -> int:
    mu = _load_measure(args.measure)
    dec = decompose(mu)
    rows = [(j, dec.masses[j], dec.components[j].num_atoms if j in dec.components else 0)
            for j in range(mu.n + 1)]
    write_csv(Path(args.output) / "measure.csv", "measure",
              {"measure": args.measure, "atoms": mu.num_atoms, "n": mu.n},
              ["chart", "mass", "support_atoms"], rows)
    return EXIT_OK


def cmd_sobolev(args) -> int:
    mu = _load_measure(args.measure)
    ps = _reals(args.p, "--p")
    rows = []
    for p in ps:
        first, doubled = sobolev_doubling(mu, p, args.seed, args.samples,
                                          h=args.h, workers=args.workers)
        drift = abs(doubled.estimate - first.estimate) / max(first.estimate, 1e-300)
        rows.append((p, first.estimate, first.std_error, doubled.estimate, drift,
                     first.analytic_bound, doubled.excised))
    write_csv(Path(args.output) / "sobolev.csv", "sobolev",
              {"measure": args.measure, "seed": args.seed, "samples": args.samples,
               "h": args.h},
              ["p", "estimate", "std_error", "estimate_doubled", "doubling_drift",
               "analytic_bound", "excised"], rows)
    return EXIT_OK


def cmd_riesz(args) -> int:
    mu = _load_measure(args.measure)
    chart = _chart(args, mu.n)
    atoms = AffineAtoms.from_measure(mu, chart)
    res = riesz_lp_scan(atoms, args.alpha, args.p_value, center=np.zeros(mu.n),
                        radius=args.radius, seed=args.seed, samples=args.samples)
    levels = riesz_refinement_scan(atoms, args.alpha, args.p_value, atom_index=0,
                                   r0=args.radius / 2, levels=args.levels,
                                   seed=args.seed)
    rows = [(-1, res.estimate, res.std_error)]
    rows += [(i, v, "") for i, v in enumerate(levels)]
    write_csv(Path(args.output) / "riesz.csv", "riesz",
              {"measure": args.measure, "alpha": args.alpha, "p": args.p_value,
               "radius": args.radius, "seed": args.seed, "samples": args.samples,
               "chart": chart, "levels": args.levels},
              ["refinement_level", "estimate", "std_error"], rows)
    return EXIT_OK


def cmd_ma_density(args) -> int:
    if len(args.eps_list) != 1:
        raise ValidationError(f"ma-density takes one --eps value, got {args.eps_text!r}")
    mu = _load_measure(args.measure)
    chart = _chart(args, mu.n)
    pts = sample_fs_array(args.seed, args.samples, mu.n)
    # points on the chart's hyperplane at infinity are left out
    Z = chart_project(pts[chart_mask(pts, chart)], chart)
    dens = ma_density(mu, chart, Z, h=args.h, eps=args.eps_list[0])
    cols = [f"z{i}_{p}" for i in range(mu.n) for p in ("re", "im")] + ["density"]
    write_csv(Path(args.output) / "ma_density.csv", "ma-density",
              {"measure": args.measure, "chart": chart, "h": args.h,
               "eps": args.eps_list[0], "seed": args.seed, "samples": args.samples},
              cols, np.column_stack([Z.view(float), dens]).tolist())
    return EXIT_OK


def cmd_ma_mass(args) -> int:
    mu = _load_measure(args.measure)
    rows = []
    for eps in args.eps_list:
        rep = ma_total_mass(mu, grid=args.grid, eps=eps, workers=args.workers)
        rows.append((eps, rep.total_mass, rep.vol_check, rep.clipped_cells))
    write_csv(Path(args.output) / "ma_mass.csv", "ma-mass",
              {"measure": args.measure, "grid": args.grid,
               "eps": ",".join(map(str, args.eps_list))},
              ["eps", "total_mass", "volume_check", "clipped_cells"], rows)
    return EXIT_OK


def cmd_ball_profile(args) -> int:
    mu = _load_measure(args.measure)
    center = mu.point(0)
    if args.center:
        rows = complex_from_json([parse_json(args.center, "--center")], mu.n + 1,
                                 lambda i: "--center", point=True)
        center = HomogeneousPoint(canonicalize_batch(rows)[0])
    radii = _reals(args.radii, "--radii")
    reports = ball_mass_profile(mu, center, radii, h=args.h,
                                eps_list=args.eps_list, points_per_axis=args.grid)
    rows = []
    for rep in reports:
        for (r, m), (_, ratio) in zip(rep.ball_profile, rep.vol_ratios):
            rows.append((rep.grid["eps"], r, m, ratio, rep.excised_singular_mass))
    write_csv(Path(args.output) / "ball_profile.csv", "ball-profile",
              {"measure": args.measure, "radii": args.radii, "h": args.h,
               "eps": ",".join(map(str, args.eps_list)),
               "grid": reports[0].grid["points_per_axis"],
               "center": args.center or "first atom"},
              ["eps", "radius", "mass", "mass_over_ball_volume",
               "excised_singular_mass"], rows)
    return EXIT_OK


def cmd_prop25_check(args) -> int:
    mu = _load_measure(args.measure)
    chart = _chart(args, mu.n)
    atoms = AffineAtoms.from_measure(mu, chart)
    rng = np.random.default_rng(args.seed)
    rows = []
    for _ in range(args.samples):
        z = 3.0 * (rng.standard_normal(mu.n) + 1j * rng.standard_normal(mu.n))
        if float(np.min(np.linalg.norm(atoms.w - z[None, :], axis=1))) < 0.5:
            continue
        chk = ma_product_expansion_check(atoms, z)
        rows.append((*z.view(float), chk.lhs, chk.rhs, chk.relative))
    cols = [f"z{i}_{p}" for i in range(mu.n) for p in ("re", "im")] \
        + ["det_direct", "det_expansion", "relative_residual"]
    write_csv(Path(args.output) / "prop25_check.csv", "prop25-check",
              {"measure": args.measure, "chart": chart, "seed": args.seed,
               "samples": args.samples},
              cols, rows)
    return EXIT_OK


def cmd_constants(args) -> int:
    rows = []
    for n in range(1, args.n + 1):
        bounds = [sobolev_bound(n, p) for p in (1.0, 2 * n - 1.0, 2.0 * n)]
        rows.append((n, area_constant(n), -mean_log_kernel(n), *bounds))
    write_csv(Path(args.output) / "constants.csv", "constants", {"n_max": args.n},
              ["n", "c_n", "alpha_n", "sobolev_bound_p1",
               "sobolev_bound_p_2n_minus_1", "sobolev_bound_p_2n"], rows)
    return EXIT_OK


def cmd_sample(args) -> int:
    pts = sample_fs_array(args.seed, args.samples, args.n)
    cols = [f"c{i}_{p}" for i in range(args.n + 1) for p in ("re", "im")]
    write_csv(Path(args.output) / "sample.csv", "sample",
              {"seed": args.seed, "samples": args.samples, "n": args.n},
              cols, pts.view(float).tolist())
    return EXIT_OK


def cmd_verify(args) -> int:
    names = [t for t in args.checks.split(",") if t]
    results = run_checks(names=names, seed=args.seed, quick=args.quick)
    rows = []
    ok = True
    for res in results:
        print(res.line())
        ok &= res.passed
        rows.append((res.name, "PASS" if res.passed else "FAIL", res.seconds, res.detail))
    write_csv(Path(args.output) / "verify.csv", "verify",
              {"seed": args.seed, "quick": args.quick},
              ["check", "status", "seconds", "detail"], rows)
    return EXIT_OK if ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

#: run-configuration options; each subcommand gets only those it reads
OPTIONS = {
    "seed": dict(type=int, default=0),
    "samples": dict(type=int, default=1000),
    "grid": dict(type=int, default=0,
                 help="grid points per axis (ball-profile: a multiple of 4, or 0 "
                      "for its default)"),
    "eps": dict(dest="eps_text", default="0.3",
                help="smoothing: a comma-separated strictly decreasing list (ma-density: "
                     "one value); 0 is the unsmoothed field, which ma-mass refuses"),
    "chart": dict(type=int, default=0),
    "n": dict(type=int, default=1),
    "h": dict(type=float, default=1e-4,
              help="singular-guard length at eps = 0: points within 10h of an "
                   "atom are excised or refused"),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="projlog",
        description="Logarithmic kernels, potentials and Monge-Ampere "
                    "densities on complex projective space.")
    ap.add_argument("--version", action="version", version=f"projlog {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, *options, measure=False, **kwargs):
        """A subcommand with --output, --workers and only the listed OPTIONS."""
        # no prefix matching: an option a subcommand lacks (say --h) must be
        # an error, not an abbreviation of another option (--help)
        p = sub.add_parser(name, allow_abbrev=False, **kwargs)
        p.add_argument("--output", default="projlog-out")
        p.add_argument("--workers", type=int, default=None)
        if measure:
            p.add_argument("--measure", required=True,
                           help="measure JSON file (see README)")
        for opt in options:
            p.add_argument(f"--{opt}", **OPTIONS[opt])
        return p

    p = command("kernel", "chart", help="evaluate kernels on point pairs from JSON")
    p.add_argument("--pairs", required=True, help="pairs JSON file")
    p.add_argument("--affine", action="store_true",
                   help="pairs hold chart coordinates z, w instead of points")
    p.set_defaults(fn=cmd_kernel)

    p = command("potential", "seed", "samples", measure=True,
                help="evaluate the potential on FS samples")
    p.set_defaults(fn=cmd_potential)

    p = command("measure", measure=True, help="validate and decompose a measure")
    p.set_defaults(fn=cmd_measure)

    p = command("sobolev", "seed", "samples", "h", measure=True,
                help="gradient p-norm scan with doubling")
    p.add_argument("--p", default="1.0", help="comma-separated p values")
    p.set_defaults(fn=cmd_sobolev)

    p = command("riesz", "seed", "samples", "chart", measure=True,
                help="Riesz potential L^p scan and refinement")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--p-value", type=float, default=1.0)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--levels", type=int, default=3)
    p.set_defaults(fn=cmd_riesz)

    p = command("ma-density", "seed", "samples", "eps", "chart", "h", measure=True,
                help="pointwise Monge-Ampere densities")
    p.set_defaults(fn=cmd_ma_density)

    p = command("ma-mass", "grid", "eps", measure=True,
                help="total Monge-Ampere mass over P^n")
    p.set_defaults(fn=cmd_ma_mass)

    p = command("ball-profile", "grid", "eps", "h", measure=True,
                help="ball-mass profile around a center")
    p.add_argument("--center", default="",
                   help="center point as JSON [[re,im],...]; default first atom")
    p.add_argument("--radii", default="0.5,0.25", help="decreasing radii")
    p.set_defaults(fn=cmd_ball_profile)

    p = command("prop25-check", "seed", "samples", "chart", measure=True,
                help="product-formula (mixed discriminant) residuals")
    p.set_defaults(fn=cmd_prop25_check)

    p = command("constants", "n", help="CSV table of c_n, alpha_n, bounds")
    p.set_defaults(fn=cmd_constants)

    p = command("sample", "seed", "samples", "n", help="FS-uniform samples as CSV")
    p.set_defaults(fn=cmd_sample)

    p = command("verify", "seed", help="run the quantitative check suite")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--quick", action="store_true", help="skip the slow grids")
    which.add_argument("--checks", default="", help="comma-separated check keys "
                       "(default: every check): " + ",".join(key for key, _ in ALL_CHECKS))
    p.set_defaults(fn=cmd_verify)

    return ap


def _validate_config(args) -> None:
    """Numeric run-config fields must be positive (grid 0 means 'default')."""
    for name in ("samples", "n"):
        if getattr(args, name, 1) <= 0:
            raise ValidationError(f"--{name} must be positive")
    if not 0 < getattr(args, "h", 1.0) < math.inf:
        raise ValidationError(f"--h must be a positive real, got {args.h!r}")
    if getattr(args, "grid", 0) < 0:
        raise ValidationError("--grid must be positive")
    if not 0 <= getattr(args, "seed", 0) < 2**64:
        raise ValidationError(f"--seed must be an integer in 0..2^64-1, got {args.seed!r:.40}")


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        args.workers = resolve_workers(getattr(args, "workers", None))
        _validate_config(args)
        if hasattr(args, "eps_text"):
            args.eps_list = _parse_eps_list(args.eps_text)
        return args.fn(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
