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
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, geometry
from .coarea import area_constant, mean_log_kernel, sobolev_bound
from .errors import ChartUndefined, NumericError, ValidationError
from .geometry import HomogeneousPoint, sample_fs_array
from .kernels import affine_log_kernel, chart_identity_residual, \
    projective_log_kernel, sin_distance_residual
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


def _fmt(x: float) -> str:
    if isinstance(x, float) and (math.isinf(x) or math.isnan(x)):
        return "inf" if x > 0 else ("-inf" if math.isinf(x) else "nan")
    return f"{x:.17g}"


def write_csv(path: Path, command: str, params: dict, columns: list[str],
              rows: list[tuple]) -> None:
    """CSV with a provenance header; body deterministic, timestamp separate."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(f"# projlog {__version__}\n")
        fh.write(f"# command = {command}\n")
        for key in sorted(params):
            fh.write(f"# {key} = {params[key]}\n")
        fh.write(f"# generated_at = {time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _load_measure(path: str) -> AtomicMeasure:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read measure file {path}: {exc}") from exc
    return AtomicMeasure.from_json(text)


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
    vals = _reals(text, "--eps")
    if not all(0 < e < math.inf for e in vals):
        raise ValidationError(f"--eps must be positive reals, got {text!r}")
    if any(b >= a for a, b in zip(vals, vals[1:])):
        raise ValidationError("--eps list must be strictly decreasing")
    return vals


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def cmd_kernel(args) -> int:
    data = json.loads(Path(args.pairs).read_text())
    n = int(data["n"])
    chart = _chart(args, n)
    rows = []
    if args.affine:
        for item in data["pairs"]:
            z = np.array([complex(re, im) for re, im in item["z"]])
            w = np.array([complex(re, im) for re, im in item["w"]])
            val = affine_log_kernel(z, w)
            rows.append((_fmt(val.value), int(val.is_singular)))
        cols = ["value", "is_singular"]
    else:
        for item in data["pairs"]:
            zeta = HomogeneousPoint.from_json(item["zeta"])
            eta = HomogeneousPoint.from_json(item["eta"])
            val = projective_log_kernel(zeta, eta)
            d = geometry.geodesic_distance(zeta, eta)
            res_sin = sin_distance_residual(zeta, eta)
            try:
                res_chart = chart_identity_residual(zeta, eta, chart=chart)
            except ChartUndefined:
                res_chart = float("nan")
            rows.append((_fmt(val.value), int(val.is_singular), _fmt(d),
                         _fmt(res_sin), _fmt(res_chart)))
        cols = ["value", "is_singular", "distance", "sin_residual", "chart_residual"]
    write_csv(Path(args.output) / "kernel.csv", "kernel",
              {"pairs": args.pairs, "n": n, "affine": args.affine, "chart": chart},
              cols, rows)
    return EXIT_OK


def cmd_potential(args) -> int:
    mu = _load_measure(args.measure)
    pts = sample_fs_array(args.seed, args.samples, mu.n)
    vals = log_potential_batch(mu, pts)
    rows = [tuple(_fmt(c) for c in np.concatenate([pt.view(float), [v]]))
            for pt, v in zip(pts, vals)]
    cols = [f"c{i}_{p}" for i in range(mu.n + 1) for p in ("re", "im")] + ["potential"]
    write_csv(Path(args.output) / "potential.csv", "potential",
              {"measure": args.measure, "seed": args.seed, "samples": args.samples},
              cols, rows)
    return EXIT_OK


def cmd_measure(args) -> int:
    mu = _load_measure(args.measure)
    dec = decompose(mu)
    rows = []
    for j in range(mu.n + 1):
        comp = dec.components.get(j)
        rows.append((j, _fmt(float(dec.masses[j])),
                     comp.num_atoms if comp is not None else 0))
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
        rows.append((_fmt(p), _fmt(first.estimate), _fmt(first.std_error),
                     _fmt(doubled.estimate), _fmt(drift),
                     _fmt(first.analytic_bound), doubled.excised))
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
    rows = [(-1, _fmt(res.estimate), _fmt(res.std_error))]
    rows += [(i, _fmt(v), "") for i, v in enumerate(levels)]
    write_csv(Path(args.output) / "riesz.csv", "riesz",
              {"measure": args.measure, "alpha": args.alpha, "p": args.p_value,
               "radius": args.radius, "seed": args.seed, "samples": args.samples,
               "chart": chart, "levels": args.levels},
              ["refinement_level", "estimate", "std_error"], rows)
    return EXIT_OK


def cmd_ma_density(args) -> int:
    mu = _load_measure(args.measure)
    chart = _chart(args, mu.n)
    rng_pts = sample_fs_array(args.seed, args.samples, mu.n)
    rows = []
    for pt in rng_pts:
        try:
            z = geometry.to_chart(pt, chart)
        except ChartUndefined:  # the point lies on the chart's hyperplane at infinity
            continue
        val = ma_density(mu, chart, z, h=args.h, eps=args.eps_list[0])
        rows.append(tuple(_fmt(c) for c in z.view(float)) + (_fmt(val),))
    cols = [f"z{i}_{p}" for i in range(mu.n) for p in ("re", "im")] + ["density"]
    write_csv(Path(args.output) / "ma_density.csv", "ma-density",
              {"measure": args.measure, "chart": chart, "h": args.h,
               "eps": args.eps_list[0], "seed": args.seed, "samples": args.samples},
              cols, rows)
    return EXIT_OK


def cmd_ma_mass(args) -> int:
    mu = _load_measure(args.measure)
    rows = []
    for eps in args.eps_list:
        rep = ma_total_mass(mu, grid=args.grid, eps=eps, workers=args.workers)
        rows.append((_fmt(eps), _fmt(rep.total_mass), _fmt(rep.vol_check),
                     rep.clipped_cells))
    write_csv(Path(args.output) / "ma_mass.csv", "ma-mass",
              {"measure": args.measure, "grid": args.grid,
               "eps": ",".join(map(str, args.eps_list))},
              ["eps", "total_mass", "volume_check", "clipped_cells"], rows)
    return EXIT_OK


def cmd_ball_profile(args) -> int:
    mu = _load_measure(args.measure)
    center = HomogeneousPoint.from_json(json.loads(args.center)) if args.center \
        else mu.point(0)
    radii = _reals(args.radii, "--radii")
    reports = ball_mass_profile(mu, center, radii, h=args.h,
                                eps_list=args.eps_list, points_per_axis=args.grid)
    rows = []
    for rep in reports:
        for (r, m), (_, ratio) in zip(rep.ball_profile, rep.vol_ratios):
            rows.append((_fmt(rep.grid["eps"]), _fmt(r), _fmt(m), _fmt(ratio),
                         _fmt(rep.excised_singular_mass)))
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
        rows.append(tuple(_fmt(c) for c in z.view(float))
                    + (_fmt(chk.lhs), _fmt(chk.rhs), _fmt(chk.relative)))
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
        rows.append((n, _fmt(area_constant(n)), _fmt(-mean_log_kernel(n)),
                     _fmt(bounds[0]), _fmt(bounds[1]), _fmt(bounds[2])))
    write_csv(Path(args.output) / "constants.csv", "constants", {"n_max": args.n},
              ["n", "c_n", "alpha_n", "sobolev_bound_p1",
               "sobolev_bound_p_2n_minus_1", "sobolev_bound_p_2n"], rows)
    return EXIT_OK


def cmd_sample(args) -> int:
    pts = sample_fs_array(args.seed, args.samples, args.n)
    cols = [f"c{i}_{p}" for i in range(args.n + 1) for p in ("re", "im")]
    rows = [tuple(_fmt(c) for c in pt.view(float)) for pt in pts]
    write_csv(Path(args.output) / "sample.csv", "sample",
              {"seed": args.seed, "samples": args.samples, "n": args.n},
              cols, rows)
    return EXIT_OK


def cmd_verify(args) -> int:
    names = None if args.all else [t for t in args.checks.split(",") if t]
    results = run_checks(names=names, seed=args.seed, quick=args.quick)
    rows = []
    ok = True
    for res in results:
        print(res.line())
        ok &= res.passed
        rows.append((res.name, "PASS" if res.passed else "FAIL",
                     _fmt(res.seconds), res.detail))
    write_csv(Path(args.output) / "verify.csv", "verify",
              {"seed": args.seed, "quick": args.quick},
              ["check", "status", "seconds", "detail"],
              [(a, b, c, f'"{d}"') for a, b, c, d in rows])
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
                help="comma-separated strictly decreasing positive list"),
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
    p.add_argument("--all", action="store_true", help="run every check")
    p.add_argument("--quick", action="store_true", help="skip the slow grids")
    p.add_argument("--checks", default="", help="comma-separated check keys: "
                   + ",".join(key for key, _ in ALL_CHECKS))
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
    if getattr(args, "seed", 0) < 0:
        raise ValidationError("--seed must be a nonnegative integer")


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
