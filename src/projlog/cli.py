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
    check_chart, complex_from_json, geodesic_distance_batch, json_records, parse_json, \
    sample_fs_array
from .kernels import affine_log_kernel_batch, chart_identity_residual_batch, \
    projective_log_kernel_batch, sin_distance_residual_batch
from .measures import AtomicMeasure, chart_coordinates, decompose, riesz_lp_scan, \
    riesz_refinement_scan
from .monge_ampere import ball_mass_profile, ma_density, ma_total_mass, \
    ma_product_expansion_check
from .parallel import resolve_workers
from .potentials import log_potential_batch, nearest_site_distance, sobolev_doubling
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


def _write(args, columns: list[str], rows, **facts) -> None:
    """<command>.csv under --output, its header the dests the subcommand
    declares (a list comma-joined) and then the facts the run derived."""
    params = {}
    for dest in args.recorded:
        value = getattr(args, dest)
        params[dest] = ",".join(map(str, value)) if isinstance(value, list) else value
    write_csv(Path(args.output) / f"{args.command.replace('-', '_')}.csv", args.command,
              params | facts, columns, rows)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def cmd_kernel(args) -> int:
    n, U, V = _load_pairs(args.pairs, args.affine)
    if args.affine:
        # the affine mode reads no chart, so its header records none
        args.recorded = [dest for dest in args.recorded if dest != "chart"]
        value = affine_log_kernel_batch(U, V)
        rows = zip(value, (value == -np.inf).astype(int))
        cols = ["value", "is_singular"]
    else:
        chart = check_chart(args.chart, n, "--chart")
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
    _write(args, cols, rows, n=n)
    return EXIT_OK


def cmd_potential(args) -> int:
    mu = _load_measure(args.measure)
    pts = sample_fs_array(args.seed, args.samples, mu.n)
    vals = log_potential_batch(mu, pts)
    cols = [f"c{i}_{p}" for i in range(mu.n + 1) for p in ("re", "im")] + ["potential"]
    _write(args, cols, np.column_stack([pts.view(float), vals]).tolist())
    return EXIT_OK


def cmd_measure(args) -> int:
    mu = _load_measure(args.measure)
    dec = decompose(mu)
    rows = [(j, dec.masses[j], dec.components[j].num_atoms if j in dec.components else 0)
            for j in range(mu.n + 1)]
    _write(args, ["chart", "mass", "support_atoms"], rows, atoms=mu.num_atoms, n=mu.n)
    return EXIT_OK


def cmd_sobolev(args) -> int:
    mu = _load_measure(args.measure)
    rows = []
    for p in args.p:
        first, doubled = sobolev_doubling(mu, p, args.seed, args.samples, workers=args.workers)
        drift = abs(doubled.estimate - first.estimate) / max(first.estimate, 1e-300)
        rows.append((p, first.estimate, first.std_error, doubled.estimate, drift,
                     first.analytic_bound))
    _write(args, ["p", "estimate", "std_error", "estimate_doubled", "doubling_drift",
                  "analytic_bound"], rows)
    return EXIT_OK


def cmd_riesz(args) -> int:
    mu = _load_measure(args.measure)
    chart = check_chart(args.chart, mu.n, "--chart")
    res = riesz_lp_scan(mu, chart, args.alpha, args.p_value, radius=args.radius,
                        seed=args.seed, samples=args.samples)
    levels = riesz_refinement_scan(mu, chart, args.alpha, args.p_value, atom_index=0,
                                   r0=args.radius / 2, levels=args.levels,
                                   seed=args.seed)
    rows = [(-1, res.estimate, res.std_error)]
    rows += [(i, v, "") for i, v in enumerate(levels)]
    _write(args, ["refinement_level", "estimate", "std_error"], rows)
    return EXIT_OK


def cmd_ma_density(args) -> int:
    if len(args.eps) != 1:
        raise ValidationError(f"ma-density takes one --eps value, got {len(args.eps)}")
    mu = _load_measure(args.measure)
    chart = check_chart(args.chart, mu.n, "--chart")
    pts = sample_fs_array(args.seed, args.samples, mu.n)
    # points on the chart's hyperplane at infinity are left out
    Z = chart_project(pts[chart_mask(pts, chart)], chart)
    dens = ma_density(mu, chart, Z, eps=args.eps[0])
    cols = [f"z{i}_{p}" for i in range(mu.n) for p in ("re", "im")] + ["density"]
    _write(args, cols, np.column_stack([Z.view(float), dens]).tolist())
    return EXIT_OK


def cmd_ma_mass(args) -> int:
    mu = _load_measure(args.measure)
    rows = []
    for eps in args.eps:
        rep = ma_total_mass(mu, grid=args.grid, eps=eps, workers=args.workers)
        rows.append((eps, rep.total_mass, rep.vol_check, rep.clipped_cells))
    # the grid's cells do not depend on eps
    _write(args, ["eps", "total_mass", "volume_check", "clipped_cells"], rows,
           cells=rep.grid["cells"], live_cells=rep.grid["live_cells"])
    return EXIT_OK


def cmd_ball_profile(args) -> int:
    mu = _load_measure(args.measure)
    center = mu.point(0)
    if args.center:
        rows = complex_from_json([parse_json(args.center, "--center")], mu.n + 1,
                                 lambda i: "--center", point=True)
        center = HomogeneousPoint(canonicalize_batch(rows)[0])
    reports = ball_mass_profile(mu, center, args.radii, eps_list=args.eps,
                                points_per_axis=args.grid)
    rows = []
    for rep in reports:
        for (r, m), (_, ratio) in zip(rep.ball_profile, rep.vol_ratios):
            rows.append((rep.grid["eps"], r, m, ratio))
    _write(args, ["eps", "radius", "mass", "mass_over_ball_volume"], rows,
           grid=reports[0].grid["points_per_axis"], center=args.center or "first atom",
           levels=",".join(str(rep.grid["levels"]) for rep in reports),
           clipped_cells=",".join(str(rep.clipped_cells) for rep in reports))
    return EXIT_OK


def cmd_prop25_check(args) -> int:
    mu = _load_measure(args.measure)
    chart = check_chart(args.chart, mu.n, "--chart")
    sites = chart_coordinates(mu, chart)
    g = np.random.default_rng(args.seed).standard_normal((args.samples, 2, mu.n))
    Z = 3.0 * (g[:, 0] + 1j * g[:, 1])
    # draws within 0.5 of an atom are skipped and counted in the header
    Z = Z[nearest_site_distance(Z, sites) >= 0.5]
    chk = ma_product_expansion_check(mu, chart, Z)
    cols = [f"z{i}_{p}" for i in range(mu.n) for p in ("re", "im")] \
        + ["det_direct", "det_expansion", "relative_residual"]
    _write(args, cols, np.column_stack([Z.view(float), chk.lhs, chk.rhs, chk.relative]).tolist(),
           rejected=args.samples - len(Z))
    return EXIT_OK


def cmd_constants(args) -> int:
    rows = []
    for n in range(1, args.n + 1):
        bounds = [sobolev_bound(n, p) for p in (1.0, 2 * n - 1.0, 2.0 * n)]
        rows.append((n, area_constant(n), -mean_log_kernel(n), *bounds))
    _write(args, ["n", "c_n", "alpha_n", "sobolev_bound_p1", "sobolev_bound_p_2n_minus_1",
                  "sobolev_bound_p_2n"], rows)
    return EXIT_OK


def cmd_sample(args) -> int:
    pts = sample_fs_array(args.seed, args.samples, args.n)
    cols = [f"c{i}_{p}" for i in range(args.n + 1) for p in ("re", "im")]
    _write(args, cols, pts.view(float).tolist())
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_checks(names=args.checks, seed=args.seed, quick=args.quick,
                         workers=args.workers)
    for res in results:
        print(res.line())
    # the times vary from run to run, so they go into the header, not the body
    _write(args, ["check", "status", "detail"],
           [(res.name, "PASS" if res.passed else "FAIL", res.detail) for res in results],
           seconds=",".join(f"{res.seconds:.3f}" for res in results))
    return EXIT_OK if all(res.passed for res in results) else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _usage_error(message: str):
    """Every parser's error hook: a value an option's type rejects, or an
    unknown or missing option, raises ValidationError, so main returns 2."""
    raise ValidationError(message)


def _checked(parse, expect: str, ok):
    """An argparse type: parse(text), which ok must accept (argparse puts
    the option in front of the message)."""
    def convert(text: str):
        try:
            if ok(value := parse(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {expect}, got {text!r:.40}")
    return convert


def _reals(text: str) -> list[float]:
    """The comma-separated reals of a list option (empty items skipped)."""
    return [float(tok) for tok in text.split(",") if tok]


def _decreasing(vals: list[float]) -> bool:
    """At least one value, all finite and strictly decreasing."""
    return bool(vals) and all(map(math.isfinite, vals)) \
        and all(b < a for a, b in zip(vals, vals[1:]))


#: the options that several subcommands share; each subcommand gets only
#: those it reads.  A row's type converts the text and checks what the CLI
#: itself checks (the library checks the rest).
OPTIONS = {
    "measure": dict(required=True, help="measure JSON file (see README)"),
    "seed": dict(type=_checked(int, "an integer in 0..2^64-1", lambda v: 0 <= v < 2**64),
                 default=0),
    "samples": dict(type=_checked(int, "a positive integer", lambda v: v > 0), default=1000),
    "grid": dict(type=_checked(int, "an integer >= 0", lambda v: v >= 0), default=0,
                 help="grid points per axis (ball-profile: a multiple of 4, or 0 "
                      "for its default)"),
    "eps": dict(type=_checked(_reals, "a strictly decreasing list of finite reals",
                              _decreasing), default="0.3",
                help="smoothing: a comma-separated strictly decreasing list (ma-density: "
                     "one value); 0 is the unsmoothed field, which ma-mass refuses"),
    "chart": dict(type=int, default=0),
    "n": dict(type=_checked(int, "a positive integer", lambda v: v > 0), default=1),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="projlog",
        description="Logarithmic kernels, potentials and Monge-Ampere "
                    "densities on complex projective space.")
    ap.error = _usage_error
    ap.add_argument("--version", action="version", version=f"projlog {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, fn, summary, *shared, extra=None, exclusive=()):
        """A subcommand with --output, --workers, the listed OPTIONS rows and
        its extra rows, those named in exclusive in one mutually exclusive
        group; its CSV header records the dests of all but --output and
        --workers."""
        # no prefix matching: an option a subcommand lacks (say --s) must be
        # an error, not an abbreviation of another option (--samples)
        p = sub.add_parser(name, allow_abbrev=False, help=summary)
        p.error = _usage_error
        p.add_argument("--output", default="projlog-out")
        p.add_argument("--workers", type=int, default=None)
        group = p.add_mutually_exclusive_group() if exclusive else None
        rows = [(opt, OPTIONS[opt]) for opt in shared] + list((extra or {}).items())
        p.set_defaults(fn=fn, recorded=[
            (group if opt in exclusive else p).add_argument(f"--{opt}", **row).dest
            for opt, row in rows])

    command("kernel", cmd_kernel, "evaluate kernels on point pairs from JSON", "chart",
            exclusive=("chart", "affine"), extra={
                "pairs": dict(required=True, help="pairs JSON file"),
                "affine": dict(action="store_true",
                               help="pairs hold chart coordinates z, w instead of points")})
    command("potential", cmd_potential, "evaluate the potential on FS samples",
            "measure", "seed", "samples")
    command("measure", cmd_measure, "validate and decompose a measure", "measure")
    command("sobolev", cmd_sobolev, "gradient p-norm scan with doubling",
            "measure", "seed", "samples", extra={
                "p": dict(type=_checked(_reals, "comma-separated reals", bool),
                          default="1.0", help="comma-separated p values")})
    command("riesz", cmd_riesz, "Riesz potential L^p scan and refinement",
            "measure", "seed", "samples", "chart", extra={
                "alpha": dict(type=float, default=1.0),
                "p-value": dict(type=float, default=1.0),
                "radius": dict(type=float, default=1.0),
                "levels": dict(type=int, default=3)})
    command("ma-density", cmd_ma_density, "pointwise Monge-Ampere densities",
            "measure", "seed", "samples", "chart", "eps")
    command("ma-mass", cmd_ma_mass, "total Monge-Ampere mass over P^n",
            "measure", "grid", "eps")
    command("ball-profile", cmd_ball_profile, "ball-mass profile around a center",
            "measure", "grid", "eps", extra={
                "center": dict(default="", help="center point as JSON [[re,im],...]; "
                                                "default first atom"),
                "radii": dict(type=_checked(_reals, "comma-separated reals", bool),
                              default="0.5,0.25", help="radii in any order, reported ascending")})
    command("prop25-check", cmd_prop25_check, "product-formula (mixed discriminant) residuals",
            "measure", "seed", "samples", "chart")
    command("constants", cmd_constants, "CSV table of c_n, alpha_n, bounds", "n")
    command("sample", cmd_sample, "FS-uniform samples as CSV", "seed", "samples", "n")
    command("verify", cmd_verify, "run the quantitative check suite", "seed",
            exclusive=("quick", "checks"), extra={
                "quick": dict(action="store_true", help="skip the slow grids"),
                "checks": dict(type=lambda text: [key for key in text.split(",") if key],
                               default="", help="comma-separated check keys (default: every "
                               "check): " + ",".join(key for key, _ in ALL_CHECKS))})
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.workers = resolve_workers(args.workers)
        return args.fn(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
