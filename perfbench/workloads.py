"""The four benchmark workloads: seeded inputs, operations and correctness gates.

Each workload is a closed loop of one client.  ``make_inputs`` turns the
benchmark seed into input files (measure JSON) with numpy's own generator,
so the inputs do not depend on the program under test; the program only
ever sees those files or the measures it builds from them.  ``operations``
lists the library calls of one pass; each call is timed, and its result is
then checked by a gate that yields an ``Outcome``.

Sizes are constructor arguments so the tests can run every workload at a
tiny size through the same code.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

from projlog import cli, coarea, geometry, measures, monge_ampere, potentials
from projlog.errors import ProjlogError

SQRT2 = math.sqrt(2.0)


@dataclass
class Outcome:
    """Gate verdict on one operation's result."""

    label: str
    ok: bool
    value: Any = None        # the output; compared bit for bit across passes
    residual: float | None = None
    detail: str = ""
    facts: dict = field(default_factory=dict)   # per-layer facts read off the result


@dataclass
class Operation:
    label: str
    call: Callable[[], Any]              # the timed library call
    gate: Callable[[Any], Outcome]       # untimed check of its result


def run_pass(ops: list[Operation]) -> tuple[float, list[Outcome]]:
    """Run every operation once; return the wall time of the calls and the outcomes.

    A library guard (any ProjlogError, e.g. GridTooCoarse, NegativeDensity,
    SingularStencil, NonConvergent) makes its operation a failed one; it is
    counted, never dropped.  Any other exception is a benchmark crash.
    """
    results = []
    t0 = perf_counter()
    for op in ops:
        try:
            results.append(op.call())
        except ProjlogError as exc:
            results.append(exc)
    wall = perf_counter() - t0
    outcomes = []
    for op, res in zip(ops, results):
        if isinstance(res, ProjlogError):
            outcomes.append(Outcome(op.label, False, detail=f"{type(res).__name__}: {res}"))
        else:
            outcomes.append(op.gate(res))
    return wall, outcomes


def fingerprint(outcomes: list[Outcome]) -> list[str]:
    """Exact text form of the outputs (repr of a float round-trips its bits)."""
    return [repr(o.value) for o in outcomes]


# ---------------------------------------------------------------------------
# input helpers (numpy only, independent of the program under test)
# ---------------------------------------------------------------------------

def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _gaussian_points(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """Complex Gaussian rows of C^(n+1); their classes are FS-uniform on P^n."""
    return rng.standard_normal((count, n + 1)) + 1j * rng.standard_normal((count, n + 1))


def _measure_json(points: np.ndarray, weights: np.ndarray) -> str:
    n = points.shape[1] - 1
    atoms = [{"zeta": [[float(c.real), float(c.imag)] for c in row], "weight": float(w)}
             for row, w in zip(points, weights)]
    return json.dumps({"n": n, "atoms": atoms})


def _write_measure(path: Path, points: np.ndarray, weights: np.ndarray):
    """Write the measure file and load it back through the library."""
    text = _measure_json(points, weights)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return measures.AtomicMeasure.from_json(path.read_text())


def _random_weights(rng: np.random.Generator, count: int) -> np.ndarray:
    w = rng.uniform(0.2, 1.0, count)
    return w / w.sum()


def rotate_first_to(points: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Apply one unitary map that sends the line of points[0] to that of target.

    A Householder reflection after phase alignment.  Unitary maps preserve
    the FS-uniform law, so the other rows stay independent FS-uniform
    samples while the first one lands on a fixed point.
    """
    a = points[0] / np.linalg.norm(points[0])
    b = target / np.linalg.norm(target)
    inner = np.vdot(b, a)
    if abs(inner) > 0.0:
        a = a * np.conj(inner) / abs(inner)
    v = a - b
    vv = np.vdot(v, v).real
    if vv == 0.0:
        return points.copy()
    H = np.eye(points.shape[1]) - 2.0 * np.outer(v, np.conj(v)) / vv
    return points @ H.T


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    name: str
    probe: str                        # speed.Probe kind that matches the dominant work
    check_workers: int | None = None  # workers of one extra pass checked bit for bit


class MassGrid(Workload):
    """Total smoothed MA mass over P^n: many cells, few atoms."""

    name = "mass-grid"
    probe = "array"
    # timed at one worker: at two, the pass time followed neither probe and
    # its run-to-run spread stayed near 0.08; one pass per run at two
    # workers checks the determinism contract instead
    check_workers = 2

    def __init__(self, grid_n2: int = 18, grid_n1: int = 256):
        self.grid_n2 = grid_n2
        self.grid_n1 = grid_n1

    def make_inputs(self, seed: int, workdir: Path) -> dict:
        rng = _rng(seed, 1)
        p2 = _gaussian_points(rng, 2, 2)
        p1 = _gaussian_points(rng, 4, 1)
        return {
            "mu_n2": _write_measure(workdir / "mass_n2.json", p2, _random_weights(rng, 2)),
            "mu_n1": _write_measure(workdir / "mass_n1.json", p1, _random_weights(rng, 4)),
        }

    def operations(self, inputs: dict, workers: int) -> list[Operation]:
        mu2, mu1 = inputs["mu_n2"], inputs["mu_n1"]
        return [
            Operation("n2-total-mass",
                      lambda: monge_ampere.ma_total_mass(mu2, grid=self.grid_n2, h=5e-4,
                                                         eps=0.3, workers=workers,
                                                         vol_tol=0.02),
                      lambda rep: self._gate("n2-total-mass", rep, 2, 0.02)),
            Operation("n1-total-mass",
                      lambda: monge_ampere.ma_total_mass(mu1, grid=self.grid_n1, h=1e-4,
                                                         eps=0.3, workers=workers),
                      lambda rep: self._gate("n1-total-mass", rep, 1, 0.01)),
        ]

    @staticmethod
    def _gate(label: str, rep, n: int, tol: float) -> Outcome:
        dev = abs(rep.total_mass - 1.0)
        cells = rep.grid["charts"] * rep.grid["points_per_axis"] ** (2 * n)
        return Outcome(label, dev <= tol,
                       value=(rep.total_mass, rep.vol_check, rep.clipped_cells),
                       residual=dev, detail=f"total mass {rep.total_mass!r} (tol {tol})",
                       facts={"cells": cells, "clipped_cells": rep.clipped_cells})


#: fixed, generic ball center for ball-atoms (chart 0, off the chart origin)
BALL_CENTER = np.array([1.0, 0.3, -0.2j])


class BallAtoms(Workload):
    """Ball-mass profile of an N-atom empirical measure: atoms multiply the cost."""

    name = "ball-atoms"
    probe = "array"

    eps = 0.005

    def __init__(self, atoms: int = 16, points_per_axis: int = 8):
        self.atoms = atoms
        self.points_per_axis = points_per_axis

    def make_inputs(self, seed: int, workdir: Path) -> dict:
        rng = _rng(seed, 2)
        # the grid geometry, hence the cost, depends on the center's chart
        # coordinates; rotating the first atom (the center) onto a fixed
        # point keeps the cost independent of the seed
        pts = rotate_first_to(_gaussian_points(rng, self.atoms, 2), BALL_CENTER)
        weights = np.full(self.atoms, 1.0 / self.atoms)
        return {"mu": _write_measure(workdir / "ball_atoms.json", pts, weights)}

    def operations(self, inputs: dict, workers: int) -> list[Operation]:
        mu = inputs["mu"]
        radius = 10.0 * self.eps
        return [Operation(
            "ball-profile",
            lambda: monge_ampere.ball_mass_profile(
                mu, mu.point(0), [radius], h=2e-4, eps_list=[self.eps],
                points_per_axis=self.points_per_axis)[0],
            lambda rep: self._gate(rep, mu.num_atoms, radius))]

    @staticmethod
    def _gate(rep, atoms: int, radius: float) -> Outcome:
        n = 2
        ratio = rep.total_mass * atoms**n
        exact_vol = float(geometry.fs_ball_volume(n, radius))
        vol_ok = abs(rep.vol_check - exact_vol) <= 0.02 * exact_vol
        m, levels = rep.grid["points_per_axis"], rep.grid["levels"]
        # _nested_cells: m^(2n) cells per level, minus the inner box except at the last
        cells = (levels - 1) * (m ** (2 * n) - (m // 2) ** (2 * n)) + m ** (2 * n)
        return Outcome("ball-profile", 0.5 <= ratio <= 2.0 and vol_ok,
                       value=(rep.total_mass, rep.vol_check, rep.clipped_cells),
                       residual=abs(math.log(ratio)) if ratio > 0 else math.inf,
                       detail=f"m*N^2 = {ratio:.4f}, volume self-check {vol_ok}",
                       facts={"cells": cells, "clipped_cells": rep.clipped_cells})


class SobolevMC(Workload):
    """Sobolev gradient-norm MC scan of a Dirac mass: one atom, many samples."""

    name = "sobolev-mc"
    probe = "array"

    def __init__(self, samples: int = 100_000, levels: int = 4,
                 samples_per_stratum: int = 1024):
        self.samples = samples
        self.levels = levels
        self.samples_per_stratum = samples_per_stratum

    def make_inputs(self, seed: int, workdir: Path) -> dict:
        rng = _rng(seed, 3)
        mu = _write_measure(workdir / "dirac.json", _gaussian_points(rng, 1, 2),
                            np.array([1.0]))
        p = 1.0
        # |grad log sin(d / sqrt 2)| = cot(d / sqrt 2) / sqrt 2
        exact = coarea.radial_quadrature(
            lambda r: (1.0 / (SQRT2 * math.tan(r / SQRT2))) ** p, 2)
        if abs(exact - math.pi * SQRT2 / 8.0) > 1e-9:
            raise RuntimeError(f"Dirac reference {exact!r} is not pi sqrt2 / 8")
        return {"mu": mu, "p": p, "exact": exact,
                "mc_seed": int(rng.integers(0, 2**31))}

    def operations(self, inputs: dict, workers: int) -> list[Operation]:
        mu, p, seed = inputs["mu"], inputs["p"], inputs["mc_seed"]
        return [
            Operation("sobolev-doubling",
                      lambda: potentials.sobolev_doubling(mu, p, seed, self.samples,
                                                          workers=workers),
                      lambda res: self._doubling_gate(res, inputs["exact"])),
            Operation("sobolev-refinement",
                      lambda: potentials.sobolev_refinement_scan(
                          mu, 4.0, 0, self.levels, seed,
                          samples_per_stratum=self.samples_per_stratum),
                      self._refinement_gate),
        ]

    @staticmethod
    def _doubling_gate(res, exact: float) -> Outcome:
        first, doubled = res
        z = abs(doubled.estimate - exact) / doubled.std_error
        ok = z <= 4.0 and doubled.estimate < doubled.analytic_bound
        return Outcome("sobolev-doubling", ok,
                       value=(first.estimate, first.std_error, doubled.estimate,
                              doubled.std_error, doubled.excised),
                       residual=z, detail=f"z = {z:.3f}",
                       facts={"excised": doubled.excised})

    @staticmethod
    def _refinement_gate(estimates) -> Outcome:
        ratios = [b / a for a, b in zip(estimates, estimates[1:])]
        ok = bool(ratios) and all(r >= 10.0 * (1.0 - 1e-9) for r in ratios)
        return Outcome("sobolev-refinement", ok, value=tuple(estimates),
                       detail="ratios " + "/".join(f"{r:.3f}" for r in ratios))


class MeasureBuild(Workload):
    """CLI measure + potential on a measure file with duplicate atoms."""

    name = "measure-build"
    probe = "interp"

    def __init__(self, atoms: int = 400, samples: int = 2000):
        self.atoms = atoms
        self.duplicates = max(1, round(0.05 * atoms))   # about 5% of the file
        self.samples = samples

    def make_inputs(self, seed: int, workdir: Path) -> dict:
        rng = _rng(seed, 4)
        unique = _gaussian_points(rng, self.atoms, 2)
        idx = rng.choice(self.atoms, size=self.duplicates, replace=False)
        # the same projective points again, under another phase and scale
        scale = rng.uniform(0.5, 2.0, idx.size) * np.exp(2j * np.pi * rng.uniform(size=idx.size))
        rows = np.concatenate([unique, unique[idx] * scale[:, None]])
        rows = rows[rng.permutation(rows.shape[0])]
        path = workdir / "measure_build.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_measure_json(rows, _random_weights(rng, rows.shape[0])))
        return {"path": path, "unique": self.atoms, "out": workdir / "cli-out",
                "mc_seed": int(rng.integers(0, 2**31))}

    def operations(self, inputs: dict, workers: int) -> list[Operation]:
        path, out = str(inputs["path"]), inputs["out"]
        common = ["--measure", path, "--output", str(out), "--workers", str(workers)]
        return [
            Operation("cli-measure", lambda: cli.main(["measure", *common]),
                      lambda rc: self._measure_gate(rc, out / "measure.csv",
                                                    inputs["unique"])),
            Operation("cli-potential",
                      lambda: cli.main(["potential", *common, "--seed",
                                        str(inputs["mc_seed"]), "--samples",
                                        str(self.samples)]),
                      lambda rc: self._potential_gate(rc, out / "potential.csv")),
        ]

    @staticmethod
    def _measure_gate(rc: int, csv: Path, unique: int) -> Outcome:
        if rc != 0:
            return Outcome("cli-measure", False, detail=f"exit code {rc}")
        header, body = _read_csv(csv)
        atoms = int(header.get("atoms", -1))
        masses = [float(line.split(",")[1]) for line in body.splitlines()[1:]]
        dev = abs(math.fsum(masses) - 1.0)
        return Outcome("cli-measure", atoms == unique, value=body, residual=dev,
                       detail=f"{atoms} merged atoms, {unique} unique")

    def _potential_gate(self, rc: int, csv: Path) -> Outcome:
        if rc != 0:
            return Outcome("cli-potential", False, detail=f"exit code {rc}")
        _, body = _read_csv(csv)
        values = [float(line.rsplit(",", 1)[1]) for line in body.splitlines()[1:]]
        # U_mu <= 0 everywhere (the kernel is a log of a ratio <= 1)
        ok = len(values) == self.samples and all(v <= 0.0 for v in values)
        return Outcome("cli-potential", ok, value=body,
                       detail=f"{len(values)} potential values")


def _read_csv(path: Path) -> tuple[dict, str]:
    """Split a projlog CSV into its '# key = value' header and its body."""
    header, body = {}, []
    for line in path.read_text().splitlines(keepends=True):
        if line.startswith("#"):
            key, _, val = line[1:].partition("=")
            header[key.strip()] = val.strip()
        else:
            body.append(line)
    return header, "".join(body)


WORKLOADS = {cls.name: cls for cls in (MassGrid, BallAtoms, SobolevMC, MeasureBuild)}


def make(name: str, sizes: dict | None = None):
    return WORKLOADS[name](**(sizes or {}))
