"""Run one benchmark workload; the last line of stdout is the JSON result.

    python3 perfbench/run.py --workload mass-grid --seed 1 --seconds 22 --trace 0

--trace 0 measures the end-to-end metrics with tracing off: wall_s (median
pass time), setup_s (median of fresh-interpreter set-ups), both at
reference machine speed (see speed.py), and peak_rss_mb.  --trace 1 runs
untraced passes, then traced ones, and reports the per-layer metrics.
Every operation's result is gated; a failed gate or library guard counts
in "failed", and every pass must reproduce the first pass's outputs bit
for bit.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: fresh-interpreter set-ups per run; setup_s is their median
SETUP_PROBES = 3

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def pin_environment() -> None:
    """One BLAS thread per process, so the two-worker pool does not
    oversubscribe two cores, and no worker count inherited from outside."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("PROJLOG_WORKERS", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class Ledger:
    """Every outcome of a run, plus anything that makes the run incorrect."""

    def __init__(self):
        self.outcomes = []
        self.problems: list[str] = []
        self.reference = None

    def record(self, outcomes, what: str) -> None:
        from workloads import fingerprint

        self.outcomes.extend(outcomes)
        for o in outcomes:
            if not o.ok:
                self.problems.append(f"{what}: {o.label} failed: {o.detail}")
        fp = fingerprint(outcomes)
        if self.reference is None:
            self.reference = fp
        elif fp != self.reference:
            self.problems.append(f"{what}: outputs differ from the first pass")

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(not o.ok for o in self.outcomes)

    @property
    def residual(self) -> float:
        return max((o.residual for o in self.outcomes if o.residual is not None),
                   default=0.0)


def _passes(ops, seconds: float, ledger: Ledger, what: str, probe,
            on_pass=None) -> tuple[list[float], list[float]]:
    """Repeat the operations until `seconds` have passed (at least once).

    Returns each pass's wall time and the machine-speed factor beside it
    (the mean of the probes just before and just after the pass).
    """
    from workloads import run_pass

    walls, factors = [], []
    before = probe()
    deadline = perf_counter() + seconds
    while not walls or perf_counter() < deadline:
        wall, outcomes = run_pass(ops)
        after = probe()
        ledger.record(outcomes, what)
        if on_pass is not None:
            on_pass(wall, outcomes)
        walls.append(wall)
        factors.append(0.5 * (before + after))
        before = after
    return walls, factors


def normalized_median(times: list[float], factors: list[float]) -> float:
    """Median time at reference machine speed."""
    return statistics.median(t / f for t, f in zip(times, factors))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest finished child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _setup_probe(name: str, seed: int, workdir: Path, sizes: dict | None,
                 probe) -> tuple[float, float]:
    """One fresh-interpreter set-up: (seconds, machine-speed factor beside it)."""
    before = probe()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(workdir),
         json.dumps(sizes or {})],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1]), 0.5 * (before + probe())


def _git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree (read without running git)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def provenance(seed: int, check_workers: int | None) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "projlog").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "workers": 1,
        "check_workers": check_workers,
    }


def _sum_facts(outcomes) -> dict:
    facts = defaultdict(int)
    for o in outcomes:
        for key, val in o.facts.items():
            facts[key] += val
    return facts


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  sizes: dict | None = None, probes: int = SETUP_PROBES,
                  out: Path = OUT) -> dict:
    """Run one workload; returns the result line plus the run's record."""
    import workloads
    from speed import Probe

    wl = workloads.make(name, sizes)
    probe = Probe(wl.probe)
    workdir = out / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    inputs = wl.make_inputs(seed, workdir / "inputs")
    ledger = Ledger()
    ops = wl.operations(inputs, 1)
    # warm-up pass: lazy imports and first allocations stay out of the
    # timings, and its outputs are the reference for every later pass
    ledger.record(workloads.run_pass(ops)[1], "reference pass")
    record: dict = {}
    if not trace:
        walls, factors = _passes(ops, seconds, ledger, "timed pass", probe)
        rss = peak_rss_mb()
    else:
        values, spans = _traced(ops, seconds, ledger, probe)
        record["spans"] = spans
    if wl.check_workers:
        # determinism contract: bit-identical for any worker count
        ledger.record(workloads.run_pass(wl.operations(inputs, wl.check_workers))[1],
                      f"check pass (workers={wl.check_workers})")
    if not trace:
        interp = Probe("interp")
        setups, setup_factors = zip(*(_setup_probe(name, seed, workdir / f"probe{k}", sizes,
                                                   interp) for k in range(probes)))
        values = {"wall_s": normalized_median(walls, factors),
                  "setup_s": normalized_median(setups, setup_factors),
                  "peak_rss_mb": rss}
        units = END_TO_END_UNITS
        record.update(walls=walls, speed_factors=factors, setups=setups,
                      setup_speed_factors=setup_factors,
                      raw_wall_s=statistics.median(walls), raw_setup_s=statistics.median(setups))
    else:
        from spans import UNITS as units

        values["gate.residual"] = ledger.residual
        values["gate.error_frac"] = ledger.failed / ledger.attempted
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    result = {"correct": not ledger.problems, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    record.update(result=result,
                  provenance=provenance(seed, wl.check_workers),
                  problems=ledger.problems, error_frac=ledger.failed / ledger.attempted,
                  residual=ledger.residual)
    return record


def _traced(ops, seconds: float, ledger: Ledger, probe):
    """Untraced then traced passes; per-layer values are medians over passes."""
    from spans import Tracer, check_spans, layer_metrics

    untraced = _passes(ops, seconds / 2, ledger, "untraced pass", probe)
    tracer = Tracer()
    per_pass, last = [], []

    def on_pass(wall, outcomes):
        ledger.problems.extend(check_spans(tracer.spans))
        per_pass.append(layer_metrics(tracer.spans, wall, _sum_facts(outcomes)))
        last[:] = tracer.spans
        tracer.reset()

    tracer.install()
    try:
        ledger.problems.extend(f"call through unwrapped binding {b}"
                               for b in tracer.unpatched())
        traced = _passes(ops, seconds / 2, ledger, "traced pass", probe, on_pass)
    finally:
        tracer.uninstall()
    values = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    values["trace.overhead_s"] = normalized_median(*traced) - normalized_median(*untraced)
    return values, [[s.name, s.start, s.end, s.parent, s.counts] for s in last]


def summary(name: str, seed: int, record: dict) -> str:
    res = record["result"]
    lines = [f"projlog benchmark: workload {name}, seed {seed}, "
             f"{res['attempted']} operations, correct: {res['correct']}"]
    for key, m in res["metrics"].items():
        lines.append(f"  {key} = {m['value']:.6g} {m['unit']}")
    lines.append(f"  error_frac = {record['error_frac']:.6g} ratio "
                 f"({res['failed']} of {res['attempted']} operations failed)")
    lines.append(f"  residual = {record['residual']:.6g} ratio")
    if "raw_wall_s" in record:
        lines.append(f"  unnormalized: wall {record['raw_wall_s']:.6g} s, "
                     f"set-up {record['raw_setup_s']:.6g} s")
    lines.extend(f"  problem: {p}" for p in record["problems"])
    lines.append("provenance: " + json.dumps(record["provenance"]))
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        print("error: --seed and --seconds must be >= 0", file=sys.stderr)
        return 2
    if not (SRC / "projlog" / "__init__.py").is_file():
        print(f"error: the program's source {SRC / 'projlog'} is missing", file=sys.stderr)
        return 2
    pin_environment()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print(summary(args.workload, args.seed, record))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
