"""Run the benchmark in two checkouts as alternating pairs and summarize the pairs.

    python3 tools/bench_pairs.py --parent ../parent --change . --workloads mass-grid \
        --seeds 41-50 --out BENCH.json

For each workload and seed it runs `python3 perfbench/run.py --workload <w>
--seed <s> --seconds <t> --trace 0` once in each checkout, one after the
other, t being the run length `run_seconds` that BENCHMARK.json fixes.  The
side that runs first alternates with the seed's parity: odd seeds run the
change first.  It prints each pair's end-to-end metrics, then
a JSON summary per workload and metric: the quartiles of each side
(statistics.quantiles, inclusive), the parent's IQR, the change's median
over the parent's, and the pairs in which the change reads lower or higher.
--out also writes the summary and every run to a file.  The exit status is
1 when any run is not correct (a failed gate, a pass that differs from the
first, a non-zero exit or no result line), else 0.  Not part of the test
suite: ten pairs of 22 s runs take about eight minutes per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from verify_sweep import seed_range  # noqa: E402  (the one seed-range rule)

#: the keys of a run record that are not end-to-end metrics
RUN_KEYS = ("workload", "seed", "side", "first", "correct", "attempted", "failed")


def metric_names(records: list[dict]) -> list[str]:
    """The end-to-end metrics that every record has, in the first one's order."""
    return [k for k in records[0] if k not in RUN_KEYS and all(k in r for r in records)]


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in checkout: its result line's correctness,
    operation counts and end-to-end metric values."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    run = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if run.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        print(f"{checkout}: {workload} seed {seed} exited {run.returncode} without a result\n"
              f"{run.stderr}", file=sys.stderr)
        return {"correct": False, "attempted": 0, "failed": 0}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            **{name: m["value"] for name, m in result["metrics"].items()}}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: list[dict]) -> dict:
    """Per workload: pairs, seeds, quartiles and pair counts of each metric,
    failed operations of each side, and whether every run was correct."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        side = {s: [r for r in runs if r["workload"] == workload and r["side"] == s]
                for s in ("parent", "change")}
        entry = {"pairs": len(side["parent"]), "seeds": [r["seed"] for r in side["parent"]]}
        for metric in metric_names(side["parent"] + side["change"]):
            p = [r[metric] for r in side["parent"]]
            c = [r[metric] for r in side["change"]]
            (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(p), quartiles(c)
            entry[metric] = {
                "parent_q1": pq1, "parent_median": pm, "parent_q3": pq3,
                "change_q1": cq1, "change_median": cm, "change_q3": cq3,
                "change_over_parent": cm / pm if pm else None,
                "parent_iqr": pq3 - pq1,
                "pairs_change_lower": sum(b < a for a, b in zip(p, c)),
                "pairs_change_higher": sum(b > a for a, b in zip(p, c)),
            }
        entry["failed"] = {s: sum(r["failed"] for r in side[s]) for s in side}
        entry["all_correct"] = all(r["correct"] for s in side for r in side[s])
        out[workload] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", type=seed_range, required=True,
                    help="inclusive seed range a-b")
    ap.add_argument("--out", type=Path, help="also write the summary and the runs here")
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    runs = []
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            order = ("change", "parent") if seed % 2 else ("parent", "change")
            pair = {s: {"workload": workload, "seed": seed, "side": s, "first": order[0],
                        **run_side(checkouts[s], workload, seed, seconds)}
                    for s in order}
            runs.extend(pair[s] for s in order)
            print(f"{workload} seed {seed} ({order[0]} first): " + ", ".join(
                f"{k} {pair['parent'][k]:.6g} -> {pair['change'][k]:.6g}"
                for k in metric_names(list(pair.values()))), flush=True)
    summary = summarize(runs)
    print(json.dumps(summary, indent=1))
    if args.out:
        args.out.write_text(json.dumps({"summary": summary, "runs": runs}, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
