"""Run `projlog verify` over a range of seeds and print one line per seed and check.

    python3 tools/verify_sweep.py --checks sobolev,riesz --seeds 0-15

Each seed runs `python -m projlog verify --checks <list> --seed <s>` in a
fresh interpreter on this checkout's src/.  The `(x.xs)` timing is removed
from every line, so the output of two checkouts can be compared with diff.
A line reads `seed <s> [PASS] <check>: <detail>`.  The exit status is 0 when
every check passed at every seed, else 1.  Not part of the test suite: a
full sweep of all checks over 16 seeds takes minutes.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from projlog.errors import ValidationError  # noqa: E402
from projlog.verification import require_checks  # noqa: E402  (this checkout's keys)

#: the timing that CheckResult.line puts after the check name
TIMING = re.compile(r" \(\d+\.\ds\)")


def seed_range(text: str) -> range:
    """'a-b' (inclusive) or a single seed 'a'.  A range with b < a would
    sweep nothing and exit 0, so it is an argparse error (exit 2)."""
    lo, _, hi = text.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"seed range {text!r} is empty")
    return seeds


def known_checks(text: str) -> str:
    """A --checks value whose keys verify knows ('' is every check).  An
    unknown key makes verify exit 2 at every seed, which this tool would
    report as exit 1, a failed check, so it is an argparse error (exit 2)
    before any run."""
    try:
        require_checks([key for key in text.split(",") if key])  # as verify splits it
    except ValidationError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    return text


def sweep_seed(seed: int, checks: str) -> tuple[list[str], bool]:
    """The verify lines of one seed without timings, and whether every check passed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as out:
        cmd = [sys.executable, "-m", "projlog", "verify", "--seed", str(seed),
               "--output", out]
        if checks:
            cmd += ["--checks", checks]
        run = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if run.returncode not in (0, 1):
        raise SystemExit(f"seed {seed}: verify exited {run.returncode}\n{run.stderr}")
    lines = [TIMING.sub("", line, count=1) for line in run.stdout.splitlines()
             if line.startswith("[")]
    return [f"seed {seed} {line}" for line in lines], run.returncode == 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checks", type=known_checks, default="",
                    help="comma-separated check keys (default: every check)")
    ap.add_argument("--seeds", type=seed_range, default=seed_range("0-15"),
                    help="inclusive seed range a-b (default 0-15)")
    args = ap.parse_args(argv)
    ok = True
    for seed in args.seeds:
        lines, passed = sweep_seed(seed, args.checks)
        ok &= passed
        for line in lines:
            print(line, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
