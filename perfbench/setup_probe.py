"""Time one set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir> <sizes-json>

Set-up is importing projlog and generating and writing the workload's
inputs (the same ``make_inputs`` the benchmark uses).  The clock starts
before any import, so the numpy and scipy imports that projlog pulls in
count.  Prints the elapsed seconds.
"""

import sys
from time import perf_counter


def main(argv: list[str]) -> int:
    t0 = perf_counter()
    import json
    from pathlib import Path

    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    import workloads

    name, seed, workdir, sizes = argv
    workloads.make(name, json.loads(sizes)).make_inputs(int(seed), Path(workdir))
    print(perf_counter() - t0)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
