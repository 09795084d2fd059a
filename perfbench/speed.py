"""Machine-speed probes for a shared host.

On a machine shared with other tenants the same pass can take 1.5 to 2
times longer from one minute to the next.  Each probe times a fixed piece
of work that does not touch projlog and returns its time relative to a
reference time; the benchmark divides each pass's wall time by the probe
factor measured beside it, which reports the pass at reference machine
speed.  The probe kind matches a workload's dominant work:

* ``interp``: an interpreter-bound loop of tiny numpy operations (like the
  duplicate merge in ``build_measure``);
* ``array``: complex outer products and reductions on arrays of a few MB
  (like ``quad_form_batch``), small enough not to raise the run's peak RSS.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: probe times (s) on the 2-core machine the benchmark was tuned on, at a
#: quiet moment; they fix the unit of the normalized timings, so they never
#: change
REFERENCE = {"interp": 0.050, "array": 0.045}


class Probe:
    """Callable returning the current slowdown factor (1.0 = reference speed)."""

    def __init__(self, kind: str):
        self.kind = kind
        rows = 170 if kind == "interp" else 100_000
        rng = np.random.default_rng(0)
        self._data = rng.standard_normal((rows, 3)) + 1j * rng.standard_normal((rows, 3))

    def _interp(self) -> None:
        keep = []
        for row in self._data:
            for existing in keep:
                if np.max(np.abs(existing - row)) <= 1e-12:
                    break
            keep.append(row)

    def _array(self) -> None:
        for _ in range(4):
            M = self._data[:, :, None] * np.conj(self._data)[:, None, :]
            np.log(np.sum(np.abs(M) ** 2, axis=(1, 2)) + 1.0).sum()

    def __call__(self) -> float:
        work = self._interp if self.kind == "interp" else self._array
        t0 = perf_counter()
        work()
        return (perf_counter() - t0) / REFERENCE[self.kind]
