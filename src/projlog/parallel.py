"""Deterministic chunked execution.

Work is split into fixed-size index chunks whose boundaries depend only on
the total size, never on the worker count, and results are returned in
chunk order for the caller to reduce in that order.  Identical inputs
therefore produce bit-identical outputs for any --workers setting.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from functools import partial

from .errors import ValidationError

ENV_WORKERS = "PROJLOG_WORKERS"


def resolve_workers(workers: int | None = None) -> int:
    """Explicit argument, else the PROJLOG_WORKERS env var, else 1."""
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(ENV_WORKERS)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValidationError(
                f"{ENV_WORKERS} must be an integer, got {env!r}") from None
    return 1


def run_chunked(fn, total: int, chunk: int, workers: int | None, payload) -> list:
    """Apply fn(payload, (lo, hi)) to each chunk range, in chunk order.

    workers goes through resolve_workers (None reads PROJLOG_WORKERS).  fn
    must be a module-level callable so it can cross a process boundary.
    """
    workers = resolve_workers(workers)
    ranges = [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
    if workers <= 1 or len(ranges) <= 1:
        return [fn(payload, r) for r in ranges]
    with ProcessPoolExecutor(max_workers=min(workers, len(ranges))) as ex:
        return list(ex.map(partial(fn, payload), ranges))

