"""Span tracing of projlog's public functions, installed from outside the program.

``Tracer.install`` replaces each traced function with a wrapper in every
``projlog`` module namespace that binds it.  Modules import names with
``from .x import y``, which gives each caller its own binding, so patching
only the defining module would miss calls (``chart_lift`` in ``analytic``
and ``monge_ampere``, ``sample_fs_array`` in ``potentials``, ...).

A span records name, start, end, parent and a few counts read off the
call's arguments or result.  Spans stay in memory; the caller writes them
out when the run ends.  Pool children do not report spans, so traced
passes run with one worker.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1                      # index into the span list, -1 for a root
    counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Target:
    module: str                           # projlog submodule that defines the function
    name: str
    count: Callable[[dict, object], dict] | None = None   # (bound arguments, result) -> counts

    @property
    def span_name(self) -> str:
        return f"{self.module}.{self.name}"


def _rows(x) -> int:
    """Rows of a batch argument; a single point (1-D) is one row."""
    shape = np.shape(x)
    return shape[0] if len(shape) >= 2 else 1


def _atoms(eta) -> int:
    """Atoms in a quad-form call: one eta vector, a stack of them, or None (rho)."""
    return 1 if eta is None or np.ndim(eta) < 2 else np.shape(eta)[0]


def _field_counts(a, out):
    return {"points": _rows(a["Z"]), "atoms": len(a["atoms_eta"])}


TARGETS = [
    Target("analytic", "quad_form_batch",
           lambda a, out: {"rows": _rows(a["Z"]) * _atoms(a["eta"])}),
    Target("analytic", "field_value_batch", _field_counts),
    Target("analytic", "field_gradient_batch", _field_counts),
    Target("analytic", "field_hessian_batch", _field_counts),
    Target("monge_ampere", "hessian_fd_batch",
           lambda a, out: {"points": _rows(a["Z"]), "dim": np.shape(np.atleast_2d(a["Z"]))[1]}),
    Target("monge_ampere", "ma_total_mass"),
    Target("monge_ampere", "ball_mass_profile"),
    Target("geometry", "chart_lift", lambda a, out: {"rows": _rows(a["z"])}),
    Target("geometry", "sample_fs_array", lambda a, out: {"rows": _rows(out)}),
    Target("geometry", "canonicalize_batch", lambda a, out: {"rows": _rows(out)}),
    Target("geometry", "geodesic_distance_batch", lambda a, out: {"rows": int(np.size(out))}),
    Target("measures", "build_measure",
           lambda a, out: {"atoms_in": len(a["points"]), "atoms_out": out.num_atoms}),
    Target("measures", "decompose"),
    Target("measures", "partition_of_unity", lambda a, out: {"rows": _rows(out)}),
    Target("kernels", "projective_log_kernel_batch",
           lambda a, out: {"rows": int(np.size(out))}),
    Target("potentials", "log_potential_batch"),
    Target("potentials", "sobolev_scan"),
    Target("potentials", "sobolev_refinement_scan"),
    Target("parallel", "run_chunked",
           lambda a, out: {"chunks": math.ceil(a["total"] / a["chunk"])}),
    Target("cli", "main"),
    Target("cli", "write_csv", lambda a, out: {"bytes": os.path.getsize(a["path"])}),
]


class Tracer:
    """Wraps the targets in every namespace of a package and records spans."""

    package = "projlog"

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}

    def _modules(self):
        return [m for key, m in list(sys.modules.items())
                if m is not None and (key == self.package or key.startswith(self.package + "."))]

    def install(self) -> None:
        modules = self._modules()
        for t in TARGETS:
            orig = getattr(importlib.import_module(f"{self.package}.{t.module}"), t.name)
            self._originals[t.span_name] = orig
            wrapper = self._wrap(t.span_name, orig, t.count)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def unpatched(self) -> list[str]:
        """Namespaces that still bind an unwrapped original (should be none)."""
        originals = list(self._originals.values())
        return [f"{mod.__name__}.{attr}" for mod in self._modules()
                for attr, val in vars(mod).items() if any(val is f for f in originals)]

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def _wrap(self, name: str, fn, count):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, perf_counter(), parent=self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if count is not None:
                span.counts = count(sig.bind(*args, **kwargs).arguments, out)
            return out

        return wrapper


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(s)
    return [s.end - s.start - _union_length(
                (max(c.start, s.start), min(c.end, s.end)) for c in children[i])
            for i, s in enumerate(spans)]


def _ancestor(spans: list[Span], i: int, name: str) -> int:
    """Index of the nearest ancestor of span i with the given name, or -1."""
    p = spans[i].parent
    while p >= 0 and spans[p].name != name:
        p = spans[p].parent
    return p


def outermost(spans: list[Span]) -> list[bool]:
    """False for spans nested in a span of the same name (recursive calls)."""
    return [_ancestor(spans, i, s.name) < 0 for i, s in enumerate(spans)]


def stencil_size(n: int) -> int:
    """Field evaluations per point of the FD complex Hessian stencil."""
    return 1 + 4 * n + 16 * (n * (n - 1) // 2)


def check_spans(spans: list[Span]) -> list[str]:
    """Structural and count self-checks; returns the failures.

    * child spans lie inside their parent;
    * each FD Hessian evaluates its field at stencil_size(n) points per point;
    * where a field evaluation calls the quad-form kernel, it covers every
      (point, atom) pair exactly once.
    """
    bad = []
    outer = outermost(spans)
    evals = defaultdict(int)
    pairs = defaultdict(int)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            p = spans[s.parent]
            if not (p.start <= s.start <= s.end <= p.end):
                bad.append(f"span {s.name} escapes its parent {p.name}")
        if not outer[i]:
            continue
        if s.name == "analytic.field_value_batch":
            h = _ancestor(spans, i, "monge_ampere.hessian_fd_batch")
            if h >= 0:
                evals[h] += s.counts["points"]
        if s.name == "analytic.quad_form_batch":
            f = next((a for a in (_ancestor(spans, i, f"analytic.field_{k}_batch")
                                  for k in ("value", "gradient", "hessian")) if a >= 0), -1)
            if f >= 0:
                pairs[f] += s.counts["rows"]
    for i, s in enumerate(spans):
        if s.name == "monge_ampere.hessian_fd_batch" and outer[i]:
            want = stencil_size(s.counts["dim"]) * s.counts["points"]
            if evals[i] != want:
                bad.append(f"hessian_fd_batch evaluated {evals[i]} stencil points, expected {want}")
        if i in pairs:
            want = s.counts["atoms"] * s.counts["points"]
            if pairs[i] != want:
                bad.append(f"{s.name} covered {pairs[i]} point-atom pairs, expected {want}")
    return bad


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("analytic.quad_form_batch.calls", "count", "lower"),
    ("analytic.quad_form_batch.rows", "count", "lower"),
    ("analytic.quad_form_batch.busy_s", "s", "lower"),
    ("analytic.quad_form_batch.rows_per_s", "1/s", "higher"),
    ("analytic.quad_form_batch.share", "ratio", "lower"),
    *((f"analytic.field_{k}_batch.{m}", u, "lower")
      for k in ("value", "gradient", "hessian")
      for m, u in (("calls", "count"), ("points", "count"), ("busy_s", "s"))),
    ("monge_ampere.hessian_fd_batch.calls", "count", "lower"),
    ("monge_ampere.hessian_fd_batch.points", "count", "lower"),
    ("monge_ampere.hessian_fd_batch.stencil_evals", "count", "lower"),
    ("monge_ampere.hessian_fd_batch.busy_s", "s", "lower"),
    ("monge_ampere.ma_total_mass.busy_s", "s", "lower"),
    ("monge_ampere.ma_total_mass.self_s", "s", "lower"),
    ("monge_ampere.ball_mass_profile.busy_s", "s", "lower"),
    ("monge_ampere.ball_mass_profile.self_s", "s", "lower"),
    ("monge_ampere.kept_ratio", "ratio", "higher"),
    ("monge_ampere.clipped_cells", "count", "lower"),
    ("geometry.chart_lift.calls", "count", "lower"),
    ("geometry.chart_lift.rows", "count", "lower"),
    ("geometry.chart_lift.busy_s", "s", "lower"),
    ("geometry.sample_fs_array.rows", "count", "lower"),
    ("geometry.sample_fs_array.busy_s", "s", "lower"),
    ("geometry.sample_fs_array.rows_per_s", "1/s", "higher"),
    ("geometry.canonicalize_batch.rows", "count", "lower"),
    ("geometry.canonicalize_batch.busy_s", "s", "lower"),
    ("geometry.geodesic_distance_batch.rows", "count", "lower"),
    ("geometry.geodesic_distance_batch.busy_s", "s", "lower"),
    ("measures.build_measure.calls", "count", "lower"),
    ("measures.build_measure.atoms_in", "count", "lower"),
    ("measures.build_measure.atoms_out", "count", "lower"),
    ("measures.build_measure.busy_s", "s", "lower"),
    ("measures.decompose.busy_s", "s", "lower"),
    ("measures.partition_of_unity.rows", "count", "lower"),
    ("measures.partition_of_unity.busy_s", "s", "lower"),
    ("kernels.projective_log_kernel_batch.rows", "count", "lower"),
    ("kernels.projective_log_kernel_batch.busy_s", "s", "lower"),
    ("kernels.projective_log_kernel_batch.rows_per_s", "1/s", "higher"),
    ("potentials.log_potential_batch.busy_s", "s", "lower"),
    ("potentials.sobolev_scan.busy_s", "s", "lower"),
    ("potentials.sobolev_refinement_scan.busy_s", "s", "lower"),
    ("potentials.excised", "count", "lower"),
    ("parallel.run_chunked.calls", "count", "lower"),
    ("parallel.run_chunked.chunks", "count", "lower"),
    ("parallel.run_chunked.busy_s", "s", "lower"),
    ("cli.main.busy_s", "s", "lower"),
    ("cli.write_csv.busy_s", "s", "lower"),
    ("cli.write_csv.bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("gate.residual", "ratio", "lower"),
    ("gate.error_frac", "ratio", "lower"),
]

UNITS = {name: unit for name, unit, _ in PER_LAYER}


def layer_metrics(spans: list[Span], wall: float, facts: dict) -> dict:
    """Per-layer metrics of one traced pass.

    calls, busy_s and counts use outermost spans only; self_s sums every
    span of the name.  facts carries what only the results tell: cells
    generated, clipped cells and excised samples.
    """
    outer = outermost(spans)
    selfs = self_times(spans)
    agg = defaultdict(lambda: defaultdict(float))
    stencil_evals = 0
    for i, s in enumerate(spans):
        a = agg[s.name]
        a["self_s"] += selfs[i]
        if not outer[i]:
            continue
        a["calls"] += 1
        a["busy_s"] += s.end - s.start
        for key, val in s.counts.items():
            a[key] += val
        if (s.name == "analytic.field_value_batch"
                and _ancestor(spans, i, "monge_ampere.hessian_fd_batch") >= 0):
            stencil_evals += s.counts["points"]

    def rate(layer: str, key: str) -> float:
        busy = agg[layer]["busy_s"]
        return agg[layer][key] / busy if busy > 0 else 0.0

    hessian_points = (agg["monge_ampere.hessian_fd_batch"]["points"]
                      + agg["analytic.field_hessian_batch"]["points"])
    cells = facts.get("cells", 0)
    derived = {
        "analytic.quad_form_batch.rows_per_s": rate("analytic.quad_form_batch", "rows"),
        "analytic.quad_form_batch.share": agg["analytic.quad_form_batch"]["busy_s"] / wall,
        "monge_ampere.hessian_fd_batch.stencil_evals": stencil_evals,
        "monge_ampere.kept_ratio": hessian_points / cells if cells else 0.0,
        "monge_ampere.clipped_cells": facts.get("clipped_cells", 0),
        "geometry.sample_fs_array.rows_per_s": rate("geometry.sample_fs_array", "rows"),
        "kernels.projective_log_kernel_batch.rows_per_s":
            rate("kernels.projective_log_kernel_batch", "rows"),
        "potentials.excised": facts.get("excised", 0),
    }
    out = {}
    for name, _, _ in PER_LAYER:
        if name in derived:
            out[name] = float(derived[name])
        elif not name.startswith(("trace.", "gate.")):
            layer, key = name.rsplit(".", 1)
            out[name] = float(agg[layer][key]) if layer in agg else 0.0
    return out
