"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q

They run every workload at a tiny size, so they take well under a minute.
"""

import json
import math
from pathlib import Path

import pytest

import run

run.pin_environment()

import projlog  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from projlog.errors import GridTooCoarse  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "mass-grid": {"grid_n2": 12, "grid_n1": 64},
    "ball-atoms": {"atoms": 4, "points_per_axis": 8},
    "sobolev-mc": {"samples": 4096, "levels": 2, "samples_per_stratum": 256},
    "measure-build": {"atoms": 20, "samples": 50},
}


def _files(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*.json"))}


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] \
        == [tuple(m) for m in spans.PER_LAYER]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_are_deterministic_in_the_seed(name, tmp_path):
    wl = workloads.make(name, TINY[name])
    wl.make_inputs(7, tmp_path / "a")
    wl.make_inputs(7, tmp_path / "b")
    wl.make_inputs(8, tmp_path / "c")
    a, b, c = (_files(tmp_path / k) for k in "abc")
    assert a and a == b
    assert a != c


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric(name, trace, tmp_path):
    record = run.run_benchmark(name, 3, 0.0, trace, sizes=TINY[name], probes=1,
                               out=tmp_path)
    result = record["result"]
    assert record["problems"] == []
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[kind]}
    for m in result["metrics"].values():
        assert math.isfinite(m["value"])
    if not trace:
        assert all(result["metrics"][k]["value"] > 0 for k in run.END_TO_END_UNITS)
    assert record["provenance"]["seed"] == 3


def test_self_time_on_a_synthetic_span_tree():
    S = spans.Span
    tree = [
        S("root", 0.0, 10.0),
        S("a", 1.0, 4.0, parent=0),
        S("b", 3.5, 6.0, parent=0),     # overlaps a: the union counts once
        S("a", 1.5, 2.5, parent=1),     # recursive child of a
        S("c", 7.0, 7.5, parent=0),
    ]
    assert spans.self_times(tree) == pytest.approx([10.0 - 5.5, 2.0, 2.5, 1.0, 0.5])
    assert spans.outermost(tree) == [True, True, True, False, True]


def test_span_checks_flag_a_wrong_stencil_count():
    S = spans.Span
    good = [S("monge_ampere.hessian_fd_batch", 0.0, 1.0, counts={"points": 4, "dim": 2}),
            S("analytic.field_value_batch", 0.1, 0.9, parent=0,
              counts={"points": 100, "atoms": 2}),
            S("analytic.quad_form_batch", 0.2, 0.5, parent=1, counts={"rows": 100}),
            S("analytic.quad_form_batch", 0.5, 0.8, parent=1, counts={"rows": 100})]
    assert spans.check_spans(good) == []
    short = good[:3]
    assert spans.check_spans(short) == [
        "analytic.field_value_batch covered 100 point-atom pairs, expected 200"]
    good[1].counts["points"] = 99
    assert any("stencil" in msg for msg in spans.check_spans(good))


def test_tracer_patches_every_binding_and_restores_them():
    original = projlog.geometry.chart_lift
    eta = projlog.geometry.normalize([1, 2, 3]).coords
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.unpatched() == []
        # `from .geometry import chart_lift` bindings are wrapped too
        assert projlog.analytic.chart_lift is projlog.geometry.chart_lift
        assert projlog.monge_ampere.chart_lift is not original
        projlog.analytic.quad_form_batch([[0.1 + 0.2j, 0.3]], eta, 0, 0.0, 0.0)
    finally:
        tracer.uninstall()
    assert projlog.monge_ampere.chart_lift is original
    assert [s.name for s in tracer.spans] == ["analytic.quad_form_batch", "geometry.chart_lift"]
    assert tracer.spans[1].parent == 0


def test_error_frac_counts_an_injected_failure(tmp_path, monkeypatch):
    real = projlog.monge_ampere.ma_total_mass

    def n1_too_coarse(mu, *args, **kwargs):
        if mu.n == 1:
            raise GridTooCoarse("injected")
        return real(mu, *args, **kwargs)

    monkeypatch.setattr(projlog.monge_ampere, "ma_total_mass", n1_too_coarse)
    record = run.run_benchmark("mass-grid", 3, 0.0, False, sizes=TINY["mass-grid"],
                               probes=1, out=tmp_path)
    result = record["result"]
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] // 2 > 0
    assert record["error_frac"] == 0.5
    assert any("GridTooCoarse: injected" in p for p in record["problems"])
