"""tools/verify_sweep.py without a subprocess: its seed ranges, its check
keys and the timing it strips from verify's lines.  tools/bench_pairs.py
against two stand-in checkouts: its run order, its summary and its exit
status.  tools/engine_bench.py on tiny shapes: its lines, its grid,
Sobolev and det H_phi shapes and its option check."""

import argparse
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from projlog.errors import ValidationError
from projlog.monge_ampere import _tile_rows
from projlog.verification import CheckResult, run_checks

SWEEP = Path(__file__).resolve().parents[1] / "tools" / "verify_sweep.py"


@pytest.fixture(scope="module")
def sweep():
    spec = importlib.util.spec_from_file_location("verify_sweep", SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_range_is_inclusive_and_never_empty(sweep):
    assert sweep.seed_range("0-15") == range(16)
    assert sweep.seed_range("7") == range(7, 8)
    assert sweep.seed_range("3-3") == range(3, 4)
    with pytest.raises(argparse.ArgumentTypeError, match="empty"):
        sweep.seed_range("5-2")


@pytest.mark.parametrize("seeds", ["5-2", "x", "1-y"])
def test_bad_seed_range_exits_2_before_any_run(sweep, seeds, monkeypatch, capsys):
    def no_run(*_):
        raise AssertionError("a seed ran")

    monkeypatch.setattr(sweep, "sweep_seed", no_run)
    with pytest.raises(SystemExit) as exit_:
        sweep.main(["--seeds", seeds])
    assert exit_.value.code == 2
    assert "--seeds" in capsys.readouterr().err


@pytest.mark.parametrize("checks", ["nope", "sobolev,nope", "sin-distance,,Riesz"])
def test_unknown_check_key_exits_2_before_any_run(sweep, checks, monkeypatch, capsys):
    # verify exits 2 on an unknown key, which the sweep used to report as a
    # failed check (exit 1) after starting a subprocess per seed
    def no_run(*_):
        raise AssertionError("a seed ran")

    monkeypatch.setattr(sweep, "sweep_seed", no_run)
    with pytest.raises(SystemExit) as exit_:
        sweep.main(["--checks", checks, "--seeds", "0"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    # the message is verify's own, from the one key rule both share
    with pytest.raises(ValidationError) as verify_error:
        run_checks(names=[key for key in checks.split(",") if key])
    assert "--checks" in err and str(verify_error.value) in err


def test_known_check_keys_reach_each_seed(sweep, monkeypatch):
    runs = []

    def recorded(seed, checks):
        runs.append((seed, checks))
        return [], True

    monkeypatch.setattr(sweep, "sweep_seed", recorded)
    assert sweep.main(["--checks", "sobolev,dichotomy", "--seeds", "0-1"]) == 0
    assert sweep.main(["--seeds", "2"]) == 0
    assert runs == [(0, "sobolev,dichotomy"), (1, "sobolev,dichotomy"), (2, "")]


def test_timing_regex_strips_only_the_check_timing(sweep):
    # a detail that looks like a timing keeps it
    line = CheckResult("sobolev", True, "slow draw (4.5s)", 12.34).line()
    assert line == "[PASS] sobolev (12.3s): slow draw (4.5s)"
    assert sweep.TIMING.sub("", line, count=1) == "[PASS] sobolev: slow draw (4.5s)"


# ---------- tools/bench_pairs.py ----------------------------------------------

PAIRS = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

#: a stand-in for perfbench/run.py: logs its side and seed, then prints a
#: fixed result line; the change is incorrect at the seed BAD_SEED
FAKE_RUN = '''import argparse, json, sys
from pathlib import Path
side = Path(__file__).resolve().parents[1].name
ap = argparse.ArgumentParser()
for opt in ("--workload", "--seed", "--seconds", "--trace"):
    ap.add_argument(opt)
args = ap.parse_args()
with open(Path(__file__).resolve().parents[2] / "order.log", "a") as log:
    log.write(f"{side} {args.workload} {args.seed} {args.seconds} {args.trace}\\n")
wall = {"parent": 0.06, "change": 0.05}[side] + int(args.seed) * 1e-4
correct = not (side == "change" and args.seed == "BAD_SEED")
print("projlog benchmark: a summary line")
print(json.dumps({"correct": correct, "attempted": 10, "failed": 0, "metrics": {
    "wall_s": {"value": wall, "unit": "s"},
    "setup_s": {"value": 0.1, "unit": "s"},
    "peak_rss_mb": {"value": 80.0, "unit": "MiB"}}}))
'''


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_checkouts(root: Path, bad_seed: int = -1):
    for side in ("parent", "change"):
        (root / side / "perfbench").mkdir(parents=True)
        (root / side / "perfbench" / "run.py").write_text(
            FAKE_RUN.replace("BAD_SEED", str(bad_seed)))
    return ["--parent", str(root / "parent"), "--change", str(root / "change")]


def test_bench_pairs_alternate_and_summarize(pairs, tmp_path, capsys):
    out = tmp_path / "bench.json"
    args = fake_checkouts(tmp_path) + ["--workloads", "mass-grid,ball-atoms",
                                       "--seeds", "2-5", "--out", str(out)]
    assert pairs.main(args) == 0
    # odd seeds run the change first, and every run is untraced and as long
    # as BENCHMARK.json's run_seconds
    seconds = json.loads((PAIRS.parents[1] / "BENCHMARK.json").read_text())["run_seconds"]
    order = (tmp_path / "order.log").read_text().replace(f" {seconds} 0\n", "\n").split("\n")
    assert order[:8] == ["parent mass-grid 2", "change mass-grid 2",
                         "change mass-grid 3", "parent mass-grid 3",
                         "parent mass-grid 4", "change mass-grid 4",
                         "change mass-grid 5", "parent mass-grid 5"]
    assert len(order) == 17 and order[16] == ""
    printed = capsys.readouterr().out
    assert "mass-grid seed 3 (change first): wall_s 0.0603 -> 0.0503, setup_s 0.1 -> 0.1" \
        in printed
    summary = json.loads(out.read_text())["summary"]
    assert summary == json.loads(printed[printed.index("\n{") + 1:])
    wall = summary["mass-grid"]["wall_s"]
    assert wall["parent_median"] == pytest.approx(0.06035)
    assert wall["change_median"] == pytest.approx(0.05035)
    assert wall["parent_iqr"] == pytest.approx(0.00015)
    assert (wall["pairs_change_lower"], wall["pairs_change_higher"]) == (4, 0)
    setup = summary["ball-atoms"]["setup_s"]
    assert (setup["pairs_change_lower"], setup["pairs_change_higher"]) == (0, 0)
    assert summary["ball-atoms"]["seeds"] == [2, 3, 4, 5]
    assert summary["ball-atoms"]["all_correct"]
    assert summary["ball-atoms"]["failed"] == {"parent": 0, "change": 0}


def test_bench_pairs_exits_1_on_an_incorrect_run(pairs, tmp_path):
    args = fake_checkouts(tmp_path, bad_seed=3) + ["--workloads", "mass-grid",
                                                   "--seeds", "2-3"]
    assert pairs.main(args) == 1


def test_bench_pairs_exits_1_without_a_result(pairs, tmp_path, capsys):
    args = fake_checkouts(tmp_path) + ["--workloads", "mass-grid", "--seeds", "1"]
    (tmp_path / "change" / "perfbench" / "run.py").write_text("raise SystemExit(2)\n")
    assert pairs.main(args) == 1
    assert "exited 2 without a result" in capsys.readouterr().err


# ---------- tools/engine_bench.py ---------------------------------------------

ENGINE = Path(__file__).resolve().parents[1] / "tools" / "engine_bench.py"


@pytest.fixture(scope="module")
def engine():
    spec = importlib.util.spec_from_file_location("engine_bench", ENGINE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_engine_bench_prints_every_call_at_every_shape(engine, monkeypatch, capsys):
    # tiny shapes: one line per shape, a positive time for each engine call,
    # then the Sobolev gradient norms, chart-free and in charts, and det H_phi
    # per row at eps = 0 and eps > 0
    monkeypatch.setattr(engine, "SHAPES", ((3, 8, 2, 0.1), (2, 5, 1, 0.3)))
    monkeypatch.setattr(engine, "SOBOLEV_SHAPES", ((1, 6, 2), (16, 7, 2)))
    monkeypatch.setattr(engine, "MA_DET_SHAPE", (3, 9, 3))
    assert engine.main(["--repeats", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["n=2 atoms=3 rows=8 eps=0.1",
                                                      "n=1 atoms=2 rows=5 eps=0.3",
                                                      "n=2 atoms=1 rows=6 sobolev",
                                                      "n=2 atoms=16 rows=7 sobolev",
                                                      "n=3 atoms=3 rows=9 ma_det"]
    calls = [["quad_form_batch", *engine.FIELDS]] * 2 \
        + [["gradient_norms", "chart_gradient_norms"]] * 2 + [["eps=0.0", "eps=0.003"]]
    units = [" ns/pair"] * 4 + [" ns/row"]
    for line, names, unit in zip(lines, calls, units):
        assert line.endswith(unit)
        times = dict(item.split() for item in line.split(": ")[1][:-len(unit)].split(", "))
        assert list(times) == names
        assert all(float(v) > 0.0 for v in times.values())


def test_engine_bench_sobolev_shapes_are_the_scan_blocks(engine):
    # one Philox block of rows at n = 2, with 1 and 16 atoms; both calls
    # give the same norms
    assert engine.SOBOLEV_SHAPES == ((1, engine._CHUNK, 2), (16, engine._CHUNK, 2))
    for atoms in (1, 16):
        calls = engine.sobolev_calls(atoms, 50, 2)
        np.testing.assert_allclose(calls["gradient_norms"](), calls["chart_gradient_norms"](),
                                   rtol=1e-12, atol=0)


def test_engine_bench_shapes_are_the_grid_tiles(engine):
    # the det H_phi tiles of ball-atoms (16 atoms at n = 2) and of mass-grid
    # (2 atoms at n = 2, 4 at n = 1), as monge_ampere sizes them
    assert engine.SHAPES == ((16, 2048, 2, 0.005), (2, 5957, 2, 0.3), (4, 5461, 1, 0.3))
    assert all(rows == _tile_rows(atoms, n) for atoms, rows, n, _ in engine.SHAPES)


def test_engine_bench_ma_det_tile_is_the_unsmoothed_profile_tile(engine):
    # 3 atoms at n = 3, as monge_ampere sizes the tile; both calls give a
    # finite determinant per row
    assert engine.MA_DET_SHAPE == (3, _tile_rows(3, 3), 3)
    for name, call in engine.ma_det_calls(3, 9, 3).items():
        dets, H = call()
        assert dets.shape == (9,) and H.shape == (9, 3, 3) and np.all(np.isfinite(dets)), name


def test_engine_bench_needs_a_round(engine, capsys):
    with pytest.raises(SystemExit) as exit_:
        engine.main(["--repeats", "0"])
    assert exit_.value.code == 2
    assert "--repeats" in capsys.readouterr().err
