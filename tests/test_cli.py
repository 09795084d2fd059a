import argparse
import csv
import json
import math
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import projlog as pl
from oracles import measure_json, random_measure
from projlog import monge_ampere, potentials
from projlog.cli import OPTIONS, build_parser, main
from projlog.geometry import chart_mask, chart_project


@pytest.fixture()
def measure_file(tmp_path):
    mu = pl.build_measure(
        [pl.normalize([1, 0.3]).coords, pl.normalize([1, -0.5 + 0.2j]).coords],
        [0.6, 0.4])
    path = tmp_path / "mu.json"
    path.write_text(measure_json(mu))
    return path


def body_of(path: Path) -> str:
    """CSV body without comment lines (timestamps excluded)."""
    return "\n".join(line for line in path.read_text().splitlines()
                     if not line.startswith("#"))


def test_constants_table(tmp_path):
    rc = main(["constants", "--n", "3", "--output", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "constants.csv").read_text()
    assert "alpha_n" in text
    rows = body_of(tmp_path / "constants.csv").splitlines()[1:]
    alpha = [float(r.split(",")[2]) for r in rows]
    np.testing.assert_allclose(alpha, [0.5, 0.25, 1 / 6], atol=1e-12)
    assert rows[0].split(",")[5] == "inf"  # p = 2n bound diverges


def test_constants_table_to_n_30(tmp_path):
    # from n = 9 on, QUADPACK's rule for the weight u^(2n-1) log u gets the
    # mean right but estimates its error above 1e-11, which would exit 3
    assert main(["constants", "--n", "30", "--output", str(tmp_path)]) == 0
    rows = body_of(tmp_path / "constants.csv").splitlines()[1:]
    alpha = [float(r.split(",")[2]) for r in rows]
    np.testing.assert_allclose(alpha, [1 / (2 * n) for n in range(1, 31)], rtol=0, atol=1e-13)


def test_sample_determinism(tmp_path):
    rc = main(["sample", "--n", "2", "--seed", "9", "--samples", "50",
               "--output", str(tmp_path / "a")])
    rc2 = main(["sample", "--n", "2", "--seed", "9", "--samples", "50",
                "--output", str(tmp_path / "b")])
    assert rc == rc2 == 0
    assert body_of(tmp_path / "a/sample.csv") == body_of(tmp_path / "b/sample.csv")


def test_kernel_subcommand(tmp_path):
    pairs = {
        "n": 1,
        "pairs": [
            {"zeta": [[1, 0], [0, 0]], "eta": [[0, 0], [1, 0]]},
            {"zeta": [[1, 0], [0, 0]], "eta": [[1, 0], [0, 0]]},
        ],
    }
    pfile = tmp_path / "pairs.json"
    pfile.write_text(json.dumps(pairs))
    rc = main(["kernel", "--pairs", str(pfile), "--output", str(tmp_path)])
    assert rc == 0
    rows = body_of(tmp_path / "kernel.csv").splitlines()[1:]
    first = rows[0].split(",")
    assert float(first[0]) == 0.0 and first[1] == "0"
    second = rows[1].split(",")
    assert second[1] == "1"  # diagonal flagged singular


def test_measure_subcommand_and_validation_error(tmp_path, measure_file, capsys):
    rc = main(["measure", "--measure", str(measure_file), "--output", str(tmp_path)])
    assert rc == 0
    rows = body_of(tmp_path / "measure.csv").splitlines()[1:]
    masses = [float(r.split(",")[1]) for r in rows]
    assert abs(sum(masses) - 1.0) < 1e-12

    bad = json.loads(measure_file.read_text())
    bad["atoms"][1]["weight"] = -1.0
    bad_file = measure_file.parent / "bad.json"
    bad_file.write_text(json.dumps(bad))
    rc = main(["measure", "--measure", str(bad_file), "--output", str(tmp_path)])
    assert rc == 2
    assert "atoms[1].weight" in capsys.readouterr().err


def test_eps_list_validation(tmp_path, measure_file, capsys):
    rc = main(["ma-mass", "--measure", str(measure_file), "--eps", "0.1,0.3",
               "--output", str(tmp_path)])
    assert rc == 2
    assert "decreasing" in capsys.readouterr().err


def test_ma_mass_grid_too_coarse_exit_code(tmp_path, measure_file):
    rc = main(["ma-mass", "--measure", str(measure_file), "--grid", "6",
               "--eps", "0.3", "--output", str(tmp_path)])
    assert rc == 3


def test_ma_mass_and_determinism(tmp_path, measure_file):
    args = ["ma-mass", "--measure", str(measure_file), "--grid", "64",
            "--eps", "0.3"]
    rc = main(args + ["--output", str(tmp_path / "a")])
    rc2 = main(args + ["--output", str(tmp_path / "b"), "--workers", "2"])
    assert rc == rc2 == 0
    assert body_of(tmp_path / "a/ma_mass.csv") == body_of(tmp_path / "b/ma_mass.csv")
    total = float(body_of(tmp_path / "a/ma_mass.csv").splitlines()[1].split(",")[1])
    assert abs(total - 1.0) < 0.05
    # the grid's cell counts are header facts, the library's for every worker count
    mu = pl.AtomicMeasure.from_json(measure_file.read_text())
    rep = pl.ma_total_mass(mu, grid=64, eps=0.3)
    for side in "ab":
        head = header_of(tmp_path / side / "ma_mass.csv")
        assert (head["cells"], head["live_cells"]) == (str(rep.grid["cells"]),
                                                       str(rep.grid["live_cells"]))


def test_sobolev_subcommand(tmp_path, measure_file):
    rc = main(["sobolev", "--measure", str(measure_file), "--p", "1.0",
               "--seed", "3", "--samples", "5000", "--output", str(tmp_path)])
    assert rc == 0
    row = body_of(tmp_path / "sobolev.csv").splitlines()[1].split(",")
    assert float(row[1]) <= float(row[5])  # estimate below analytic bound


def test_riesz_subcommand(tmp_path):
    mu = pl.dirac(pl.normalize([1, 0]))
    mfile = tmp_path / "delta.json"
    mfile.write_text(measure_json(mu))
    rc = main(["riesz", "--measure", str(mfile), "--alpha", "1.0",
               "--p-value", "1.0", "--radius", "1.0", "--seed", "5",
               "--samples", "200000", "--output", str(tmp_path)])
    assert rc == 0
    row = body_of(tmp_path / "riesz.csv").splitlines()[1].split(",")
    assert abs(float(row[1]) - 2 * np.pi) / (2 * np.pi) < 0.02


def test_ball_profile_subcommand(tmp_path):
    mu = pl.dirac(pl.normalize([1, 0]))
    mfile = tmp_path / "delta.json"
    mfile.write_text(measure_json(mu))
    rc = main(["ball-profile", "--measure", str(mfile), "--radii", "1.0,0.5",
               "--eps", "0.1", "--output", str(tmp_path)])
    assert rc == 0
    rows = body_of(tmp_path / "ball_profile.csv").splitlines()[1:]
    masses = [float(r.split(",")[2]) for r in rows]
    assert masses == sorted(masses)  # reported ascending in radius


def test_prop25_subcommand(tmp_path, measure_file):
    rc = main(["prop25-check", "--measure", str(measure_file), "--seed", "4",
               "--samples", "5", "--output", str(tmp_path)])
    assert rc == 0
    rows = body_of(tmp_path / "prop25_check.csv").splitlines()[1:]
    assert rows
    assert all(float(r.split(",")[-1]) < 1e-9 for r in rows)


def test_prop25_counts_the_draws_it_skips(tmp_path, measure_file):
    # the body keeps the draws at chart distance >= 0.5 from both atoms, in
    # the order of one draw per sample, and the header counts the others
    assert main(["prop25-check", "--measure", str(measure_file), "--seed", "4",
                 "--samples", "200", "--output", str(tmp_path)]) == 0
    sites = np.array([0.3, -0.5 + 0.2j])
    rng = np.random.default_rng(4)
    draws = [3.0 * (rng.standard_normal(1) + 1j * rng.standard_normal(1))[0] for _ in range(200)]
    kept = [z for z in draws if np.min(np.abs(sites - z)) >= 0.5]
    path = tmp_path / "prop25_check.csv"
    rows = [r.split(",") for r in body_of(path).splitlines()[1:]]
    assert [complex(float(r[0]), float(r[1])) for r in rows] == kept
    assert int(header_of(path)["rejected"]) == 200 - len(kept) > 0


def test_prop25_with_every_draw_rejected(tmp_path, measure_file):
    # the one draw at seed 0 lies within 0.5 of an atom; this used to exit 1
    # with an IndexError from the empty batch
    assert main(["prop25-check", "--measure", str(measure_file), "--seed", "0",
                 "--samples", "1", "--output", str(tmp_path)]) == 0
    path = tmp_path / "prop25_check.csv"
    assert body_of(path) == "z0_re,z0_im,det_direct,det_expansion,relative_residual"
    assert header_of(path)["rejected"] == "1"


def test_verify_quick(tmp_path, capsys):
    rc = main(["verify", "--quick", "--output", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("[PASS]") >= 5 and "[FAIL]" not in out


@pytest.mark.parametrize("check", ["mass-conservation", "sobolev"])
def test_verify_workers_reaches_the_chunked_scans(check, tmp_path, monkeypatch):
    # --workers used to stop at cmd_verify, so these scans ran on one process;
    # the first chunked call records its worker count and stops the check
    class Recorded(Exception):
        pass

    def record(fn, total, chunk, workers, payload):
        raise Recorded(workers)

    monkeypatch.setattr(monge_ampere, "run_chunked", record)
    monkeypatch.setattr(potentials, "run_chunked", record)
    with pytest.raises(Recorded) as got:
        main(["verify", "--checks", check, "--workers", "3", "--output", str(tmp_path)])
    assert got.value.args == (3,)


def test_verify_quick_and_checks_exclude_each_other(tmp_path, capsys):
    # --quick used to be dropped silently next to --checks (the grid check
    # ran), and --all did nothing but ignore --checks
    for argv in (["--quick", "--checks", "mass-conservation"], ["--all"]):
        assert main(["verify", *argv, "--output", str(tmp_path)]) == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []


def test_verify_bodies_equal_across_reruns(tmp_path, capsys):
    # the body used to carry each check's seconds, which differ per run;
    # they are one header fact now, in check order
    for run in ("a", "b"):
        assert main(["verify", "--checks", "sin-distance,reassembly",
                     "--output", str(tmp_path / run)]) == 0
    a, b = (tmp_path / run / "verify.csv" for run in ("a", "b"))
    assert body_of(a) == body_of(b)
    assert body_of(a).splitlines()[0] == "check,status,detail"
    assert len(header_of(a)["seconds"].split(",")) == 2


def test_potential_subcommand(tmp_path, measure_file):
    rc = main(["potential", "--measure", str(measure_file), "--seed", "2",
               "--samples", "100", "--output", str(tmp_path)])
    assert rc == 0
    rows = body_of(tmp_path / "potential.csv").splitlines()[1:]
    assert len(rows) == 100
    assert all(float(r.split(",")[-1]) <= 0.0 for r in rows)


def test_ma_density_subcommand(tmp_path, measure_file):
    rc = main(["ma-density", "--measure", str(measure_file), "--seed", "6",
               "--samples", "20", "--eps", "0.3", "--output", str(tmp_path)])
    assert rc == 0
    rows = body_of(tmp_path / "ma_density.csv").splitlines()[1:]
    assert rows and all(float(r.split(",")[-1]) >= 0.0 for r in rows)


def test_workers_env_fallback(monkeypatch):
    from projlog.parallel import resolve_workers, run_chunked
    monkeypatch.setenv("PROJLOG_WORKERS", "3")
    assert resolve_workers(None) == 3
    assert resolve_workers(2) == 2
    monkeypatch.delenv("PROJLOG_WORKERS")
    assert resolve_workers(None) == 1
    # run_chunked resolves workers=None through the env var, and an explicit
    # count wins over it; a lambda cannot cross a process boundary, so a
    # result shows that one worker ran
    def ranges(workers):
        return run_chunked(lambda payload, rng: rng, 4, 2, workers=workers, payload=None)

    monkeypatch.setenv("PROJLOG_WORKERS", "x")
    with pytest.raises(pl.ValidationError, match="PROJLOG_WORKERS"):
        ranges(None)
    assert ranges(1) == [(0, 2), (2, 4)]
    monkeypatch.setenv("PROJLOG_WORKERS", "1")
    assert ranges(None) == [(0, 2), (2, 4)]


def test_config_validation_exit_code(tmp_path, capsys):
    rc = main(["sample", "--n", "2", "--samples", "-5", "--output", str(tmp_path)])
    assert rc == 2
    assert "--samples" in capsys.readouterr().err


def readme_option_table() -> dict[str, set[str]]:
    """{option: the subcommands that read it} from README's `| option |
    read by |` table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = readme[readme.index("| option | read by |"):].split("\n\n")[0].splitlines()[2:]
    cells = [re.fullmatch(r"\| `--([\w-]+)` \| (.*) \|", line).groups() for line in lines]
    return {opt: set(re.findall(r"`([\w-]+)`", cell)) & set(declared_options())
            for opt, cell in cells}


def required_options(command: str) -> list[str]:
    """The options a subcommand cannot run without (files need not exist to parse)."""
    return {"kernel": ["--pairs", "pairs.json"], "constants": [], "sample": [],
            "verify": []}.get(command, ["--measure", "mu.json"])


def test_each_option_only_where_it_is_read(tmp_path, measure_file, capsys):
    # an option a subcommand does not read is an error, not silently ignored
    # (nor taken as an abbreviation: --s is not --samples); README's table of
    # the run-configuration options says which subcommands read each one
    # (--output and --workers are execution settings on every subcommand)
    table = readme_option_table()
    assert set(table) == set(OPTIONS) - {"measure"}
    ap = build_parser()
    for command in declared_options():
        for opt, readers in table.items():
            argv = [command, *required_options(command), f"--{opt}", "1", "--output", "out",
                    "--workers", "2"]
            if command in readers:
                ap.parse_args(argv)
            else:
                with pytest.raises(pl.ValidationError, match="unrecognized arguments"):
                    ap.parse_args(argv)
    out = ["--output", str(tmp_path)]
    assert main(["measure", "--measure", str(measure_file), "--samples", "5", "--grid", "7",
                 "--chart", "3", *out]) == 2
    assert "--samples" in capsys.readouterr().err
    assert main(["sample", "--s", "5", *out]) == 2
    assert "unrecognized arguments: --s" in capsys.readouterr().err


def test_ball_profile_grid_not_multiple_of_4_exit_code(tmp_path, measure_file, capsys):
    rc = main(["ball-profile", "--measure", str(measure_file), "--grid", "10",
               "--radii", "0.5", "--output", str(tmp_path)])
    assert rc == 2
    assert "multiple of 4" in capsys.readouterr().err


def test_chart_out_of_range_exit_code(tmp_path, measure_file, capsys):
    # both used to exit 0: ma-density with an empty body, kernel with a NaN
    # chart residual on every row
    rc = main(["ma-density", "--measure", str(measure_file), "--chart", "5",
               "--samples", "5", "--output", str(tmp_path)])
    assert rc == 2
    assert "--chart 5" in capsys.readouterr().err
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps({"n": 1, "pairs": [
        {"zeta": [[1, 0], [0, 0]], "eta": [[0, 0], [1, 0]]}]}))
    assert main(["kernel", "--pairs", str(pairs), "--chart", "-1",
                 "--output", str(tmp_path)]) == 2
    assert list(tmp_path.glob("*.csv")) == []


def test_kernel_affine_reads_no_chart(tmp_path, capsys):
    # --affine used to accept --chart 1, record it and ignore it, and to
    # reject --chart 5 against an n it never used
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps({"n": 1, "pairs": [{"z": [[1, 0]], "w": [[0, 2]]}]}))
    for chart in ("1", "5"):
        assert main(["kernel", "--affine", "--pairs", str(pairs), "--chart", chart,
                     "--output", str(tmp_path)]) == 2
        assert "argument --chart: not allowed with argument --affine" \
            in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []
    assert main(["kernel", "--affine", "--pairs", str(pairs), "--output", str(tmp_path)]) == 0
    assert "chart" not in header_of(tmp_path / "kernel.csv")


def test_riesz_deep_power_exits_0_without_warning(tmp_path, measure_file, capsys):
    # alpha p = 5.7 used to overflow 60 decades deep: a numpy warning and exit 3
    assert main(["riesz", "--measure", str(measure_file), "--alpha", "1.9", "--p-value", "3",
                 "--levels", "3", "--samples", "200", "--output", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    rows = list(csv.DictReader(body_of(tmp_path / "riesz.csv").splitlines()))
    assert len(rows) == 4 and all(math.isfinite(float(row["estimate"])) for row in rows)


def test_workers_env_not_an_integer_exit_code(tmp_path, measure_file, monkeypatch, capsys):
    monkeypatch.setenv("PROJLOG_WORKERS", "abc")
    rc = main(["measure", "--measure", str(measure_file), "--output", str(tmp_path)])
    assert rc == 2
    assert "PROJLOG_WORKERS" in capsys.readouterr().err


def header_of(path: Path) -> dict:
    return dict(line[2:].split(" = ", 1) for line in path.read_text().splitlines()
                if line.startswith("# ") and " = " in line)


def test_headers_record_the_options_that_shape_the_body(tmp_path, measure_file):
    m = ["--measure", str(measure_file)]
    assert main(["ball-profile", *m, "--grid", "16", "--radii", "0.5", "--eps", "0.3,0",
                 "--output", str(tmp_path)]) == 0
    head = header_of(tmp_path / "ball_profile.csv")
    assert head["grid"] == "16" and head["center"] == "first atom"
    # one levels and one clipped_cells entry per eps, as the library reports them
    mu = pl.AtomicMeasure.from_json(measure_file.read_text())
    reps = pl.ball_mass_profile(mu, mu.point(0), [0.5], eps_list=[0.3, 0.0],
                                points_per_axis=16)
    assert head["levels"] == ",".join(str(rep.grid["levels"]) for rep in reps) == "1,9"
    assert head["clipped_cells"] == ",".join(str(rep.clipped_cells) for rep in reps)
    assert head["clipped_cells"] != "0,0"
    assert main(["riesz", *m, "--levels", "2", "--samples", "200",
                 "--output", str(tmp_path)]) == 0
    assert header_of(tmp_path / "riesz.csv")["levels"] == "2"
    assert main(["prop25-check", *m, "--samples", "3", "--output", str(tmp_path)]) == 0
    assert header_of(tmp_path / "prop25_check.csv")["samples"] == "3"
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps({"n": 1, "pairs": [
        {"zeta": [[1, 0], [0, 0]], "eta": [[0, 0], [1, 0]]}]}))
    assert main(["kernel", "--pairs", str(pairs), "--chart", "1",
                 "--output", str(tmp_path)]) == 0
    assert header_of(tmp_path / "kernel.csv")["chart"] == "1"
    assert main(["measure", *m, "--output", str(tmp_path)]) == 0
    assert header_of(tmp_path / "measure.csv")["atoms"] == "2"


def declared_options() -> dict[str, dict[str, str]]:
    """{subcommand: {option: dest}} as build_parser() declares them, --help aside."""
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return {name: {opt: action.dest for action in p._actions for opt in action.option_strings
                   if opt not in ("-h", "--help")}
            for name, p in sub.choices.items()}


def higher_n_argv(command: str, n: int, tmp_path: Path) -> list[str]:
    """A cheap run of command on P^n, its measure or pairs written under tmp_path."""
    measure = tmp_path / "mu.json"
    measure.write_text(measure_json(random_measure(n, 3, 71)))
    pairs = tmp_path / "pairs.json"
    z = random_measure(n, 2, 5).points
    pairs.write_text(json.dumps({"n": n, "pairs": [
        {"zeta": [[c.real, c.imag] for c in z[0]], "eta": [[c.real, c.imag] for c in z[1]]}]}))
    m = ["--measure", str(measure)]
    argv = {
        "kernel": ["--pairs", str(pairs)],
        "potential": [*m, "--samples", "50"],
        "measure": m,
        "sobolev": [*m, "--samples", "2000"],
        "riesz": [*m, "--samples", "2000", "--levels", "1"],
        "ma-density": [*m, "--samples", "50", "--chart", "1"],
        "ma-mass": [*m, "--grid", "24"],
        "ball-profile": [*m, "--grid", "8", "--radii", "0.8", "--eps", "0.3"],
        "prop25-check": [*m, "--samples", "5"],
        "constants": ["--n", str(n)],
        "sample": ["--n", str(n), "--samples", "20"],
    }[command]
    return [command, *argv, "--output", str(tmp_path / "out")]


# verify reads no file; at n = 3 a mass grid that passes the 1% volume check
# has 16^6 cells a chart, which is not cheap
@pytest.mark.parametrize("command, n", [
    (command, n) for n in (2, 3) for command in sorted(set(declared_options()) - {"verify"})
    if (command, n) != ("ma-mass", 3)])
def test_every_subcommand_runs_above_p1(command, n, tmp_path):
    # every other CLI test reads P^1 files, which is how ma-density's crash on
    # the Fortran-ordered chart rows of n >= 2 went unseen
    assert main(higher_n_argv(command, n, tmp_path)) == 0
    body = body_of(tmp_path / "out" / f"{command.replace('-', '_')}.csv").splitlines()
    assert len(body) > 1
    if command == "ma-density":
        # the written rows are ma_density at the same chart rows, bit for bit
        mu = pl.AtomicMeasure.from_json((tmp_path / "mu.json").read_text())
        rows = np.array([[float(x) for x in line.split(",")] for line in body[1:]])
        Z = rows[:, :-1].copy().view(complex)
        pts = pl.sample_fs_array(0, 50, n)
        assert Z.tobytes() == chart_project(pts[chart_mask(pts, 1)], 1).tobytes()
        assert rows[:, -1].tobytes() == pl.ma_density(mu, 1, Z, eps=0.3).tobytes()


def test_every_header_records_each_declared_option(tmp_path, measure_file):
    # sobolev's header used to leave out --p, verify's --checks
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps({"n": 1, "pairs": [PAIR]}))
    m = ["--measure", str(measure_file)]
    runs = {"kernel": ["--pairs", str(pairs)], "potential": [*m, "--samples", "5"],
            "measure": m, "sobolev": [*m, "--samples", "50"],
            "riesz": [*m, "--samples", "50", "--levels", "1"],
            "ma-density": [*m, "--samples", "5"], "ma-mass": [*m, "--grid", "64"],
            "ball-profile": [*m, "--grid", "16", "--radii", "0.5"],
            "prop25-check": [*m, "--samples", "3"], "constants": [], "sample": ["--samples", "3"],
            "verify": ["--checks", "sin-distance"]}
    declared = declared_options()
    assert sorted(declared) == sorted(runs)
    for command, options in declared.items():
        out = tmp_path / command
        assert main([command, *runs[command], "--output", str(out)]) == 0, command
        head = header_of(out / f"{command.replace('-', '_')}.csv")
        assert head["command"] == command
        assert set(options.values()) - {"output", "workers"} <= set(head), command


@pytest.mark.parametrize("command", sorted(declared_options()))
def test_no_subcommand_takes_h(command, tmp_path, capsys):
    # --h was the singular-guard length of ma-density and ball-profile (and
    # of sobolev before); the eps = 0 density needs no guard, so no
    # subcommand has it, and it is no abbreviation of --help
    assert main([command, *required_options(command), "--h", "0.001",
                 "--output", str(tmp_path)]) == 2
    assert "unrecognized arguments: --h" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(declared_options()))
def test_every_subcommand_prints_its_help(command, capsys):
    # argparse raised "empty group" formatting the usage of the ten
    # subcommands without mutually exclusive options
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: projlog {command} ")


@pytest.mark.parametrize("command, option, value", [
    ("sample", "--seed", "x"), ("sample", "--samples", "x"), ("ma-mass", "--grid", "x"),
    ("riesz", "--chart", "x"), ("constants", "--n", "x"),
    ("riesz", "--alpha", "x"), ("riesz", "--p-value", "x"), ("riesz", "--radius", "x"),
    ("riesz", "--levels", "1.5"), ("measure", "--workers", "x"),
])
def test_option_text_that_is_not_a_number_exit_code(command, option, value, tmp_path,
                                                    measure_file, capsys):
    # argparse used to reject these with SystemExit, outside the exit-code path
    inputs = [] if command in ("sample", "constants") else ["--measure", str(measure_file)]
    assert main([command, *inputs, f"{option}={value}", "--output", str(tmp_path)]) == 2
    assert f"error: argument {option}: " in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []


def test_verify_largest_seed_runs(tmp_path, capsys):
    # the checks' sub-seeds (seed + k) used to leave the sampler's 64-bit
    # key range and raise OverflowError
    rc = main(["verify", "--checks", "sin-distance,kernel-mean", "--seed", str(2**64 - 1),
               "--output", str(tmp_path)])
    assert rc in (0, 1)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and all(line.startswith(("[PASS]", "[FAIL]")) for line in lines)


def test_verify_unknown_check_key_exit_code(tmp_path, capsys):
    # used to run no check and exit 0 with an empty CSV
    rc = main(["verify", "--checks", "sobolv", "--output", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'sobolv'" in err and "sobolev" in err and "mass-conservation" in err
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("argv, code, named", [
    (["ma-mass", "--grid", "16", "--eps", "nan"], 2, "--eps"),
    (["ma-mass", "--grid", "16", "--eps", "0.3,x"], 2, "--eps"),
    (["sobolev", "--samples", "50", "--p", "nan"], 2, "p = nan"),
    (["sobolev", "--samples", "50", "--p", "0.5"], 2, "p = 0.5"),
    (["sobolev", "--samples", "50", "--p", ""], 2, "--p"),
    (["riesz", "--samples", "50", "--radius", "-1"], 2, "radius = -1.0"),
    (["riesz", "--samples", "50", "--p-value", "nan"], 2, "p = nan"),
    (["ball-profile", "--radii", "0"], 2, "radii"),
    (["ball-profile", "--radii", "0.5,abc"], 2, "--radii"),
    (["riesz", "--samples", "50", "--levels", "0"], 2, "levels = 0"),
    (["riesz", "--samples", "50", "--levels", "400"], 2, "levels = 400"),
    (["ma-mass", "--grid", "16", "--eps", "0"], 2, "eps > 0"),
    (["ma-density", "--samples", "5", "--eps", "0.3,0.1"], 2, "--eps"),
    (["sobolev", "--samples", "50", "--seed", str(2**64)], 2, "--seed"),
    (["potential", "--samples", "5", "--seed", "-1"], 2, "--seed"),
    (["sobolev", "--samples", "50", "--p", "inf"], 2, "p = inf"),
    (["riesz", "--samples", "50", "--p-value", "inf"], 2, "p = inf"),
    (["riesz", "--samples", "50", "--radius", "1e200"], 2, "radius = 1e+200"),
    (["ma-mass", "--grid", "64", "--eps", "1e200"], 2, "eps = 1e+200"),
    (["ma-density", "--samples", "5", "--eps", "1e200"], 2, "eps = 1e+200"),
    (["ball-profile", "--radii", "0.5", "--eps", "1e200"], 2, "eps = 1e+200"),
    (["ball-profile", "--radii", "1e-200", "--eps", "1e150"], 2, "radius = 1e-200"),
    (["ball-profile", "--radii", "1e-300"], 2, "radius = 1e-300"),
    (["riesz", "--samples", "50", "--radius", "1e-300"], 2, "radius = 1e-300"),
    (["sobolev", "--p", "1000", "--samples", "200"], 3, "not finite"),
    (["riesz", "--alpha", "1.9999999", "--p-value", "1e300"], 3, "not finite"),
    (["ma-mass", "--grid", "16", "--eps", "1e154"], 3, "not finite"),
    (["ma-density", "--samples", "5", "--eps", "1e154"], 3, "not finite"),
    (["ball-profile", "--radii", "0.5", "--eps", "1e154"], 3, "not finite"),
    (["ma-mass", "--grid", "64", "--eps", "1e-200"], 2, "eps"),
    (["ma-mass", "--grid", "4"], 3, "grid self-check: FS volume off by 11.10%"),
    (["ball-profile", "--grid", "4", "--radii", "1,0.5", "--eps", "10"], 3,
     "grid self-check: FS volume off by 2.07%"),
], ids=["eps-nan", "eps-text", "p-nan", "p-below-1", "p-empty", "radius-negative",
        "p-value-nan", "radii-zero", "radii-text", "levels-zero", "levels-overflow",
        "mass-eps-zero",
        "density-eps-list", "seed-2-to-64", "seed-negative", "p-inf", "p-value-inf",
        "radius-overflow", "mass-eps-square-overflow", "density-eps-square-overflow",
        "profile-eps-square-overflow", "profile-radius-underflow-huge-eps",
        "profile-radius-underflow", "riesz-radius-underflow", "sobolev-estimate-overflow",
        "riesz-estimate-overflow", "mass-hessian-overflow", "density-hessian-overflow",
        "profile-hessian-overflow", "mass-eps-square-underflow", "mass-grid-too-coarse",
        "profile-grid-too-coarse"])
def test_bad_numeric_option_exit_code(argv, code, named, tmp_path, measure_file, capsys):
    # the exit-3 rows, and the eps and radius rows, used to exit 0 with inf,
    # nan or 0 in the body, or 1 with a traceback; an eps whose square
    # underflows used to integrate the unsmoothed field and exit 0, and 400
    # levels overflowed the depth schedule (exit 1 with a traceback)
    rc = main([argv[0], "--measure", str(measure_file), *argv[1:],
               "--output", str(tmp_path)])
    assert rc == code
    assert named in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []


PAIR = {"zeta": [[1, 0], [0, 0]], "eta": [[0, 0], [1, 0]]}
ATOMS = [{"zeta": [[1, 0], [0.3, 0]], "weight": 0.6},
         {"zeta": [[1, 0], [-0.5, 0.2]], "weight": 0.4}]


def atoms_with(**first):
    """ATOMS with the first atom's fields replaced."""
    return [{**ATOMS[0], **first}, ATOMS[1]]


@pytest.mark.parametrize("kind, payload, named", [
    ("pairs", None, "missing.json"),
    ("pairs", "{not json", "does not parse"),
    ("pairs", {"n": 1}, '"pairs"'),
    ("pairs", {"pairs": [PAIR]}, '"n"'),
    ("pairs", {"n": "1", "pairs": [PAIR]}, "n = '1'"),
    ("pairs", {"n": 1, "pairs": [{"zeta": PAIR["zeta"]}]}, "pairs[0].eta"),
    ("pairs", {"n": 1, "pairs": [PAIR, {**PAIR, "eta": [[1, 0]]}]}, "pairs[1].eta"),
    ("pairs", {"n": 1, "pairs": [{**PAIR, "zeta": [1, 2]}]}, "pairs[0].zeta"),
    ("pairs", {"n": 2, "pairs": [PAIR]}, "pairs[0].zeta"),
    ("pairs", {"n": 1, "pairs": [{**PAIR, "eta": [[0, 0], [0, 0]]}]}, "pairs[0].eta"),
    ("affine", {"n": 1, "pairs": [{"z": [[1, True]], "w": [[0, 0]]}]}, "pairs[0].z"),
    ("pairs", {"n": 1, "pairs": []}, '"pairs"'),
    ("center", "[[1", "--center"),
    ("center", "[1,2]", "--center"),
    ("center", "[[1,0],[0,0],[0,0]]", "--center"),
    ("center", "[" * 100_000, "--center"),
    ("center", "[[0,0],[0,0]]", "--center"),
    ("measure", {"n": 1, "atoms": atoms_with(zeta=[1, 2])}, "atoms[0].zeta"),
    ("measure", {"n": 1, "atoms": atoms_with(zeta=[["0", 0], [0.3, 0]])}, "atoms[0].zeta"),
    ("measure", {"n": 1, "atoms": [3]}, "atoms[0]"),
    ("measure", {"n": 1.0, "atoms": ATOMS}, "n = 1.0"),
    ("measure", "[" * 100_000, "measure JSON does not parse"),
    ("measure", {"n": 1, "atoms": atoms_with(weight=True)}, "atoms[0].weight"),
    ("measure", {"n": 1, "atoms": atoms_with(zeta=[[True, 0], [0.3, 0]])}, "atoms[0].zeta"),
    ("measure", {"n": 0, "atoms": ATOMS}, "n = 0"),
    ("measure", {"n": "1", "atoms": {}}, "n = '1'"),
    ("measure", {"n": 1, "atoms": atoms_with(zeta=[[0, 0], [0, 0]])}, "atoms[0].zeta"),
], ids=["no-file", "not-json", "no-pairs-key", "no-n-key", "n-text", "no-eta",
        "short-point", "flat-point", "n-mismatch", "zero-point", "affine-bool", "no-pairs",
        "center-not-json", "center-flat", "center-dimension", "center-too-deep",
        "center-zero", "measure-flat-zeta", "measure-text-entry", "measure-atom-int",
        "measure-n-float", "measure-too-deep", "measure-weight-bool", "measure-bool-entry",
        "measure-n-zero", "measure-n-text", "measure-zero-zeta"])
def test_bad_pairs_or_center_exit_code(kind, payload, named, tmp_path, measure_file, capsys):
    # each used to exit 1 with a traceback, exit 0, or exit 2 naming the
    # wrong path
    if kind == "center":
        argv = ["ball-profile", "--measure", str(measure_file), "--radii", "0.5",
                "--center", payload]
    elif kind == "measure":
        path = tmp_path / "measure.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        argv = ["measure", "--measure", str(path)]
    else:
        path = tmp_path / ("missing.json" if payload is None else "pairs.json")
        if payload is not None:
            path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        argv = ["kernel", "--pairs", str(path)] + (["--affine"] if kind == "affine" else [])
    assert main([*argv, "--output", str(tmp_path)]) == 2
    assert named in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("radii", ["1.0,0.5", "0.5"])
def test_ball_profile_self_check_tests_the_grid_not_h(radii, tmp_path, measure_file):
    # at eps = 0 every cell of the ball counts toward the ball-volume
    # self-check; this used to exit 3, off by 2.03% at r = 1 and 7.58% at
    # r = 0.5, when the cells near an atom were left out of it
    assert main(["ball-profile", "--measure", str(measure_file), "--eps", "0",
                 "--radii", radii, "--output", str(tmp_path)]) == 0


def test_eps_zero_density_and_atomic_ball_masses(tmp_path, measure_file):
    # --eps 0 is the unsmoothed field: ma-density evaluates it at every
    # sample, and on P^1 each eps = 0 ball mass is the weight of the atoms
    # in the ball
    m = ["--measure", str(measure_file)]
    assert main(["ma-density", *m, "--eps", "0", "--samples", "50",
                 "--output", str(tmp_path)]) == 0
    assert main(["ball-profile", *m, "--radii", "1.0,0.5", "--eps", "0.1,0",
                 "--output", str(tmp_path)]) == 0
    lines = body_of(tmp_path / "ball_profile.csv").splitlines()
    assert lines[0] == "eps,radius,mass,mass_over_ball_volume"
    mass = {(r[0], r[1]): float(r[2]) for r in (line.split(",") for line in lines[1:])}
    mu = pl.AtomicMeasure.from_json(measure_file.read_text())
    d = pl.geodesic_distance_batch(mu.points, mu.point(0).coords)
    for r in ("0.5", "1"):
        atomic = float(np.sum(mu.weights[d <= float(r)]))
        assert abs(mass[("0", r)] - atomic) < 1e-6


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=12)
# near-valid inputs, so that the examples also get past the envelope: each
# part is mostly valid, else any JSON value
REALS = st.integers(-3, 3) | st.floats(-3, 3)


def mostly(valid):
    return st.one_of(valid, valid, valid, JSON_VALUES)


def points(width):
    return st.lists(st.lists(REALS, min_size=2, max_size=2), min_size=width, max_size=width)


def documents(key, fields, offset):
    """{"n": n, key: [records]} with each field a point of n + offset entries."""
    def document(n):
        weight = {"weight": mostly(st.sampled_from([1, 0.5]))} if key == "atoms" else {}
        record = st.fixed_dictionaries({f: mostly(points(n + offset)) for f in fields}
                                       | weight)
        return st.fixed_dictionaries({"n": mostly(st.just(n)),
                                      key: mostly(st.lists(record, min_size=1, max_size=2))})
    return st.integers(1, 2).flatmap(document)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(measure={"n": 1, "atoms": ATOMS}, pairs={"n": 1, "pairs": [PAIR]},
         affine={"n": 1, "pairs": [{"z": [[1, 0]], "w": [[0, 2]]}]}, center=[[1, 0], [0, 1]])
@given(measure=JSON_VALUES | documents("atoms", ("zeta",), 1),
       pairs=JSON_VALUES | documents("pairs", ("zeta", "eta"), 1),
       affine=documents("pairs", ("z", "w"), 0), center=points(2) | JSON_VALUES)
def test_json_inputs_never_raise(measure, pairs, affine, center, tmp_path, measure_file):
    # whatever JSON a measure file, a pairs file or --center holds, the CLI
    # exits 0, 2 or 3 and raises nothing
    path = tmp_path / "input.json"
    out = ["--output", str(tmp_path / "out")]
    for argv, text in ((["measure", "--measure", str(path)], json.dumps(measure)),
                       (["kernel", "--pairs", str(path)], json.dumps(pairs)),
                       (["kernel", "--affine", "--pairs", str(path)], json.dumps(affine)),
                       (["ball-profile", "--measure", str(measure_file), "--grid", "4",
                         "--radii", "0.5", f"--center={json.dumps(center)}"], None)):
        if text is not None:
            path.write_text(text)
        assert main([*argv, *out]) in (0, 2, 3), argv


# numeric option values, (valid, other): the other values are edge values,
# any float and text that is not a number; sizes are drawn only small or
# invalid, since a large valid size costs in proportion (and at these sizes
# every chunked run is one chunk, so no process pool starts whatever
# PROJLOG_WORKERS says)
NUMBERS = (st.sampled_from(["0", "-0", "-1", "nan", "inf", "-inf", "1e308", "5e-324", "", "x"])
           | st.floats().map(repr) | st.integers(-3, 3).map(str))
NUMBER_LISTS = st.lists(NUMBERS, min_size=1, max_size=3).map(",".join)
SIZES = st.sampled_from(["-1", "0", "x", "1.5"])


def reals(lo, hi):
    return st.floats(lo, hi).map(repr)


OPTION_VALUES = {
    "seed": (st.integers(0, 2**64 - 1).map(str),
             (st.sampled_from([-1, 2**64]) | st.integers(-2**70, 2**70)).map(str)),
    "samples": (st.integers(1, 3).map(str), SIZES),
    "n": (st.integers(1, 3).map(str), SIZES),
    "levels": (st.integers(1, 3).map(str), SIZES),
    "grid": (st.sampled_from(["4", "8", "64"]), st.sampled_from(["-1", "0", "1", "2", "x"])),
    "chart": (st.sampled_from(["0", "1"]), st.sampled_from(["-1", "2", "x"])),
    "alpha": (reals(0.1, 1.9), NUMBERS),
    "radius": (reals(0.1, 3.0), NUMBERS),
    "p-value": (reals(0.5, 3.0), NUMBERS),
    "p": (st.lists(reals(1.0, 3.0), min_size=1, max_size=2).map(",".join), NUMBER_LISTS),
    "eps": (st.sampled_from(["0.3", "0.3,0.1", "0.1,0", "0"]), NUMBER_LISTS),
    "radii": (st.sampled_from(["0.5", "1.0,0.5"]) | reals(0.01, 2.0), NUMBER_LISTS),
}
NUMERIC_OPTIONS = {
    "potential": ("seed", "samples"),
    "sobolev": ("seed", "samples", "p"),
    "riesz": ("seed", "samples", "chart", "alpha", "p-value", "radius", "levels"),
    "ma-density": ("seed", "samples", "eps", "chart"),
    "ma-mass": ("grid", "eps"),
    "ball-profile": ("grid", "eps", "radii"),
    "prop25-check": ("seed", "samples", "chart"),
    "sample": ("seed", "samples", "n"),
    "constants": ("n",),
    "kernel": ("chart",),
    "measure": (),
    "verify": ("seed",),
}
# a command's exit codes where they are not 0, 2 and 3: verify exits 1 when
# a check fails
EXIT_CODES = {"verify": (0, 1, 2, 3)}


# result columns that must be finite in a body of exit 0 (analytic_bound
# is inf for p >= 2n, so it is not listed)
FINITE_COLUMNS = {
    "ma-mass": ("total_mass", "volume_check"),
    "ma-density": ("density",),
    "ball-profile": ("mass", "mass_over_ball_volume"),
    "sobolev": ("estimate", "std_error", "estimate_doubled"),
    "riesz": ("estimate",),
}


def invocations(command):
    """Valid values for every option of the command but at most one, so
    that the odd value gets past the others."""
    names = NUMERIC_OPTIONS[command]
    valid = st.fixed_dictionaries({opt: OPTION_VALUES[opt][0] for opt in names})
    odd = st.sampled_from(names).flatmap(lambda opt: OPTION_VALUES[opt][1].map(
        lambda value: {opt: value})) if names else st.nothing()
    return st.tuples(valid, st.just({}) | odd).map(lambda both: (command, both[0] | both[1]))


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(call=("sobolev", {"seed": str(2**64), "samples": "3", "p": "1"}),
         workers=None)
@example(call=("sobolev", {"seed": "0", "samples": "3", "p": "inf"}), workers=None)
@example(call=("riesz", {"seed": "0", "samples": "3", "chart": "0", "alpha": "1",
                         "p-value": "inf", "radius": "1", "levels": "1"}), workers="2")
@example(call=("riesz", {"seed": "0", "samples": "3", "chart": "0", "alpha": "1",
                         "p-value": "1", "radius": "1e200", "levels": "1"}), workers=None)
@example(call=("sobolev", {"seed": "0", "samples": "200", "p": "1000"}),
         workers=None)
@example(call=("riesz", {"seed": "0", "samples": "1000", "chart": "0", "alpha": "1.9999999",
                         "p-value": "1e300", "radius": "1", "levels": "3"}), workers=None)
@example(call=("riesz", {"seed": "0", "samples": "3", "chart": "0", "alpha": "1.9",
                         "p-value": "3", "radius": "1", "levels": "3"}), workers=None)
@example(call=("ma-mass", {"grid": "64", "eps": "1e200"}), workers=None)
@example(call=("ball-profile", {"grid": "4", "eps": "0.3", "h": "1e-4", "radii": "1e-300"}),
         workers=None)
@example(call=("verify", {"seed": str(2**64 - 1)}), workers=None)
@given(call=st.sampled_from(sorted(NUMERIC_OPTIONS)).flatmap(invocations),
       workers=st.sampled_from([None, "1", "2", "9" * 30, "", "0", "-3", "x", "1.5"]))
def test_numeric_options_never_raise(call, workers, tmp_path, measure_file, monkeypatch):
    # whatever the numeric options and PROJLOG_WORKERS hold, the CLI exits
    # 0 with a CSV whose result columns are finite (verify: 0 or 1, each with
    # its table), or 2 or 3 without one, and raises nothing
    command, opts = call
    if workers is None:
        monkeypatch.delenv("PROJLOG_WORKERS", raising=False)
    else:
        monkeypatch.setenv("PROJLOG_WORKERS", workers)
    out = tmp_path / "out"
    shutil.rmtree(out, ignore_errors=True)
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps({"n": 1, "pairs": [PAIR]}))
    inputs = {"sample": [], "constants": [], "kernel": ["--pairs", str(pairs)],
              "verify": ["--checks", "sin-distance"]}
    argv = [command, *(f"--{opt}={value}" for opt, value in opts.items()), "--output", str(out),
            *inputs.get(command, ["--measure", str(measure_file)])]
    rc = main(argv)
    assert rc in EXIT_CODES.get(command, (0, 2, 3)), argv
    assert (rc in (0, 1)) == any(out.glob("*.csv")), argv
    if rc == 0 and command in FINITE_COLUMNS:
        rows = csv.DictReader(body_of(next(out.glob("*.csv"))).splitlines())
        assert all(math.isfinite(float(row[col])) for row in rows
                   for col in FINITE_COLUMNS[command]), argv
