"""tools/verify_sweep.py without a subprocess: its seed ranges, its check
keys and the timing it strips from verify's lines."""

import argparse
import importlib.util
from pathlib import Path

import pytest

from projlog.errors import ValidationError
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
