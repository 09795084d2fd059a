"""Acceptance suite: one test per quantitative criterion, each printing a
PASS/FAIL line with the measured values.  Tolerances are fixed in
projlog.verification; the checks compare independent computation routes
(see the verification module docstring).

The tests are made from verification.ALL_CHECKS, so a new check is covered
without a new test function; each is named test_criterion_<position>_<check
function without its check_ prefix>, which keeps the names stable.

Run with `pytest tests/test_acceptance.py -v -s` or `projlog verify` (every
check; `--quick` skips the slow grids, `--checks` names the checks to run).
"""

from projlog import verification as V


def _criterion(key: str):
    def test():
        res = V.run_checks(names=[key])[0]
        print(res.line())
        assert res.passed, res.detail
        assert res.seconds > 0

    return test


globals().update({f"test_criterion_{i:02d}_{fn.__name__.removeprefix('check_')}": _criterion(key)
                  for i, (key, fn) in enumerate(V.ALL_CHECKS, 1)})
