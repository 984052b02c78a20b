import json
import random
import re

import pytest

from weylgraded.cli import run_command
from weylgraded.zfin import FinSet
from weylgraded import gwa, verification
from weylgraded.verification import SUITES, Check, run_check

CHECKS = [check for suite in sorted(SUITES) for check in SUITES[suite]]
IDS = [f"{check.suite}.{check.fn.__name__.lstrip('_')}" for check in CHECKS]


@pytest.mark.parametrize("check", CHECKS, ids=IDS)
def test_registered_check(check):
    result = run_check(check, seed=0)
    assert result.raised is None, f"{check.name} raised {result.raised}"
    assert result.failure is None, f"{check.name}: first failing input {json.dumps(result.failure)}"
    assert result.count > 0, f"{check.name} checked no case"


def test_verify_has_no_window_option(capsys):
    assert run_command(["verify", "--suite", "zfin", "--window", "2"]) == 2
    assert "unrecognized arguments: --window 2" in capsys.readouterr().err


def test_oracle_sweep_samples_after_its_exhaustive_cases(monkeypatch):
    # only the cases are compared, so both sides of the check are stubbed out
    monkeypatch.setattr(gwa, "_oracle_roots", lambda J, n, j: None)
    monkeypatch.setattr(gwa, "_closed_form_roots", lambda J, n, j: None)

    def cases(seed):
        sweep = verification._oracle_matches_closed_form(random.Random(seed))
        return [(inputs["pair"], inputs["j"]) for inputs, _ in sweep]

    zero, one = cases(0), cases(1)
    assert len(zero) == len(one) == 2553 + 2000
    assert zero[:2553] == one[:2553]
    assert zero[2553:] != one[2553:]
    assert all(pair.n <= 8 and -16 <= j <= 16 for pair, j in zero[2553:] + one[2553:])


def _lines_match(out, patterns):
    lines = out.splitlines()
    assert len(lines) == len(patterns), lines
    for line, pattern in zip(lines, patterns):
        assert re.fullmatch(pattern, line), line


def test_raising_check_fails_and_the_run_goes_on(monkeypatch, capsys):
    def boom(rng):
        n = 7
        raise ValueError(f"boom at {n}")

    checks = [
        Check("raising", "raises", "", boom),
        Check("raising", "passes", "", lambda rng: iter([({"n": 1}, True)])),
    ]
    monkeypatch.setitem(SUITES, "raising", checks)
    assert run_command(["verify", "--suite", "raising", "--seed", "3"]) == 1
    _lines_match(capsys.readouterr().out, [
        r"FAIL  raises  0 cases, \d+\.\d\d s",
        r'      raised ValueError: boom at 7 \(in case 1, locals \{"n": 7\}\)',
        r"PASS  passes  1 cases, \d+\.\d\d s",
        r"1 passed, 1 failed",
    ])


def test_failing_check_reports_its_input(monkeypatch, capsys):
    cases = [({"J": FinSet([0, 2]), "n": 3}, False), ({"n": 4}, True)]
    failing = Check("failing", "always fails", "one case", lambda rng: iter(cases))
    monkeypatch.setitem(SUITES, "failing", [failing])
    assert run_command(["verify", "--suite", "failing"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"FAIL  always fails  \[one case\]  1 cases, \d+\.\d\d s", lines[0])
    assert json.loads(lines[1].split(": ", 1)[1]) == {"J": [0, 2], "n": 3}
    assert lines[-1] == "0 passed, 1 failed"


def test_check_without_cases_fails(monkeypatch, capsys):
    monkeypatch.setitem(SUITES, "empty", [Check("empty", "checks nothing", "", lambda rng: iter(()))])
    assert run_command(["verify", "--suite", "empty"]) == 1
    _lines_match(capsys.readouterr().out, [
        r"FAIL  checks nothing  0 cases, \d+\.\d\d s",
        r"0 passed, 1 failed",
    ])


def test_raising_check_names_its_case_and_locals(monkeypatch, capsys):
    def raises_at_six(rng):
        for n in range(4, 10):
            J = FinSet(range(n))
            if n == 6:
                raise ValueError("no six")
            yield {"J": J, "n": n}, True

    monkeypatch.setitem(SUITES, "raising", [Check("raising", "raises at six", "", raises_at_six)])
    assert run_command(["verify", "--suite", "raising"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"FAIL  raises at six  2 cases, \d+\.\d\d s", lines[0])
    assert lines[1] == (
        '      raised ValueError: no six (in case 3, locals {"J": [0, 1, 2, 3, 4, 5], "n": 6})'
    )


def test_verify_json_reports_every_result(monkeypatch, capsys):
    cases = [({"n": 1}, True), ({"J": FinSet([0, 2]), "n": 3}, False)]
    checks = [
        Check("mixed", "fails at its second case", "two cases", lambda rng: iter(cases)),
        Check("mixed", "passes", "one case", lambda rng: iter([({"n": 3}, True)])),
    ]
    monkeypatch.setitem(SUITES, "mixed", checks)
    assert run_command(["verify", "--suite", "mixed", "--seed", "2", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"seed", "passed", "failed", "results"}
    assert (data["seed"], data["passed"], data["failed"]) == (2, 1, 1)
    first, second = data["results"]
    assert first["name"] == "fails at its second case"
    assert (first["passed"], first["count"], first["raised"]) == (False, 2, None)
    assert first["failure"] == {"J": [0, 2], "n": 3}
    assert (second["cases"], second["passed"], second["count"], second["failure"]) == (
        "one case", True, 1, None
    )
    assert all(isinstance(r["seconds"], float) for r in data["results"])


def test_verify_json_passing_suite(capsys):
    assert run_command(["verify", "--suite", "actions", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["seed"], data["failed"]) == (0, 0)
    assert data["passed"] == len(data["results"]) == len(SUITES["actions"])
