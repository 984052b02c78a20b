"""Smoke tests: each script under scripts/ runs against the package."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "name, args",
    [
        ("morita_classes.py", ["--max-n", "3"]),
        ("ring_tables.py", ["--J", "0", "--n", "2", "--min", "-2", "--max", "2"]),
        ("ring_tables.py", ["--J", "{0}", "--n", "1", "--min", "-2", "--max", "2"]),
    ],
)
def test_script_runs(name, args):
    done = _run(name, args)
    assert done.returncode == 0, done.stderr
    assert "MISMATCH" not in done.stdout


def test_ring_tables_bad_set_is_a_usage_error():
    done = _run("ring_tables.py", ["--J", "x", "--n", "1"])
    assert done.returncode == 2
    assert "position" in done.stderr
    assert "Traceback" not in done.stderr


def test_ring_tables_reversed_degree_range_is_a_usage_error():
    done = _run("ring_tables.py", ["--J", "0", "--n", "1", "--min", "3", "--max", "1"])
    assert done.returncode == 2
    assert done.stdout == ""
    assert "usage:" in done.stderr
    assert "--min must not exceed --max" in done.stderr


def test_ring_tables_inadmissible_pair_is_a_domain_error():
    done = _run("ring_tables.py", ["--J", "5", "--n", "1"])
    assert done.returncode == 1
    assert done.stderr == "error: J = {5} is not a subset of [0, 1)\n"
    assert done.stdout == ""


def _run(name, args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
