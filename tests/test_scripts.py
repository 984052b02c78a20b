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
    ],
)
def test_script_runs(name, args):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert done.returncode == 0, done.stderr
    assert "MISMATCH" not in done.stdout
