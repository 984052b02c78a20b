"""Tests of the benchmark itself: seeded op lists, checkers, spans, bare runs.

Run from the repository root:  python -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import weylgraded as wg  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_lists_repeat_per_seed(workload):
    first = workloads.serialize(workloads.generate(workload, 7))
    assert first == workloads.serialize(workloads.generate(workload, 7))
    assert first != workloads.serialize(workloads.generate(workload, 8))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_counts_follow_spec(workload):
    ops = workloads.generate(workload, 1)
    counts = {}
    for kind, _ in ops:
        counts[kind] = counts.get(kind, 0) + 1
    assert counts == workloads.SPEC["workloads"][workload]["ops_per_pass"]


def wrong(value):
    """A deliberately wrong expected answer of the same shape as value."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, Fraction)):
        return value + 1
    if isinstance(value, str):
        return value + "?"
    if isinstance(value, wg.RationalPoly):
        return value * wg.RationalPoly.linear(1)
    if isinstance(value, wg.PicElement):
        return wg.compose(value, wg.shift(1))
    if isinstance(value, wg.DSet):
        return wg.DSet(value.exceptions ^ wg.FinSet([0]))
    if isinstance(value, wg.ProjectiveSum):
        return wg.ProjectiveSum(value.summands + ((wg.FinSet(), 0),))
    if isinstance(value, wg.NecklaceClass):
        pair = value.representative
        return wg.NecklaceClass(wg.AdmissiblePair(pair.J ^ wg.FinSet([0]), pair.n))
    if isinstance(value, (tuple, list)):
        if not value:
            return type(value)([(Fraction(0), 1)])
        return type(value)([wrong(value[0]), *value[1:]])
    raise TypeError(f"no wrong answer for {value!r}")


def first_of_each_kind(workload):
    seen = {}
    for kind, params in workloads.generate(workload, 3):
        seen.setdefault(kind, params)
    return seen


CASES = [
    (w, kind) for w in workloads.WORKLOADS for kind in workloads.SPEC["workloads"][w]["ops_per_pass"]
]


@pytest.mark.parametrize("workload, kind", CASES)
def test_checker_rejects_wrong_expected_answer(workload, kind):
    params = first_of_each_kind(workload)[kind]
    results = workloads.KINDS[workload][kind](params)
    assert workloads.failed_checks(results) == []
    for name, (got, want) in results.items():
        bad = dict(results)
        bad[name] = (got, wrong(want))
        assert workloads.failed_checks(bad) == [name]


def test_cli_probe_commands_repeat_per_seed_and_succeed():
    commands = workloads.cli_commands(7)
    assert commands == workloads.cli_commands(7)
    assert commands != workloads.cli_commands(8)
    assert sum(workloads.SPEC["cli_probe"]["commands_per_family"].values()) == len(commands)
    for argv in commands:
        code, out = workloads.run_cli(argv)
        assert code == 0 and out, argv


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_self_times_fit_in_op_time(workload):
    ops = [op for op in workloads.generate(workload, 1) if op[0] != "enumerate"][:12]
    original = wg.picard.compose
    tracer = Tracer()
    tracer.install()
    try:
        _, failures = worker.run_pass(ops, workloads.KINDS[workload], tracer)
    finally:
        tracer.uninstall()
    assert failures == []
    summary = tracer.summary()
    assert sum(summary[f"{layer}.calls"] for layer in LAYERS) > 0
    self_total = sum(summary[f"{layer}.self_s"] for layer in LAYERS)
    assert 0 < self_total <= summary["trace.op_s"]
    assert wg.compose is original and wg.picard.compose is original
    assert not hasattr(wg.RationalPoly.__init__, "__wrapped__")


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ring-oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_every_workload_and_layer_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    probe = {"cli.interp_start_ms", "cli.import_ms", "cli.build_parser_ms", "cli.run_command_ms"}
    emitted = set(Tracer().summary()) | {"trace.overhead_ratio"} | probe
    assert {m["name"] for m in bench["per_layer"]} == emitted
