"""One benchmark process: set a workload up, then time it or trace it.

run.py starts this file with the checkout's ``src`` on PYTHONPATH:

    python3 perfbench/worker.py --workload W --seed N --mode setup|run|trace
        --seconds S --spawned-at T --out DIR

``--spawned-at`` is the CLOCK_MONOTONIC reading taken just before the spawn,
so set-up time covers interpreter start, ``import weylgraded`` and input
generation.  The last line of stdout is one JSON object.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from time import perf_counter

import workloads
from spans import Tracer

PROBE_REPEATS = 5
# An op's latency is the fastest of at least this many passes, spaced a pass apart.
MIN_PASSES = 3


def run_op(fn, params) -> list[str]:
    """Failed check names of one op; an exception is a failure, not a crash."""
    try:
        return workloads.failed_checks(fn(params))
    except Exception as exc:  # the run must go on and report the op
        return [f"raised {type(exc).__name__}: {exc}"]


def run_pass(ops, fns, tracer: Tracer | None = None):
    """One pass over the op list: each op's latency, and the ops that failed."""
    latencies: list[float] = []
    failures: list[tuple[int, list[str]]] = []
    gc.collect()  # collect earlier work's garbage before the pass, not during it
    for i, (kind, params) in enumerate(ops):
        fn = fns[kind]
        if tracer is None:
            t0 = perf_counter()
            bad = run_op(fn, params)
            dt = perf_counter() - t0
        else:
            tracer.op_id = i
            t0 = perf_counter()
            with tracer.span(f"op:{kind}", "op"):
                bad = run_op(fn, params)
            dt = perf_counter() - t0
        latencies.append(dt)
        if bad:
            failures.append((i, bad))
    return latencies, failures


def _median_ms(samples: list[float]) -> float:
    return statistics.median(samples) * 1e3


def cli_probe(seed: int) -> dict[str, float]:
    """The cli layer: interpreter floor, import, parser and dispatch.

    Start-up and import are timed in fresh processes; parser construction and
    run_command over the seeded command mix in this one, once untraced for the
    latency and once under a tracer of its own for cli calls and self time.
    """
    from weylgraded.cli import build_parser

    starts = []
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        starts.append(perf_counter() - t0)
    imports = []
    code = "import time; t = time.perf_counter(); import weylgraded; print(time.perf_counter() - t)"
    for _ in range(PROBE_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                              capture_output=True, text=True)
        imports.append(float(proc.stdout))
    parsers = []
    for _ in range(10 * PROBE_REPEATS):
        t0 = perf_counter()
        build_parser()
        parsers.append(perf_counter() - t0)
    commands = workloads.cli_commands(seed)
    dispatch = []
    for argv in commands:
        t0 = perf_counter()
        code, _ = workloads.run_cli(argv)
        dispatch.append(perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"cli probe command {argv} exited {code}")
    tracer = Tracer()
    tracer.install()
    try:
        for argv in commands:
            workloads.run_cli(argv)
    finally:
        tracer.uninstall()
    traced = tracer.summary()
    return {
        "cli.calls": traced["cli.calls"],
        "cli.self_s": traced["cli.self_s"],
        "cli.interp_start_ms": _median_ms(starts),
        "cli.import_ms": _median_ms(imports),
        "cli.build_parser_ms": _median_ms(parsers),
        "cli.run_command_ms": _median_ms(dispatch),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    ops, fns = workloads.generate(args.workload, args.seed), workloads.KINDS[args.workload]
    failures: list[tuple[int, list[str]]] = []
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    result: dict = {"setup_s": setup_s, "ops_per_pass": len(ops)}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    if args.mode == "run":
        # Every pass repeats the same ops, so an op's fastest pass is its cost
        # without the interference of other processes on the machine; the
        # first pass also pays every first-call cost, which later passes drop.
        # Passes take turns on the CPUs this process may use: other tenants of
        # a shared machine load one CPU at a time, so each op's fastest pass
        # tends to come from an unloaded one.
        cpus = sorted(os.sched_getaffinity(0))
        best = [float("inf")] * len(ops)
        passes = 0
        t_start = perf_counter()
        while passes < MIN_PASSES or perf_counter() - t_start < args.seconds:
            os.sched_setaffinity(0, {cpus[passes % len(cpus)]})
            lat, bad = run_pass(ops, fns)
            best = [min(b, t) for b, t in zip(best, lat)]
            failures += bad
            passes += 1
        os.sched_setaffinity(0, cpus)
        kind_s: Counter = Counter()
        for (kind, _), t in zip(ops, best):
            kind_s[kind] += t
        deciles = statistics.quantiles(best, n=10, method="inclusive")
        result.update({
            "passes": passes,
            "attempted": passes * len(ops),
            "ops_per_s": len(ops) / sum(best),
            "op_p50_ms": statistics.median(best) * 1e3,
            "op_p90_ms": deciles[8] * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "kind_share": {k: v / sum(best) for k, v in sorted(kind_s.items())},
        })
    else:
        run_pass(ops, fns)  # first calls warm up; the pass below is compared
        lat, bad = run_pass(ops, fns)
        failures += bad
        untraced = len(lat) / sum(lat)
        tracer = Tracer()
        tracer.install()
        try:
            lat, bad = run_pass(ops, fns, tracer)
        finally:
            tracer.uninstall()
        failures += bad
        layers = tracer.summary()
        layers["trace.overhead_ratio"] = (len(lat) / sum(lat)) / untraced
        layers.update(cli_probe(args.seed))
        tracer.write(args.out / f"spans-{args.workload}.txt.gz")
        result.update({"attempted": 2 * len(ops), "layers": layers})  # checked passes

    result["failures"] = [
        {"op": i, "kind": ops[i][0], "checks": checks, "inputs": workloads.to_jsonable(ops[i][1])}
        for i, checks in failures
    ]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
