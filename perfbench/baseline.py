"""Measure the benchmark's baseline and its run-to-run spread.

Run from the repository root:

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For each workload this makes one untraced run per seed, then one traced run
with the workload's default seed, and writes per metric the median, the
quartiles and their distance as a share of the median, with the sample
counts, op-kind time shares and the machine the numbers were taken on.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((Path.cwd() / ".perfbench_out" / f"result-{workload}.json").read_text())
    return result, detail


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / median,
            "values": values}


def machine() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "git_commit": commit}


def main() -> None:
    bench = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    spec = json.loads((HERE / "spec.json").read_text())["workloads"]
    seconds = bench["run_seconds"]
    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    for workload in args.workloads:
        metrics: dict[str, list[float]] = {}
        runs = []
        for seed in args.seeds:
            result, detail = run(workload, seed, seconds, 0)
            for name, m in result["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
            runs.append({"seed": seed, "passes": detail["passes"],
                         "latency_samples": detail["ops_per_pass"],
                         "setup_samples": detail["setup_samples"],
                         "kind_share": detail["kind_share"]})
            print(workload, seed, {k: round(v[-1], 4) for k, v in metrics.items()}, flush=True)
        default_seed = spec[workload]["default_seed"]
        traced, _ = run(workload, default_seed, seconds, 1)
        out[workload] = {
            "machine": machine(),
            "run_seconds": seconds,
            "end_to_end": {name: spread(v) for name, v in metrics.items()},
            "runs": runs,
            "per_layer": {"seed": default_seed,
                          **{k: m["value"] for k, m in traced["metrics"].items()}},
        }
        args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
