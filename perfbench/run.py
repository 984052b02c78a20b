"""weylgraded benchmark: one seeded workload, checked and timed end to end.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ring-oracle --seed 1 --seconds 30 --trace 0

Each run starts fresh worker processes (perfbench/worker.py) with the
checkout's ``src`` on PYTHONPATH, without WEYLGRADED_MAX_WINDOW, and with a
fixed hash seed.  ``--trace 0`` spawns one timed worker between set-up-only
workers and reports the end-to-end metrics, with set-up time the median over
all of them.  ``--trace 1`` spawns one worker that runs the op list untraced,
then traced, and reports the per-layer metrics.  The workload is one client
in a closed loop: each op starts when the previous one has returned, with no
threads.  Human-readable lines come first; the last stdout line is the JSON
result.  The exit code is 0 only when every op's answer was correct.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "spec.json").read_text())["workloads"]
OUT_DIR = ".perfbench_out"
SETUP_BEFORE = 2
SETUP_AFTER = 2
RUN_TIMEOUT_S = 170

E2E_UNITS = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "1"
    return "count"


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


class Spawner:
    """Starts worker processes one at a time, within the run's time budget."""

    def __init__(self, root: Path, args) -> None:
        self.args = args
        self.out = root / OUT_DIR
        self.deadline = time.monotonic() + RUN_TIMEOUT_S
        self.env = {k: v for k, v in os.environ.items() if k != "WEYLGRADED_MAX_WINDOW"}
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["PYTHONHASHSEED"] = "0"

    def python(self, *argv: str) -> subprocess.CompletedProcess:
        """Run a child in its own process group; on timeout kill the whole group."""
        proc = subprocess.Popen(
            [sys.executable, *argv], env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)

    def worker(self, mode: str) -> dict:
        a = self.args
        spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = self.python(
            str(HERE / "worker.py"), "--workload", a.workload, "--seed", str(a.seed),
            "--mode", mode, "--seconds", str(a.seconds), "--spawned-at", repr(spawned_at),
            "--out", str(self.out),
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"{mode} worker exited {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SPEC))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed is None:
        args.seed = SPEC[args.workload]["default_seed"]

    root = Path.cwd()
    if not (root / "src" / "weylgraded" / "__init__.py").is_file():
        return fail(f"no src/weylgraded under {root}; run from the root of a weylgraded checkout")
    (root / OUT_DIR).mkdir(exist_ok=True)
    spawner = Spawner(root, args)
    try:
        warm = spawner.python("-c", "import weylgraded")  # compile bytecode once
        if warm.returncode != 0:
            sys.stderr.write(warm.stderr)
            return fail("import weylgraded failed")
        if args.trace:
            res = spawner.worker("trace")
            metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in res["layers"].items()}
        else:
            # set-up samples before and after the timed worker, so that they
            # span the run rather than one moment of the machine's load
            setups = [spawner.worker("setup")["setup_s"] for _ in range(SETUP_BEFORE)]
            res = spawner.worker("run")
            setups.append(res["setup_s"])
            setups += [spawner.worker("setup")["setup_s"] for _ in range(SETUP_AFTER)]
            res["setup_s"] = statistics.median(setups)
            metrics = {k: {"value": res[k], "unit": u} for k, u in E2E_UNITS.items()}
    except (subprocess.TimeoutExpired, RuntimeError, ValueError, IndexError) as exc:
        return fail(f"{args.workload} seed {args.seed}: {exc}")

    if not args.trace:
        detail = {k: res[k] for k in ("passes", "ops_per_pass", "kind_share")}
        detail["setup_samples"] = setups
        (root / OUT_DIR / f"result-{args.workload}.json").write_text(json.dumps(detail))
    failed = len(res["failures"])
    attempted = res["attempted"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops attempted, {failed} failed")
    if not args.trace:
        print(f"  {'fail_ratio':<12} {failed / attempted:.4g} 1")
        n = res["ops_per_pass"]
        print(f"  {res['passes']} passes of {n} ops; latency samples (each op's fastest "
              f"pass): {n}, {n - int(0.9 * n)} beyond p90; set-up samples: {len(setups)}")
        print("  time share per op kind: " + ", ".join(
            f"{k} {v:.2f}" for k, v in res["kind_share"].items()))
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:.6g} {m['unit']}")
    for f in res["failures"]:
        print(f"FAILED {args.workload} seed {args.seed} op {f['op']} ({f['kind']}): "
              f"{f['checks']} inputs {json.dumps(f['inputs'], sort_keys=True)}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
