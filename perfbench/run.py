"""Benchmark of sqfbetti: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is large_qq, large_gf, many_small or certify, or ``all`` to run
every workload in turn and print a table of them.  Each workload runs
in a fresh, single-threaded worker process (worker.py) that imports the
package from this checkout's ``src``.  Set-up is timed from the moment
a worker is started to its first timed operation; it is sampled in
extra set-up-only workers and the median is reported.  The last line
printed is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``).  A human-readable report goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import inputs
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

# set-up samples: at most this many set-up-only workers, and no new one
# once they have taken this long (the certify set-up computes tables)
SETUP_SAMPLES = 5
SETUP_BUDGET_S = 4.0
# a workload must finish well inside three minutes, set-up included
DEADLINE_S = 170
SINGLE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


class BenchError(Exception):
    pass


def spawn(args: list[str], timeout: float) -> dict:
    """Run one worker to completion and return its JSON line."""
    env = {**os.environ, **SINGLE_THREAD}
    started = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args, "--spawned-at", repr(started)],
        stdout=subprocess.PIPE,
        env=env,
        timeout=timeout,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, corrupt=None) -> dict:
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if corrupt:
        common += ["--corrupt", corrupt]
    setups = []
    begun = perf_counter()
    deadline = begun + DEADLINE_S
    while not trace and len(setups) < SETUP_SAMPLES and perf_counter() - begun < SETUP_BUDGET_S:
        setups.append(spawn([*common, "--setup-only"], deadline - perf_counter())["setup_s"])
    out = spawn([*common, "--trace", str(trace)], deadline - perf_counter())
    setups.append(out["setup_s"])
    metrics = out["metrics"]
    if not trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    out["setup_samples"] = len(setups)
    return out


def check_inputs() -> None:
    """Fail loudly if the random-ideal generator no longer draws the pinned inputs."""
    pinned = json.loads((workloads.GOLDEN / "inputs.json").read_text())
    drawn = inputs.digest(inputs.random_ideals(pinned["seed"]))
    if drawn != pinned["sha256"]:
        raise BenchError(f"random inputs for seed {pinned['seed']} drifted: {drawn}")


def samples_of(out: dict, metric: str):
    if metric == "setup_s":
        return out["setup_samples"]
    if metric.startswith("op_"):
        return out["op_samples"]
    if metric == "peak_rss_mb":
        return 1
    return out.get("traced_passes", out["passes"])


def report(out: dict, stream) -> None:
    rate = out["failed"] / out["attempted"]
    print(
        f"{out['workload']}: {out['attempted']} operations, {out['failed']} failed "
        f"(error_rate {rate:g}), {out['passes']} untraced passes",
        file=stream,
    )
    if "wall_s" in out:
        print(f"  median pass in seconds: {out['wall_s']:.6g} s", file=stream)
    for metric, m in out["metrics"].items():
        print(
            f"  {metric:32s} {m['value']:14.6g} {m['unit']:6s} n={samples_of(out, metric)}",
            file=stream,
        )


def result_line(out: dict) -> dict:
    return {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": out["metrics"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "sqfbetti" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'sqfbetti'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if "many_small" in names:
            check_inputs()
        results = {}
        for name in names:
            out = run_workload(name, args.seed, args.seconds, args.trace)
            report(out, sys.stdout if args.workload == "all" else sys.stderr)
            results[name] = result_line(out)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
