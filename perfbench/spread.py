"""Run-to-run spread of the end-to-end metrics, over several seeds.

    python3 perfbench/spread.py [--seeds 1-10]

Runs run.py once per workload and seed, each in its own process, with
the workloads and run length of BENCHMARK.json, and
prints for every metric the median of the runs and the spread: the
distance between the first and third quartile as a share of the
median, with quartiles from statistics.quantiles(values, n=4).  The
raw values go to perfbench/out/spread.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", type=seed_range)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw: dict[str, dict[str, list[float]]] = {}
    worst = 0.0
    for name in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, cwd=ROOT, check=True,
            )
            result = json.loads(proc.stdout.decode().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} operations failed")
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        raw[name] = values
        for metric, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            share = spread / bounds[metric]
            worst = max(worst, share)
            print(f"{name:10s} {metric:12s} median {med:12.6g}  spread {spread:7.4f}  "
                  f"= {share:5.2f} of bound {bounds[metric]}")
    out = HERE / "out" / "spread.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(raw, indent=1))
    print(f"largest spread as a share of its bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
