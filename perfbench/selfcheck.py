"""Prove that the benchmark's checks fire.

    python3 perfbench/selfcheck.py

Runs short workloads with a corrupted golden output, a corrupted
oracle input or a corrupted program result (every first-only cover
search answering "none") and requires failed operations in each, then
runs the same workloads clean and requires none.  Exits 1 if any check
stayed silent or a clean run failed.
"""

from __future__ import annotations

import sys

from run import BenchError, run_workload

CASES = [
    ("large_gf", "golden"),
    ("certify", "golden"),
    ("certify", "oracle"),
    ("many_small", "oracle"),
    ("many_small", "result"),
    ("large_gf", None),
    ("certify", None),
    ("many_small", None),
]


def main() -> int:
    bad = 0
    for name, corrupt in CASES:
        try:
            out = run_workload(name, seed=1, seconds=1, trace=0, corrupt=corrupt)
        except BenchError as e:
            print(f"{name} ({corrupt or 'clean'}): {e}")
            bad += 1
            continue
        fired = out["failed"] > 0
        ok = fired if corrupt else not fired
        bad += not ok
        verdict = "ok" if ok else "WRONG"
        print(
            f"{verdict}: {name} with {corrupt or 'nothing'} corrupted: "
            f"{out['failed']} of {out['attempted']} operations failed"
        )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
