"""Produce and cross-check the benchmark's golden outputs.

    python3 perfbench/make_golden.py          # write perfbench/golden/
    python3 perfbench/make_golden.py --check  # compare with what is pinned

Before anything is pinned, every table passes the Moebius check of
oracle.py, RP^2_6 has totals (1,10,15,6) over QQ, GF(3) and GF(32003)
and (1,10,15,7,1) over GF(2), triangle_tail has (1,6,10,7,2), and QQ
and GF(32003) give the same multigraded table on every fixed ideal.
The certify summaries are recorded from one pass whose oracle checks
all pass.
"""

from __future__ import annotations

import argparse
import json
import sys

import inputs
import oracle
import workloads
from reference import RefClock, python_kernel
from worker import check_pass, import_package, make_api, run_pass

EXPECTED_TOTALS = {
    ("rp2_6", "q"): [1, 10, 15, 6],
    ("rp2_6", "p:3"): [1, 10, 15, 6],
    ("rp2_6", "p:32003"): [1, 10, 15, 6],
    ("rp2_6", "p:2"): [1, 10, 15, 7, 1],
    ("triangle_tail", "q"): [1, 6, 10, 7, 2],
}


def cli_outputs(api) -> dict[tuple[str, str], str]:
    """Every pinned CLI output, plus GF(32003) for the QQ-only ideals."""
    pinned = [(n, f) for n, f, _ in workloads.LARGE_QQ + workloads.LARGE_GF]
    wanted = list(dict.fromkeys(pinned + [(n, "p:32003") for n, _, _ in workloads.LARGE_QQ]))
    outputs = {}
    for name, field in wanted:
        code, text = workloads.run_cli(api, workloads.cli_argv(name, field))
        if code != 0:
            raise SystemExit(f"{name} over {field}: exit code {code}")
        outputs[(name, field)] = text
        print(f"computed {name} over {field}", file=sys.stderr)
    return outputs


def cross_check(outputs: dict[tuple[str, str], str]) -> list[str]:
    problems = []
    tables = {}
    for (name, field), text in outputs.items():
        frame = oracle.Frame(inputs.FIXED[name])
        tables[(name, field)] = workloads.golden_table(frame, text)
        err = oracle.check_mobius(frame, tables[(name, field)])
        if err:
            problems.append(f"{name} over {field}: {err}")
    for key, totals in EXPECTED_TOTALS.items():
        got = json.loads(outputs[key])["totals"]
        if got != totals:
            problems.append(f"{key[0]} over {key[1]}: totals {got} != {totals}")
    for name, _, _ in workloads.LARGE_QQ:
        if tables[(name, "q")] != tables[(name, "p:32003")]:
            problems.append(f"{name}: QQ and GF(32003) tables differ")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true", help="compare instead of writing")
    args = ap.parse_args()

    api = make_api(import_package())
    outputs = cli_outputs(api)
    problems = cross_check(outputs)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1

    files = {
        workloads.golden_path(name, field): outputs[(name, field)]
        for name, field, _ in workloads.LARGE_QQ + workloads.LARGE_GF
    }
    if not args.check:
        for path, text in files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)

    pins = workloads.Pins({}, record=True)
    failures: list[str] = []
    tasks = workloads.certify(api, inputs.DEFAULT_SEED, golden=pins)
    # run_pass times every operation in refs; the times are not used here
    clock = RefClock(python_kernel)
    clock.start()
    try:
        _, done = run_pass(tasks, clock)
    finally:
        clock.stop()
    check_pass(done, failures)
    if failures:
        print("\n".join(failures[:20]), file=sys.stderr)
        return 1
    pinned_inputs = {
        "seed": inputs.DEFAULT_SEED,
        "sha256": inputs.digest(inputs.random_ideals(inputs.DEFAULT_SEED)),
    }
    certify_text = json.dumps(pins.data, indent=1, sort_keys=True) + "\n"
    files[workloads.GOLDEN / "certify.json"] = certify_text
    files[workloads.GOLDEN / "inputs.json"] = json.dumps(pinned_inputs, indent=1) + "\n"

    if args.check:
        stale = [str(p) for p, text in files.items() if not p.is_file() or p.read_text() != text]
        verdict = "\n".join(f"differs: {p}" for p in stale) or "golden outputs reproduce"
        print(verdict, file=sys.stderr)
        return 1 if stale else 0
    for path in (workloads.GOLDEN / "certify.json", workloads.GOLDEN / "inputs.json"):
        path.write_text(files[path])
    print(f"wrote {len(files)} golden files", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
