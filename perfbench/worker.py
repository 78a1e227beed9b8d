"""One workload in one fresh process; started by run.py.

The worker imports the package from the checkout's ``src``, builds the
workload (the timed set-up), runs whole passes until the next one would
overrun ``--seconds``, checks every output after each pass, and prints
one JSON line.  With ``--setup-only`` it stops after the set-up.  With
``--trace 1`` it alternates untraced and traced passes, at least one of
each, and reports per-layer metrics instead of end-to-end ones.
Every operation is also timed in refs (reference.py), and the
end-to-end timings are given in refs.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracing
import workloads
from reference import RefClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def import_package():
    """Import sqfbetti from this checkout's src, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import sqfbetti
    import sqfbetti.cli

    if not Path(sqfbetti.__file__).resolve().is_relative_to(src):
        raise ImportError(f"sqfbetti came from {sqfbetti.__file__}, not {src}")
    return sqfbetti


def make_api(pkg) -> SimpleNamespace:
    return SimpleNamespace(
        cli_main=pkg.cli.main,
        parse_ideal_text=pkg.parse_ideal_text,
        facet_complex=pkg.facet_complex,
        betti_table=pkg.betti_table,
        verify_subadditivity=pkg.verify_subadditivity,
        search_complement_witnesses=pkg.search_complement_witnesses,
        find_well_ordered_covers=pkg.find_well_ordered_covers,
        enumerate_minimal_covers=pkg.enumerate_minimal_covers,
        split_certificate=pkg.split_certificate,
        contains_strongly_disjoint_set=pkg.contains_strongly_disjoint_set,
        bouquet_subadditivity=pkg.bouquet_subadditivity,
        note=lambda key, amount: None,
    )


def run_pass(tasks, clock, tracer=None):
    """Run every operation once; only the operations are timed, in refs."""
    done = []
    start = perf_counter()
    for task in tasks:
        for op in task():
            if tracer is not None:
                tracer.op += 1
            t0 = perf_counter()
            try:
                out, err = op.fn(), None
            except Exception as e:  # a failed operation is counted, not fatal
                out, err = None, f"{type(e).__name__}: {e}"
            done.append((op, clock.measure(t0, perf_counter()), out, err))
    return perf_counter() - start, done


def check_pass(done, failures: list) -> None:
    for op, _, out, err in done:
        if err is None:
            err = op.check(out)
        if err is not None:
            failures.append(f"{op.label}: {err}")


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile by nearest rank.

    Interpolating would mix a workload's few large operations with its
    many small ones whenever the rank falls between them.
    """
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--corrupt", choices=("golden", "oracle", "result"))
    args = ap.parse_args()

    pkg = import_package()
    api = make_api(pkg)
    tasks = workloads.WORKLOADS[args.workload](api, args.seed, args.corrupt)
    setup_s = perf_counter() - args.spawned_at
    # the workload's own long-lived objects are not the program's; keep
    # them out of the collector's way
    gc.freeze()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        modules = {name: sys.modules[name] for name in sys.modules if name.startswith("sqfbetti")}
    walls: dict[bool, list[float]] = {False: [], True: []}
    pass_refs: dict[bool, list[float]] = {False: [], True: []}
    # every untraced call of each operation, in refs
    op_refs: dict[str, list[float]] = {}
    clock = RefClock(workloads.KERNELS[args.workload])
    failures: list[str] = []
    attempted = 0
    start = perf_counter()
    clock.start()
    try:
        while True:
            traced = tracer is not None and len(walls[False]) > len(walls[True])
            if traced:
                tracer.keep = not walls[True]
                tracer.install(api, modules)
            wall, done = run_pass(tasks, clock, tracer if traced else None)
            if traced:
                tracer.uninstall()
            walls[traced].append(wall)
            pass_refs[traced].append(sum(refs for _, refs, _, _ in done))
            if not traced:
                for op, refs, _, _ in done:
                    op_refs.setdefault(op.label, []).append(refs)
            attempted += len(done)
            check_pass(done, failures)
            del done
            gc.collect()
            elapsed = perf_counter() - start
            owed = tracer is not None and not walls[True]
            if not owed and elapsed + max(walls[False] + walls[True]) > args.seconds:
                break
    finally:
        clock.stop()

    for line in failures[:20]:
        print(f"failed: {line}", file=sys.stderr)
    result = {
        "workload": args.workload,
        "attempted": attempted,
        "failed": len(failures),
        "setup_s": setup_s,
        "passes": len(walls[False]),
    }
    if tracer is None:
        per_op = [statistics.median(refs) for refs in op_refs.values()]
        result["wall_s"] = statistics.median(walls[False])
        result["metrics"] = {
            "pass_ref": {"value": statistics.median(pass_refs[False]), "unit": "ref"},
            "op_p50_ref": {"value": percentile(per_op, 50), "unit": "ref"},
            "op_p90_ref": {"value": percentile(per_op, 90), "unit": "ref"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
        result["op_samples"] = len(per_op)
    else:
        result["metrics"] = tracing.layer_metrics(tracer, walls, pass_refs)
        result["traced_passes"] = len(walls[True])
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans_{args.workload}_seed{args.seed}.jsonl"
        tracer.write_spans(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
