"""The four workloads, as fixed operation lists over the package's API.

Building a workload parses its ideals and computes whatever its
operations read; that is the set-up the benchmark times.  A pass then
runs every task in order.  A task is a generator of operations, so a
later operation can use an earlier one's result; only the operations
themselves are timed, and each has a check that runs after the pass.

``api`` is a namespace holding the package functions the benchmark
calls, so that a traced run can swap in wrapped versions.
"""

from __future__ import annotations

import hashlib
import heapq
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple

import inputs
import oracle
import reference
from oracle import Frame

GOLDEN = Path(__file__).resolve().parent / "golden"

# (ideal, field, calls per pass).  The three rank-bound ideals take
# seconds and run once; the others take well under a second and run
# REPEATS times, so that the per-operation percentiles of a run rest on
# several samples of them and not on one snapshot of a noisy machine.
REPEATS = 10
LARGE_QQ = [
    ("star_cluster", "q", 1),
    ("cycle12", "q", 1),
    ("graph10", "q", 1),
    *((name, "q", REPEATS) for name in (
        "cycle10", "three_brooms", "triangle_tail", "four_triangles", "path3", "rp2_6",
    )),
]
LARGE_GF = [
    ("star_cluster", "p:32003", 1),
    ("three_brooms", "p:32003", REPEATS),
    ("triangle_tail", "p:32003", REPEATS),
    ("rp2_6", "p:2", REPEATS),
    ("rp2_6", "p:3", REPEATS),
    ("rp2_6", "p:32003", REPEATS),
]

WOC_IDEALS = ("star_cluster", "cycle12", "three_brooms", "triangle_tail")
WITNESS_IDEALS = ("cycle12", "cycle10", "three_brooms")
FAMILY_IDEALS = ("stars16", "three_brooms", "cycle12", "star_cluster")
PARTITION_IDEAL = "three_brooms"
SPLIT_COVERS = 50


class Op(NamedTuple):
    label: str  # names one operation; repeated calls of it share the label
    fn: Callable[[], Any]
    check: Callable[[Any], str | None]


Task = Callable[[], Iterator[Op]]


def cli_argv(name: str, field: str) -> list[str]:
    gens = ", ".join(inputs.FIXED[name])
    return ["betti", "--format", "json", "--field", field, "--gens", gens]


def golden_path(name: str, field: str) -> Path:
    return GOLDEN / "cli" / f"{name}.{field.replace(':', '')}.json"


def golden_table(frame: Frame, text: str) -> dict[tuple[int, int], int]:
    """The multigraded table of a pinned ``betti --format json`` output."""
    data = json.loads(text)
    return {(e["i"], frame.mask(e["monomial"])): e["rank"] for e in data["multigraded"]}


def sha(items) -> str:
    blob = json.dumps(items, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


class Case:
    """One ideal: the package's parsed form beside the oracle's frame."""

    def __init__(self, api, name: str, gens: tuple[str, ...]):
        self.name = name
        self.frame = Frame(gens)
        self.ideal = api.parse_ideal_text("\n".join(gens))
        self.to_frame = self.frame.translator(self.ideal.vars.names)
        self.gen = [self.to_frame(g.mask) for g in self.ideal.gens]

    def table(self, table) -> dict[tuple[int, int], int]:
        return {(i, self.to_frame(m.mask)): r for (i, m), r in table.multigraded.items()}

    def seq(self, indices) -> list[int]:
        return [self.gen[k] for k in indices]

    def label(self, m) -> str:
        return self.frame.label(self.to_frame(m.mask))


# ---------------------------------------------------------------------------
# summaries pinned for the certify workload (shared with make_golden.py)


def summarize_wocs(case: Case, found) -> dict:
    seqs = sorted([case.frame.label(g) for g in case.seq(w.sequence)] for w in found)
    return {"count": len(seqs), "sha256": sha(seqs)}


def summarize_covers(case: Case, covers) -> dict:
    sets = sorted(sorted(case.frame.label(g) for g in case.seq(c.members)) for c in covers)
    return {"count": len(sets), "sha256": sha(sets)}


def summarize_pairs(case: Case, pairs) -> dict:
    items = sorted([case.label(m), case.label(m2)] for m, m2 in pairs)
    return {"count": len(items), "sha256": sha(items)}


def summarize_report(report) -> dict:
    return {
        "t": {str(a): v for a, v in sorted(report.t.items())},
        "violations": [list(v) for v in report.violations],
        "witnessed": sorted(f"{i}={a}+{b}" for (i, a, b), w in report.witnesses.items() if w),
    }


def summarize_families(case: Case, found) -> dict:
    families = sorted(
        sorted(
            [sorted(case.frame.label(case.gen[f]) for f in b.facets), case.frame.label(case.gen[r])]
            for b, r in zip(bset.bouquets, bset.representatives)
        )
        for bset in found
    )
    return {"count": len(families), "sha256": sha(families)}


def summarize_bouquet_cert(cert) -> dict:
    keys = ("b_left", "b_right", "t_left", "t_right", "t_total", "holds")
    return {k: getattr(cert, k) for k in keys}


def frame_families(case: Case, found) -> list[list[list[int]]]:
    return [[case.seq(b.facets) for b in bset.bouquets] for bset in found]


def frame_report(case: Case, report):
    witnesses = {
        key: [(case.to_frame(m.mask), case.to_frame(m2.mask)) for m, m2 in pairs]
        for key, pairs in report.witnesses.items()
    }
    return report.t, report.violations, witnesses


def bouquet_partitions(size: int) -> list[tuple[int, ...]]:
    """Left parts of every two-part partition, the part holding 0 on the left."""
    return [
        tuple(k for k in range(size) if mask >> k & 1)
        for mask in range(1, 1 << size)
        if mask & 1 and mask != (1 << size) - 1
    ]


def first_covers(found) -> list:
    """The covers the split operations cut: the least sequences, not the first found."""
    return heapq.nsmallest(SPLIT_COVERS, found, key=lambda w: w.sequence)


# ---------------------------------------------------------------------------
# large_qq and large_gf: in-process CLI calls checked byte for byte


def run_cli(api, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = api.cli_main(argv)
    text = out.getvalue()
    api.note("cli.stdout_bytes", len(text.encode()))
    return code, text


def _check_cli(golden: str, result: tuple[int, str]) -> str | None:
    code, text = result
    if code != 0:
        return f"exit code {code}"
    if text != golden:
        diffs = (k for k, (x, y) in enumerate(zip(text, golden)) if x != y)
        at = next(diffs, min(len(text), len(golden)))
        return f"stdout differs from the golden output at character {at}"
    return None


def _cli_workload(ops: list[tuple[str, str, int]], api, seed: int, corrupt) -> list[Task]:
    tasks = []
    for k, (ideal, field, calls) in enumerate(ops):
        golden = golden_path(ideal, field).read_text()
        if corrupt == "golden" and k == 0:
            golden += " "
        op = Op(
            f"betti/{ideal}/{field}",
            partial(run_cli, api, cli_argv(ideal, field)),
            partial(_check_cli, golden),
        )
        tasks += [partial(iter, (op,))] * calls
        if calls > 1:
            # The first calls in a process run slower while lazy imports and
            # caches fill; make them here, in set-up, so that they do not land
            # on whichever cheap operation the seed puts first.  A failure
            # here shows again when the operation is timed and checked.
            try:
                op.fn()
            except Exception:
                pass
    random.Random(seed).shuffle(tasks)
    return tasks


def large_qq(api, seed: int, corrupt: str | None = None) -> list[Task]:
    return _cli_workload(LARGE_QQ, api, seed, corrupt)


def large_gf(api, seed: int, corrupt: str | None = None) -> list[Task]:
    return _cli_workload(LARGE_GF, api, seed, corrupt)


# ---------------------------------------------------------------------------
# many_small: seeded random ideals through four library calls each


def _small_ops(api, case: Case, delta, corrupt: str | None) -> Iterator[Op]:
    state: dict[str, Any] = {}

    def table():
        state["table"] = api.betti_table(case.ideal)
        return state["table"]

    def frame_table():
        if "frame_table" not in state:
            state["frame_table"] = case.table(state["table"])
        return state["frame_table"]

    def check_report(report):
        return oracle.check_subadditivity(
            case.frame, frame_table(), *frame_report(case, report), exhaustive=True
        )

    def check_wocs(found):
        if not found and oracle.woc_exists(case.frame):
            return "no well ordered cover found, but one exists"
        for w in found:
            seq = case.seq(w.sequence)
            err = oracle.check_woc(case.frame, seq) or oracle.check_woc_beta(frame_table(), seq)
            if err:
                return err
        return None

    yield Op(
        f"betti_table/{case.name}",
        table,
        lambda t: oracle.check_mobius(case.frame, frame_table()),
    )
    yield Op(
        f"verify_subadditivity/{case.name}",
        lambda: api.verify_subadditivity(case.ideal, table=state["table"], with_witnesses=True),
        check_report,
    )
    first_woc = partial(api.find_well_ordered_covers, case.ideal, first_only=True)
    if corrupt == "result":
        first_woc = list
    yield Op(f"find_well_ordered_covers/{case.name}", first_woc, check_wocs)
    yield Op(
        f"contains_strongly_disjoint_set/{case.name}",
        lambda: api.contains_strongly_disjoint_set(delta),
        lambda found: oracle.check_families(case.frame, frame_families(case, found)),
    )


def many_small(api, seed: int, corrupt: str | None = None) -> list[Task]:
    tasks = []
    for k, gens in enumerate(inputs.random_ideals(seed)):
        case = Case(api, f"random{k}", gens)
        if corrupt == "oracle" and k == 0:
            case.frame.gens = case.frame.gens[:-1]
        tasks.append(partial(_small_ops, api, case, api.facet_complex(case.ideal), corrupt))
    return tasks


# ---------------------------------------------------------------------------
# certify: certificate searches over tables built in set-up


class Pins:
    """Pinned result summaries, keyed by operation label.

    With record set, pin() stores each summary instead of checking it;
    make_golden.py records the pins this way.
    """

    def __init__(self, data: dict, record: bool = False):
        self.data = data
        self.record = record

    @classmethod
    def load(cls) -> "Pins":
        return cls(json.loads((GOLDEN / "certify.json").read_text()))

    def pin(self, label: str, summary: dict) -> str | None:
        if self.record:
            self.data[label] = summary
            return None
        if self.data.get(label) != summary:
            return f"summary {summary} != pinned {self.data.get(label)}"
        return None


def _check_split(case: Case, seq: list[int], a: int, cert) -> str | None:
    if not (cert.complement_ok and cert.suffix_woc_ok):
        return "split certificate flags a failed check"
    frame = case.frame
    m = m2 = 0
    for g in seq[:a]:
        m |= g
    for g in seq[a:]:
        m2 |= g
    if (case.to_frame(cert.m.mask), case.to_frame(cert.m2.mask)) != (m, m2):
        return "split halves are not the prefix and suffix lcms"
    if not frame.is_complement(m, m2):
        return "split halves are not lattice complements"
    sub = Frame([frame.label(g) for g in frame.gens if g & ~m2 == 0])
    return oracle.check_woc(sub, [sub.mask(frame.label(g).split()) for g in seq[a:]])


def _woc_ops(api, case: Case, golden: Pins, table: dict) -> Iterator[Op]:
    found: list = []

    def search():
        found.extend(api.find_well_ordered_covers(case.ideal))
        return found

    def check(result):
        err = golden.pin(f"woc/{case.name}", summarize_wocs(case, result))
        for w in result:
            err = err or oracle.check_woc_beta(table, case.seq(w.sequence))
        for w in first_covers(result):
            err = err or oracle.check_woc(case.frame, case.seq(w.sequence))
        return err

    yield Op(f"woc/{case.name}", search, check)
    for k, w in enumerate(first_covers(found)):
        seq = case.seq(w.sequence)
        for a in range(1, len(seq)):
            yield Op(
                f"split/{case.name}/{k}/{a}",
                partial(api.split_certificate, case.ideal, w, a),
                partial(_check_split, case, seq, a),
            )


def _cover_ops(api, case: Case, golden: Pins) -> Iterator[Op]:
    def check(covers):
        for c in covers:
            err = oracle.check_minimal_cover(case.frame, case.seq(c.members))
            if err:
                return err
        return golden.pin(f"mincov/{case.name}", summarize_covers(case, covers))

    yield Op(f"mincov/{case.name}", partial(api.enumerate_minimal_covers, case.ideal), check)


def _witness_ops(api, case: Case, golden: Pins, table, frame_table: dict) -> Iterator[Op]:
    pd = table.pd
    for a in range(1, pd):
        for b in range(a, pd):
            if a + b > pd:
                continue
            label = f"witness/{case.name}/{a + b}={a}+{b}"

            def check(pairs, a=a, b=b, label=label):
                framed = [(case.to_frame(m.mask), case.to_frame(m2.mask)) for m, m2 in pairs]
                return oracle.check_witness_pairs(
                    case.frame, frame_table, a, b, framed, exhaustive=False
                ) or golden.pin(label, summarize_pairs(case, pairs))

            search = partial(
                api.search_complement_witnesses, case.ideal, a + b, a, b, all_pairs=True, table=table
            )
            yield Op(label, search, check)

    def check_report(report):
        return oracle.check_subadditivity(
            case.frame, frame_table, *frame_report(case, report), exhaustive=False
        ) or golden.pin(f"subadd/{case.name}", summarize_report(report))

    yield Op(
        f"subadd/{case.name}",
        partial(api.verify_subadditivity, case.ideal, table=table, with_witnesses=True),
        check_report,
    )


def _family_ops(api, case: Case, delta, golden: Pins, table=None) -> Iterator[Op]:
    found: list = []

    def search():
        found.extend(api.contains_strongly_disjoint_set(delta))
        return found

    def check(result):
        return oracle.check_families(case.frame, frame_families(case, result)) or golden.pin(
            f"sdset/{case.name}", summarize_families(case, result)
        )

    yield Op(f"sdset/{case.name}", search, check)
    if table is None:
        return
    for k, bset in enumerate(found):
        for left in bouquet_partitions(len(bset.bouquets)):
            label = f"bsub/{case.name}/{k}/{','.join(map(str, left))}"

            def check_cert(cert, label=label):
                m, m2 = case.to_frame(cert.m_left.mask), case.to_frame(cert.m_right.mask)
                if not (cert.holds and case.frame.is_complement(m, m2)):
                    return "bouquet partition certificate does not hold"
                return golden.pin(label, summarize_bouquet_cert(cert))

            yield Op(label, partial(api.bouquet_subadditivity, bset, left, table=table), check_cert)


def certify_cases(api) -> dict[str, Case]:
    names = set(WOC_IDEALS) | set(WITNESS_IDEALS) | set(FAMILY_IDEALS)
    return {n: Case(api, n, inputs.FIXED[n]) for n in sorted(names)}


def certify(api, seed: int, corrupt: str | None = None, golden: Pins | None = None) -> list[Task]:
    cases = certify_cases(api)
    golden = golden or Pins.load()
    frame_tables = {
        n: golden_table(cases[n].frame, golden_path(n, "q").read_text())
        for n in set(WOC_IDEALS) | set(WITNESS_IDEALS)
    }
    if corrupt == "golden":
        golden.data["woc/triangle_tail"]["count"] += 1
    elif corrupt == "oracle":
        frame_tables["triangle_tail"] = {}
    tables = {n: api.betti_table(cases[n].ideal) for n in WITNESS_IDEALS}
    deltas = {n: api.facet_complex(cases[n].ideal) for n in FAMILY_IDEALS}

    tasks = []
    for n in WOC_IDEALS:
        tasks.append(partial(_woc_ops, api, cases[n], golden, frame_tables[n]))
        tasks.append(partial(_cover_ops, api, cases[n], golden))
    for n in WITNESS_IDEALS:
        tasks.append(partial(_witness_ops, api, cases[n], golden, tables[n], frame_tables[n]))
    for n in FAMILY_IDEALS:
        table = tables[n] if n == PARTITION_IDEAL else None
        tasks.append(partial(_family_ops, api, cases[n], deltas[n], golden, table))
    random.Random(seed).shuffle(tasks)
    return tasks


WORKLOADS = {
    "large_qq": large_qq,
    "large_gf": large_gf,
    "many_small": many_small,
    "certify": certify,
}

# the reference kernel each workload's times are divided by (reference.py):
# the CLI workloads spend their time in numpy elimination, the others in
# the interpreter
KERNELS = {
    "large_qq": reference.numpy_kernel,
    "large_gf": reference.numpy_kernel,
    "many_small": reference.python_kernel,
    "certify": reference.python_kernel,
}
