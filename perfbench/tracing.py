"""Spans around the calls into each layer, for the traced run only.

Tracing wraps public functions by rebinding their names in the module
that calls them (and in the benchmark's own ``api`` namespace), so the
package's source is untouched and the untraced run pays nothing.  A
span records its name, start, end, parent span and operation id; the
spans of one pass are kept in memory and written out when the run ends.
Per-name totals, self times (a span minus its child spans) and counts
are accumulated as spans close.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("core", "lattice", "homology", "betti", "covers", "bouquets", "analysis", "cli")

# (namespace, attribute, span name); "api" is the benchmark's own namespace
PLAN = [
    ("api", "cli_main", "cli.main"),
    ("api", "betti_table", "betti.betti_table"),
    ("api", "verify_subadditivity", "analysis.verify_subadditivity"),
    ("api", "search_complement_witnesses", "analysis.search_complement_witnesses"),
    ("api", "find_well_ordered_covers", "covers.find_well_ordered_covers"),
    ("api", "enumerate_minimal_covers", "covers.enumerate_minimal_covers"),
    ("api", "split_certificate", "covers.split_certificate"),
    ("api", "contains_strongly_disjoint_set", "bouquets.contains_strongly_disjoint_set"),
    ("api", "bouquet_subadditivity", "bouquets.bouquet_subadditivity"),
    ("sqfbetti.cli", "parse_ideal_text", "core.parse_ideal_text"),
    ("sqfbetti.cli", "betti_table", "betti.betti_table"),
    ("sqfbetti.cli", "format_betti_json", "betti.format_betti_json"),
    ("sqfbetti.betti", "build_lattice", "lattice.build_lattice"),
    ("sqfbetti.betti", "taylor_faces_below", "homology.taylor_faces_below"),
    ("sqfbetti.betti", "reduced_homology_ranks", "homology.reduced_homology_ranks"),
    ("sqfbetti.homology", "faces_by_dimension", "homology.faces_by_dimension"),
    ("sqfbetti.homology", "boundary_matrix", "homology.boundary_matrix"),
    ("sqfbetti.homology", "matrix_rank", "homology.matrix_rank"),
    ("sqfbetti.analysis", "betti_table", "betti.betti_table"),
    ("sqfbetti.analysis", "build_lattice", "lattice.build_lattice"),
    ("sqfbetti.analysis", "search_complement_witnesses", "analysis.search_complement_witnesses"),
    ("sqfbetti.analysis", "is_lattice_complement", "lattice.is_lattice_complement"),
    ("sqfbetti.covers", "enumerate_minimal_covers", "covers.enumerate_minimal_covers"),
    ("sqfbetti.covers", "is_well_ordered_cover", "covers.is_well_ordered_cover"),
    ("sqfbetti.covers", "induced_subideal", "core.induced_subideal"),
    ("sqfbetti.bouquets", "is_bouquet", "bouquets.is_bouquet"),
    ("sqfbetti.bouquets", "outside_condition", "bouquets.outside_condition"),
    ("sqfbetti.bouquets", "facet_ideal", "core.facet_ideal"),
    ("sqfbetti.bouquets", "multigraded_betti", "betti.multigraded_betti"),
    ("sqfbetti.bouquets", "betti_table", "betti.betti_table"),
]


def _count_faces(c: Counter, peak: dict, faces) -> None:
    c["homology.faces"] += len(faces)
    peak["homology.faces_max"] = max(peak.get("homology.faces_max", 0), len(faces))


def _count_matrix(c: Counter, peak: dict, M) -> None:
    c["homology.matrix_cells"] += M.size
    c["homology.matrix_nnz"] += int(np.count_nonzero(M))


def _count_ranks(c: Counter, peak: dict, ranks) -> None:
    c["betti.nonzero_multidegrees"] += any(ranks.homology_ranks.values())


# what each span's result adds to the counters; run outside every span
COUNTERS = {
    "homology.taylor_faces_below": _count_faces,
    "homology.boundary_matrix": _count_matrix,
    "homology.reduced_homology_ranks": _count_ranks,
    "lattice.build_lattice": lambda c, p, lat: c.update({"lattice.elements": len(lat)}),
    "covers.find_well_ordered_covers": lambda c, p, r: c.update({"covers.woc_found": len(r)}),
    "analysis.search_complement_witnesses": (
        lambda c, p, r: c.update({"analysis.witness_pairs": len(r)})
    ),
    "bouquets.contains_strongly_disjoint_set": (
        lambda c, p, r: c.update({"bouquets.families": len(r)})
    ),
}


class Tracer:
    """Spans and per-name totals of the traced passes of one run."""

    def __init__(self):
        self.stack: list[list] = []  # [span id, time covered by children]
        self.next_id = 0
        self.op = -1
        self.keep = False
        self.spans: list[tuple] = []
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.peak: dict[str, int] = {}
        self._saved: list[tuple] = []

    def note(self, key: str, amount: int) -> None:
        self.counts[key] += amount

    def wrap(self, name: str, fn):
        stack = self.stack
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = self.next_id
            self.next_id += 1
            parent = stack[-1] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                self.total[name] += took
                self.self_time[name] += took - frame[1]
                self.calls[name] += 1
                if self.keep:
                    self.spans.append((name, start, end, parent[0] if parent else None, self.op))
                if parent is not None:
                    parent[1] += took
            if count is not None:
                count(self.counts, self.peak, result)
                if parent is not None:
                    # keep the counting out of the parent's self time
                    parent[1] += perf_counter() - end
            return result

        return traced

    def install(self, api, modules: dict) -> None:
        """Rebind every name in PLAN to a traced wrapper."""
        for where, attr, name in PLAN:
            target = api if where == "api" else modules[where]
            if not hasattr(target, attr):
                print(f"trace: {where}.{attr} not found, not traced", file=sys.stderr)
                continue
            original = getattr(target, attr)
            self._saved.append((target, attr, original))
            setattr(target, attr, self.wrap(name, original))
        self._saved.append((api, "note", api.note))
        api.note = self.note

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def layer_metrics(tracer: Tracer, walls: dict, pass_refs: dict) -> dict:
    """Per-pass layer metrics: values are totals over traced passes / passes.

    ``walls`` and ``pass_refs`` hold the passes' seconds and refs, keyed
    by whether the pass was traced.
    """
    traced_walls, untraced_walls = walls[True], walls[False]
    n = len(traced_walls)
    traced_s = sum(traced_walls)
    pass_s = statistics.median(traced_walls)
    t, s, calls, c = tracer.total, tracer.self_time, tracer.calls, tracer.counts

    def per(v):
        return v / n

    m = {
        "homology.rank_s": (per(t["homology.matrix_rank"]), "s"),
        "homology.rank_calls": (per(calls["homology.matrix_rank"]), "count"),
        "homology.faces_s": (per(t["homology.taylor_faces_below"]), "s"),
        "homology.group_s": (per(t["homology.faces_by_dimension"]), "s"),
        "homology.boundary_s": (per(t["homology.boundary_matrix"]), "s"),
        "homology.homology_self_s": (per(s["homology.reduced_homology_ranks"]), "s"),
        "homology.complexes": (per(calls["homology.taylor_faces_below"]), "count"),
        "homology.faces": (per(c["homology.faces"]), "count"),
        "homology.faces_max": (tracer.peak.get("homology.faces_max", 0), "count"),
        "homology.matrices": (per(calls["homology.boundary_matrix"]), "count"),
        "homology.matrix_cells": (per(c["homology.matrix_cells"]), "count"),
        "homology.matrix_nnz": (per(c["homology.matrix_nnz"]), "count"),
        "lattice.build_s": (per(t["lattice.build_lattice"]), "s"),
        "lattice.builds": (per(calls["lattice.build_lattice"]), "count"),
        "lattice.elements": (per(c["lattice.elements"]), "count"),
        "betti.table_self_s": (per(s["betti.betti_table"]), "s"),
        "betti.tables": (per(calls["betti.betti_table"]), "count"),
        "betti.multidegrees": (per(calls["homology.reduced_homology_ranks"]), "count"),
        "betti.nonzero_share": (
            c["betti.nonzero_multidegrees"] / calls["homology.reduced_homology_ranks"]
            if calls["homology.reduced_homology_ranks"] else 0.0,
            "share",
        ),
        "betti.multigraded_calls": (per(calls["betti.multigraded_betti"]), "count"),
        "covers.woc_search_s": (per(t["covers.find_well_ordered_covers"]), "s"),
        "covers.min_covers_s": (per(t["covers.enumerate_minimal_covers"]), "s"),
        "covers.decision_s": (per(t["covers.is_well_ordered_cover"]), "s"),
        "covers.decisions": (per(calls["covers.is_well_ordered_cover"]), "count"),
        "covers.woc_found": (per(c["covers.woc_found"]), "count"),
        "covers.split_s": (per(t["covers.split_certificate"]), "s"),
        "analysis.witness_s": (per(t["analysis.search_complement_witnesses"]), "s"),
        "analysis.witness_pairs": (per(c["analysis.witness_pairs"]), "count"),
        "analysis.subadd_self_s": (per(s["analysis.verify_subadditivity"]), "s"),
        "bouquets.search_s": (per(t["bouquets.contains_strongly_disjoint_set"]), "s"),
        "bouquets.families": (per(c["bouquets.families"]), "count"),
        "bouquets.subadd_s": (per(t["bouquets.bouquet_subadditivity"]), "s"),
        "cli.self_s": (per(s["cli.main"]), "s"),
        "cli.stdout_bytes": (per(c["cli.stdout_bytes"]), "bytes"),
        "core.parse_s": (per(t["core.parse_ideal_text"]), "s"),
    }
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, v in s.items():
        layer_self[name.split(".", 1)[0]] += v
    for layer in LAYERS:
        m[f"{layer}.share"] = (layer_self[layer] / traced_s, "share")
    m["homology.rank_share"] = (t["homology.matrix_rank"] / traced_s, "share")
    m["trace.attributed_share"] = (sum(layer_self.values()) / traced_s, "share")
    m["trace.pass_s"] = (pass_s, "s")
    m["trace.untraced_pass_s"] = (statistics.median(untraced_walls), "s")
    m["trace.overhead_ref"] = (
        statistics.median(pass_refs[True]) - statistics.median(pass_refs[False]),
        "ref",
    )
    m["trace.spans"] = (per(sum(calls.values())), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
