"""Pinned bouquet family searches on the benchmark's seed-1 random ideals.

tests/bouquets_search_golden.json holds the sha256 of every
``contains_strongly_disjoint_set`` result on the facet complex of each
ideal of ``perfbench/inputs.random_ideals(1)``: of the full search and of
the ``first_only`` search.  A digest covers each family in the order
returned: its bouquets' facets, root, free vertex witnesses and vertex
mask, its representatives and its two containment flags.  So it pins
the families, their order and every field of them.

Check the pins (exit 1 on a difference), or write them anew:

    PYTHONPATH=src python tests/bouquets_search_golden.py
    PYTHONPATH=src python tests/bouquets_search_golden.py --write

It needs only the package and ``perfbench/inputs.py``, which it reads
without importing the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import sys

from betti_golden import ROOT, differences, load_inputs
from sqfbetti import contains_strongly_disjoint_set, facet_complex, parse_ideal_text

GOLDEN = ROOT / "tests" / "bouquets_search_golden.json"
SEED = 1
MODES = {"all": False, "first_only": True}


def families_digest(found) -> str:
    """sha256 of the families in order, every field of each bouquet."""
    blob = json.dumps(
        [
            [
                [
                    [
                        list(b.facets),
                        b.root.mask,
                        list(b.free_vertex_witness),
                        b.vertex_mask,
                    ]
                    for b in bset.bouquets
                ],
                list(bset.representatives),
                bset.spans_delta,
                bset.outside_condition_ok,
            ]
            for bset in found
        ],
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def digests() -> dict[str, list[str]]:
    """The digest of every search, per mode, in the seed's order."""
    ideals = load_inputs().random_ideals(SEED)
    deltas = [facet_complex(parse_ideal_text("\n".join(gens))) for gens in ideals]
    return {
        mode: [
            families_digest(contains_strongly_disjoint_set(delta, first_only=first))
            for delta in deltas
        ]
        for mode, first in MODES.items()
    }


def main(argv: list[str]) -> int:
    got = digests()
    if argv == ["--write"]:
        GOLDEN.write_text(json.dumps({"seed": SEED, "searches": got}, indent=1) + "\n")
        return 0
    pinned = json.loads(GOLDEN.read_text())
    wrong = differences(pinned["searches"], got) if pinned["seed"] == SEED else ["seed"]
    total = sum(map(len, pinned["searches"].values()))
    print(f"{total - len(wrong)} of {total} pinned searches reproduce")
    if wrong:
        print(f"searches that differ: {wrong[:20]}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
