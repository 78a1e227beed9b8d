"""Pinned Betti tables of the benchmark's seed-1 random ideals.

tests/betti_golden.json holds, for QQ, GF(2) and GF(3), the sha256 of every
``betti_table`` of ``perfbench/inputs.random_ideals(1)``: of the
multigraded (i, mask, rank) triples in insertion order, of ``graded``
and ``t`` in insertion order, and of ``pd``.  So it pins the tables
entry for entry and the order in which they are built.

Check the pins (exit 1 on a difference), or write them anew:

    PYTHONPATH=src python tests/betti_golden.py
    PYTHONPATH=src python tests/betti_golden.py --write

It needs only the package and ``perfbench/inputs.py``, which it reads
without importing the benchmark.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from sqfbetti import FieldSpec, betti_table, parse_ideal_text

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "betti_golden.json"
SEED = 1
FIELDS = {"QQ": FieldSpec(None), "GF(2)": FieldSpec(2), "GF(3)": FieldSpec(3)}


def load_inputs():
    """perfbench/inputs.py as a module, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", ROOT / "perfbench" / "inputs.py"
    )
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def table_digest(table) -> str:
    """sha256 of the table's entries, each dict in insertion order."""
    blob = json.dumps(
        [
            [[i, m.mask, rank] for (i, m), rank in table.multigraded.items()],
            [[i, j, rank] for (i, j), rank in table.graded.items()],
            [[a, v] for a, v in table.t.items()],
            table.pd,
        ],
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def digests() -> dict[str, list[str]]:
    """The digest of every table, per field label, in the seed's order."""
    ideals = load_inputs().random_ideals(SEED)
    ideals = [parse_ideal_text("\n".join(gens)) for gens in ideals]
    return {
        label: [table_digest(betti_table(I, field)) for I in ideals]
        for label, field in FIELDS.items()
    }


def differences(pinned: dict, got: dict) -> list[str]:
    """'<field> #<k>' for each table whose digest differs from its pin."""
    if pinned.keys() != got.keys():
        return [f"fields {sorted(got)} against pinned {sorted(pinned)}"]
    wrong = []
    for label, want in pinned.items():
        if len(want) != len(got[label]):
            wrong.append(f"{label}: {len(got[label])} tables against {len(want)}")
        wrong += [
            f"{label} #{k}" for k, (a, b) in enumerate(zip(want, got[label])) if a != b
        ]
    return wrong


def main(argv: list[str]) -> int:
    got = digests()
    if argv == ["--write"]:
        GOLDEN.write_text(json.dumps({"seed": SEED, "tables": got}, indent=1) + "\n")
        return 0
    pinned = json.loads(GOLDEN.read_text())
    wrong = differences(pinned["tables"], got) if pinned["seed"] == SEED else ["seed"]
    total = sum(map(len, pinned["tables"].values()))
    print(f"{total - len(wrong)} of {total} pinned tables reproduce")
    if wrong:
        print(f"tables that differ: {wrong[:20]}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
