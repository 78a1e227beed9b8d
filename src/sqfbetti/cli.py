"""Command line front end.

Exit status 0 on success, 1 on any domain error (bad input, bad usage,
invalid certificate request), 2 when a size budget was exhausted before
the answer was complete.  Budgets come from flags, falling back to
SQFBETTI_LATTICE_CAP / SQFBETTI_FACE_CAP / SQFBETTI_SEARCH_BUDGET, then
to the library defaults.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Sequence

from .analysis import (
    search_complement_witnesses,
    top_degree_check,
    verify_subadditivity,
)
from .betti import BettiTable, betti_table, format_betti_json, format_betti_m2
from .bouquets import (
    BouquetSet,
    bouquet_subadditivity,
    build_bouquet_set,
    contains_strongly_disjoint_set,
)
from .core import (
    MonomialIdeal,
    SqfMonomial,
    facet_complex,
    format_monomial,
    monomial_names,
    parse_ideal,
    parse_ideal_text,
)
from .covers import (
    DEFAULT_SEARCH_BUDGET,
    alpha_values,
    enumerate_minimal_covers,
    find_well_ordered_covers,
    is_well_ordered_cover,
    rotate_cover,
    split_certificate,
)
from .errors import NotWellOrdered, ParseError, SizeLimitExceeded, SqfBettiError
from .homology import (
    DEFAULT_FACE_CAP,
    FieldSpec,
    reduced_homology_ranks,
    taylor_faces_below,
)
from .lattice import DEFAULT_LATTICE_CAP, build_lattice

ENV_LATTICE_CAP = "SQFBETTI_LATTICE_CAP"
ENV_FACE_CAP = "SQFBETTI_FACE_CAP"
ENV_SEARCH_BUDGET = "SQFBETTI_SEARCH_BUDGET"


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage, which this tool reserves
    # for budget exhaustion; rethrow as a domain error instead (exit 1)
    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ParseError(message)


def _positive(name: str, value: int) -> int:
    if value <= 0:
        raise ParseError(f"{name} must be positive, got {value}")
    return value


def _budget(flag: str, flag_value: int | None, env_name: str, default: int) -> int:
    if flag_value is not None:
        return _positive(flag, flag_value)
    raw = os.environ.get(env_name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ParseError(f"{env_name} must be an integer, got {raw!r}") from None
    return _positive(env_name, value)


def _load_ideal(args) -> MonomialIdeal:
    if args.gens is not None:
        text = "\n".join(p.strip() for p in args.gens.split(",") if p.strip())
        return parse_ideal_text(text, wide=args.wide)
    if args.input is None:
        raise ParseError("no input ideal: pass --input FILE or --gens LIST")
    if args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as e:
            raise ParseError(f"cannot read {args.input}: {e}") from None
    return parse_ideal(text, wide=args.wide)


def _parse_monomial(I: MonomialIdeal, text: str) -> SqfMonomial:
    text = text.strip()
    if text == "1":
        return SqfMonomial.one()
    tokens = [t for t in text.replace("*", " ").split() if t]
    if not tokens:
        raise ParseError("empty monomial")
    for k, tok in enumerate(tokens):
        if tok in tokens[:k]:
            raise ParseError(
                f"variable {tok!r} repeated in {text!r}: monomials must be square-free"
            )
    return SqfMonomial.from_names(I.vars, tokens)


def _resolve_generator(I: MonomialIdeal, entry: str) -> int:
    entry = entry.strip()
    if entry.isascii() and entry.isdigit():  # "¹".isdigit() too, but int() refuses it
        index = int(entry)
        if not 0 <= index < len(I.gens):
            raise ParseError(f"generator index {index} out of range")
        return index
    m = _parse_monomial(I, entry)
    try:
        return I.index_of(m)
    except ValueError:
        raise ParseError(
            f"{format_monomial(m, I.vars)} is not a generator"
        ) from None


def _parse_sequence(I: MonomialIdeal, text: str) -> tuple[int, ...]:
    entries = [e for e in text.split(",") if e.strip()]
    if not entries:
        raise ParseError("empty sequence")
    return tuple(_resolve_generator(I, e) for e in entries)


def _json_text(obj) -> str:
    """The text of ``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte.

    CPython drops to its pure-Python encoder whenever ``indent`` is set,
    which is slow on large results.  This writer formats strings with the
    stdlib's C string encoder, ints with ``int.__repr__`` and containers
    as json does (dicts with sorted keys, lists and tuples as arrays,
    ``{}``/``[]`` when empty); any other leaf, such as a float, goes to
    ``json.dumps``.  Dict keys must be strings, as in every CLI result:
    the string encoder raises TypeError on any other key.  The betti
    table has its own writer, ``betti.format_betti_json``.
    """

    def text(o, newline: str) -> str:
        if isinstance(o, str):
            return encode_basestring_ascii(o)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if isinstance(o, int):
            return int.__repr__(o)
        inner = newline + "  "
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            items = [text(x, inner) for x in o]
            return "[" + inner + ("," + inner).join(items) + newline + "]"
        if isinstance(o, dict):
            if not o:
                return "{}"
            items = [
                encode_basestring_ascii(key) + ": " + text(value, inner)
                for key, value in sorted(o.items())
            ]
            return "{" + inner + ("," + inner).join(items) + newline + "}"
        return json.dumps(o)

    return text(obj, "\n")


def _emit(obj) -> None:
    print(_json_text(obj))


def _names(I: MonomialIdeal, m: SqfMonomial) -> list[str]:
    return monomial_names(m, I.vars)


# ---------------------------------------------------------------------------
# subcommands


def _table(args, I: MonomialIdeal, field: FieldSpec) -> BettiTable:
    """The Betti table under the --lattice-cap and --face-cap budgets."""
    return betti_table(
        I, field=field, lattice_cap=args.lattice_cap_value, face_cap=args.face_cap_value
    )


def _cmd_betti(args, I: MonomialIdeal, field: FieldSpec) -> int:
    table = _table(args, I, field)
    if args.format == "json":
        print(format_betti_json(table))
    else:
        print(format_betti_m2(table))
        print(f"field: {field.label}", file=sys.stderr)
    return 0


def _cmd_lattice(args, I: MonomialIdeal, field: FieldSpec) -> int:
    lat = build_lattice(I, cap=args.lattice_cap_value)
    elements = [
        {
            "monomial": _names(I, m),
            "degree": m.degree,
            "witness": list(lat.witness[m.mask]),
        }
        for m in lat.elements
    ]
    _emit(
        {
            "size": len(lat),
            "top": _names(I, lat.top()),
            "elements": elements,
        }
    )
    return 0


def _woc_json(names: Sequence[list[str]], woc) -> dict:
    """One found cover; names[i] lists the variables of generator i."""
    return {
        "sequence": list(woc.sequence),
        "generators": [names[i] for i in woc.sequence],
        "witnesses": [[n, j] for n, j in woc.witnesses],
    }


def _seq_text(I: MonomialIdeal, seq: Sequence[int]) -> str:
    return " ".join(format_monomial(I.gens[i], I.vars) for i in seq)


def _cmd_covers(args, I: MonomialIdeal, field: FieldSpec) -> int:
    budget = args.search_budget_value
    modes = [
        args.minimal,
        args.well_ordered,
        args.split is not None,
        args.alpha,
        args.rotate is not None,
    ]
    if sum(modes) > 1:
        raise ParseError(
            "choose one of --minimal, --well-ordered, --split, --alpha, --rotate"
        )
    if args.all and args.first:
        raise ParseError("--all and --first are mutually exclusive")
    if args.size is not None:
        _positive("--size", args.size)
    needs_sequence = args.split is not None or args.alpha or args.rotate is not None
    if needs_sequence and args.sequence is None:
        raise ParseError("--split/--alpha/--rotate need --sequence")

    if args.minimal:
        covers = enumerate_minimal_covers(I, budget=budget)
        if args.format == "json":
            _emit(
                {
                    "mode": "minimal",
                    "count": len(covers),
                    "covers": [
                        {
                            "indices": sorted(c.members),
                            "generators": [
                                _names(I, I.gens[i]) for i in sorted(c.members)
                            ],
                        }
                        for c in covers
                    ],
                }
            )
        else:
            for c in covers:
                print(_seq_text(I, sorted(c.members)))
        return 0

    if args.well_ordered:
        found = find_well_ordered_covers(
            I, size=args.size, first_only=args.first, budget=budget
        )
        if args.format == "json":
            names = [_names(I, g) for g in I.gens]
            _emit(
                {
                    "mode": "well_ordered",
                    "exhaustive": True,
                    "covers": [_woc_json(names, w) for w in found],
                }
            )
        elif not found:
            print("none found (search exhaustive)")
        else:
            for w in found:
                print(_seq_text(I, w.sequence))
        return 0

    if args.sequence is None:
        raise ParseError(
            "choose a mode: --minimal, --well-ordered, --split, --alpha, "
            "--rotate, or --sequence to check"
        )
    seq = _parse_sequence(I, args.sequence)

    if args.split is not None:
        cert = split_certificate(I, seq, args.split)
        _emit(
            {
                "mode": "split",
                "a": cert.a,
                "s": len(cert.sequence),
                "sequence": list(cert.sequence),
                "generators": [_names(I, I.gens[i]) for i in cert.sequence],
                "m": _names(I, cert.m),
                "m2": _names(I, cert.m2),
                "complement_ok": cert.complement_ok,
                "suffix_woc_ok": cert.suffix_woc_ok,
                "prefix_woc_ok": cert.prefix_woc_ok,
                "condition": cert.condition,
            }
        )
        return 0

    if args.alpha:
        alphas, ell = alpha_values(I, seq)
        if args.format == "json":
            _emit(
                {
                    "mode": "alpha",
                    "ell": ell,
                    "alpha": [
                        {
                            "index": n,
                            "generator": _names(I, I.gens[n]),
                            "value": a,
                        }
                        for n, a in alphas
                    ],
                }
            )
        else:
            for n, a in alphas:
                print(f"alpha {format_monomial(I.gens[n], I.vars)}: {a}")
            print(f"ell: {ell}")
        return 0

    if args.rotate is not None:
        check = is_well_ordered_cover(I, seq)
        if not check.ok:
            raise NotWellOrdered(check.reason or "not a well ordered cover")
        rotated = rotate_cover(check.woc, args.rotate)
        if args.format == "json":
            _emit(
                {
                    "mode": "rotate",
                    "i": args.rotate,
                    "sequence": list(rotated),
                    "generators": [_names(I, I.gens[k]) for k in rotated],
                }
            )
        else:
            print(_seq_text(I, rotated))
        return 0

    check = is_well_ordered_cover(I, seq)
    if args.format == "json":
        _emit(
            {
                "mode": "check",
                "sequence": list(seq),
                "well_ordered": check.ok,
                "reason": check.reason,
                "witnesses": (
                    [[n, j] for n, j in check.woc.witnesses] if check.ok else None
                ),
            }
        )
    elif check.ok:
        print("well ordered: yes")
        for n, j in check.woc.witnesses:
            print(f"witness {format_monomial(I.gens[n], I.vars)}: j={j}")
    else:
        print("well ordered: no")
        print(f"reason: {check.reason}")
    return 0


def _bset_json(bset: BouquetSet) -> dict:
    delta = bset.complex
    return {
        "bouquets": [
            {
                "facets": list(b.facets),
                "generators": [
                    monomial_names(delta.facets[i], delta.vars) for i in b.facets
                ],
                "root": monomial_names(b.root, delta.vars),
                "free_vertices": [delta.vars.name(v) for v in b.free_vertex_witness],
            }
            for b in bset.bouquets
        ],
        "representatives": list(bset.representatives),
        "representative_generators": [
            monomial_names(delta.facets[i], delta.vars)
            for i in bset.representatives
        ],
        "spans": bset.spans_delta,
        "outside_condition": bset.outside_condition_ok,
    }


def _bset_text(bset: BouquetSet) -> str:
    delta = bset.complex
    groups = " ".join(
        "[" + " ".join(format_monomial(delta.facets[i], delta.vars) for i in b.facets) + "]"
        for b in bset.bouquets
    )
    reps = " ".join(
        format_monomial(delta.facets[i], delta.vars) for i in bset.representatives
    )
    return f"{groups} reps: {reps}"


def _cmd_bouquets(args, I: MonomialIdeal, field: FieldSpec) -> int:
    delta = facet_complex(I)
    if args.find and args.check is not None:
        raise ParseError("--find and --check are mutually exclusive")
    if args.subadd is not None and args.check is None:
        raise ParseError("--subadd needs --check to fix the bouquet family")

    if args.find:
        found = contains_strongly_disjoint_set(
            delta, first_only=args.first, budget=args.search_budget_value
        )
        if args.format == "json":
            _emit(
                {
                    "mode": "find",
                    "exhaustive": True,
                    "bouquet_sets": [_bset_json(b) for b in found],
                }
            )
        elif not found:
            print("none found (search exhaustive)")
        else:
            for k, b in enumerate(found):
                print(f"set {k}: {_bset_text(b)}")
        return 0

    if args.check is None:
        raise ParseError("choose a mode: --find or --check GROUPS")
    groups = []
    for chunk in args.check.split(";"):
        entries = [e for e in chunk.split(",") if e.strip()]
        if entries:
            groups.append([_resolve_generator(I, e) for e in entries])
    reps = None
    if args.reps is not None:
        reps = [_resolve_generator(I, e) for e in args.reps.split(",") if e.strip()]
    bset = build_bouquet_set(delta, groups, reps)

    if args.subadd is not None:
        try:
            left = [int(tok) for tok in args.subadd.split(",") if tok.strip()]
        except ValueError:
            raise ParseError("--subadd takes comma separated bouquet positions") from None
        cert = bouquet_subadditivity(
            bset, left, field=field, table=_table(args, I, field)
        )
        _emit(
            {
                "mode": "subadd",
                "field": field.label,
                "b_left": cert.b_left,
                "b_right": cert.b_right,
                "b_total": cert.b_total,
                "m_left": _names(I, cert.m_left),
                "m_right": _names(I, cert.m_right),
                "beta_left": cert.beta_left,
                "beta_right": cert.beta_right,
                "t_left": cert.t_left,
                "t_right": cert.t_right,
                "t_total": cert.t_total,
                "complement_ok": cert.complement_ok,
                "holds": cert.holds,
            }
        )
        return 0

    if args.format == "json":
        _emit({"mode": "check", **_bset_json(bset)})
    else:
        spans = "yes" if bset.spans_delta else "no"
        outside = "yes" if bset.outside_condition_ok else "no"
        print(f"bouquet set: {_bset_text(bset)}")
        print(f"spans: {spans}")
        print(f"outside condition: {outside}")
    return 0


def _pair_json(I: MonomialIdeal, pairs) -> list[dict]:
    return [{"m": _names(I, m), "m2": _names(I, m2)} for m, m2 in pairs]


def _cmd_subadd(args, I: MonomialIdeal, field: FieldSpec) -> int:
    modes = [args.full, args.witnesses is not None, args.top_degree is not None]
    if sum(modes) != 1:
        raise ParseError("choose one of --full, --witnesses, --top-degree")
    table = _table(args, I, field)

    if args.full:
        report = verify_subadditivity(
            I, field=field, table=table, with_witnesses=args.with_witnesses
        )
        witnesses = {
            f"{i},{a},{b}": _pair_json(I, pairs)
            for (i, a, b), pairs in sorted(report.witnesses.items())
        }
        _emit(
            {
                "mode": "full",
                "field": field.label,
                "pd": report.pd,
                "t": {str(a): v for a, v in sorted(report.t.items())},
                "holds": report.holds,
                "violations": [list(v) for v in report.violations],
                "witnesses": witnesses,
                "exhaustive": True,
            }
        )
        return 0

    if args.witnesses is not None:
        i, a, b = args.witnesses
        pairs = search_complement_witnesses(
            I, i, a, b, field=field, all_pairs=args.all, table=table
        )
        _emit(
            {
                "mode": "witnesses",
                "i": i,
                "a": a,
                "b": b,
                "all": bool(args.all),
                "exhaustive": True,
                "pairs": _pair_json(I, pairs),
            }
        )
        return 0

    i, a, b = args.top_degree
    chk = top_degree_check(I, i, a, b, field=field, table=table)
    _emit(
        {
            "mode": "top_degree",
            "i": chk.i,
            "a": chk.a,
            "b": chk.b,
            "r": chk.r,
            "applicable": chk.applicable,
            "holds": chk.holds,
            "t_a": chk.t_a,
            "t_b": chk.t_b,
            "witnesses": _pair_json(I, chk.witnesses),
        }
    )
    return 0


def _cmd_homology(args, I: MonomialIdeal, field: FieldSpec) -> int:
    m = _parse_monomial(I, args.multidegree)
    layers = taylor_faces_below(I, m, cap=args.face_cap_value)
    ranks = reduced_homology_ranks(layers, field)

    def bydim(d: dict[int, int]) -> dict[str, int]:
        return {str(k): v for k, v in sorted(d.items())}

    if args.format == "json":
        _emit(
            {
                "multidegree": _names(I, m),
                "field": field.label,
                "void": not layers,
                "face_counts": bydim(ranks.face_counts),
                "boundary_ranks": bydim(ranks.boundary_ranks),
                "homology_ranks": bydim(ranks.homology_ranks),
            }
        )
    else:
        print(f"multidegree: {format_monomial(m, I.vars)}")
        print(f"field: {field.label}")
        if not layers:
            print("void complex (no faces)")
            return 0

        def line(label: str, d: dict[int, int]) -> str:
            cells = " ".join(f"{k}:{v}" for k, v in sorted(d.items()))
            return f"{label}: {cells}"

        print(line("faces", ranks.face_counts))
        print(line("boundary ranks", ranks.boundary_ranks))
        print(line("homology", ranks.homology_ranks))
    return 0


# ---------------------------------------------------------------------------
# parser assembly and entry point


@functools.cache
def _build_parser() -> _Parser:
    # parse_args leaves the parser unchanged, so one serves every call
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "-i",
        "--input",
        metavar="FILE",
        help="ideal file, text or JSON; '-' reads standard input",
    )
    common.add_argument(
        "--gens",
        metavar="LIST",
        help="inline generators, comma separated; variables split on spaces or '*'",
    )
    common.add_argument(
        "--field",
        default="q",
        metavar="SPEC",
        help="q for the rationals, or p:<prime> (default: q)",
    )
    common.add_argument(
        "--format",
        choices=("m2", "json"),
        default=None,
        help="output format; m2 applies to betti only",
    )
    common.add_argument(
        "--wide", action="store_true", help="allow more than 64 variables"
    )
    common.add_argument(
        "--lattice-cap",
        type=int,
        default=None,
        metavar="N",
        help="most lcm lattice elements, counted per block for a Betti table, and "
        "most multidegrees of a split ideal's table "
        f"(default: ${ENV_LATTICE_CAP}, else {DEFAULT_LATTICE_CAP})",
    )
    common.add_argument(
        "--face-cap",
        type=int,
        default=None,
        metavar="N",
        help="most faces grown for one complex "
        f"(default: ${ENV_FACE_CAP}, else {DEFAULT_FACE_CAP})",
    )
    common.add_argument(
        "--search-budget",
        type=int,
        default=None,
        metavar="N",
        help="most units of work of the cover and bouquet family searches "
        f"(default: ${ENV_SEARCH_BUDGET}, else {DEFAULT_SEARCH_BUDGET})",
    )

    parser = _Parser(
        prog="sqfbetti",
        description="Betti tables, well ordered covers, and subadditivity "
        "certificates for square-free monomial ideals",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("betti", parents=[common], help="graded Betti table")
    p.set_defaults(run=_cmd_betti)

    p = sub.add_parser("lattice", parents=[common], help="lcm lattice elements")
    p.set_defaults(run=_cmd_lattice)

    p = sub.add_parser(
        "covers", parents=[common], help="minimal and well ordered covers"
    )
    p.add_argument("--minimal", action="store_true", help="list minimal covers")
    p.add_argument(
        "--well-ordered", action="store_true", help="search well ordered covers"
    )
    p.add_argument("--size", type=int, default=None, metavar="S")
    p.add_argument("--all", action="store_true", help="report every ordering")
    p.add_argument(
        "--first", action="store_true", help="the first sequence of the full search"
    )
    p.add_argument("--split", type=int, default=None, metavar="A")
    p.add_argument("--alpha", action="store_true", help="alpha values and ell")
    p.add_argument("--rotate", type=int, default=None, metavar="I")
    p.add_argument(
        "--sequence",
        metavar="SEQ",
        help="comma separated generators (monomials or indices)",
    )
    p.set_defaults(run=_cmd_covers)

    p = sub.add_parser(
        "bouquets", parents=[common], help="strongly disjoint bouquet families"
    )
    p.add_argument("--find", action="store_true", help="search for families")
    p.add_argument(
        "--first",
        action="store_true",
        help="stop at the first family the search reaches: one of the full "
        "answer's families, but not always its least",
    )
    p.add_argument(
        "--check",
        metavar="GROUPS",
        help="facet groups: comma separated facets, groups split by ';'",
    )
    p.add_argument("--reps", metavar="LIST", help="one representative per group")
    p.add_argument(
        "--subadd",
        metavar="LEFT",
        help="certify t_b <= t_b' + t_b'' for this bouquet partition "
        "(comma separated positions of the left part)",
    )
    p.set_defaults(run=_cmd_bouquets)

    p = sub.add_parser("subadd", parents=[common], help="subadditivity reports")
    p.add_argument("--full", action="store_true", help="audit all degree pairs")
    p.add_argument(
        "--with-witnesses",
        action="store_true",
        help="attach complement witnesses to the full report",
    )
    p.add_argument(
        "--witnesses",
        type=int,
        nargs=3,
        metavar=("I", "A", "B"),
        help="search complement witness pairs for beta_a, beta_b with a+b=i",
    )
    p.add_argument("--all", action="store_true", help="report every witness pair")
    p.add_argument(
        "--top-degree",
        type=int,
        nargs=3,
        metavar=("I", "A", "B"),
        help="evaluate t_a + t_b >= r at the top multidegree",
    )
    p.set_defaults(run=_cmd_subadd)

    p = sub.add_parser(
        "homology", parents=[common], help="homology of the Taylor faces below m"
    )
    p.add_argument("--multidegree", required=True, metavar="M")
    p.set_defaults(run=_cmd_homology)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        for name, value in vars(args).items():
            # argparse drops a "--" given as an option's value ("--gens=--")
            # and stores an empty list in its place
            if value == []:
                raise ParseError(f"argument --{name.replace('_', '-')}: expected a value")
        if getattr(args, "run", None) is None:
            parser.print_usage(sys.stderr)
            raise ParseError("a subcommand is required")
        if args.format == "m2" and args.run is not _cmd_betti:
            raise ParseError("--format m2 only applies to the betti subcommand")
        args.lattice_cap_value = _budget(
            "--lattice-cap", args.lattice_cap, ENV_LATTICE_CAP, DEFAULT_LATTICE_CAP
        )
        args.face_cap_value = _budget(
            "--face-cap", args.face_cap, ENV_FACE_CAP, DEFAULT_FACE_CAP
        )
        args.search_budget_value = _budget(
            "--search-budget",
            args.search_budget,
            ENV_SEARCH_BUDGET,
            DEFAULT_SEARCH_BUDGET,
        )
        field = FieldSpec.parse(args.field)
        I = _load_ideal(args)
        return args.run(args, I, field)
    except SizeLimitExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        if e.partial is not None:
            print(
                f"partial: {len(e.partial)} results before exhaustion",
                file=sys.stderr,
            )
        return 2
    except SqfBettiError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
