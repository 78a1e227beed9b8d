import contextlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqfbetti.cli import _json_text, main

from test_betti import TABLE_A_M2

GENS_A = "x*y, y*z, x*z, z*a, a*b, b*c"
GENS_B = "a*x,a*y,b*z,b*v,b*w,c*u,c*g,y*z,a*z"
GENS_PATH = "x*y, y*z, z*u"
GENS_STAR = "a*b*c,b*c*d,c*d*f,d*e*f,e*g,f*g,g*h,h*i,g*i,f*i,g*x,g*y"
SRC = Path(__file__).resolve().parent.parent / "src"


def schema(name: str) -> dict:
    path = resources.files("sqfbetti") / "schemas" / f"{name}.json"
    return json.loads(path.read_text())


def run(capsys, *argv: str):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, schema_name: str, *argv: str):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    data = json.loads(out)
    jsonschema.validate(data, schema(schema_name))
    return data


def test_betti_m2_golden_bytes(capsys):
    code, out, err = run(capsys, "betti", "--gens", GENS_A)
    assert code == 0
    assert out == TABLE_A_M2 + "\n"
    assert "field: QQ" in err


def test_betti_json(capsys):
    data = run_json(capsys, "betti", "betti", "--gens", GENS_A, "--format", "json")
    assert data["pd"] == 4
    assert data["totals"] == [1, 6, 10, 7, 2]
    assert data["t"] == {"1": 2, "2": 4, "3": 5, "4": 6}
    assert data["field"] == "QQ"


def test_betti_json_never_builds_multigraded(capsys, monkeypatch):
    # the writer reads the table's entries: no dict keyed by SqfMonomial is
    # built for a connected ideal or for a split one (the product of blocks)
    from sqfbetti import betti

    def unread(*args):
        raise AssertionError("betti --format json built multigraded")

    monkeypatch.setattr(betti, "_multigraded", unread)
    for gens in (GENS_B, GENS_PATH + ", a*b, b*c"):
        code, out, err = run(capsys, "betti", "--format", "json", "--gens", gens)
        assert code == 0, err
        assert json.loads(out)["multigraded"]


def test_betti_prime_field(capsys):
    code, out, _ = run(capsys, "betti", "--gens", GENS_A, "--field", "p:32003")
    assert code == 0
    assert out == TABLE_A_M2 + "\n"


def test_input_file_matches_gens(capsys, tmp_path):
    f = tmp_path / "ideal.txt"
    f.write_text("x y\ny z\nz u\n")
    _, from_file, _ = run(capsys, "betti", "-i", str(f))
    _, inline, _ = run(capsys, "betti", "--gens", GENS_PATH)
    assert from_file == inline


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("x y\ny z\nz u\n"))
    code, out, _ = run(capsys, "betti", "-i", "-")
    assert code == 0
    assert "total:" in out


def test_json_ideal_input(capsys, tmp_path):
    f = tmp_path / "ideal.json"
    f.write_text(
        json.dumps({"variables": ["x", "y", "z", "u"], "generators": [["x", "y"], ["y", "z"], ["z", "u"]]})
    )
    code, out, _ = run(capsys, "betti", "-i", str(f))
    assert code == 0


def test_lattice_json(capsys):
    data = run_json(capsys, "lattice", "lattice", "--gens", GENS_PATH)
    assert data["size"] == 7
    assert len(data["elements"]) == 7
    assert data["elements"][0]["monomial"] == []
    assert data["elements"][-1]["monomial"] == data["top"]


def test_covers_minimal_text(capsys):
    code, out, _ = run(capsys, "covers", "--minimal", "--gens", GENS_PATH)
    assert code == 0
    assert out == "x*y z*u\n"


def test_covers_minimal_json(capsys):
    data = run_json(
        capsys, "covers", "covers", "--minimal", "--gens", GENS_PATH, "--format", "json"
    )
    assert data["mode"] == "minimal"
    assert data["count"] == 1
    assert data["covers"][0]["generators"] == [["x", "y"], ["z", "u"]]


def test_covers_well_ordered_none_found(capsys):
    code, out, _ = run(capsys, "covers", "--well-ordered", "--gens", GENS_PATH)
    assert code == 0
    assert out == "none found (search exhaustive)\n"


def test_covers_well_ordered_none_found_json(capsys):
    data = run_json(
        capsys,
        "covers",
        "covers",
        "--well-ordered",
        "--gens",
        GENS_PATH,
        "--format",
        "json",
    )
    assert data == {"mode": "well_ordered", "exhaustive": True, "covers": []}


def test_covers_well_ordered_finds(capsys):
    data = run_json(
        capsys,
        "covers",
        "covers",
        "--well-ordered",
        "--gens",
        "a*b*z, b*c*z, x*y*z, a*x*z",
        "--format",
        "json",
    )
    assert data["covers"]
    gens_of = {
        tuple(tuple(sorted(g)) for g in c["generators"]) for c in data["covers"]
    }
    assert (("a", "b", "z"), ("b", "c", "z"), ("x", "y", "z")) in gens_of


def test_covers_check_modes(capsys):
    data = run_json(
        capsys,
        "covers",
        "covers",
        "--sequence",
        "a*b*z,b*c*z,x*y*z",
        "--gens",
        "a*b*z, b*c*z, x*y*z, a*x*z",
        "--format",
        "json",
    )
    assert data["mode"] == "check"
    assert data["well_ordered"] is True
    assert data["witnesses"]

    code, out, _ = run(
        capsys,
        "covers",
        "--sequence",
        "x*y,z*u",
        "--gens",
        GENS_PATH,
    )
    assert code == 0
    assert out.startswith("well ordered: no")


def test_covers_split_json(capsys):
    data = run_json(
        capsys,
        "covers",
        "covers",
        "--sequence",
        "a*b,x*y,b*c,x*z",
        "--split",
        "1",
        "--gens",
        GENS_A,
    )
    assert data["mode"] == "split"
    assert data["complement_ok"] is True
    assert data["suffix_woc_ok"] is True
    assert data["condition"] == "induced_equals_prefix"
    assert sorted(data["m"]) == ["a", "b"]


def test_covers_alpha_and_rotate(capsys):
    gens_12 = ",".join(
        "*".join(t) for t in ("abc", "bcd", "cdf", "def", "eg", "fg", "gh", "hi", "gi", "fi", "gx", "gy")
    )
    seq = ",".join(
        "*".join(t) for t in ("gy", "gx", "eg", "fg", "bcd", "gh", "gi", "abc")
    )
    data = run_json(
        capsys,
        "covers",
        "covers",
        "--sequence",
        seq,
        "--alpha",
        "--gens",
        gens_12,
        "--format",
        "json",
    )
    assert data["mode"] == "alpha"
    assert data["ell"] == 4
    values = {"".join(sorted(e["generator"])): e["value"] for e in data["alpha"]}
    assert values == {"cdf": 5, "def": 5, "fi": 4, "hi": 6}

    rotated = run_json(
        capsys,
        "covers",
        "covers",
        "--sequence",
        seq,
        "--rotate",
        "4",
        "--gens",
        gens_12,
        "--format",
        "json",
    )
    assert rotated["mode"] == "rotate"
    names = ["*".join(g) for g in rotated["generators"]]
    assert names == ["f*g", "b*c*d", "g*h", "g*i", "a*b*c", "g*y", "g*x", "e*g"]


def test_covers_sequence_by_indices(capsys):
    data = run_json(
        capsys,
        "covers",
        "covers",
        "--sequence",
        "0,1",
        "--gens",
        "x*y, z*u",
        "--format",
        "json",
    )
    assert data["mode"] == "check"
    assert data["well_ordered"] is True


def test_covers_sequence_index_out_of_range(capsys):
    code, _, err = run(
        capsys, "covers", "--sequence", "0,2", "--gens", "x*y, z*u"
    )
    assert code == 1
    assert "out of range" in err


def test_covers_mode_exclusivity(capsys):
    code, _, err = run(
        capsys, "covers", "--minimal", "--alpha", "--gens", GENS_PATH
    )
    assert code == 1
    assert "choose one" in err
    code, _, err = run(capsys, "covers", "--alpha", "--gens", GENS_PATH)
    assert code == 1
    assert "--sequence" in err
    code, _, err = run(capsys, "covers", "--gens", GENS_PATH)
    assert code == 1


def test_bouquets_find_json(capsys):
    data = run_json(
        capsys, "bouquets", "bouquets", "--find", "--gens", GENS_B, "--format", "json"
    )
    assert data["mode"] == "find"
    assert data["exhaustive"] is True
    assert data["bouquet_sets"]
    families = {
        tuple(sorted(tuple(sorted("".join(g) for g in b["generators"])) for b in s["bouquets"]))
        for s in data["bouquet_sets"]
    }
    assert (("ax", "ay"), ("bv", "bw", "bz"), ("cg", "cu")) in families


def test_bouquets_find_text_and_heuristic_message(capsys):
    code, out, _ = run(capsys, "bouquets", "--find", "--gens", GENS_B)
    assert code == 0
    assert "set 0:" in out

    code, out, _ = run(capsys, "bouquets", "--find", "--gens", GENS_PATH)
    assert code == 0
    assert out == "none found (search exhaustive)\n"

    # 36 facets: no heuristic answers above 16, the search is exact at every size
    pairs = list(itertools.combinations(range(24), 2))
    edges = ", ".join(f"x{a}*x{b}" for a, b in random.Random(0).sample(pairs, 36))
    code, out, _ = run(capsys, "bouquets", "--find", "--gens", edges)
    assert code == 0
    assert out == "none found (search exhaustive)\n"


def test_bouquets_check_json(capsys):
    data = run_json(
        capsys,
        "bouquets",
        "bouquets",
        "--check",
        "a*x,a*y;b*z,b*v,b*w;c*u,c*g",
        "--gens",
        GENS_B,
        "--format",
        "json",
    )
    assert data["mode"] == "check"
    assert data["spans"] is True
    assert data["outside_condition"] is True
    assert len(data["bouquets"]) == 3


def test_bouquets_check_with_reps(capsys):
    data = run_json(
        capsys,
        "bouquets",
        "bouquets",
        "--check",
        "a*x,a*y;b*z,b*v,b*w;c*u,c*g",
        "--reps",
        "a*x,b*v,c*u",
        "--gens",
        GENS_B,
        "--format",
        "json",
    )
    reps = ["*".join(g) for g in data["representative_generators"]]
    assert reps == ["a*x", "b*v", "c*u"]


def test_bouquets_subadd_json(capsys):
    data = run_json(
        capsys,
        "bouquets",
        "bouquets",
        "--check",
        "a*x,a*y;b*z,b*v,b*w;c*u,c*g",
        "--subadd",
        "0",
        "--gens",
        GENS_B,
    )
    assert data["mode"] == "subadd"
    assert data["holds"] is True
    assert data["b_left"] == 2 and data["b_right"] == 5
    assert data["t_total"] == 10
    assert data["t_left"] + data["t_right"] == 12


def test_bouquets_flag_validation(capsys):
    code, _, err = run(
        capsys, "bouquets", "--find", "--check", "a*x", "--gens", GENS_B
    )
    assert code == 1
    code, _, err = run(capsys, "bouquets", "--subadd", "0", "--gens", GENS_B)
    assert code == 1
    assert "--check" in err
    code, _, err = run(capsys, "bouquets", "--gens", GENS_B)
    assert code == 1


def test_cli_runs_without_numpy():
    # a fresh interpreter: the package and a JSON Betti run import no numpy
    argv = ["betti", "--format", "json", "--gens", GENS_B]
    script = (
        "import sys, sqfbetti, sqfbetti.cli\n"
        f"code = sqfbetti.cli.main({argv!r})\n"
        "assert code == 0, code\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["pd"] == 7


def test_bouquets_subadd_rejects_a_family_that_does_not_span(capsys):
    code, out, err = run(
        capsys, "bouquets", "--check", "a*x;c*u", "--subadd", "0", "--gens", GENS_B
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "does not span" in err


def test_subadd_full_json(capsys):
    data = run_json(capsys, "subadd", "subadd", "--full", "--gens", GENS_A)
    assert data["mode"] == "full"
    assert data["holds"] is True
    assert data["violations"] == []
    assert data["exhaustive"] is True
    assert data["pd"] == 4


def test_subadd_full_with_witnesses(capsys):
    data = run_json(
        capsys, "subadd", "subadd", "--full", "--with-witnesses", "--gens", GENS_A
    )
    assert data["witnesses"]
    for key, pairs in data["witnesses"].items():
        i, a, b = (int(x) for x in key.split(","))
        assert a + b == i


def test_subadd_witnesses_json(capsys):
    data = run_json(
        capsys, "subadd", "subadd", "--witnesses", "4", "2", "2", "--gens", GENS_A
    )
    assert data["mode"] == "witnesses"
    assert data["pairs"] == [{"m": ["x", "y", "z"], "m2": ["a", "b", "c"]}]


def test_subadd_top_degree_json(capsys):
    data = run_json(
        capsys, "subadd", "subadd", "--top-degree", "4", "2", "2", "--gens", GENS_A
    )
    assert data["mode"] == "top_degree"
    assert data["applicable"] is True
    assert data["holds"] is True
    assert data["r"] == 6


def test_subadd_mode_required(capsys):
    code, _, err = run(capsys, "subadd", "--gens", GENS_A)
    assert code == 1
    assert "choose one" in err


def test_homology_text_and_json(capsys):
    code, out, _ = run(
        capsys, "homology", "--multidegree", "x*y*z", "--gens", GENS_PATH
    )
    assert code == 0
    assert "homology: -1:0 0:1" in out

    data = run_json(
        capsys,
        "homology",
        "homology",
        "--multidegree",
        "x*y*z",
        "--gens",
        GENS_PATH,
        "--format",
        "json",
    )
    assert data["void"] is False
    assert data["homology_ranks"] == {"-1": 0, "0": 1}
    assert data["face_counts"] == {"-1": 1, "0": 2}


def test_homology_of_one_is_void(capsys):
    data = run_json(
        capsys,
        "homology",
        "homology",
        "--multidegree",
        "1",
        "--gens",
        GENS_PATH,
        "--format",
        "json",
    )
    assert data["void"] is True
    assert data["face_counts"] == {}


HOMOLOGY_GOLDEN = Path(__file__).resolve().parent / "homology_golden.json"


def test_homology_goldens_reproduce(capsys):
    # the homology subcommand on each benchmark ideal of at most 12
    # generators, at its top and at the proper lattice element with the
    # most Taylor faces, over q, p:2 and p:3, in text and JSON form
    cases = json.loads(HOMOLOGY_GOLDEN.read_text())
    assert len(cases) == 108
    for case in cases:
        assert run(capsys, *case["argv"]) == (0, case["stdout"], ""), case["argv"]


BOUQUETS_GOLDEN = Path(__file__).resolve().parent / "bouquets_golden.json"


def test_bouquets_goldens_reproduce(capsys):
    # bouquets --find on each benchmark ideal, with and without --first,
    # in text and JSON form, and --check, --reps and --subadd on the
    # three brooms
    cases = json.loads(BOUQUETS_GOLDEN.read_text())
    assert len(cases) == 52
    for case in cases:
        assert run(capsys, *case["argv"]) == (0, case["stdout"], ""), case["argv"]


COVERS_CLI_GOLDEN = Path(__file__).resolve().parent / "covers_cli_golden.json"


def test_covers_well_ordered_goldens_reproduce(capsys):
    # covers --well-ordered --all --format json on the benchmark ideals
    # whose output is small: triangle_tail, four_triangles, and three
    # with no well ordered cover.  Then, on triangle_tail, four_triangles,
    # three_brooms, star_cluster and cycle12, with the least well ordered
    # cover (by sequence) as --sequence: --split at every cut, --minimal,
    # --alpha, the plain check, and --rotate 2 where ell >= 2, which holds
    # on three_brooms alone
    cases = json.loads(COVERS_CLI_GOLDEN.read_text())
    assert len(cases) == 46
    for case in cases:
        assert run(capsys, *case["argv"]) == (0, case["stdout"], ""), case["argv"]


ANALYSIS_GOLDEN = Path(__file__).resolve().parent / "analysis_golden.json"


def test_lattice_and_subadd_goldens_reproduce(capsys):
    # lattice, subadd --full --with-witnesses and subadd --witnesses i a b
    # --all for every a, b >= 1 with a + b <= pd, all as JSON, on the
    # benchmark ideals that take under a second: the elements, the join
    # witnesses and every witness pair in its order.  Then subadd
    # --top-degree i a b for every a, b >= 1 with a + b = i <= pd on
    # triangle_tail, four_triangles, three_brooms, star_cluster and cycle12
    cases = json.loads(ANALYSIS_GOLDEN.read_text())
    assert len(cases) == 153
    for case in cases:
        assert run(capsys, *case["argv"]) == (0, case["stdout"], ""), case["argv"]


def test_bouquets_subadd_honours_the_table_caps(capsys, monkeypatch):
    # star_cluster's third remainder has a variable in three rows, so its
    # faces are grown and the face cap is reached
    argv = ["bouquets", "--check", "f*g,e*g,g*h,g*i,g*x,g*y;a*b*c,b*c*d", "--subadd", "0"]
    for caps in (["--face-cap", "1", "--lattice-cap", "2"], ["--face-cap", "1"]):
        code, out, err = run(capsys, *argv, *caps, "--gens", GENS_STAR)
        assert (code, out) == (2, "")
        assert "partial:" in err
    assert run(capsys, *argv, "--gens", GENS_STAR)[0] == 0
    monkeypatch.setenv("SQFBETTI_LATTICE_CAP", "2")
    code, out, err = run(capsys, *argv, "--gens", GENS_STAR)
    assert (code, out) == (2, "")
    assert "lcm lattice exceeds cap 2" in err


def test_face_cap_spares_graph_remainders(capsys):
    # the 4-cycle's top leaves its four edges, a graph: its homology is
    # read off the graph and no face is grown, so a face cap of 1 is
    # never reached and the full table comes out
    argv = ["betti", "--gens", "x y, y z, z w, w x"]
    full = run(capsys, *argv)
    assert full[0] == 0 and "total: 1 4 4 1" in full[1]
    assert run(capsys, *argv, "--face-cap", "1") == full


def test_exit_codes(capsys, monkeypatch):
    # empty input: domain error
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code, _, err = run(capsys, "betti", "-i", "-")
    assert code == 1
    assert "error:" in err

    # budget exhaustion: distinct code, partial flagged
    code, _, err = run(capsys, "lattice", "--lattice-cap", "3", "--gens", GENS_B)
    assert code == 2
    assert "partial:" in err

    # bad usage is a domain error, not argparse's exit(2)
    code, _, err = run(capsys, "covers", "--minimal", "--format", "m2", "--gens", GENS_PATH)
    assert code == 1

    # no subcommand
    code, _, err = run(capsys)
    assert code == 1

    # unknown variable in a sequence
    code, _, err = run(
        capsys, "covers", "--sequence", "q*w", "--gens", GENS_PATH
    )
    assert code == 1

    # no input at all
    code, _, err = run(capsys, "betti")
    assert code == 1
    assert "no input ideal" in err


SEQ_STAR = "g*y,g*x,e*g,f*g,b*c*d,g*h,g*i,a*b*c"
GENS_TRIANGLES = "a*b*z, b*c*z, x*y*z, a*x*z"
BOUQUETS_B = "a*x,a*y;b*z,b*v,b*w;c*u,c*g"


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (
            ["covers", "--well-ordered", "--gens", GENS_TRIANGLES],
            0,
            "z*x*y a*b*z b*z*c\na*b*z z*x*y b*z*c\na*b*z b*z*c z*x*y\n"
            "a*z*x z*x*y b*z*c\nb*z*c a*z*x z*x*y\na*z*x b*z*c z*x*y\n",
            "",
        ),
        (
            ["covers", "--alpha", "--sequence", SEQ_STAR, "--gens", GENS_STAR],
            0,
            "alpha f*i: 4\nalpha h*i: 6\nalpha c*d*f: 5\nalpha d*f*e: 5\nell: 4\n",
            "",
        ),
        (
            ["covers", "--rotate", "4", "--sequence", SEQ_STAR, "--gens", GENS_STAR],
            0,
            "f*g b*c*d g*h g*i a*b*c g*y g*x e*g\n",
            "",
        ),
        (
            ["covers", "--rotate", "2", "--sequence", "x*y,z*u", "--gens", GENS_PATH],
            1,
            "",
            "error: no witness position for non-member y*z",
        ),
        (
            ["covers", "--sequence", "x*y*z,a*b*z,b*c*z", "--gens", GENS_TRIANGLES],
            0,
            "well ordered: yes\nwitness a*z*x: j=2\n",
            "",
        ),
        (
            ["covers", "--well-ordered", "--all", "--first", "--gens", GENS_PATH],
            1,
            "",
            "error: --all and --first are mutually exclusive",
        ),
        (
            ["bouquets", "--check", BOUQUETS_B, "--gens", GENS_B],
            0,
            "bouquet set: [a*x a*y] [b*z b*v b*w] [c*u c*g] reps: a*x b*v c*u\n"
            "spans: yes\noutside condition: yes\n",
            "",
        ),
        (
            ["bouquets", "--check", BOUQUETS_B, "--subadd", "x", "--gens", GENS_B],
            1,
            "",
            "error: --subadd takes comma separated bouquet positions",
        ),
        (
            ["homology", "--multidegree", "1", "--gens", GENS_PATH],
            0,
            "multidegree: 1\nfield: QQ\nvoid complex (no faces)\n",
            "",
        ),
        (
            ["covers", "--bogus", "--gens", GENS_PATH],
            1,
            "",
            "error: unrecognized arguments: --bogus",
        ),
    ],
)
def test_text_modes_and_usage_errors(capsys, argv, code, out, err):
    # text outputs and refusals that the JSON tests above do not reach;
    # an unknown option goes through _Parser.error, so it exits 1, not 2
    got_code, got_out, got_err = run(capsys, *argv)
    assert (got_code, got_out) == (code, out)
    assert err in got_err


def test_face_cap_exit_reports_partial(capsys):
    code, out, err = run(capsys, "betti", "--face-cap", "5", "--gens", GENS_STAR)
    assert code == 2
    assert out == ""
    assert re.search(r"^partial: [1-9]\d* results", err, re.M)


def test_env_budget_overrides(capsys, monkeypatch):
    monkeypatch.setenv("SQFBETTI_LATTICE_CAP", "3")
    code, _, _ = run(capsys, "lattice", "--gens", GENS_PATH)
    assert code == 2
    # explicit flag wins over the environment
    code, _, _ = run(capsys, "lattice", "--lattice-cap", "100", "--gens", GENS_PATH)
    assert code == 0
    monkeypatch.setenv("SQFBETTI_LATTICE_CAP", "nope")
    code, _, err = run(capsys, "lattice", "--gens", GENS_PATH)
    assert code == 1
    assert "SQFBETTI_LATTICE_CAP" in err


def test_budget_flags_have_help(capsys, monkeypatch):
    # wide enough that argparse writes each option's help on its own line
    monkeypatch.setenv("COLUMNS", "400")
    with pytest.raises(SystemExit) as e:
        main(["betti", "-h"])
    assert e.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for flag, counts, env in (
        ("--lattice-cap N", "most lcm lattice elements", "$SQFBETTI_LATTICE_CAP"),
        ("--face-cap N", "most faces grown for one complex", "$SQFBETTI_FACE_CAP"),
        ("--search-budget N", "most units of work of the cover", "$SQFBETTI_SEARCH_BUDGET"),
    ):
        (line,) = [line for line in lines if line.lstrip().startswith(flag)]
        assert " ".join(line.split()[2:]).startswith(counts) and env in line, line


def test_nonpositive_budget_rejected(capsys):
    code, _, err = run(
        capsys, "lattice", "--lattice-cap", "0", "--gens", GENS_PATH
    )
    assert code == 1
    assert "positive" in err
    assert "--lattice-cap" in err
    code, _, err = run(capsys, "betti", "--face-cap", "0", "--gens", GENS_PATH)
    assert code == 1
    assert "--face-cap must be positive" in err


@pytest.mark.parametrize("size", ["0", "-3"])
def test_nonpositive_cover_size_rejected(capsys, size):
    argv = ["covers", "--well-ordered", f"--size={size}", "--gens", GENS_PATH]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "--size must be positive" in err


@pytest.mark.parametrize("gens", ["x^2 y", "x+y", "x y, y z2, 3"])
def test_bad_variable_name_in_gens(capsys, gens):
    code, out, err = run(capsys, "betti", "--gens", gens)
    assert code == 1
    assert out == ""
    assert "bad variable name" in err


def test_bad_variable_name_in_input_file(capsys, tmp_path):
    f = tmp_path / "ideal.txt"
    f.write_text("a b\nx y, y z\n")
    code, out, err = run(capsys, "betti", "--input", str(f))
    assert code == 1
    assert out == ""
    assert "'y,' on line 2" in err


def test_non_utf8_input_file_is_a_parse_error(tmp_path):
    # a fresh interpreter, so that a traceback would reach stderr
    f = tmp_path / "ideal.txt"
    f.write_bytes(b"x y\n\xff\xfe z\n")
    proc = subprocess.run(
        [sys.executable, "-m", "sqfbetti", "betti", "-i", str(f)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: cannot read {f}: ")
    assert proc.stderr.count("\n") == 1


def test_bad_variable_name_in_json_input_file(capsys, tmp_path):
    f = tmp_path / "ideal.json"
    data = {"variables": ["x^2", "y,"], "generators": [["x^2", "y,"]]}
    f.write_text(json.dumps(data))
    code, out, err = run(capsys, "betti", "--input", str(f))
    assert code == 1
    assert out == ""
    assert "bad variable name 'x^2'" in err
    assert "Traceback" not in err


def test_repeated_variable_in_gens(capsys):
    code, out, err = run(capsys, "betti", "--gens", "x*x, y")
    assert code == 1
    assert out == ""
    assert "'x' repeated on line 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, name",
    [
        (["homology", "--multidegree", "x*x*y"], "x"),
        (["covers", "--sequence", "x*y*y, y*z"], "y"),
        (["bouquets", "--check", "x*y*x"], "x"),
        (["bouquets", "--check", "x*y", "--reps", "y x y"], "y"),
    ],
)
def test_repeated_variable_in_monomial_arguments(capsys, argv, name):
    code, out, err = run(capsys, *argv, "--gens", GENS_A)
    assert code == 1
    assert out == ""
    assert f"variable {name!r} repeated" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["betti", "--gens", GENS_A],
        ["lattice", "--gens", GENS_A],
        ["covers", "--well-ordered", "--all", "--gens", GENS_A],
        ["covers", "--minimal", "--gens", GENS_A],
        ["bouquets", "--find", "--gens", GENS_A],
        ["subadd", "--full", "--with-witnesses", "--gens", GENS_A],
        ["homology", "--multidegree", "x*y*z*a", "--gens", GENS_A],
        # pd 11: the keys of t sort as strings, "10" before "2"
        ["betti", "--gens", "a, b, c, d, e, f, g, h, i, j, k"],
    ],
)
def test_json_output_is_the_stdlib_encoding(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


_JSON_CHARS = st.one_of(
    st.sampled_from('"\\/\x00\x1f\x7f\b\n\u00e9\u2028\ud800\U0001f600'),
    st.characters(),
)
_JSON_TEXT = st.text(_JSON_CHARS, max_size=8)
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**130), 2**130)
    | st.floats()
    | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=20,
)


@given(_JSON_VALUES)
def test_json_writer_matches_stdlib(obj):
    assert _json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_json_writer_rejects_a_non_string_key():
    with pytest.raises(TypeError):
        _json_text({"a": {1: 2}})


# ---------------------------------------------------------------------------
# input fuzz: every failure is a domain error, reported without a traceback

_INPUT_CHARS = st.one_of(st.sampled_from('xyzab019_()*,; #{}[]":\n\t-'), st.characters())
_INPUT_TEXT = st.text(_INPUT_CHARS, max_size=30)
_NAME = st.sampled_from(["x", "y", "z", "x(1)", "_a", "1x", "x y", "", "\u00e9"]) | _INPUT_TEXT
_JSON_IDEAL = st.fixed_dictionaries(
    {
        "variables": st.lists(_NAME, max_size=4),
        "generators": st.lists(
            st.lists(st.integers(-2, 8) | st.booleans() | _NAME, max_size=3), max_size=4
        ),
    }
)
_IDEAL_FILE = (
    _INPUT_TEXT
    | _JSON_IDEAL.map(json.dumps)
    | _JSON_VALUES.map(json.dumps)
    | _INPUT_TEXT.map(lambda t: "{" + t)
)
_TOKEN = st.sampled_from(["x", "y", "z", "a", "b", "c", "q", "x(1)", "1", "0", "5", "9"])
_MONOMIAL = st.lists(_TOKEN | _INPUT_TEXT, max_size=4).map("*".join) | _INPUT_TEXT
_LIST = st.lists(_MONOMIAL, max_size=5).map(",".join)
_FUZZ_CALLS = st.one_of(
    _IDEAL_FILE.map(lambda text: (["covers", "--minimal", "-i", "-"], text)),
    _LIST.map(lambda gens: (["covers", "--minimal", "--gens=" + gens], None)),
    _LIST.map(lambda seq: (["covers", "--gens", GENS_A, "--alpha", "--sequence=" + seq], None)),
    _MONOMIAL.map(lambda m: (["homology", "--gens", GENS_A, "--multidegree=" + m], None)),
    st.tuples(st.lists(_LIST, max_size=3).map(";".join), _LIST).map(
        lambda g: (["bouquets", "--gens", GENS_A, "--check=" + g[0], "--reps=" + g[1]], None)
    ),
)


@settings(max_examples=300, deadline=None)
@given(_FUZZ_CALLS)
@example((["covers", "--minimal", "--gens=--"], None))  # argparse stores [] for "--"
@example((["covers", "--gens", GENS_A, "--alpha", "--sequence=\u00b9"], None))  # a digit, not an int
def test_fuzzed_input_fails_only_with_a_domain_error(call):
    argv, stdin = call
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)  # main catches SqfBettiError; anything else escapes
    finally:
        sys.stdin = saved
    assert code in (0, 1), err.getvalue()
    if code == 1:
        assert any(line.startswith("error: ") for line in err.getvalue().splitlines())
