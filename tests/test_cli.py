"""End-to-end tests for the command line interface.

Each test drives the installed module through a subprocess, so argument
parsing, exit codes, and byte-exact output all get exercised the way a
shell user would see them.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from linser import cli
from linser.cli import MAX_BASIS_DEGREE
from linser.numfield import MAX_DIGITS, QQ
from linser.parsing import MAX_EXPONENT, MAX_NESTING, parse_bipoly

GOLDEN = Path(__file__).parent / "golden"


def run(*args, stdin=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "linser.cli", *args],
        input=stdin,
        capture_output=True,
        timeout=timeout,
    )


def golden_bytes(name):
    return (GOLDEN / name).read_bytes()


def gpath(name):
    return str(GOLDEN / name)


def test_basepoints_golden():
    out = run("basepoints", gpath("ex2_input.json"))
    assert out.returncode == 0
    assert out.stdout == golden_bytes("ex2_basepoints.out.json")
    assert out.stderr == b""


def test_main_called_repeatedly_in_one_process(capsys):
    # the parser is built once per process; later calls must not see state
    # left by earlier ones, a failed parse included
    assert cli.main(["basepoints", gpath("ex2_input.json")]) == 0
    assert capsys.readouterr().out.encode() == golden_bytes("ex2_basepoints.out.json")
    argv = ["series", gpath("ex2_basepoints.out.json"), "--basis", "deg:2"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.encode() == golden_bytes("ex2_series.out.json")
    with pytest.raises(SystemExit) as exc:
        cli.main(["series", gpath("ex2_basepoints.out.json")])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert cli.main(["basepoints", gpath("ex2_input.json")]) == 0
    assert capsys.readouterr().out.encode() == golden_bytes("ex2_basepoints.out.json")


def test_basepoints_cube_root_golden():
    # the points need t^2 + a0*t + a0^2 factored over Q(a0), through a
    # Trager norm over QQ
    out = run("basepoints", gpath("cube_root_input.json"))
    assert out.returncode == 0
    assert out.stdout == golden_bytes("cube_root_basepoints.out.json")
    assert out.stderr == b""


def test_basepoints_deterministic():
    first = run("basepoints", gpath("ex2_input.json"))
    second = run("basepoints", gpath("ex2_input.json"))
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_basepoints_reads_stdin():
    data = (GOLDEN / "ex2_input.json").read_bytes()
    out = run("basepoints", "-", stdin=data)
    assert out.returncode == 0
    assert out.stdout == golden_bytes("ex2_basepoints.out.json")


def test_basepoints_output_feeds_series():
    # the basepoints document is exactly what the series command consumes
    tree_doc = run("basepoints", gpath("ex2_input.json")).stdout
    out = run("series", "-", "--basis", "deg:2", stdin=tree_doc)
    assert out.returncode == 0
    assert out.stdout == golden_bytes("ex2_series.out.json")


def test_series_golden():
    out = run("series", gpath("ex2_basepoints.out.json"), "--basis", "deg:2")
    assert out.returncode == 0
    assert out.stdout == golden_bytes("ex2_series.out.json")


def test_series_bidegree_golden():
    out = run("series", gpath("product_tree.json"), "--basis", "bideg:1,1")
    assert out.returncode == 0
    assert out.stdout == golden_bytes("product_series.out.json")
    doc = json.loads(out.stdout)
    assert doc["series"] == ["-u*v + 1", "u + v"]


def test_series_bidegree_dimension():
    out = run("series", gpath("product_tree.json"), "--basis", "bideg:2,2")
    assert out.returncode == 0
    assert len(json.loads(out.stdout)["series"]) == 7


def test_series_empty_tree():
    out = run("series", gpath("empty_tree.json"), "--basis", "deg:1")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["basis"] == ["u", "v", "1"]
    assert doc["matrix"] == []
    assert doc["series"] == ["u", "v", "1"]


def test_invariants_golden():
    out = run("invariants", gpath("conic_input.json"))
    assert out.returncode == 0
    assert out.stdout == golden_bytes("conic_invariants.out.json")


def test_invariants_quintic_golden():
    out = run("invariants", gpath("quintic_input.json"))
    assert out.returncode == 0
    assert out.stdout == golden_bytes("quintic_invariants.out.json")
    doc = json.loads(out.stdout)
    assert doc["degree"] == 20
    assert doc["sectional_genus"] == 5
    assert doc["h0"] == 17
    assert doc["arithmetic_genus"] == 0


def test_complete_golden():
    out = run("complete", gpath("q42_input.json"), "--basis", "deg:2")
    assert out.returncode == 0
    assert out.stdout == golden_bytes("q42_complete.out.json")


def test_adjoint_golden():
    out = run("adjoint", gpath("quintic_input.json"), "--basis", "deg:5")
    assert out.returncode == 0
    assert out.stdout == golden_bytes("quintic_adjoint.out.json")
    doc = json.loads(out.stdout)
    assert doc["series"] == ["u^2", "u*v", "u", "v^2", "v"]


def test_strict_transform_golden():
    out = run("strict-transform", gpath("strict_input.json"))
    assert out.returncode == 0
    assert out.stdout == golden_bytes("strict.out.json")


def test_pretty_goes_to_stderr():
    out = run("basepoints", gpath("ex2_input.json"), "--pretty")
    assert out.returncode == 0
    assert out.stdout == golden_bytes("ex2_basepoints.out.json")
    assert out.stderr == golden_bytes("ex2_pretty.txt")


def test_exit_2_on_parse_error():
    out = run("basepoints", gpath("parse_error_input.json"))
    assert out.returncode == 2
    assert out.stdout == b""
    assert out.stderr != b""


def test_exit_2_on_deep_nesting():
    texts = ("(" * 3000 + "u" + ")" * 3000, "-" * 3000 + "2u")
    docs = [json.dumps({"series": [text, "v"]}) for text in texts]
    docs.append("[" * 100000 + "]" * 100000)  # JSON past the recursion limit
    for doc in docs:
        out = run("basepoints", "-", stdin=doc.encode())
        assert out.returncode == 2
        assert out.stdout == b""
        assert b"Traceback" not in out.stderr


def test_nesting_up_to_the_bound_parses():
    n = MAX_NESTING
    doc = {"series": ["(" * n + "u" + ")" * n, "-" * 3001 + "v"]}
    out = run("basepoints", "-", stdin=json.dumps(doc).encode())
    assert out.returncode == 0
    doc["series"][0] = "(" + doc["series"][0] + ")"
    out = run("basepoints", "-", stdin=json.dumps(doc).encode())
    assert out.returncode == 2


def test_exit_2_on_reducible_extension():
    out = run("basepoints", gpath("reducible_input.json"))
    assert out.returncode == 2


def test_exit_2_on_missing_file():
    out = run("basepoints", gpath("no_such_file.json"))
    assert out.returncode == 2


def test_exit_2_on_bad_basis():
    for spec in ("deg:x", "foo:3", "bideg:1", "deg:-1"):
        out = run("series", gpath("empty_tree.json"), "--basis", spec)
        assert out.returncode == 2, spec


def test_exit_2_when_basis_missing():
    out = run("series", gpath("empty_tree.json"))
    assert out.returncode == 2


def test_exit_2_on_unknown_command():
    out = run("frobnicate", gpath("conic_input.json"))
    assert out.returncode == 2


def test_exit_3_on_common_factor():
    out = run("basepoints", gpath("common_factor_input.json"))
    assert out.returncode == 3
    assert out.stdout == b""


@pytest.mark.parametrize(
    "series, factor",
    [
        (["u*v"], "u*v"),
        (["u^2-1", "(u-1)*v"], "u - 1"),
        (["(u-1)*v", "(u-1)*(v+2)"], "u - 1"),
        (["(u-v)*(u+1)", "(u-v)*(v+3)"], "u - v"),
        (["(u-v)*(u+1)", "(u-v)*(v+3)", "(u-v)*(u*v-2)"], "u - v"),
        (["(u^3-2)*(v-1)", "(u^3-2)*(v+u)"], "u^3 - 2"),
    ],
    ids=["one-member", "in-u-with-v-free", "in-u", "in-v-two", "in-v-three", "needs-extension"],
)
def test_common_factor_message(series, factor):
    out = run("basepoints", "-", stdin=json.dumps({"series": series}).encode())
    assert out.returncode == 3
    assert out.stdout == b""
    assert out.stderr.decode() == f"error: system has the common factor {factor}\n"


def test_exit_3_on_no_adjoint():
    out = run("adjoint", gpath("conic_input.json"), "--basis", "deg:2")
    assert out.returncode == 3


def test_exit_3_on_not_a_basepoint():
    out = run("strict-transform", gpath("strict_bad_input.json"))
    assert out.returncode == 3


def test_exit_3_on_common_factor_in_transform():
    # in the second system the pullback's gcd is u, the exceptional
    # coordinate alone; the common factor is refused all the same
    for doc in (
        {"series": ["u^2-u*v", "u*v"], "sequence": [[["0", "0"], "t"]]},
        {"series": ["u*(v-1)", "u*(v+1)"], "sequence": [[["0", "1"], "s"]]},
    ):
        out = run("strict-transform", "-", stdin=json.dumps(doc).encode())
        assert out.returncode == 3
        assert out.stdout == b""


def test_exit_4_on_depth_limit():
    out = run("series", gpath("deep_tree.json"), "--basis", "deg:1")
    assert out.returncode == 4
    assert out.stdout == b""


def test_exit_4_on_depth_limit_of_high_degree_chain():
    # a chain of 1200 infinitely near points, with degrees past the
    # interpreter's recursion limit, stops cleanly at the depth bound
    doc = {"series": ["v", "u^1200 + v"]}
    out = run("basepoints", "-", stdin=json.dumps(doc).encode())
    assert out.returncode == 4
    assert b"Traceback" not in out.stderr


def test_exit_4_on_depth_limit_of_high_power_chain():
    # the gcds and resultants along this chain take pseudo-remainders by
    # divisors with leading coefficient 1, which must cost no rescaling
    doc = {"series": ["(u+v)^400", "v"]}
    out = run("basepoints", "-", stdin=json.dumps(doc).encode(), timeout=10)
    assert out.returncode == 4
    assert b"Traceback" not in out.stderr


def test_exit_4_when_a_raised_depth_limit_meets_the_recursion_limit():
    # a 300-point chain under --max-depth 5000 nests past the interpreter's
    # recursion limit before the depth bound trips
    doc = {"series": ["v", "u^300"]}
    out = run("basepoints", "-", "--max-depth", "5000", stdin=json.dumps(doc).encode(),
              timeout=60)
    assert out.returncode == 4
    assert out.stdout == b""
    assert out.stderr.count(b"\n") == 1 and b"Traceback" not in out.stderr


def test_exit_4_on_exponent_past_the_bound():
    assert parse_bipoly(f"u^{MAX_EXPONENT}", QQ).degree() == MAX_EXPONENT
    for power in (MAX_EXPONENT + 1, 100000000):
        doc = {"series": ["v", f"u^{power} + v"]}
        out = run("basepoints", "-", stdin=json.dumps(doc).encode(), timeout=20)
        assert out.returncode == 4
        assert out.stdout == b""
        assert b"exponent" in out.stderr and b"Traceback" not in out.stderr


def test_exit_4_on_expansion_past_the_product_budget():
    # (u+v)^3000 needs about 3.6M coefficient products, (u+v+1)^250 about 73M;
    # (123456789*u+v)^1000 as many as (u+v)^1000, which parses, but on
    # integers of hundreds of machine words (15 s unweighted); (3^10000)^10000
    # needs a few dozen, of single integers growing to millions of words
    for text, seconds in (("(u+v)^3000", 20), ("(u+v+1)^250", 20),
                          ("(123456789*u+v)^1000", 10), ("(3^10000)^10000 + v", 10)):
        doc = {"series": ["v", text]}
        out = run("basepoints", "-", stdin=json.dumps(doc).encode(), timeout=seconds)
        assert out.returncode == 4, text
        assert out.stdout == b""
        assert b"coefficient products" in out.stderr and b"Traceback" not in out.stderr


def test_exit_4_on_basis_degree_past_the_bound():
    out = run("series", gpath("empty_tree.json"), "--basis",
              f"bideg:{MAX_BASIS_DEGREE},0", timeout=20)
    assert out.returncode == 0
    for spec in (f"bideg:0,{MAX_BASIS_DEGREE + 1}", "deg:100000"):
        out = run("complete", gpath("q42_input.json"), "--basis", spec, timeout=20)
        assert out.returncode == 4, spec
        assert out.stdout == b""
        assert b"basis" in out.stderr and b"Traceback" not in out.stderr


def test_exit_4_on_integers_past_the_digit_limit():
    long = "1" * (MAX_DIGITS + 1)
    ok = {"series": ["v", f"{long[1:]}*u + v^2"]}
    assert run("basepoints", "-", stdin=json.dumps(ok).encode()).returncode == 0
    for series in (
        ["v", f"{long}*u + v^2"],  # numerator literal
        ["v", f"1/{long}*u + v^2"],  # denominator literal
        ["u - 3^9100", "v"],  # a printed coordinate of 4343 digits
    ):
        doc = {"series": series}
        out = run("basepoints", "-", stdin=json.dumps(doc).encode(), timeout=20)
        assert out.returncode == 4, series
        assert out.stdout == b""
        assert b"digits" in out.stderr and b"Traceback" not in out.stderr
    tree = ('{"tower": [], "tree": [{"sequence": [], "point": ["0", "0"], '
            f'"mult": {long}, "children_t": [], "children_s": []}}]}}')
    out = run("series", "-", "--basis", "deg:1", stdin=tree.encode())
    assert out.returncode == 4
    assert b"digits" in out.stderr and b"Traceback" not in out.stderr


def _sum_of_squared_mults(nodes):
    return sum(
        n["mult"] ** 2 + _sum_of_squared_mults(n["children_t"] + n["children_s"])
        for n in nodes
    )


@pytest.mark.parametrize(
    "series, dim",
    [
        (["u*v - 1", "u^2 + v^2 - 5"], 4),
        (["v^2 - u^3", "u^2 - v^3"], 9),
        (["u^4 + u + 1", "v - u^2"], 4),
        (["u^3 - 2", "v^3 - 3"], 9),
    ],
)
def test_basepoints_over_quartic_towers(series, dim):
    # The first two systems need a degree-4 tower whose minimal polynomial
    # has a t^2 term; the third needs the degree-24 splitting field of
    # u^4 + u + 1; in the fourth, the fiber over each root of u^3 - 2 is
    # v^3 - 3, whose roots are adjoined for the first fiber only, reaching a
    # tower of degree 18.  For a pencil without common factor, the squared
    # multiplicities over the whole tree add up to dim Q[u,v]/(f, g).
    doc = {"series": series}
    out = run("basepoints", "-", stdin=json.dumps(doc).encode(), timeout=20)
    assert out.returncode == 0
    assert _sum_of_squared_mults(json.loads(out.stdout)["tree"]) == dim


def test_max_depth_raises_the_limit():
    out = run("series", gpath("deep_tree.json"), "--basis", "deg:1",
              "--max-depth", "64")
    assert out.returncode == 0


def test_basepoints_max_depth_too_small():
    out = run("basepoints", gpath("ex2_input.json"), "--max-depth", "1")
    assert out.returncode == 4


def test_variables_field_is_checked():
    doc = json.loads((GOLDEN / "conic_input.json").read_text())
    doc["variables"] = ["x", "y"]
    out = run("invariants", "-", stdin=json.dumps(doc).encode())
    assert out.returncode == 2
    doc["variables"] = ["u", "v"]
    out = run("invariants", "-", stdin=json.dumps(doc).encode())
    assert out.returncode == 0


def test_invariants_rejects_a_zero_generator_before_choosing_a_degree():
    # the default degree is the generators' largest, which a zero series lacks
    out = run("invariants", "-", stdin=b'{"series": ["0"]}')
    assert out.returncode == 2
    assert out.stdout == b""
    assert out.stderr == b"error: series generators are linearly dependent\n"


def test_series_rejects_a_t_child_and_an_s_child_at_one_point():
    # S-child (0, 2) is the T-child (1/2, 0); both gave a fifth condition
    # row, four times the fourth, and exit 0
    def child(point, chart):
        return {"sequence": [[["0", "0"], chart]], "point": point, "mult": 1,
                "children_t": [], "children_s": []}

    root = {"sequence": [], "point": ["0", "0"], "mult": 2,
            "children_t": [child(["1/2", "0"], "t")], "children_s": [child(["0", "2"], "s")]}
    doc = {"tower": [], "tree": [root]}
    out = run("series", "--basis", "deg:2", "-", stdin=json.dumps(doc).encode())
    assert out.returncode == 2
    assert out.stdout == b""
    assert out.stderr == b"error: a T-branch child and an S-branch child lie at the same point\n"


def test_unknown_field_rejected():
    doc = json.loads((GOLDEN / "conic_input.json").read_text())
    doc["serie"] = doc["series"]
    out = run("invariants", "-", stdin=json.dumps(doc).encode())
    assert out.returncode == 2


def test_chart_field_accepted_and_not_echoed():
    doc = json.loads((GOLDEN / "conic_input.json").read_text())
    doc["chart"] = "x0 != 0"
    out = run("invariants", "-", stdin=json.dumps(doc).encode())
    assert out.returncode == 0
    assert out.stdout == golden_bytes("conic_invariants.out.json")


_ADVERSARIAL_PAYLOADS = [
    {},
    [],
    "",
    {"a": {}, "b": [], "c": [[]], "d": [{}], "e": {"f": {"g": []}}},
    {"text": 'quote " backslash \\ slash / tab \t newline \n nul \x00 bell \x07 del \x7f'},
    {"non-ascii": ["é", "ß", "ü", "∞", "日本", "\U0001f600", "  "]},
    {"é \"key\" \\ \n": "value"},
    {"leaves": [None, True, False, 0, -1, 2**70, -(3**40)]},
    {"tuple": (1, "two", (None, ()), [()])},
    [[[[["deep"]]]], {"x": [1, {"y": [2, {"z": []}]}]}],
    None,
    True,
    7,
]


@pytest.mark.parametrize("payload", _ADVERSARIAL_PAYLOADS)
def test_report_writer_matches_json_dumps(payload):
    assert cli._dumps(payload) == json.dumps(payload, indent=2)


def test_report_writer_matches_json_dumps_on_every_golden():
    for path in sorted(GOLDEN.glob("*.json")):
        payload = json.loads(path.read_text())
        assert cli._dumps(payload) == json.dumps(payload, indent=2), path.name
        if path.name.endswith(".out.json"):
            assert (cli._dumps(payload) + "\n").encode() == path.read_bytes(), path.name
