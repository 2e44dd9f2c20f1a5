"""Fuzz: arbitrary text into the parsers and arbitrary JSON into the CLI.

Every input must end in a value or a library error, which the CLI maps to
exit 2, 3 or 4, never in a traceback.  The runs are derandomized, so a
failure reproduces; without hypothesis the tests are skipped.
"""

import io
import json
import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from linser import cli  # noqa: E402
from linser.errors import LinserError  # noqa: E402
from linser.numfield import QQ, extend_field  # noqa: E402
from linser.parsing import parse_bipoly, parse_element, parse_unipoly  # noqa: E402

GAUSS = extend_field(QQ, [1, 0, 1], "i")[0]
GAUSS_JSON = [{"name": "i", "minpoly": "t^2 + 1"}]

# the grammar's characters, some near misses and any character at all
texts = st.text(
    st.sampled_from(list("uvti0123456789+-*^/()_ \n.,x²½٣")) | st.characters(),
    max_size=30,
)
scalars = st.none() | st.booleans() | st.integers() | st.floats() | texts
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
# small polynomials, so that a well-formed system solves in milliseconds
monomials = st.builds(
    lambda c, a, b: c + "*".join(["u"] * a + ["v"] * b or ["1"]),
    st.sampled_from(["", "2*", "-", "1/2*", "-3*", "i*"]),
    st.integers(0, 2),
    st.integers(0, 2),
)
sums = st.lists(monomials, min_size=1, max_size=3).map(" + ".join)
polynomials = st.one_of(sums, sums, sums, texts)
small = st.sampled_from(["0", "1", "-1", "1/2", "2", "i", "1 + i"])
coordinates = st.one_of(small, small, texts)
fields = st.one_of(st.just([]), st.just([]), st.just(GAUSS_JSON), json_values)


def _node(sequence, chart):
    if chart == "s":
        point = st.tuples(st.just("0"), coordinates)
    else:
        point = st.tuples(coordinates, st.just("0"))
    return st.fixed_dictionaries({
        "sequence": st.just(sequence),
        "point": st.one_of(point, point, st.tuples(coordinates, coordinates)).map(list),
        "mult": st.integers(-1, 3) | json_values,
        "children_t": st.just([]),
        "children_s": st.just([]),
    })


def _root(point):
    children = {ch: st.lists(_node([[point, ch]], ch), max_size=2) for ch in ("t", "s")}
    return st.fixed_dictionaries({
        "sequence": st.just([]),
        "point": st.just(point),
        "mult": st.integers(1, 3),
        "children_t": children["t"],
        "children_s": children["s"],
    })


series_docs = st.fixed_dictionaries(
    {"series": st.lists(polynomials, min_size=1, max_size=3)},
    optional={"extensions": fields, "variables": st.one_of(st.just(["u", "v"]), json_values)},
)
tree_docs = st.fixed_dictionaries({
    "tower": fields,
    "tree": st.lists(st.lists(coordinates, min_size=2, max_size=2).flatmap(_root), max_size=2),
})


def _exit_code(argv, stdin: str) -> int:
    """cli.main on stdin, its output discarded; any exception it lets
    through propagates and fails the test."""
    real = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), io.StringIO(), io.StringIO()
    try:
        return cli.main(argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = real


@settings(derandomize=True, max_examples=300, deadline=None)
@given(texts | polynomials, st.booleans())
def test_parsers_raise_only_library_errors(text, gaussian):
    tower = GAUSS if gaussian else QQ
    for parse in (parse_bipoly, lambda s, t: parse_unipoly(s, t, "t"), parse_element):
        try:
            parse(text, tower)
        except LinserError:
            pass


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.sampled_from(
        [["basepoints", "-"], ["invariants", "-"], ["invariants", "--basis", "deg:3", "-"]]
    ),
    st.one_of(series_docs, series_docs, json_values),
)
def test_series_documents_exit_with_a_documented_code(argv, doc):
    assert _exit_code(argv, json.dumps(doc)) in (0, 2, 3, 4)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(["deg:2", "bideg:1,1"]), st.one_of(tree_docs, tree_docs, json_values))
def test_tree_documents_exit_with_a_documented_code(basis, doc):
    assert _exit_code(["series", "--basis", basis, "-"], json.dumps(doc)) in (0, 2, 3, 4)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.sampled_from(["basepoints", "invariants"]), texts)
def test_text_that_is_not_json_exits_2(command, text):
    try:
        json.loads(text)
    except ValueError:
        assert _exit_code([command, "-"], text) == 2
