"""Tests for basepoint detection through iterated blowups."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from linser import baselocus
from linser.baselocus import (
    BasepointTree,
    get_basepoints,
    multiplicity,
    strict_transform,
    tree_from_json,
    tree_to_json,
)
from linser.bipoly import (
    BiPoly,
    deriv_eval,
    pullback_blowup,
    taylor_shift,
    uni_gcd_list,
)
from linser.errors import (
    InvalidInput,
    NonConstantGcd,
    NotABasepoint,
    RecursionLimitExceeded,
)
from linser.numfield import QQ, extend_field
from linser.parsing import parse_bipoly, tower_to_json


def series(texts, tower=QQ):
    return [parse_bipoly(s, tower) for s in texts]


def gaussian_pair():
    tower, _, i = extend_field(QQ, [1, 0, 1], "i")
    return tower, i


F_TEXTS = ("u^2 + v^2", "v^2 + u")


def test_four_node_tree_over_rationals():
    tree = get_basepoints(series(F_TEXTS))
    assert tree.node_count() == 4
    assert tree.tower.degree() == 2

    first, second, third = tree.roots
    assert (str(first.point[0]), str(first.point[1])) == ("0", "0")
    assert first.mult == 1
    assert len(first.children_t) == 1 and not first.children_s

    child = first.children_t[0]
    assert (str(child.point[0]), str(child.point[1])) == ("0", "0")
    assert child.mult == 1
    assert not child.children_t and not child.children_s
    assert child.sequence == ((first.point, "t"),)

    for node in (second, third):
        assert str(node.point[0]) == "1"
        assert node.mult == 1
        assert not node.children_t and not node.children_s
    assert {str(n.point[1]) for n in (second, third)} == {"-a0", "a0"}


def test_four_node_tree_with_declared_field():
    tower, i = gaussian_pair()
    tree = get_basepoints(series(F_TEXTS, tower))
    assert tree.tower == tower
    assert sorted(str(r.point[1]) for r in tree.roots) == ["-i", "0", "i"]
    assert {r.point[1] for r in tree.roots if str(r.point[0]) == "1"} == {i, -i}


def test_nodes_iterates_preorder():
    tree = get_basepoints(series(F_TEXTS))
    nodes = tree.nodes()
    assert len(nodes) == 4
    assert nodes[0] is tree.roots[0]
    assert nodes[1] is tree.roots[0].children_t[0]
    assert nodes[2] is tree.roots[1]
    assert tree.multiplicities() == [1, 1, 1, 1]


def test_blowup_transforms_at_origin():
    tower, _ = gaussian_pair()
    F = series(F_TEXTS, tower)
    origin = (tower.zero(), tower.zero())

    shifted = taylor_shift(F, origin)
    pulled_t = pullback_blowup(shifted, "t", 0)
    assert [str(f) for f in pulled_t] == ["u^2*v^2 + v^2", "u*v + v^2"]
    strict_t = strict_transform(F, [(origin, "t")])
    assert [str(f) for f in strict_t] == ["u^2*v + v", "u + v"]
    assert pullback_blowup(shifted, "t", 1) == strict_t

    pulled_s = pullback_blowup(shifted, "s", 0)
    assert [str(f) for f in pulled_s] == ["u^2*v^2 + u^2", "u^2*v^2 + u"]
    strict_s = strict_transform(F, [(origin, "s")])
    assert [str(f) for f in strict_s] == ["u*v^2 + u", "u*v^2 + 1"]
    assert pullback_blowup(shifted, "s", 1) == strict_s


def test_strict_transform_two_steps():
    tree = get_basepoints(series(F_TEXTS))
    tower = tree.tower
    F = series(F_TEXTS, tower)
    child = tree.roots[0].children_t[0]
    steps = list(child.sequence) + [(child.point, "t")]
    out = strict_transform(F, steps)
    # after the second blowup nothing vanishes at either chart origin
    assert all(not f.is_zero() for f in out)


def test_strict_transform_checks_the_gcd_once(monkeypatch):
    # a strict transform of a system with constant gcd keeps a constant
    # gcd, so only the input system is checked, not each step's pullback
    F = series(("v - u^6", "v^2"))
    node = next(n for n in get_basepoints(F).nodes() if len(n.sequence) == 3)
    calls = []
    real = baselocus.gcd_tuple

    def counted(polys):
        calls.append(polys)
        return real(polys)

    monkeypatch.setattr(baselocus, "gcd_tuple", counted)
    out = strict_transform(F, node.sequence)
    assert len(calls) == 1
    assert multiplicity(out, node.point) == node.mult


@pytest.mark.parametrize(
    "texts, gaussian, calls",
    [
        (("u^2 - 2", "v^2 - 3"), False, 0),  # four leaves
        (("v - u^6", "v^2"), False, 11),  # a chain of 12 nodes
        (F_TEXTS, True, 1),  # the ex2 golden system
    ],
)
def test_detection_pulls_back_only_charts_with_children(
    monkeypatch, texts, gaussian, calls
):
    # the exceptional line and chart s's test come from the tangent cones,
    # so a chart is pulled back only to carry its strict transforms to a child
    tower = gaussian_pair()[0] if gaussian else QQ
    charts = []
    real = baselocus.pullback_blowup

    def counted(shifted, chart, m):
        charts.append(chart)
        return real(shifted, chart, m)

    monkeypatch.setattr(baselocus, "pullback_blowup", counted)
    tree = get_basepoints(series(texts, tower))
    assert len(charts) == calls
    assert calls == sum(
        bool(n.children_t) + bool(n.children_s) for n in tree.nodes()
    )


def _line_by_pullback(shifted, m, tower):
    """The exceptional line and chart s's test through both strict
    transforms, by chart substitution and exact division."""
    zero = tower.zero()
    origin = (zero, zero)
    u, v = BiPoly.variable(tower, "u"), BiPoly.variable(tower, "v")
    strict_t = [f.subs_polys(u * v, v).exact_div(v ** m) for f in shifted]
    strict_s = [f.subs_polys(u, u * v).exact_div(u ** m) for f in shifted]
    line = uni_gcd_list(
        p for p in (f.substitute("v", zero) for f in strict_t) if not p.is_zero()
    )
    return line, all(not f.eval(origin) for f in strict_s)


def test_exceptional_line_matches_the_pullback():
    gauss, i = gaussian_pair()
    rng = random.Random(15)
    seen = set()
    for tower, values in (
        (QQ, (0, 0, 0, 1, -1, 2, Fraction(1, 2))),
        (gauss, (0, 0, 0, 1, -1, i, 1 - 2 * i)),
    ):
        for _ in range(60):
            m = rng.randint(1, 3)
            x, y = (tower.rational(0) + rng.choice(values) for _ in range(2))
            du = BiPoly.variable(tower, "u") - x
            dv = BiPoly.variable(tower, "v") - y
            polys = []
            for k in range(rng.randint(1, 3)):
                terms = {(a, d - a): rng.choice(values)
                         for d in range(m, m + 3) for a in range(d + 1)}
                if k == 0:
                    # a nonzero term of degree m fixes the multiplicity
                    a = rng.randint(0, m)
                    terms[(a, m - a)] = rng.choice(values[3:])
                polys.append(sum((c * du ** a * dv ** b for (a, b), c in terms.items()),
                                 BiPoly.zero(tower)))
            shifted, mult = baselocus._expansion(polys, (x, y))
            assert mult == m
            line, s_point = baselocus._exceptional_line(shifted, m, tower)
            assert (line, s_point) == _line_by_pullback(shifted, m, tower)
            seen.add((line.degree() > 0, s_point))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_single_node_tree():
    tree = get_basepoints(series(("u^2", "u*v", "u", "v^2", "v")))
    assert tree.node_count() == 1
    node = tree.roots[0]
    assert (str(node.point[0]), str(node.point[1])) == ("0", "0")
    assert node.mult == 1
    assert node.sequence == ()


def test_empty_tree():
    tree = get_basepoints(series(("1", "u")))
    assert tree.is_empty()
    assert tree.node_count() == 0
    assert tree.multiplicities() == []


def test_conic_strict_transform():
    G = series(("u^2", "u*v", "u", "v^2", "v"))
    out = strict_transform(G, [((QQ.zero(), QQ.zero()), "t")])
    assert [str(f) for f in out] == ["u^2*v", "u*v", "u", "v", "1"]


def test_multiplicity_values():
    F = series(F_TEXTS)
    assert multiplicity(F, (QQ.zero(), QQ.zero())) == 1
    assert multiplicity(F, (QQ.one(), QQ.one())) == 0
    G = series(("u^2", "u*v", "v^2"))
    assert multiplicity(G, (QQ.zero(), QQ.zero())) == 2
    tower, i = gaussian_pair()
    assert multiplicity(series(F_TEXTS, tower), (tower.one(), i)) == 1


def test_multiplicity_rejects_common_factor():
    # Both systems share the factor u.  Read off the expansion's lowest
    # total degree, they would give 2 and 1, the order of a generic member
    # of the cofactor system, not of the system itself.
    origin = (QQ.zero(), QQ.zero())
    with pytest.raises(NonConstantGcd):
        multiplicity(series(("u^2 - u*v", "u*v")), origin)
    with pytest.raises(NonConstantGcd):
        multiplicity(series(("u*(v - 1)", "u*(v + 1)")), (QQ.zero(), QQ.one()))


def test_multiplicity_matches_derivative_order():
    rng = random.Random(31)
    u = BiPoly.variable(QQ, "u")
    v = BiPoly.variable(QQ, "v")
    for _ in range(25):
        x = Fraction(rng.randint(-2, 2))
        y = Fraction(rng.randint(-2, 2))
        du = u - BiPoly.constant(QQ, QQ.rational(x))
        dv = v - BiPoly.constant(QQ, QQ.rational(y))
        orders = [rng.randint(0, 3) for _ in range(2)]
        F = []
        for m in orders:
            f = BiPoly.zero(QQ)
            for a in range(m + 1):
                f = f + du ** a * dv ** (m - a) * BiPoly.constant(
                    QQ, QQ.rational(Fraction(rng.randint(1, 3)))
                )
            f = f + du ** (m + 1) * dv ** rng.randint(0, 1)
            F.append(f)
        point = (QQ.rational(x), QQ.rational(y))
        by_gcd = multiplicity(F, point)
        by_deriv = min(
            min(
                a + b
                for a in range(5)
                for b in range(5)
                if not deriv_eval(f, a, b, point).is_zero()
            )
            for f in F
        )
        assert by_gcd == by_deriv == min(orders)


def test_node_multiplicity_matches_gcd_path():
    # each node's multiplicity, found during detection, is the multiplicity
    # at its point of the strict transform along the node's sequence
    tower, _ = gaussian_pair()
    systems = [
        series(("v - u^6", "v^2")),
        series(("v^2 - u^5", "u^6 + v^3")),
        series(("v^3 - u^7", "v^2 - u^4")),
        series(F_TEXTS, tower),
    ]
    for F in systems:
        for node in get_basepoints(F).nodes():
            transform = strict_transform(F, node.sequence)
            assert node.mult == multiplicity(transform, node.point)


# Pencils for the intersection-number oracle.  U and V stand for seeded
# affine images of u and v; these keep horizontal and vertical tangents.
ORACLE_PENCILS = (
    ("{V} - {U}^6", "{V}^2"),  # horizontal tangents: a chain of chart-s origins
    ("{V}^3 - {U}^7", "{V}^2 - {U}^4"),
    ("{U} - {V}^3", "{U}^2 + {V}^5"),  # vertical tangents: chart t's origin
    ("{U}^2 - {V}^3", "{U}^3 - 2*{V}^5"),
    ("{U} - {V}", "{U} + 2*{V}"),  # transversal crossings
    ("{U}^2 - 1", "{V}^2 - {U} - 1"),
    ("{V}^2 - 2*{U}^2 + {U}^3", "{V}^2 - 2*{U}^2 + {V}^3"),  # tangents v = +-sqrt(2)*u
)
GAUSSIAN_PENCILS = (
    ("{U}^2 + {V}^2", "{V}^2 + {U}"),
    ("{U}^2 + {V}^2", "{U}^3 - i*{V}^2"),
    ("{V} - i*{U}^2", "{V}^2 - {U}^5"),
    ("{U} - i*{V}^2", "{U}^2 + {V}^3"),
    ("{U} - i*{V}", "{U}^2 - {V}^2 + i*{U}"),
)


def _quotient_dim(polys, tower, sympy):
    """dim over the tower of K[u,v]/(polys), from a Groebner basis over QQ."""
    syms = sympy.symbols(("u", "v") + tower.names())
    names = {str(x): x for x in syms}
    exprs = [sympy.sympify(str(f).replace("^", "**"), locals=names) for f in polys]
    exprs += [
        sympy.sympify(g["minpoly"].replace("^", "**"), locals={**names, "t": names[g["name"]]})
        for g in tower_to_json(tower)
    ]
    G = sympy.groebner(exprs, *syms, order="grevlex")
    assert G.is_zero_dimensional
    leads = [sympy.Poly(g, *syms).monoms(order="grevlex")[0] for g in G.exprs]
    bounds = [min(lead[k] for lead in leads if sum(lead) == lead[k])
              for k in range(len(syms))]
    count = sum(
        1 for e in itertools.product(*map(range, bounds))
        if not any(all(a >= b for a, b in zip(e, lead)) for lead in leads)
    )
    return Fraction(count, tower.degree())


def test_squared_multiplicities_sum_to_quotient_dimension():
    sympy = pytest.importorskip("sympy")
    gauss, _ = gaussian_pair()
    rng = random.Random(2024)
    cases = [(p, QQ) for p in ORACLE_PENCILS] + [(p, gauss) for p in GAUSSIAN_PENCILS]
    seen = {"s": 0, "t at origin": 0}
    for templates, tower in cases:
        moves = {}
        for name, var in (("U", "u"), ("V", "v")):
            scale = rng.choice(("1", "-1", "2", "-1/2"))
            shift = rng.choice(("0", "1", "-1", "1/2"))
            moves[name] = f"({scale}*{var} + {shift})"
        F = series([t.format(**moves) for t in templates], tower)
        tree = get_basepoints(F)
        nodes = tree.nodes()
        assert sum(n.mult ** 2 for n in nodes) == _quotient_dim(F, tower, sympy), templates
        for node in nodes:
            for child in node.children_s:
                assert not child.point[0] and not child.point[1], templates
                seen["s"] += 1
            for child in node.children_t:
                seen["t at origin"] += not child.point[0]
    assert all(seen.values())


def test_not_a_basepoint():
    F = series(F_TEXTS)
    with pytest.raises(NotABasepoint):
        strict_transform(F, [((QQ.one(), QQ.one()), "t")])


def test_depth_limit_on_detection():
    with pytest.raises(RecursionLimitExceeded):
        get_basepoints(series(F_TEXTS), max_depth=1)
    tree = get_basepoints(series(F_TEXTS), max_depth=2)
    assert tree.node_count() == 4


def test_max_depth_validation():
    for bad in (0, -1, "3", 2.5, True):
        with pytest.raises(InvalidInput):
            get_basepoints(series(F_TEXTS), max_depth=bad)


def test_input_validation():
    with pytest.raises(InvalidInput):
        get_basepoints([])
    with pytest.raises(InvalidInput):
        get_basepoints([BiPoly.zero(QQ)])


def test_centers_are_pairs_of_field_elements():
    # every blowup and multiplicity expands about its center in taylor_shift,
    # which takes only a pair of ints, Fractions or FieldElements
    F = series(("(u - 1)^2 + v^3", "(u - 1)*v"))
    assert multiplicity(F, (1, 0)) == 2
    assert multiplicity(F, (Fraction(1), QQ.zero())) == 2
    for bad in ((1,), (1, 0, 7), ("x", "y"), (1.0, 0.0), 1, None):
        with pytest.raises(InvalidInput):
            multiplicity(F, bad)
        with pytest.raises(InvalidInput):
            strict_transform(F, [(bad, "t")])
        with pytest.raises(InvalidInput):
            deriv_eval(F[0], 0, 0, bad)


def test_json_round_trip_is_bit_exact():
    tower, _ = gaussian_pair()
    tree = get_basepoints(series(F_TEXTS, tower))
    doc = tree_to_json(tree)
    text = json.dumps(doc, indent=2)
    back = tree_from_json(json.loads(text))
    assert back == tree
    assert json.dumps(tree_to_json(back), indent=2) == text


def test_json_shape():
    tree = get_basepoints(series(("u^2", "u*v", "u", "v^2", "v")))
    doc = tree_to_json(tree)
    assert set(doc) == {"tower", "tree"}
    assert doc["tower"] == []
    node = doc["tree"][0]
    assert set(node) == {"sequence", "point", "mult", "children_t", "children_s"}
    assert node["point"] == ["0", "0"]
    assert node["mult"] == 1


def chain_doc(depth):
    root = {
        "sequence": [],
        "point": ["0", "0"],
        "mult": 1,
        "children_t": [],
        "children_s": [],
    }
    cur, seq = root, []
    for _ in range(depth - 1):
        seq = seq + [[["0", "0"], "t"]]
        child = {
            "sequence": [list(step) for step in seq],
            "point": ["0", "0"],
            "mult": 1,
            "children_t": [],
            "children_s": [],
        }
        cur["children_t"] = [child]
        cur = child
    return {"tower": [], "tree": [root]}


def test_json_depth_guard():
    assert tree_from_json(chain_doc(30)).node_count() == 30
    with pytest.raises(RecursionLimitExceeded):
        tree_from_json(chain_doc(40))
    assert tree_from_json(chain_doc(40), max_depth=64).node_count() == 40


def test_tree_document_parses_each_coordinate_once(monkeypatch):
    # a chain of depth 6 whose nodes repeat all their ancestors' points in
    # their sequences; chart t children sit at v = 0
    xs = ["1/2", "3", "-1", "2/3", "5", "-7"]
    root = {"sequence": [], "point": [xs[0], "-3/4"], "mult": 2,
            "children_t": [], "children_s": []}
    cur, seq = root, []
    for x in xs[1:]:
        seq = seq + [[cur["point"], "t"]]
        child = {"sequence": seq, "point": [x, "0"], "mult": 1,
                 "children_t": [], "children_s": []}
        cur["children_t"] = [child]
        cur = child
    doc = {"tower": [], "tree": [root]}
    calls = []
    parse = baselocus.parsing.parse_element

    def spy(text, tower):
        calls.append(text)
        return parse(text, tower)

    monkeypatch.setattr(baselocus.parsing, "parse_element", spy)
    tree = tree_from_json(doc)
    assert tree.node_count() == 6
    assert sorted(calls) == sorted(set(xs) | {"-3/4", "0"})
    assert tree_to_json(tree) == doc


def test_json_validation_errors():
    good = chain_doc(3)
    bad = json.loads(json.dumps(good))
    bad["tree"][0]["children_t"][0]["sequence"] = [[["1", "0"], "t"]]
    with pytest.raises(InvalidInput):
        tree_from_json(bad)

    bad = json.loads(json.dumps(good))
    bad["tree"][0]["mult"] = 0
    with pytest.raises(InvalidInput):
        tree_from_json(bad)

    bad = json.loads(json.dumps(good))
    bad["tree"][0]["mult"] = True
    with pytest.raises(InvalidInput):
        tree_from_json(bad)

    bad = json.loads(json.dumps(good))
    del bad["tree"][0]["children_s"]
    with pytest.raises(InvalidInput):
        tree_from_json(bad)

    bad = json.loads(json.dumps(good))
    bad["extra"] = 1
    with pytest.raises(InvalidInput):
        tree_from_json(bad)

    # a T-chart child must sit at v = 0
    bad = json.loads(json.dumps(good))
    bad["tree"][0]["children_t"][0]["point"] = ["0", "1"]
    bad["tree"][0]["children_t"][0]["children_t"] = []
    with pytest.raises(InvalidInput):
        tree_from_json(bad)


def test_json_rejects_two_siblings_at_one_point():
    leaf = chain_doc(1)["tree"][0]
    with pytest.raises(InvalidInput, match="two roots"):
        tree_from_json({"tower": [], "tree": [leaf, leaf]})
    for chart in ("t", "s"):
        doc = chain_doc(2)
        root = doc["tree"][0]
        child = root.pop("children_t")[0]
        child["sequence"][0][1] = chart
        root["children_t"] = []
        root["children_" + chart] = [child, child]
        with pytest.raises(InvalidInput, match="two children_" + chart):
            tree_from_json(doc)
        # distinct siblings still load
        other = json.loads(json.dumps(child))
        other["point"] = ["1", "0"] if chart == "t" else ["0", "1"]
        root["children_" + chart] = [child, other]
        assert tree_from_json(doc).node_count() == 3


def test_json_rejects_a_t_child_and_an_s_child_at_one_point():
    # the S-chart point (0, c) with c != 0 is the T-chart point (1/c, 0)
    def child(point, chart):
        return {"sequence": [[["0", "0"], chart]], "point": point, "mult": 1,
                "children_t": [], "children_s": []}

    def doc(children_t, children_s):
        root = {"sequence": [], "point": ["0", "0"], "mult": 2,
                "children_t": children_t, "children_s": children_s}
        return {"tower": [], "tree": [root]}

    with pytest.raises(InvalidInput, match="T-branch child and an S-branch child"):
        tree_from_json(doc([child(["1/2", "0"], "t")], [child(["0", "2"], "s")]))
    with pytest.raises(InvalidInput, match="T-branch child and an S-branch child"):
        tree_from_json(doc([child(["0", "0"], "t"), child(["-3", "0"], "t")],
                           [child(["0", "-1/3"], "s")]))
    # a lone S-child off the origin, and distinct points in both charts, load
    assert tree_from_json(doc([], [child(["0", "2"], "s")])).node_count() == 2
    tree = tree_from_json(doc([child(["1/3", "0"], "t")], [child(["0", "0"], "s"),
                                                          child(["0", "2"], "s")]))
    assert tree.node_count() == 4


def test_with_multiplicities():
    tower, _ = gaussian_pair()
    tree = get_basepoints(series(F_TEXTS, tower))
    scaled = tree.with_multiplicities([2, 1, 0, 3])
    assert scaled.multiplicities() == [2, 1, 0, 3]
    assert scaled.roots[0].sequence == tree.roots[0].sequence
    assert scaled.tower == tree.tower
    with pytest.raises(InvalidInput):
        tree.with_multiplicities([1, 1])
    with pytest.raises(InvalidInput):
        tree.with_multiplicities([1, 1, 1, -1])


def test_tree_equality():
    a = get_basepoints(series(F_TEXTS))
    b = get_basepoints(series(F_TEXTS))
    assert a == b
    assert isinstance(a, BasepointTree)
    c = get_basepoints(series(("u^2", "u*v", "u", "v^2", "v")))
    assert a != c
