"""Tests for linear series with assigned basepoints."""

from math import factorial

import pytest

from linser import _gauss, linseries
from linser.baselocus import BasepointNode, BasepointTree, get_basepoints, tree_from_json
from linser.bipoly import BiPoly, common_tower
from linser.errors import InvalidInput, NoAdjoint
from linser.linseries import (
    Bidegree,
    LinearSeries,
    TotalDegree,
    adjoint_series,
    complete_series,
    decremented_tree,
    fits_degree,
    kernel_basis,
    kernel_members,
    monomial_basis,
    series_through,
    set_basepoints,
    span_contains,
    spans_equal,
)
from linser.numfield import QQ, extend_field
from linser.parsing import parse_bipoly, parse_element


def bp(text, tower=QQ):
    return parse_bipoly(text, tower)


def series(texts, tower=QQ):
    return LinearSeries([bp(s, tower) for s in texts])


QUINTIC_TEXTS = (
    "u^5", "u^4*v", "u^4", "u^3*v^2", "u^3*v", "u^3", "u^2*v^3", "u^2*v^2",
    "u^2*v", "u^2", "u*v^4", "u*v^3", "u*v^2", "u*v", "v^5 - v^2",
    "v^4 - v^2", "v^3 - v^2",
)

CONIC_TEXTS = ("u^2", "u*v", "u", "v^2", "v")


def gaussian():
    return extend_field(QQ, [1, 0, 1], "i")


def conjugate_pair_tree():
    tower, _, _ = gaussian()
    a = (parse_element("i", tower), parse_element("-i", tower))
    b = (parse_element("-i", tower), parse_element("i", tower))
    return BasepointTree((BasepointNode((), a, 1), BasepointNode((), b, 1)), tower)


def test_monomial_basis_orders():
    assert [str(g) for g in monomial_basis(TotalDegree(2))] == [
        "u^2", "u*v", "u", "v^2", "v", "1",
    ]
    assert [str(g) for g in monomial_basis(Bidegree(2, 2))] == [
        "1", "v", "v^2", "u", "u*v", "u*v^2", "u^2", "u^2*v", "u^2*v^2",
    ]
    assert [str(g) for g in monomial_basis(TotalDegree(0))] == ["1"]
    assert len(monomial_basis(TotalDegree(5))) == 21


def test_degree_spec_validation():
    with pytest.raises(InvalidInput):
        TotalDegree(-1)
    with pytest.raises(InvalidInput):
        TotalDegree(True)
    with pytest.raises(InvalidInput):
        Bidegree(1, -2)


def test_fits_degree():
    assert fits_degree(bp("u^2*v"), TotalDegree(3))
    assert not fits_degree(bp("u^2*v"), TotalDegree(2))
    assert fits_degree(bp("u^2*v"), Bidegree(2, 1))
    assert not fits_degree(bp("u^2*v"), Bidegree(1, 1))


def test_linear_series_rejects_dependence():
    with pytest.raises(InvalidInput):
        series(("u", "2*u"))
    with pytest.raises(InvalidInput):
        series(("u + v", "u - v", "u"))


def test_linear_series_basics():
    s = series(CONIC_TEXTS)
    assert len(s) == 5
    assert s.tower == QQ
    empty = LinearSeries([])
    assert len(empty) == 0


def test_constraint_matrix_golden():
    tower, _, _ = gaussian()
    tree = get_basepoints([bp("u^2 + v^2", tower), bp("v^2 + u", tower)])
    M = set_basepoints(tree, monomial_basis(TotalDegree(2)))
    assert [[str(e) for e in row] for row in M.rows] == [
        ["0", "0", "0", "0", "0", "1"],
        ["0", "0", "0", "0", "1", "0"],
        ["1", "-i", "1", "-1", "-i", "1"],
        ["1", "i", "1", "-1", "i", "1"],
    ]
    assert M.ncols == 6


def test_kernel_golden():
    tower, _, _ = gaussian()
    tree = get_basepoints([bp("u^2 + v^2", tower), bp("v^2 + u", tower)])
    M = set_basepoints(tree, monomial_basis(TotalDegree(2)))
    K = kernel_basis(M)
    assert [[str(e) for e in vec] for vec in K] == [
        ["1", "0", "0", "1", "0", "0"],
        ["0", "0", "1", "1", "0", "0"],
    ]


def test_kernel_annihilates_matrix():
    tower, _, _ = gaussian()
    tree = get_basepoints([bp("u^2 + v^2", tower), bp("v^2 + u", tower)])
    M = set_basepoints(tree, monomial_basis(TotalDegree(2)))
    for vec in kernel_basis(M):
        for row in M.rows:
            total = tower.zero()
            for c, x in zip(row, vec):
                total = total + c * x
            assert total.is_zero()


def test_rank_nullity():
    tower, _, _ = gaussian()
    tree = get_basepoints([bp("u^2 + v^2", tower), bp("v^2 + u", tower)])
    for spec in (TotalDegree(2), TotalDegree(3), Bidegree(2, 2)):
        M = set_basepoints(tree, monomial_basis(spec))
        rank = _gauss.rank([list(r) for r in M.rows])
        assert rank + len(kernel_basis(M)) == M.ncols


def test_series_through_golden():
    tower, _, _ = gaussian()
    tree = get_basepoints([bp("u^2 + v^2", tower), bp("v^2 + u", tower)])
    S = series_through(tree, monomial_basis(TotalDegree(2)))
    assert spans_equal(S, series(("u^2 + v^2", "u + v^2"), tower))


def test_single_simple_basepoint_row():
    tree = get_basepoints([bp(s) for s in CONIC_TEXTS])
    M = set_basepoints(tree, monomial_basis(TotalDegree(2)))
    assert [[str(e) for e in row] for row in M.rows] == [
        ["0", "0", "0", "0", "0", "1"]
    ]


def test_empty_tree_keeps_everything():
    tree = get_basepoints([bp("1"), bp("u")])
    basis = monomial_basis(TotalDegree(2))
    M = set_basepoints(tree, basis)
    assert M.rows == ()
    assert len(kernel_basis(M)) == 6
    assert spans_equal(series_through(tree, basis), basis)


def test_multiple_rows_per_fat_point():
    tree = get_basepoints([bp("u^2"), bp("u*v"), bp("v^2")])
    assert tree.multiplicities() == [2]
    M = set_basepoints(tree, monomial_basis(TotalDegree(2)))
    # orders (0,0), (0,1), (1,0) in that order
    assert [[str(e) for e in row] for row in M.rows] == [
        ["0", "0", "0", "0", "0", "1"],
        ["0", "0", "0", "0", "1", "0"],
        ["0", "0", "1", "0", "0", "0"],
    ]


def test_conjugate_pair_series():
    gamma = conjugate_pair_tree()
    S = series_through(gamma, series(("1", "v", "u", "u*v")))
    assert spans_equal(S, series(("1 - u*v", "u + v")))


def test_conjugate_pair_bidegree_dimension():
    gamma = conjugate_pair_tree()
    S = series_through(gamma, monomial_basis(Bidegree(2, 2)))
    assert len(S) == 7


def test_series_coefficients_stay_rational_when_possible():
    # the conjugate pair imposes conjugate conditions, so the kernel of the
    # constraint matrix is spanned by vectors with rational entries
    gamma = conjugate_pair_tree()
    S = series_through(gamma, series(("1", "v", "u", "u*v")))
    for g in S:
        for _, c in g.terms().items():
            assert c.is_rational()


def test_complete_series_conic():
    F = series(("u^2 - u*v", "u", "v^2", "v"))
    C = complete_series(F, TotalDegree(2))
    assert spans_equal(C, series(CONIC_TEXTS))
    assert span_contains(C, F)


def test_complete_series_round_trip():
    tower, _, _ = gaussian()
    S = series(("u^2 + v^2", "u + v^2"), tower)
    C = complete_series(S, TotalDegree(2))
    assert spans_equal(C, S)


def test_complete_series_quintic():
    F = series(QUINTIC_TEXTS)
    C = complete_series(F, TotalDegree(5))
    assert len(C) == 17
    assert spans_equal(C, F)


def test_complete_series_degree_zero():
    C = complete_series(series(("1",)), TotalDegree(0))
    assert [str(g) for g in C] == ["1"]


def test_complete_series_fit_validation():
    with pytest.raises(InvalidInput):
        complete_series(series(("u^3", "u")), TotalDegree(2))
    with pytest.raises(InvalidInput):
        complete_series(LinearSeries([]), TotalDegree(2))


def test_adjoint_requires_room():
    F = series(("u^2 - u*v", "u", "v^2", "v"))
    with pytest.raises(NoAdjoint):
        adjoint_series(F, TotalDegree(2))


def test_adjoint_requires_total_degree():
    F = series(("u", "v"))
    with pytest.raises(InvalidInput):
        adjoint_series(F, Bidegree(1, 1))


def test_adjoint_without_basepoints():
    F = series(("u^3 + 1", "v", "u - v"))
    A = adjoint_series(F, TotalDegree(3))
    assert [str(g) for g in A] == ["1"]


def test_adjoint_of_quintic():
    F = series(QUINTIC_TEXTS)
    A = adjoint_series(F, TotalDegree(5))
    assert spans_equal(A, series(CONIC_TEXTS))


def test_decremented_tree():
    tower, _, _ = gaussian()
    tree = get_basepoints([bp("u^2 + v^2", tower), bp("v^2 + u", tower)])
    assert decremented_tree(tree).is_empty()
    scaled = tree.with_multiplicities([3, 2, 1, 1])
    assert decremented_tree(scaled).multiplicities() == [2, 1]
    # a root at (1, 1) with a chart-s child at the origin: the root reaches
    # zero but keeps its place, so the child's one condition stays at (1, 1)
    chain = get_basepoints([bp("v - 1 - (u-1)^2"), bp("v - 1")]).with_multiplicities([1, 2])
    decr = decremented_tree(chain)
    assert decr.multiplicities() == [0, 1]
    lines = series_through(decr, monomial_basis(TotalDegree(1)))
    assert spans_equal(lines, series(("u - 1", "v - 1")))


def test_quintic_tree_shape():
    F = series(QUINTIC_TEXTS)
    tree = get_basepoints(list(F.generators))
    assert len(tree.roots) == 2
    pts = {(str(n.point[0]), str(n.point[1])): n.mult for n in tree.roots}
    assert pts == {("0", "0"): 2, ("0", "1"): 1}
    assert tree.node_count() == 2


def test_span_containment():
    big = series(CONIC_TEXTS)
    small = series(("u^2 - u*v", "u", "v^2", "v"))
    assert span_contains(big, small)
    assert not span_contains(small, big)
    assert span_contains(big, LinearSeries([]))
    assert not spans_equal(big, small)


def reference_rows(tree, G):
    """The rows as computed without truncation: the full expansion about
    each node, then the chart substitution and the division by the
    exceptional power, remainder dropped, on the way to its children."""
    t = common_tower(tree.tower, G.tower)
    u, v = BiPoly.variable(t, "u"), BiPoly.variable(t, "v")
    rows = []

    def visit(node, polys):
        x, y = (BiPoly.constant(t, c.embed(t)) for c in node.point)
        shifted = [f.subs_polys(u + x, v + y) for f in polys]
        for a in range(node.mult):
            for b in range(node.mult - a):
                scale = factorial(a) * factorial(b)
                rows.append(tuple(f.coeff(a, b) * scale for f in shifted))
        m = node.mult
        for children, chart, idx, e in (
            (node.children_t, (u * v, v), 1, v),
            (node.children_s, (u, u * v), 0, u),
        ):
            pulled = [f.subs_polys(*chart).terms().items() for f in shifted]
            divided = [
                BiPoly(t, {k: c for k, c in terms if k[idx] >= m}).exact_div(e ** m)
                for terms in pulled
            ]
            for child in children:
                visit(child, divided)

    for root in tree.roots:
        visit(root, [g.embed(t) for g in G.generators])
    return rows


def tree_doc(roots, tower=()):
    """A validated tree from specs (point, mult, children_t, children_s)."""

    def build(spec, seq):
        point, mult, kids_t, kids_s = spec
        return {
            "sequence": seq,
            "point": list(point),
            "mult": mult,
            "children_t": [build(c, seq + [[list(point), "t"]]) for c in kids_t],
            "children_s": [build(c, seq + [[list(point), "s"]]) for c in kids_s],
        }

    return tree_from_json({"tower": list(tower), "tree": [build(r, []) for r in roots]})


def chain(root, steps, mults):
    """A proper point, then one infinitely near point per (chart, point) step."""
    points = [root] + [pt for _, pt in steps]
    spec = (points[-1], mults[-1], [], [])
    for k in range(len(steps) - 1, -1, -1):
        kids = {"t": [], "s": []}
        kids[steps[k][0]].append(spec)
        spec = (points[k], mults[k], kids["t"], kids["s"])
    return spec


GAUSS = ({"name": "i", "minpoly": "t^2 + 1"},)

# the shapes of the bench's chain and conjugate slots, at moved centres
TRUNCATION_CASES = (
    ((), [chain(("2", "-1"), [("t", ("3", "0")), ("t", ("-1/2", "0"))], (2, 2, 1))],
     TotalDegree(4)),
    ((), [chain(("-3/2", "1/3"), [("s", ("0", "0")), ("t", ("2", "0")), ("t", ("-1", "0"))],
                (3, 2, 2, 1))], TotalDegree(6)),
    ((), [chain(("0", "0"), [("t", (x, "0")) for x in ("1", "-2", "1/3", "3")],
                (2, 2, 2, 1, 1))], TotalDegree(6)),
    ((), [chain(("1", "1"), [("t", (x, "0")) for x in ("2", "-1", "1/2", "3", "-3")],
                (1,) * 6)], TotalDegree(5)),
    ((), [chain(("-2", "3"),
                [("s", ("0", "2"))] + [("t", (x, "0")) for x in ("1", "-1", "2", "1/2")],
                (2, 1, 1, 1, 1, 1))], TotalDegree(6)),
    ((), [chain(("1/2", "-2"), [("s", ("0", "0")), ("t", ("1", "0")), ("t", ("2", "0"))],
                (2, 2, 1, 1))], Bidegree(3, 2)),
    ((), [(("1", "-1"), 3,
           [(("2", "0"), 2, [(("1", "0"), 1, [], [])], []), (("-1", "0"), 1, [], [])],
           [(("0", "1/3"), 1, [], [(("0", "0"), 1, [], [])])])], TotalDegree(6)),
    (GAUSS, [chain(("1 + i", "-2"), [("t", ("i", "0")), ("s", ("0", "-i")), ("t", ("2", "0"))],
                   (3, 2, 1, 1))], TotalDegree(5)),
    (GAUSS, [chain(("1 + 2*i", "3"), [("t", ("i", "0"))], (2, 1)),
             chain(("1 - 2*i", "3"), [("t", ("-i", "0"))], (2, 1))], TotalDegree(4)),
)


@pytest.mark.parametrize("tower, roots, spec", TRUNCATION_CASES)
def test_truncated_rows_match_full_expansion(tower, roots, spec):
    tree = tree_doc(roots, tower)
    G = monomial_basis(spec)
    assert list(set_basepoints(tree, G).rows) == reference_rows(tree, G)


def assert_members_well_formed(tree, G):
    # members are built without the validating constructor
    M = set_basepoints(tree, G)
    kernel = kernel_basis(M)
    members = kernel_members(M, G, kernel)
    for vec, f in zip(kernel, members):
        ref = BiPoly.zero(M.tower)
        for c, g in zip(vec, G.generators):
            ref = ref + BiPoly.constant(M.tower, c) * g
        assert f.terms() == ref.terms()
        assert all(c and c.tower is f.tower for c in f.terms().values())
    return members


@pytest.mark.parametrize("tower, roots, spec", TRUNCATION_CASES)
def test_kernel_members_are_well_formed(tower, roots, spec):
    assert_members_well_formed(tree_doc(roots, tower), monomial_basis(spec))


def test_kernel_members_drop_cancelled_terms():
    # a double point at the origin takes (u^2 + v) + (u^2 - v), whose v cancels
    tree = tree_doc([(("0", "0"), 2, [], [])])
    members = assert_members_well_formed(tree, series(("u^2 + v", "u^2 - v", "u", "1")))
    assert [str(f) for f in members] == ["2*u^2"]


def spy_orders(monkeypatch):
    orders = []
    shift = linseries.taylor_shift

    def spy(polys, point, order=None):
        orders.append(order)
        return shift(polys, point, order)

    monkeypatch.setattr(linseries, "taylor_shift", spy)
    return orders


def test_every_node_of_a_loaded_tree_expands_to_a_finite_order(monkeypatch):
    orders = spy_orders(monkeypatch)
    for tower, roots, spec in TRUNCATION_CASES:
        set_basepoints(tree_doc(roots, tower), monomial_basis(spec))
    assert orders and all(isinstance(o, int) for o in orders)
    # the subtree order: the node's multiplicity plus the largest child order
    orders.clear()
    tower, roots, spec = TRUNCATION_CASES[6]
    set_basepoints(tree_doc(roots, tower), monomial_basis(spec))
    assert orders == [6, 3, 1, 1, 2, 1]


def test_child_off_its_line_is_rejected():
    one, two, three = (QQ.rational(n) for n in (1, 2, 3))
    root = (one, two)
    # a T-child must lie on v = 0 and an S-child on u = 0; these do not
    off_t = BasepointNode(((root, "t"),), (three, one), 1)
    off_s = BasepointNode(((root, "s"),), (one, two), 1)
    with pytest.raises(InvalidInput, match="T-branch child"):
        BasepointNode((), root, 2, (off_t,))
    with pytest.raises(InvalidInput, match="S-branch child"):
        BasepointNode((), root, 2, (), (off_s,))
    # on their lines the same children are accepted
    on_t = BasepointNode(((root, "t"),), (three, QQ.zero()), 1)
    on_s = BasepointNode(((root, "s"),), (QQ.zero(), two), 1)
    assert BasepointNode((), root, 2, (on_t,), (on_s,)).children() == (on_t, on_s)
