"""Acceptance suite: one test per shipped criterion.

Every value asserted here is either worked out by hand in the test body,
frozen from an independent derivation, or checked against a second
computation path.  The conftest prints one PASS/FAIL line per criterion
at the end of the run.
"""

import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from linser import _gauss
from linser.baselocus import (
    BasepointNode,
    BasepointTree,
    get_basepoints,
    multiplicity,
    strict_transform,
    tree_from_json,
    tree_to_json,
)
from linser.bipoly import (
    BiPoly,
    UniPoly,
    gcd_tuple,
    pullback_blowup,
    resultant,
    taylor_shift,
)
from linser.factorize import factor_univariate
from linser.linseries import (
    Bidegree,
    LinearSeries,
    TotalDegree,
    adjoint_series,
    complete_series,
    kernel_basis,
    monomial_basis,
    series_through,
    set_basepoints,
    spans_equal,
)
from linser.nslattice import (
    NSClass,
    adjoint_class,
    arithmetic_genus,
    class_from_json,
    class_of_series,
    class_to_json,
    degree_of_surface,
    h0_of_class,
    intersect,
    involution_image,
    sectional_genus,
)
from linser.numfield import QQ, extend_field
from linser.parsing import parse_bipoly, parse_element

GOLDEN = Path(__file__).parent / "golden"

CONIC_TEXTS = ("u^2", "u*v", "u", "v^2", "v")

QUINTIC_TEXTS = (
    "u^5", "u^4*v", "u^4", "u^3*v^2", "u^3*v", "u^3", "u^2*v^3", "u^2*v^2",
    "u^2*v", "u^2", "u*v^4", "u*v^3", "u*v^2", "u*v", "v^5 - v^2",
    "v^4 - v^2", "v^3 - v^2",
)


def gaussian():
    return extend_field(QQ, [1, 0, 1], "i")


def series(texts, tower=QQ):
    return [parse_bipoly(s, tower) for s in texts]


def cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "linser.cli", *args],
        input=stdin,
        capture_output=True,
    )


def test_criterion_1_basepoint_tree_and_chart_transforms():
    tower, _, i = gaussian()
    F = series(("u^2 + v^2", "v^2 + u"), tower)
    tree = get_basepoints(F)

    # four basepoints: the origin, one point infinitely near it, and a
    # conjugate pair on the line u = 1
    assert tree.node_count() == 4
    root, plus, minus = tree.roots
    assert root.point == (tower.zero(), tower.zero()) and root.mult == 1
    assert len(root.children_t) == 1 and not root.children_s
    near = root.children_t[0]
    assert near.point == (tower.zero(), tower.zero()) and near.mult == 1
    assert near.sequence == ((root.point, "t"),)
    assert not near.children_t and not near.children_s
    pair = {(str(n.point[0]), str(n.point[1])) for n in (plus, minus)}
    assert pair == {("1", "i"), ("1", "-i")}
    assert plus.mult == minus.mult == 1

    # the first chart substitutes (v*u, v) at the origin
    origin = (tower.zero(), tower.zero())
    shifted = taylor_shift(F, origin)
    pulled_t = pullback_blowup(shifted, "t", 0)
    assert pulled_t == series(("v^2*u^2 + v^2", "v^2 + v*u"), tower)
    strict_t = strict_transform(F, [(origin, "t")])
    assert strict_t == series(("u^2*v + v", "u + v"), tower)
    # dividing out the exceptional factor v is exact
    v = parse_bipoly("v", tower)
    assert [f * v for f in strict_t] == pulled_t
    assert pullback_blowup(shifted, "t", 1) == strict_t

    # the second chart substitutes (u, u*v) at the origin
    pulled_s = pullback_blowup(shifted, "s", 0)
    assert pulled_s == series(("u^2 + u^2*v^2", "u^2*v^2 + u"), tower)
    strict_s = strict_transform(F, [(origin, "s")])
    assert strict_s == series(("u + u*v^2", "u*v^2 + 1"), tower)
    u = parse_bipoly("u", tower)
    assert [f * u for f in strict_s] == pulled_s
    assert pullback_blowup(shifted, "s", 1) == strict_s


def test_criterion_2_constraint_matrix_kernel_series():
    tower, _, _ = gaussian()
    tree = get_basepoints(series(("u^2 + v^2", "v^2 + u"), tower))
    basis = monomial_basis(TotalDegree(2))
    assert [str(g) for g in basis] == ["u^2", "u*v", "u", "v^2", "v", "1"]

    M = set_basepoints(tree, basis)
    assert [[str(e) for e in row] for row in M.rows] == [
        ["0", "0", "0", "0", "0", "1"],
        ["0", "0", "0", "0", "1", "0"],
        ["1", "-i", "1", "-1", "-i", "1"],
        ["1", "i", "1", "-1", "i", "1"],
    ]

    K = kernel_basis(M)
    assert [[str(e) for e in vec] for vec in K] == [
        ["1", "0", "0", "1", "0", "0"],
        ["0", "0", "1", "1", "0", "0"],
    ]

    S = series_through(tree, basis)
    assert [str(g) for g in S] == ["u^2 + v^2", "u + v^2"]
    assert spans_equal(S, LinearSeries(series(("u^2 + v^2", "v^2 + u"), tower)))


def test_criterion_3_simple_point_and_strict_transform():
    G = series(CONIC_TEXTS)
    tree = get_basepoints(G)
    assert tree.node_count() == 1
    node = tree.roots[0]
    assert node.point == (QQ.zero(), QQ.zero())
    assert node.mult == 1
    assert node.sequence == ()

    out = strict_transform(G, [((QQ.zero(), QQ.zero()), "t")])
    assert [str(f) for f in out] == ["u^2*v", "u*v", "u", "v", "1"]


def test_criterion_4_series_completion():
    F = LinearSeries(series(("u^2 - u*v", "u", "v^2", "v")))
    C = complete_series(F, TotalDegree(2))
    assert len(C) == 5
    assert spans_equal(C, LinearSeries(series(CONIC_TEXTS)))


def test_criterion_5_lattice_invariants_and_adjoint():
    # conic system: one simple basepoint, so h = 2e0 - e1 and k = -3e0 + e1
    tree = get_basepoints(series(CONIC_TEXTS))
    h, k, ctx = class_of_series(tree, TotalDegree(2))
    assert h == NSClass("type1", (2, -1))
    assert k == NSClass("type1", (-3, 1))
    # the pairing gives h.k = 2*(-3) - (-1)*1 = -5 directly
    assert intersect(h, k) == -5
    assert intersect(h, h) == 3
    assert degree_of_surface(ctx) == 3
    # genus formulas from the pairing: (3 + (-5))/2 + 1 and 5 - (3+5)/2 - 1
    assert sectional_genus(ctx) == 0
    assert h0_of_class(h, tree) == 5
    assert arithmetic_genus(ctx, 5) == 0
    assert adjoint_class(ctx) == NSClass("type1", (-1, 0))

    # quintic system: a double point with a distinct simple point above v = 1
    treeZ = get_basepoints(series(QUINTIC_TEXTS))
    mults = {(str(n.point[0]), str(n.point[1])): n.mult for n in treeZ.nodes()}
    assert mults == {("0", "0"): 2, ("0", "1"): 1}
    hZ, kZ, ctxZ = class_of_series(treeZ, TotalDegree(5))
    assert hZ == NSClass("type1", (5, -2, -1))
    assert kZ == NSClass("type1", (-3, 1, 1))
    assert degree_of_surface(ctxZ) == 20
    assert intersect(hZ, kZ) == -12
    assert sectional_genus(ctxZ) == 5
    assert h0_of_class(hZ, treeZ) == 17
    assert arithmetic_genus(ctxZ, 17) == 0
    assert adjoint_class(ctxZ) == NSClass("type1", (2, -1, 0))

    # the adjoint series drops the total degree by three and the double
    # point to a simple one, which is exactly the conic system
    A = adjoint_series(LinearSeries(series(QUINTIC_TEXTS)), TotalDegree(5))
    assert spans_equal(A, LinearSeries(series(CONIC_TEXTS)))


def test_criterion_6_product_surface_series():
    tower, _, _ = gaussian()
    a = (parse_element("i", tower), parse_element("-i", tower))
    b = (parse_element("-i", tower), parse_element("i", tower))
    gamma = BasepointTree(
        (BasepointNode((), a, 1), BasepointNode((), b, 1)), tower
    )

    # bidegree (2, 2) sections through the pair: dimension drops 9 -> 7
    S = series_through(gamma, monomial_basis(Bidegree(2, 2)))
    assert len(S) == 7
    expected = LinearSeries(series((
        "1 - u^2*v^2",
        "v + u^2*v",
        "v^2 + u^2*v^2",
        "u - u^2*v",
        "u*v - u^2*v^2",
        "u^2*v + u*v^2",
        "u^2 + u^2*v^2",
    )))
    assert spans_equal(S, expected)

    hS, kS, ctxS = class_of_series(gamma, Bidegree(2, 2))
    assert hS == NSClass("type2", (2, 2, -1, -1))
    assert intersect(hS, hS) == 6
    assert degree_of_surface(ctxS) == 6
    assert ctxS.involution == (1, 0)

    # the (1, 1) ruling through both points keeps a pencil
    third = NSClass("type2", (1, 1, -1, -1))
    assert h0_of_class(third, gamma) == 2
    pencil = series_through(gamma, monomial_basis(Bidegree(1, 1)))
    assert [str(g) for g in pencil] == ["-u*v + 1", "u + v"]


def _random_bipoly(rng, tower, max_deg=4, max_terms=5):
    p = BiPoly.zero(tower)
    for _ in range(rng.randint(1, max_terms)):
        du = rng.randint(0, max_deg)
        dv = rng.randint(0, max_deg - du)
        c = tower.rational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        p = p + (
            BiPoly.variable(tower, "u") ** du
            * BiPoly.variable(tower, "v") ** dv
            * BiPoly.constant(tower, c)
        )
    return p


def _check_factor_round_trip(cases):
    rng = random.Random(1001)
    gauss, _, _ = gaussian()
    done = 0
    while done < cases:
        tower = gauss if done % 4 == 0 else QQ
        deg = rng.randint(1, 4)
        coeffs = [
            tower.rational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
            for _ in range(deg)
        ]
        f = UniPoly(tower, "t", coeffs + [tower.one()])
        factors = factor_univariate(f)
        prod = UniPoly.constant(tower, "t", f.lc())
        for g, m in factors:
            assert g.lc() == tower.one()
            prod = prod * g ** m
        assert prod == f
        done += 1


def _check_gcd_divides_all(cases):
    rng = random.Random(1002)
    gauss, _, i = gaussian()
    # Q(i)(r) with r^3 = i*r + 1, so the content split runs two levels up
    cubic, _, _ = extend_field(gauss, [-1, -i, 0, 1], "r")
    done = 0
    while done < cases:
        tower = {0: gauss, 1: cubic}.get(done % 5, QQ)
        F = [_random_bipoly(rng, tower, 3, 4) for _ in range(rng.randint(2, 3))]
        if done % 2 == 0:
            h = _random_bipoly(rng, tower, 2, 2)
            if h.is_zero() or h.is_constant():
                continue
            F = [f * h for f in F]
        F = [f for f in F if not f.is_zero()]
        if not F:
            continue
        g = gcd_tuple(F)
        for f in F:
            f.exact_div(g)  # raises if the gcd does not divide
        if not g.is_constant():
            reduced = gcd_tuple([f.exact_div(g) for f in F])
            assert reduced.is_constant()
        done += 1


def _check_resultant_iff_common_factor(cases):
    rng = random.Random(1003)
    gauss, _, _ = gaussian()
    done = 0
    while done < cases:
        tower = gauss if done % 5 == 0 else QQ
        f = _random_bipoly(rng, tower, 3, 4)
        g = _random_bipoly(rng, tower, 3, 4)
        if done % 2 == 0:
            h = _random_bipoly(rng, tower, 2, 3)
            if h.degree("v") < 1:
                continue
            f, g = f * h, g * h
        if f.is_zero() or g.is_zero():
            continue
        if f.degree("v") == 0 and g.degree("v") == 0:
            continue
        vanishes = resultant(f, g, "v").is_zero()
        shares = gcd_tuple([f, g]).degree("v") > 0
        assert vanishes == shares
        done += 1


def _check_multiplicity_by_derivatives(cases):
    rng = random.Random(1004)
    gauss, _, gi = gaussian()
    done = 0
    while done < cases:
        tower = gauss if done % 4 == 0 else QQ
        if tower is gauss:
            pool = [gi, -gi, tower.one(), tower.zero()]
        else:
            pool = [
                tower.rational(Fraction(rng.randint(-2, 2))),
                tower.rational(Fraction(rng.randint(-2, 2))),
            ]
        x = pool[rng.randrange(len(pool))]
        y = pool[rng.randrange(len(pool))]
        du = BiPoly.variable(tower, "u") - BiPoly.constant(tower, x)
        dv = BiPoly.variable(tower, "v") - BiPoly.constant(tower, y)
        orders = [rng.randint(0, 2) for _ in range(rng.randint(2, 3))]
        F = []
        for m in orders:
            f = BiPoly.zero(tower)
            for a in range(m + 1):
                f = f + du ** a * dv ** (m - a) * BiPoly.constant(
                    tower, tower.rational(Fraction(rng.randint(1, 3)))
                )
            F.append(f + du ** (m + 1))
        if not gcd_tuple(F).is_constant():
            continue
        # each generator vanishes to exactly its planted order, so the
        # blowup multiplicity must be the smallest order in the system
        assert multiplicity(F, (x, y)) == min(orders)
        done += 1


def _check_kernel_properties(cases):
    rng = random.Random(1005)
    gauss, _, gi = gaussian()
    for n in range(cases):
        tower = gauss if n % 3 == 0 else QQ
        nrows = rng.randint(0, 5)
        ncols = rng.randint(1, 8)
        rows = []
        for _ in range(nrows):
            row = []
            for _ in range(ncols):
                c = tower.rational(Fraction(rng.randint(-3, 3)))
                if tower is gauss and rng.random() < 0.3:
                    c = c + gi * tower.rational(Fraction(rng.randint(-2, 2)))
                row.append(c)
            rows.append(row)
        kern = _gauss.kernel(rows, ncols, tower.zero(), tower.one())
        rank = _gauss.rank([list(r) for r in rows])
        assert rank + len(kern) == ncols
        assert _gauss.rref(kern)[0] == kern
        for vec in kern:
            for row in rows:
                total = tower.zero()
                for c, xv in zip(row, vec):
                    total = total + c * xv
                assert total.is_zero()


def _check_involutions(cases):
    from linser.numfield import conjugation

    rng = random.Random(1006)
    gauss, _, gi = gaussian()
    sigma = conjugation(gauss)
    done = 0
    while done < cases:
        over_gauss = done % 2 == 0
        tower = gauss if over_gauss else QQ
        nodes = []
        seen = set()
        for _ in range(rng.randint(1, 3)):
            a = tower.rational(Fraction(rng.randint(-2, 2)))
            b = tower.rational(Fraction(rng.randint(-2, 2)))
            if over_gauss and rng.random() < 0.7:
                x = a + gi * tower.rational(Fraction(rng.randint(1, 2)))
                y = b - gi
                point = (x, y)
                mirror = (sigma(x), sigma(y))
                if point in seen or mirror in seen:
                    continue
                seen.update((point, mirror))
                m = rng.randint(1, 2)
                nodes.append(BasepointNode((), point, m))
                nodes.append(BasepointNode((), mirror, m))
            else:
                point = (a.embed(tower), b.embed(tower))
                if point in seen:
                    continue
                seen.add(point)
                nodes.append(BasepointNode((), point, rng.randint(1, 2)))
        if not nodes:
            continue
        rng.shuffle(nodes)
        tree = BasepointTree(tuple(nodes), tower)
        spec = Bidegree(2, 2) if done % 3 else TotalDegree(3)
        h, _, ctx = class_of_series(tree, spec)
        perm = ctx.involution
        assert perm is not None
        assert sorted(perm) == list(range(len(nodes)))
        assert all(perm[perm[j]] == j for j in range(len(nodes)))
        assert involution_image(ctx, h) == h
        coeffs = tuple(rng.randint(-3, 3) for _ in range(len(h.coeffs)))
        c = NSClass(h.basis, coeffs)
        assert involution_image(ctx, involution_image(ctx, c)) == c
        done += 1


def _int_det(mat):
    m = [[Fraction(x) for x in row] for row in mat]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    assert det.denominator == 1
    return int(det)


def _check_gram_determinants(cases):
    rng = random.Random(1007)
    for n in range(cases):
        basis_name = "type1" if n % 2 == 0 else "type2"
        rank = rng.randint(1, 6)
        size = rank + (1 if basis_name == "type1" else 2)
        basis = [
            NSClass(basis_name, tuple(int(i == j) for j in range(size)))
            for i in range(size)
        ]
        gram = [[intersect(x, y) for y in basis] for x in basis]
        assert abs(_int_det(gram)) == 1


def _check_riemann_roch_on_goldens():
    # h0 = (h^2 - h.k)/2 + 1 must hold on each golden configuration
    conic = get_basepoints(series(CONIC_TEXTS))
    quintic = get_basepoints(series(QUINTIC_TEXTS))
    tower, _, _ = gaussian()
    a = (parse_element("i", tower), parse_element("-i", tower))
    b = (parse_element("-i", tower), parse_element("i", tower))
    gamma = BasepointTree(
        (BasepointNode((), a, 1), BasepointNode((), b, 1)), tower
    )
    fixtures = (
        (conic, TotalDegree(2)),
        (quintic, TotalDegree(5)),
        (gamma, Bidegree(2, 2)),
    )
    for tree, spec in fixtures:
        h, k, _ = class_of_series(tree, spec)
        rr = (intersect(h, h) - intersect(h, k)) // 2 + 1
        assert h0_of_class(h, tree) == rr
    # and on basepoint-free plane series of every small degree
    empty = BasepointTree((), QQ)
    for alpha in range(21):
        h = NSClass("type1", (alpha,))
        k = NSClass("type1", (-3,))
        rr = (intersect(h, h) - intersect(h, k)) // 2 + 1
        assert h0_of_class(h, empty) == rr == (alpha + 1) * (alpha + 2) // 2


def test_criterion_7_randomized_property_suites():
    cases = 200
    _check_factor_round_trip(cases)
    _check_gcd_divides_all(cases)
    _check_resultant_iff_common_factor(cases)
    _check_multiplicity_by_derivatives(cases)
    _check_kernel_properties(cases)
    _check_involutions(cases)
    _check_gram_determinants(cases)
    _check_riemann_roch_on_goldens()


def test_criterion_8_failure_modes_and_round_trips():
    # a common factor in the system is refused with exit code 3
    out = cli("basepoints", str(GOLDEN / "common_factor_input.json"))
    assert out.returncode == 3

    # a structurally valid but forty-level tree trips the depth guard
    out = cli("series", str(GOLDEN / "deep_tree.json"), "--basis", "deg:1")
    assert out.returncode == 4

    # tree documents re-serialize byte for byte
    tower, _, _ = gaussian()
    tree = get_basepoints(series(("u^2 + v^2", "v^2 + u"), tower))
    text = json.dumps(tree_to_json(tree), indent=2)
    back = tree_from_json(json.loads(text))
    assert back == tree
    assert json.dumps(tree_to_json(back), indent=2) == text

    # class documents re-serialize byte for byte
    c = NSClass("type1", (5, -2, -1))
    ctext = json.dumps(class_to_json(c))
    assert json.dumps(class_to_json(class_from_json(json.loads(ctext)))) == ctext

    # the command line is deterministic and self-composing: the basepoints
    # document feeds the series command unchanged
    first = cli("basepoints", str(GOLDEN / "ex2_input.json"))
    second = cli("basepoints", str(GOLDEN / "ex2_input.json"))
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    chained = cli("series", "-", "--basis", "deg:2", stdin=first.stdout)
    assert chained.returncode == 0
    assert json.loads(chained.stdout)["series"] == ["u^2 + v^2", "u + v^2"]
