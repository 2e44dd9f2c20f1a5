"""Tests for exact polynomial arithmetic in one and two variables."""

import math
import random
from fractions import Fraction

import pytest

from linser.bipoly import (
    BiPoly,
    UniPoly,
    deriv_eval,
    gcd_tuple,
    pullback_blowup,
    resultant,
    taylor_shift,
    uni_gcd_list,
)
from linser.errors import InvalidInput, NotDivisible
from linser.linseries import TotalDegree, monomial_basis
from linser.numfield import QQ, FieldElement, extend_field
from linser.parsing import parse_bipoly, parse_unipoly


def bp(text, tower=QQ):
    return parse_bipoly(text, tower)


# A resultant oracle that shares nothing with the production code path:
# build the Sylvester matrix directly from the term dictionaries and expand
# the determinant by cofactors along the first column.


def _coeffs_in(f, eliminate):
    other = "v" if eliminate == "u" else "u"
    out = [UniPoly.zero(f.tower, other) for _ in range(f.degree(eliminate) + 1)]
    for (du, dv), c in f.terms().items():
        k, j = (du, dv) if eliminate == "u" else (dv, du)
        out[k] = out[k] + UniPoly(f.tower, other, [0] * j + [c])
    return out


def _cofactor_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    tower = rows[0][0].tower
    var = rows[0][0].var
    total = UniPoly.zero(tower, var)
    for i, row in enumerate(rows):
        if row[0].is_zero():
            continue
        minor = [r[1:] for k, r in enumerate(rows) if k != i]
        term = row[0] * _cofactor_det(minor)
        total = total + term if i % 2 == 0 else total - term
    return total


def sylvester_oracle(f, g, eliminate):
    other = "v" if eliminate == "u" else "u"
    fc = _coeffs_in(f, eliminate)[::-1]
    gc = _coeffs_in(g, eliminate)[::-1]
    n, m = len(fc) - 1, len(gc) - 1
    zero = UniPoly.zero(f.tower, other)
    rows = [[zero] * i + gc + [zero] * (n - 1 - i) for i in range(n)]
    rows += [[zero] * i + fc + [zero] * (m - 1 - i) for i in range(m)]
    return _cofactor_det(rows)


def test_unipoly_arithmetic():
    p = parse_unipoly("t^2 - 1", QQ, "t")
    q = parse_unipoly("t - 1", QQ, "t")
    quo, rem = p.divmod(q)
    assert str(quo) == "t + 1"
    assert rem.is_zero()
    assert p.exact_div(q) == quo
    assert p.gcd(q).monic() == q
    assert str(p.derivative()) == "2*t"
    assert p.eval(QQ.rational(Fraction(3))) == QQ.rational(Fraction(8))


def test_unipoly_compose():
    p = parse_unipoly("t^2 + 1", QQ, "t")
    q = parse_unipoly("t - 2", QQ, "t")
    assert str(p.compose(q)) == "t^2 - 4*t + 5"


def test_bipoly_rendering():
    assert str(bp("v + u")) == "u + v"
    assert str(bp("1 + u*v^2")) == "u*v^2 + 1"
    assert str(bp("1 - v*u")) == "-u*v + 1"
    assert str(bp("0")) == "0"
    assert str(bp("u^2 - 1/2*v")) == "u^2 - 1/2*v"


def test_parse_round_trip():
    texts = ["u^2*v - 3/2*v + 1", "u + v", "-u*v + 1", "u^5 - 2*u^2*v^3"]
    for text in texts:
        p = bp(text)
        assert bp(str(p)) == p


def test_degrees():
    p = bp("u^3*v + u*v^2")
    assert p.degree() == 4
    assert p.degree("u") == 3
    assert p.degree("v") == 2
    assert BiPoly.zero(QQ).degree() == -1


def test_substitute_and_eval():
    p = bp("u^2 + v^2")
    line = p.substitute("v", QQ.zero())
    assert str(line) == "u^2"
    assert line.var == "u"
    one = QQ.one()
    assert p.eval((one, one)) == QQ.rational(Fraction(2))


def test_powers_of_high_degree():
    # Power tables are built in a loop, so degrees past the interpreter's
    # recursion limit are fine.
    p = bp("u^1200 + v")
    two = QQ.rational(2)
    big = QQ.rational(2 ** 1200)
    assert p.substitute("u", two) == UniPoly(QQ, "v", [big, 1])
    assert p.eval((two, QQ.rational(3))) == big + 3
    assert p.subs_polys(bp("v"), bp("u")) == bp("v^1200 + u")


def test_powers_square_only_while_bits_remain(monkeypatch):
    # 400 = 0b110010000: eight squarings and three products, in the
    # parser's power loop and in __pow__ alike
    calls = []
    mul = BiPoly.__mul__
    monkeypatch.setattr(BiPoly, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    expected = bp("(u+v)^400")
    assert len(calls) == 11
    calls.clear()
    assert bp("u+v") ** 400 == expected
    assert len(calls) == 11


def test_exact_div():
    p = bp("u^2 - v^2")
    q = bp("u + v")
    assert str(p.exact_div(q)) == "u - v"
    with pytest.raises(NotDivisible):
        bp("u^2 + v").exact_div(q)


def test_exact_div_power():
    # pullback_blowup divides out the exceptional power; at m = 2, the lowest
    # total degree, the division is exact
    F = [bp("u^2*v + u*v^2"), bp("v^3 - u^2")]
    assert pullback_blowup(F, "t", 2) == [bp("u^2*v + u*v"), bp("v - u^2")]
    assert pullback_blowup(F, "s", 2) == [bp("u*v + u*v^2"), bp("u*v^3 - 1")]
    # m = 0 is the total transform
    assert pullback_blowup(F, "t", 0) == [bp("u^2*v^3 + u*v^3"), bp("v^3 - u^2*v^2")]
    assert pullback_blowup(F, "s", 0) == [bp("u^3*v + u^3*v^2"), bp("u^3*v^3 - u^2")]
    for chart, m in (("x", 1), ("t", -1), ("s", 1.0)):
        with pytest.raises(InvalidInput):
            pullback_blowup(F, chart, m)


def test_shift_down_discards_remainder():
    # pullback_blowup drops the terms of total degree below m
    F = [bp("u^2*v + u*v^2"), bp("v^3 - u^2")]
    assert pullback_blowup(F, "t", 3) == [bp("u^2 + u"), bp("1")]
    assert pullback_blowup(F, "s", 3) == [bp("v + v^2"), bp("v^3")]
    assert pullback_blowup([bp("u")], "t", 2) == [BiPoly.zero(QQ)]
    assert pullback_blowup([bp("u")], "s", 2) == [BiPoly.zero(QQ)]


def test_gcd_goldens():
    assert str(gcd_tuple([bp("v^2*u^2 + v^2"), bp("v^2 + u*v")])) == "v"
    assert str(gcd_tuple([bp("u^2 - v^2"), bp("u^2 + 2*u*v + v^2")])) == "u + v"
    assert gcd_tuple([bp("u + 1"), bp("v")]).is_constant()


def test_gcd_divides_inputs():
    a = bp("u^2 - v^2") * bp("u*v + 1")
    b = bp("u + v") * bp("u - 2")
    g = gcd_tuple([a, b])
    assert str(g) == "u + v"
    a.exact_div(g)
    b.exact_div(g)


def test_uni_gcd_list():
    a = parse_unipoly("t^3 - t", QQ, "t")
    b = parse_unipoly("t^2 - 1", QQ, "t")
    assert str(uni_gcd_list([a, b]).monic()) == "t^2 - 1"


def test_resultant_frozen_value():
    # Common zeros of u^2 + v^2 and v^2 + u need u^2 = u, so the projection
    # to the u-line is cut out by u^2 (u - 1)^2.
    r = resultant(bp("u^2 + v^2"), bp("v^2 + u"), "v")
    assert str(r) == "u^4 - 2*u^3 + u^2"


def test_resultant_degree_one_pair():
    assert str(resultant(bp("v - 1"), bp("v + 1"), "v")) == "-2"


def test_resultant_degenerate_cases():
    # When one argument does not involve the eliminated variable it is
    # raised to the other's degree.
    assert str(resultant(bp("u - 1"), bp("v^2 + u"), "v")) == "u^2 - 2*u + 1"
    with pytest.raises(InvalidInput):
        resultant(bp("u"), bp("u + 1"), "v")
    with pytest.raises(InvalidInput):
        resultant(BiPoly.zero(QQ), bp("v"), "v")


def _random_coeff(rng, tower, gen=None):
    c = tower.rational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    if gen is not None:
        c = c + gen * Fraction(rng.randint(-2, 2), rng.randint(1, 2))
    return c


def _random_bipoly(rng, tower, max_deg=3, gen=None):
    p = BiPoly.zero(tower)
    for _ in range(rng.randint(1, 5)):
        du = rng.randint(0, max_deg)
        dv = rng.randint(0, max_deg - du)
        c = _random_coeff(rng, tower, gen)
        mono = BiPoly.variable(tower, "u") ** du * BiPoly.variable(tower, "v") ** dv
        p = p + mono * BiPoly.constant(tower, c)
    return p


def _prs_pair(rng, tower, gen, var, dg, dq, dr):
    """(q*g + r, g) with degrees dq, dg, dr < dg in var.

    The first pseudo-remainder is lc(g)^k * r, so the PRS steps from degree
    dg to dr there.  Every leading coefficient is linear in the other
    variable, so the PRS scales are not constants.
    """
    x = BiPoly.variable(tower, var)
    y = BiPoly.variable(tower, "v" if var == "u" else "u")

    def c():
        return BiPoly.constant(tower, _random_coeff(rng, tower, gen))

    def poly(deg):
        return (y + c()) * x ** deg + sum(((c() * y + c()) * x ** k for k in range(deg)), c())

    g = poly(dg)
    return poly(dq) * g + poly(dr), g


def test_resultant_matches_cofactor_oracle():
    rng = random.Random(20260816)
    tower, _, s = extend_field(QQ, [-2, 0, 1], "s")
    pairs = []
    for field, gen in ((QQ, None), (tower, s)):
        for _ in range(20):
            pairs.append((_random_bipoly(rng, field, gen=gen), _random_bipoly(rng, field, gen=gen)))
        for var in ("u", "v"):
            # PRS degrees 3, 3, 1 (a drop of two) and 3, 3, 2, 0 (a drop of two at the end)
            pairs += [_prs_pair(rng, field, gen, var, 3, 0, 1) for _ in range(2)]
            pairs += [_prs_pair(rng, field, gen, var, 3, 0, 2) for _ in range(2)]
    checked = swapped = 0
    for f, g in pairs:
        for var in ("u", "v"):
            if f.degree(var) < 1 or g.degree(var) < 1:
                continue
            assert resultant(f, g, var) == sylvester_oracle(f, g, var)
            checked += 1
            swapped += f.degree(var) < g.degree(var)
    assert checked >= 60 and swapped >= 10


# A second oracle where sympy is installed.  Ours is Res(g, f) in the usual
# order, because the Sylvester layout has g's rows on top.  sympy's
# resultant(p, q, x) is Res(p, q) only when deg p >= deg q: otherwise it
# swaps the two without the sign (-1)^(nm).  So sympy gets the larger
# degree first.


def _to_sympy(f, u, v):
    import sympy

    total = sympy.Integer(0)
    for (du, dv), c in f.terms().items():
        q = c.as_rational()
        total += sympy.Rational(q.numerator, q.denominator) * u ** du * v ** dv
    return total


def test_resultant_and_gcd_match_sympy():
    sympy = pytest.importorskip("sympy")
    u, v = sympy.symbols("u v")
    rng = random.Random(4242)
    pairs = [(_random_bipoly(rng, QQ, max_deg=4), _random_bipoly(rng, QQ, max_deg=4))
             for _ in range(30)]
    # degrees 5, 4, 2: a scale h != 1 meets a step that drops two degrees
    pairs += [_prs_pair(rng, QQ, None, var, 4, 1, 2) for var in ("u", "v") for _ in range(2)]
    for f, g in pairs:
        h = _random_bipoly(rng, QQ, max_deg=2)
        if f.is_zero() or g.is_zero() or h.is_zero():
            continue
        sf, sg = _to_sympy(f, u, v), _to_sympy(g, u, v)
        for name, x in (("u", u), ("v", v)):
            n, m = f.degree(name), g.degree(name)
            if n < 1 or m < 1:
                continue
            if m >= n:
                theirs = sympy.resultant(sg, sf, x)
            else:
                theirs = sympy.resultant(sf, sg, x) * (-1) ** (n * m)
            ours = _to_sympy(BiPoly.from_unipoly(resultant(f, g, name)), u, v)
            assert sympy.expand(ours - theirs) == 0
        ours = _to_sympy(gcd_tuple([f * h, g * h]), u, v)
        theirs = sympy.gcd(_to_sympy(f * h, u, v), _to_sympy(g * h, u, v))
        ratio = sympy.cancel(ours / theirs)
        assert ratio.free_symbols == set() and ratio != 0


def _chart_substitution(tower, point, chart):
    u = BiPoly.variable(tower, "u")
    v = BiPoly.variable(tower, "v")
    x, y = (BiPoly.constant(tower, c) for c in point)
    return (v * u + x, v + y) if chart == "t" else (u + x, u * v + y)


def test_pullback_is_ring_homomorphism():
    rng = random.Random(7)
    tower, _, i = extend_field(QQ, [1, 0, 1], "i")
    pts = [(tower.zero(), tower.zero()), (i, -i), (tower.one(), i)]
    for _ in range(20):
        f = _random_bipoly(rng, tower)
        g = _random_bipoly(rng, tower)
        for chart in ("t", "s"):
            for point in pts:
                pf, pg, psum, pprod = pullback_blowup(
                    taylor_shift([f, g, f + g, f * g], point), chart, 0
                )
                assert pf + pg == psum
                assert pf * pg == pprod
                assert pf == f.subs_polys(*_chart_substitution(tower, point, chart))


def test_pullback_chart_shapes():
    # Chart "t" sends (u, v) to (v*u + x, v + y), chart "s" to (u + x, u*v + y).
    u = bp("u")
    v = bp("v")
    x, y = QQ.rational(Fraction(2)), QQ.rational(Fraction(-1))
    tu, tv = pullback_blowup(taylor_shift([u, v], (x, y)), "t", 0)
    assert str(tu) == "u*v + 2"
    assert str(tv) == "v - 1"
    su, sv = pullback_blowup(taylor_shift([u, v], (x, y)), "s", 0)
    assert str(su) == "u + 2"
    assert str(sv) == "u*v - 1"


def test_taylor_shift_at_the_origin_returns_its_inputs():
    tower, _, i = extend_field(QQ, [1, 0, 1], "i")
    polys = [bp("u^3*v - 2*u + v^2 + 5"), bp("u*v - i*u^2", tower)]
    for origin in ((0, 0), (QQ.zero(), tower.zero())):
        out = taylor_shift(polys, origin)
        assert out == polys
        assert all(f.tower is tower for f in out)
    # with an order the expansion is still truncated
    assert taylor_shift(polys, (0, 0), order=3) == [
        bp("-2*u + v^2 + 5"),
        bp("u*v - i*u^2", tower),
    ]
    assert taylor_shift(polys, (0, 0), order=2) == [bp("-2*u + 5"), BiPoly.zero(tower)]


def test_deriv_eval_matches_taylor_expansion():
    rng = random.Random(11)
    tower, _, i = extend_field(QQ, [1, 0, 1], "i")
    u = BiPoly.variable(tower, "u")
    v = BiPoly.variable(tower, "v")
    for _ in range(15):
        g = _random_bipoly(rng, tower)
        point = (i, tower.rational(Fraction(rng.randint(-2, 2))))
        shifted = g.subs_polys(
            u + BiPoly.constant(tower, point[0]),
            v + BiPoly.constant(tower, point[1]),
        )
        for a in range(3):
            for b in range(3):
                lhs = deriv_eval(g, a, b, point)
                scale = tower.rational(Fraction(math.factorial(a) * math.factorial(b)))
                assert lhs == shifted.coeff(a, b) * scale


def test_embed_across_towers():
    tower, _, i = extend_field(QQ, [1, 0, 1], "i")
    p = bp("u^2 + 1")
    q = p.embed(tower)
    assert q.tower is tower
    factor = BiPoly.variable(tower, "u") + BiPoly.constant(tower, i)
    q.exact_div(factor)


def test_monic_lex():
    p = bp("3*u*v^2 - 6*u*v")
    assert str(p.monic_lex()) == "u*v^2 - 2*u*v"
    assert p.lex_leading()[0] == (1, 2)


def _through_validation(p):
    """The same terms passed through the validating constructor."""
    if isinstance(p, BiPoly):
        return BiPoly(p.tower, p.terms())
    return UniPoly(p.tower, p.var, p.coeffs)


def _assert_well_formed(p):
    # arithmetic builds its results without the validating constructor, so
    # they must already be what that constructor would make of them
    if isinstance(p, BiPoly):
        assert p.terms() == _through_validation(p).terms()
        assert all(c for c in p.terms().values())
        coeffs = p.terms().values()
    else:
        assert p.coeffs == _through_validation(p).coeffs
        assert not p.coeffs or p.coeffs[-1]
        coeffs = p.coeffs
    assert all(c.tower is p.tower for c in coeffs)


def _random_unipoly(rng, tower, gen=None, max_deg=4):
    size = rng.randint(0, max_deg + 1)
    return UniPoly(tower, "t", [_random_coeff(rng, tower, gen) for _ in range(size)])


def test_shift_and_pullback_results_are_well_formed():
    rng = random.Random(17)
    gaussian, _, i = extend_field(QQ, [1, 0, 1], "i")
    wider = extend_field(gaussian, [-2, 0, 1], "s")[0]
    for g in monomial_basis(TotalDegree(3)).generators:
        _assert_well_formed(g)
    # (u - 1)^2 + v shifted to (1, 0) cancels every term of u-degree below 2
    cancels = bp("u^2 - 2*u + 1 + v")
    assert taylor_shift([cancels], (1, 0))[0].terms().keys() == {(2, 0), (0, 1)}
    for tower, gen in ((QQ, None), (gaussian, i)):
        for _ in range(25):
            polys = [_random_bipoly(rng, tower, gen=gen) for _ in range(3)] + [cancels]
            point = (_random_coeff(rng, tower, gen), _random_coeff(rng, tower, gen))
            for order in (None, 3):
                shifted = taylor_shift(polys, point, order)
                for f in shifted:
                    _assert_well_formed(f)
                    _assert_well_formed(f.embed(wider))
                    _assert_well_formed(f.substitute("v", 1).embed(wider))
                # the lowest total degree, as detection divides it out
                m = min((a + b for f in shifted for a, b in f.terms()), default=0)
                for chart in ("t", "s"):
                    for power in {0, m, m + 1}:
                        for f in pullback_blowup(shifted, chart, power):
                            _assert_well_formed(f)


def test_unipoly_arithmetic_results_are_well_formed():
    rng = random.Random(19)
    gaussian, _, i = extend_field(QQ, [1, 0, 1], "i")
    for tower, gen in ((QQ, None), (gaussian, i)):
        for _ in range(40):
            a = _random_unipoly(rng, tower, gen)
            b = _random_unipoly(rng, tower, gen)
            low = _random_unipoly(rng, tower, gen, max_deg=1)
            # the leading terms cancel in (a + low) - a and in a - a
            results = [a * b, a + b, a - b, -a, a - a, (a + low) - a, a.monic(), b.monic()]
            if not b.is_zero():
                results.extend(a.divmod(b))
            for p in results:
                _assert_well_formed(p)


def _spy_products(monkeypatch):
    """A list that grows by one at each product of two field elements."""
    calls = []
    real = FieldElement.__mul__

    def spied(x, y):
        calls.append(None)
        return real(x, y)

    monkeypatch.setattr(FieldElement, "__mul__", spied)
    monkeypatch.setattr(FieldElement, "__rmul__", spied)
    return calls


def test_rational_resultant_and_gcd_multiply_no_field_elements(monkeypatch):
    f = bp("3/2*u^3*v - u*v^2 + 5*v - 1/7")
    g = bp("u^2*v^2 - 2/3*u + v^3 + 4")
    p = parse_unipoly("(t^2 - 1/3)^2 * (t + 5/2)", QQ, "t")
    q = parse_unipoly("(t^2 - 1/3) * (2*t^3 + t - 7)", QQ, "t")
    calls = _spy_products(monkeypatch)
    results = [resultant(f, g, "u"), resultant(f, g, "v"), resultant(g, f, "v"), p.gcd(q)]
    assert calls == []
    monkeypatch.undo()
    assert results[:3] == [
        sylvester_oracle(f, g, "u"), sylvester_oracle(f, g, "v"), sylvester_oracle(g, f, "v")
    ]
    assert str(results[3]) == "t^2 - 1/3"


def _euclid_gcd(a, b):
    """The Euclidean gcd over the field, kept as the reference."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def test_rational_gcd_matches_field_euclid():
    rng = random.Random(31)
    zero = UniPoly.zero(QQ, "t")
    three = UniPoly.constant(QQ, "t", 3)
    pairs = [(zero, zero), (zero, three), (three, zero), (three, three)]
    for _ in range(60):
        common = _random_unipoly(rng, QQ, max_deg=3)
        a, b = _random_unipoly(rng, QQ), _random_unipoly(rng, QQ)
        # coprime or not, with repeated factors, and zero among the inputs
        pairs += [(a, b), (b, zero), (a * common**2, b * common), (common**3, common**2 * a)]
    coprime = repeated = 0
    for a, b in pairs:
        ours = a.gcd(b)
        assert ours == _euclid_gcd(a, b) == _euclid_gcd(b, a) == b.gcd(a)
        _assert_well_formed(ours)
        coprime += ours.degree() == 0
        repeated += ours.degree() >= 2 and not ours.gcd(ours.derivative()).is_constant()
    assert coprime >= 40 and repeated >= 20
