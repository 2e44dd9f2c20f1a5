"""Tests for exact arithmetic in towers of number fields."""

import random
from fractions import Fraction
from math import gcd

import pytest

from linser.bipoly import BiPoly, UniPoly
from linser.errors import (
    ConjugationUnavailable,
    DivisionByZero,
    FieldMismatch,
    InvalidExtension,
    SizeLimitExceeded,
)
from linser.numfield import (
    MAX_DIGITS,
    QQ,
    FieldElement,
    _adjoin,
    conjugation,
    extend_field,
)
from linser.parsing import parse_bipoly


def gaussian():
    return extend_field(QQ, [1, 0, 1], "i")


def test_rational_tower_basics():
    assert QQ.width == 0
    assert QQ.degree() == 1
    assert QQ.names() == ()
    half = QQ.rational(Fraction(1, 2))
    assert str(half) == "1/2"
    assert half.is_rational()
    assert half.as_rational() == Fraction(1, 2)
    assert half + half == QQ.one()
    assert (half - half).is_zero()
    assert str(half - half) == "0"
    assert str(gaussian()[0].zero()) == "0"
    assert str(QQ.rational(-12)) == "-12"
    assert str(QQ.rational(Fraction(-3, 7))) == "-3/7"
    assert str(QQ.rational(Fraction(6, -14))) == "-3/7"
    assert str(gaussian()[0].rational(Fraction(-3, 7))) == "-3/7"


def test_extension_arithmetic():
    tower, _, i = gaussian()
    assert tower.degree() == 2
    assert tower.names() == ("i",)
    assert i * i == -tower.one()
    assert str(i * i) == "-1"
    assert str(-i) == "-i"
    z = tower.rational(Fraction(2)) + tower.rational(Fraction(3)) * i
    w = tower.rational(Fraction(2)) - tower.rational(Fraction(3)) * i
    assert z * w == tower.rational(Fraction(13))


def test_inverse_oracle():
    # (2 + 3i)^-1 = 2/13 - 3/13 i, worked out from (2+3i)(2-3i) = 13.
    tower, _, i = gaussian()
    z = tower.rational(Fraction(2)) + tower.rational(Fraction(3)) * i
    inv = z.inverse()
    expected = tower.rational(Fraction(2, 13)) - tower.rational(Fraction(3, 13)) * i
    assert inv == expected
    assert z * inv == tower.one()
    assert str(inv) == "-3/13*i + 2/13"


def test_inverse_of_zero_raises():
    tower, _, _ = gaussian()
    with pytest.raises(DivisionByZero):
        tower.zero().inverse()


def test_division():
    tower, _, i = gaussian()
    one = tower.one()
    assert (one + i) / (one - i) == i
    with pytest.raises(DivisionByZero):
        i / tower.zero()


def test_nested_tower():
    tower, _, i = gaussian()
    tower2, emb, s = extend_field(tower, [-2, 0, 1], "s")
    assert tower2.degree() == 4
    assert tower2.names() == ("i", "s")
    assert tower2.extends(tower)
    assert tower2.extends(QQ)
    assert not tower.extends(tower2)
    ii = emb(i)
    # (i + s)(i - s) = i^2 - s^2 = -1 - 2 = -3
    assert (ii + s) * (ii - s) == tower2.rational(Fraction(-3))
    # inversion still exact two levels up
    z = ii + s
    assert z * z.inverse() == tower2.one()
    # under a cubic top generator, r^3 = i*r + 1, over Q(i)
    tower3, emb3, r = extend_field(tower, [-1, -i, 0, 1], "r")
    assert tower3.degree() == 6
    rng = random.Random(3)
    checked = 0
    while checked < 20:
        z = tower3.zero()
        for a in range(2):
            for b in range(3):
                z = z + emb3(i) ** a * r ** b * Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if z.is_zero():
            continue
        inv = z.inverse()
        assert z * inv == tower3.one()
        assert inv.inverse() == z
        checked += 1


def _inversion_towers():
    """Towers of widths 1 to 3 and degrees 2 to 8, by name."""
    gauss, _, i = gaussian()
    quartic, _, a = extend_field(QQ, [1, 1, 0, 0, 1], "a")
    two, _, _ = extend_field(gauss, [-2, 0, 1], "s")
    return {
        "Q(i)": gauss,
        "Q(i)(r), r^3 = i*r + 1": extend_field(gauss, [-1, -i, 0, 1], "r")[0],
        "Q(a), a^4 + a + 1 = 0": quartic,
        "Q(a)(b), b^2 = -a": extend_field(quartic, [a, 0, 1], "b")[0],
        "Q(i, sqrt 2, sqrt 3)": extend_field(two, [-3, 0, 1], "w")[0],
        "Q(d), d^7 = -1/3": extend_field(QQ, [Fraction(1, 3), 0, 0, 0, 0, 0, 0, 1], "d")[0],
    }


@pytest.mark.parametrize("name", sorted(_inversion_towers()))
def test_inverse_is_the_solution_of_x_times_y_equals_one(name):
    tower = _inversion_towers()[name]
    basis = []
    for exps in tower.exponents():
        m = tower.one()
        for j, k in enumerate(exps):
            m = m * tower.gen(j) ** k
        basis.append(m)
    rng = random.Random(name)
    checked = 0
    while checked < 50:
        # sparse and dense elements, rational ones among them, with
        # numerators and denominators of up to 30 digits
        x = tower.zero()
        for m in basis:
            if rng.random() < 0.6:
                x = x + m * Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**30))
        if x.is_zero():
            continue
        y = x.inverse()
        assert x * y == tower.one()
        assert y.inverse() == x
        assert y.den > 0
        assert gcd(y.den, *y.num) == 1
        assert len(y.num) == tower.degree()
        checked += 1
    with pytest.raises(DivisionByZero):
        tower.zero().inverse()


def _table_product(x, y):
    """The convolution through the tower's table, for any two operands, kept
    as the reference for products with a rational operand."""
    slots, size, over, scale = x.tower._mul_table()
    acc = [0] * size
    for a, row in zip(x.num, slots):
        for b, i in zip(y.num, row):
            acc[i] += a * b
    out = [scale * c for c in acc[: len(x.num)]]
    for i, row in over:
        for k, r in row:
            out[k] += acc[i] * r
    den = x.den * y.den * scale
    g = gcd(den, *out)
    return FieldElement(x.tower, tuple(c // g for c in out), den // g)


@pytest.mark.parametrize(
    "name", ["Q(i)", "Q(i)(r), r^3 = i*r + 1", "Q(a), a^4 + a + 1 = 0"]
)
def test_products_with_a_rational_operand_match_the_table_product(name):
    tower = _inversion_towers()[name]
    basis = [tower.one()]
    for j in range(tower.width):
        basis = [b * tower.gen(j) ** k for k in range(tower._gens[j].degree) for b in basis]
    rng = random.Random(name)
    rationals = [0, 1, -1, 2, Fraction(1, 3), Fraction(-7, 4)]
    rationals += [Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**6)) for _ in range(6)]
    for _ in range(20):
        x = tower.zero()
        for b in basis:
            if rng.random() < 0.7:
                x = x + b * Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**4))
        for q in rationals:
            r = tower.rational(q)
            want = _table_product(x, r)
            for got in (x * r, r * x, x * q, q * x):
                assert got == want
                assert got.den > 0 and gcd(got.den, *got.num) == 1
                assert len(got.num) == tower.degree()


def test_inverse_over_a_reducible_minimal_polynomial_raises():
    # t^2 - 1 = (t - 1)(t + 1): t + 1 is a zero divisor, so the linear
    # system for its inverse has no pivot in some column
    tower, _, t = _adjoin(QQ, (QQ.rational(-1), QQ.zero(), QQ.one()))
    with pytest.raises(InvalidExtension):
        (t + 1).inverse()
    assert (t * 2).inverse() == t * Fraction(1, 2)


def test_embed_and_subtower():
    tower, _, i = gaussian()
    q = QQ.rational(Fraction(5, 3))
    e = q.embed(tower)
    assert e.tower is tower
    assert e.is_rational()
    assert e.as_rational() == Fraction(5, 3)
    assert tower.subtower(0) == QQ
    assert not i.is_rational()


def test_field_mismatch():
    _, _, i = gaussian()
    _, _, j = extend_field(QQ, [1, 0, 1], "j")
    with pytest.raises(FieldMismatch):
        i + j


def test_extension_validation():
    with pytest.raises(InvalidExtension):
        extend_field(QQ, [1, 0, 2])  # not monic
    with pytest.raises(InvalidExtension):
        extend_field(QQ, [1, 1])  # degree 1
    with pytest.raises(InvalidExtension):
        extend_field(QQ, [-1, 0, 1])  # t^2 - 1 splits already
    tower, _, _ = gaussian()
    with pytest.raises(InvalidExtension):
        extend_field(tower, [-2, 0, 1], "i")  # name collision


@pytest.mark.parametrize("name", ["u", "v", "t"])
def test_reserved_generator_names(name):
    with pytest.raises(InvalidExtension):
        extend_field(QQ, [1, 0, 1], name)


def test_fresh_names():
    tower, _, _ = extend_field(QQ, [1, 0, 1])
    name = tower.names()[0]
    assert name == "a0"
    tower2, _, _ = extend_field(tower, [-3, 0, 1])
    assert tower2.names() == ("a0", "a1")


def test_conjugation_quadratic():
    tower, _, i = gaussian()
    sigma = conjugation(tower)
    assert sigma(i) == -i
    assert sigma(sigma(i)) == i
    z = tower.rational(Fraction(1, 2)) + i
    assert sigma(z) == tower.rational(Fraction(1, 2)) - i
    assert not sigma.is_identity()


def test_conjugation_on_rationals_is_identity():
    sigma = conjugation(QQ)
    half = QQ.rational(Fraction(1, 2))
    assert sigma(half) == half
    assert sigma.is_identity()


def test_conjugation_deep_tower():
    tower, _, i = gaussian()
    tower2, emb, s = extend_field(tower, [-2, 0, 1], "s")
    sigma = conjugation(tower2)
    assert sigma(emb(i)) == -emb(i)
    assert sigma(s) == -s


def test_conjugation_of_a_square_root_of_i():
    # over Q(i)(r), r^2 = i, the map i -> -i sends t^2 - i to t^2 + i, which
    # it does not fix, so that polynomial is factored whole: roots +-i*r
    tower, _, i = gaussian()
    tower2, emb, r = extend_field(tower, [-i, 0, 1], "r")
    sigma = conjugation(tower2)
    i2 = emb(i)
    assert sigma(i2) == -i2
    assert sigma(r) == -i2 * r
    for x in (i2, r, i2 * r + tower2.rational(Fraction(1, 3)) * r - i2):
        assert sigma(sigma(x)) == x


def test_conjugation_factors_only_the_cofactor(monkeypatch):
    # a rational minimal polynomial is fixed, so the generator is a root and
    # only the linear cofactor reaches the factoring
    from linser import factorize

    towers = [extend_field(QQ, [c, 0, 1], name) for c, name in ((1, "i"), (-2, "s"))]
    degrees = []
    real = factorize.factor_univariate

    def counted(f, tower=None):
        degrees.append(f.degree())
        return real(f, tower)

    monkeypatch.setattr(factorize, "factor_univariate", counted)
    for tower, _, g in towers:
        assert conjugation(tower)(g) == -g
    assert degrees == [1, 1]


def test_sort_key_orders_rationals_first():
    tower, _, i = gaussian()
    vals = [i, tower.rational(Fraction(1, 2)), -i, tower.rational(Fraction(-1))]
    ordered = sorted(vals, key=lambda x: x.sort_key())
    assert [str(v) for v in ordered] == ["-1", "1/2", "-i", "i"]


def test_hash_consistency():
    tower, _, i = gaussian()
    a = tower.rational(Fraction(1, 2)) + i
    b = i + tower.rational(Fraction(1, 2))
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_hash_agrees_with_equality_on_rationals_and_embeddings():
    tower, _, i = gaussian()
    deep, _, _ = extend_field(tower, [-2, 0, 1], "r")
    for x in (QQ.rational(1), QQ.zero(), QQ.rational(Fraction(-3, 4)),
              tower.rational(7), deep.rational(Fraction(5, 2))):
        assert x == x.as_rational()
        assert hash(x) == hash(x.as_rational())
    assert len({QQ.rational(1), 1}) == 1
    # embedding only pads the numerator with zeros
    for x in (i + Fraction(1, 3), 2 * i):
        assert hash(x.embed(deep)) == hash(x)
    a = parse_bipoly("u + 1", QQ)
    b = parse_bipoly("i*u*v - 1/2", tower)
    for f in (a, b):
        g = f.embed(deep)
        assert f == g and hash(f) == hash(g)
        assert len({f, g}) == 1
        p = f.substitute("v", 1)
        assert len({p, p.embed(deep)}) == 1
    u = BiPoly.variable(QQ, "u")
    assert len({a, a.embed(tower), a.embed(deep), u + 1}) == 1


def _towers_with_t2_terms():
    """(tower below, extension) pairs whose top minimal polynomial has a t^2 term."""
    base, _, s = extend_field(QQ, [-2, 0, 1], "s")
    return [
        (QQ, extend_field(QQ, [1, 0, -5, 0, 1], "a")),
        (QQ, extend_field(QQ, [1, 0, 1, 1], "a")),
        (base, extend_field(base, [1, 0, s, 1], "r")),
    ]


@pytest.mark.parametrize("case", range(3))
def test_products_match_dense_reduction(case):
    # The reference multiplies coefficient lists as UniPolys over the tower
    # below and reduces once modulo the top minimal polynomial.  Operands are
    # built with their terms added lowest power first and highest first.
    below, (tower, embed, a) = _towers_with_t2_terms()[case]
    minpoly = tower.generators()[-1][1]
    d = len(minpoly) - 1
    modulus = UniPoly(below, "t", minpoly)
    powers = [a**k for k in range(d)]
    rng = random.Random(case)

    def coeff():
        x = below.zero()
        for g in [below.one()] + [below.gen(j) for j in range(below.width)]:
            x = x + g * Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return x

    def element(cs, order):
        x = tower.zero()
        for k in order(range(len(cs))):
            x = x + embed(cs[k]) * powers[k]
        return x

    for _ in range(30):
        cx, cy, cz = ([coeff() for _ in range(d)] for _ in range(3))
        product = UniPoly(below, "t", cx) * UniPoly(below, "t", cy) % modulus
        want = element(product.coeffs, list)
        for ox in (list, reversed):
            for oy in (list, reversed):
                assert element(cx, ox) * element(cy, oy) == want
        x, y, z = element(cx, reversed), element(cy, reversed), element(cz, reversed)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        if x:
            assert x * x.inverse() == tower.one()


def test_elements_keep_dense_invariants():
    below, (tower, embed, r) = _towers_with_t2_terms()[2]
    s = embed(below.gen(0))
    x = s * Fraction(3, 4) + r**2 * Fraction(-2, 9) + 1
    y = r * Fraction(5, 6) - s
    values = [x + y, x - y, x * y, x.inverse(), x / y, -x, x * 0, s.trim(), embed(s.trim())]
    for v in values:
        assert v.den > 0
        assert gcd(v.den, *v.num) == 1
        assert len(v.num) == v.tower.degree()
    assert (x * 0).num == (0,) * 6 and (x * 0).den == 1
    assert s.trim().tower == below and embed(s.trim()) == s
    assert (x - x).trim().tower == QQ


# A renderer that shares nothing with numfield's: terms read off the
# numerator in basis order, each put in lowest terms, highest exponents first.


def _ref_monomial(names, exps):
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e)


def _ref_terms(x):
    out = []
    for e, n in zip(x.tower.exponents(), x.num):
        if n:
            g = gcd(n, x.den)
            out.append((e, n // g, x.den // g))
    return sorted(out, reverse=True)


def _ref_term(n, d, *monos):
    mono = "*".join(m for m in monos if m)
    mag = str(abs(n)) if d == 1 else f"{abs(n)}/{d}"
    body = mag if not mono else mono if mag == "1" else f"{mag}*{mono}"
    return ("-" if n < 0 else "+"), body


def _ref_sum(pieces):
    text = ""
    for sign, body in pieces:
        if not text:
            text = body if sign == "+" else "-" + body
        else:
            text += f" {sign} {body}"
    return text or "0"


def _ref_element(x):
    names = x.tower.names()
    return _ref_sum([_ref_term(n, d, _ref_monomial(names, e)) for e, n, d in _ref_terms(x)])


def _ref_poly(items, varnames):
    pieces = []
    for exps, c in items:
        mono = _ref_monomial(varnames, exps)
        terms = _ref_terms(c)
        if len(terms) > 1:
            pieces.append(("+", f"({_ref_element(c)})*{mono}" if mono else f"({_ref_element(c)})"))
        else:
            ((e, n, d),) = terms
            pieces.append(_ref_term(n, d, _ref_monomial(c.tower.names(), e), mono))
    return _ref_sum(pieces)


def _rendering_towers():
    gauss, _, _ = gaussian()
    root2, _, s = extend_field(QQ, [-2, 0, 1], "s")
    # 1 + s is not a square in Q(s): its norm is -1
    nested, _, _ = extend_field(root2, [-(1 + s), 0, 1], "r")
    return [QQ, gauss, nested]


_RENDER_COEFFS = tuple(
    Fraction(x) for x in ("0", "0", "1", "-1", "1/2", "-3/7", "5", "-12", "22/9")
)


def _seeded_element(rng, tower):
    x = tower.zero()
    for e in tower.exponents():
        basis = tower.one()
        for j, k in enumerate(e):
            basis = basis * tower.gen(j) ** k
        x = x + basis * rng.choice(_RENDER_COEFFS)
    return x


def test_rendering_matches_a_reference_renderer():
    rng = random.Random(29)
    for tower in _rendering_towers():
        for _ in range(60):
            x = _seeded_element(rng, tower)
            assert str(x) == _ref_element(x)
            coeffs = [_seeded_element(rng, tower) for _ in range(rng.randint(0, 4))]
            p = UniPoly(tower, "t", coeffs)
            items = [((k,), c) for k, c in enumerate(p.coeffs) if c][::-1]
            assert str(p) == _ref_poly(items, ("t",))
            terms = {(rng.randint(0, 3), rng.randint(0, 3)): _seeded_element(rng, tower)
                     for _ in range(rng.randint(0, 5))}
            f = BiPoly(tower, terms)
            assert str(f) == _ref_poly(sorted(f.terms().items(), reverse=True), ("u", "v"))


def test_rendering_past_the_digit_limit_raises():
    gauss, _, i = gaussian()
    for big in (10**MAX_DIGITS, -(10**MAX_DIGITS), Fraction(1, 10**MAX_DIGITS)):
        for tower in (QQ, gauss):
            x = tower.rational(big)
            with pytest.raises(SizeLimitExceeded):
                str(x)
            for f in (BiPoly(tower, {(1, 0): x}), BiPoly(tower, {(0, 0): x, (0, 1): 1})):
                with pytest.raises(SizeLimitExceeded):
                    str(f)
        with pytest.raises(SizeLimitExceeded):
            str(BiPoly(gauss, {(1, 1): gauss.rational(big) * i}))
    just_below = QQ.rational(10**MAX_DIGITS - 1)
    assert str(just_below) == "9" * MAX_DIGITS
    assert str(BiPoly(QQ, {(0, 1): just_below})) == "9" * MAX_DIGITS + "*v"
