"""Tests for univariate factorization over the rationals and their extensions."""

import math
import random
from fractions import Fraction

import pytest

from linser.bipoly import BiPoly, UniPoly, resultant
from linser.errors import InvalidInput
from linser import bipoly, factorize
from linser.factorize import (
    adjoin_roots,
    factor_univariate,
    squarefree_decomposition,
    squarefree_part,
)
from linser.numfield import QQ, extend_field
from linser.parsing import parse_unipoly


def up(text, tower=QQ):
    return parse_unipoly(text, tower, "t")


def rebuild(f, factors):
    prod = UniPoly.constant(f.tower, "t", f.lc())
    for fac, mult in factors:
        prod = prod * fac ** mult
    return prod


def test_quadratic_split():
    factors = factor_univariate(up("t^2 - 1"))
    assert [(str(f), m) for f, m in factors] == [("t - 1", 1), ("t + 1", 1)]


def test_multiplicities():
    f = up("t - 2") ** 2 * up("t + 1") ** 3 * up("t^2 + 1")
    factors = factor_univariate(f)
    assert [(str(g), m) for g, m in factors] == [
        ("t - 2", 2),
        ("t + 1", 3),
        ("t^2 + 1", 1),
    ]
    assert rebuild(f, factors) == f


def test_irreducible_quartic_stays_whole():
    # Minimal polynomial of sqrt(2) + sqrt(3); it factors modulo every
    # prime, so it exercises the recombination search.
    f = up("t^4 - 10*t^2 + 1")
    factors = factor_univariate(f)
    assert [(str(g), m) for g, m in factors] == [("t^4 - 10*t^2 + 1", 1)]


def test_fractional_coefficients():
    factors = factor_univariate(up("t^2 - 1/4"))
    assert [(str(g), m) for g, m in factors] == [("t - 1/2", 1), ("t + 1/2", 1)]


def test_factor_ordering_is_deterministic():
    f = up("(2*t + 2)*(2*t + 1)")
    factors = factor_univariate(f)
    assert [str(g) for g, _ in factors] == ["t + 1", "t + 1/2"]
    assert rebuild(f, factors) == f


def test_factor_over_gaussian_field():
    tower, _, i = extend_field(QQ, [1, 0, 1], "i")
    factors = factor_univariate(up("t^2 + 1", tower))
    assert [(str(g), m) for g, m in factors] == [("t - i", 1), ("t + i", 1)]


def test_irreducible_over_gaussian_field():
    tower, _, _ = extend_field(QQ, [1, 0, 1], "i")
    factors = factor_univariate(up("t^2 - 2", tower))
    assert [(str(g), m) for g, m in factors] == [("t^2 - 2", 1)]


def test_factor_over_nested_tower():
    tower, _, _ = extend_field(QQ, [1, 0, 1], "i")
    tower2, _, s = extend_field(tower, [-2, 0, 1], "s")
    factors = factor_univariate(up("t^2 - 2", tower2))
    assert [(str(g), m) for g, m in factors] == [("t - s", 1), ("t + s", 1)]
    assert all(g.eval(r).is_zero() for g, r in [(up("t^2 - 2", tower2), s)])


def test_factor_with_repeated_factor_over_extension():
    tower, _, i = extend_field(QQ, [1, 0, 1], "i")
    f = up("(t^2 + 1)^2", tower)
    factors = factor_univariate(f)
    assert [(str(g), m) for g, m in factors] == [("t - i", 2), ("t + i", 2)]
    assert rebuild(f, factors) == f


def test_factor_rejects_zero():
    with pytest.raises(InvalidInput):
        factor_univariate(UniPoly.zero(QQ, "t"))


def test_squarefree_decomposition():
    f = up("t - 2") ** 2 * up("t + 1") ** 3 * up("t^2 + 1")
    parts = squarefree_decomposition(f)
    assert [(str(g), m) for g, m in parts] == [
        ("t^2 + 1", 1),
        ("t - 2", 2),
        ("t + 1", 3),
    ]
    assert rebuild(f, parts) == f


def test_squarefree_part():
    f = up("(t - 1)^3*(t + 2)")
    assert str(squarefree_part(f)) == "t^2 + t - 2"


def test_adjoin_roots_rational():
    roots, tower = adjoin_roots(up("t^2 - 1"))
    assert tower == QQ
    assert sorted(str(r) for r in roots) == ["-1", "1"]


def test_adjoin_roots_single_extension():
    f = up("t^2 + 1")
    roots, tower = adjoin_roots(f)
    assert tower.degree() == 2
    assert len(roots) == 2
    assert roots[0] == -roots[1]
    for r in roots:
        assert f.embed(tower).eval(r).is_zero()


def test_adjoin_roots_two_extensions():
    f = up("(t^2 + 1)*(t^2 - 2)")
    roots, tower = adjoin_roots(f)
    assert tower.degree() == 4
    assert tower.names() == ("a0", "a1")
    assert len(roots) == 4
    g = f.embed(tower)
    for r in roots:
        assert g.eval(r).is_zero()


@pytest.mark.parametrize(
    "text, minpolys, roots, degree",
    [
        ("t^4 - 2", ["t^4 - 2", "t^2 + a0^2"], ["-a1", "a1", "-a0", "a0"], 8),
        ("t^3 - 2", ["t^3 - 2", "t^2 + a0*t + a0^2"], ["a1", "-a0 - a1", "a0"], 6),
        (
            "t^4 + t + 1",
            ["t^4 + t + 1", "t^3 + a0*t^2 + a0^2*t + (a0^3 + 1)",
             "t^2 + (a0 + a1)*t + (a0^2 + a0*a1 + a1^2)"],
            ["a2", "a1", "-a0 - a1 - a2", "a0"],
            24,
        ),
    ],
    ids=["root4-2", "cbrt2", "quartic-s4"],
)
def test_adjoin_roots_builds_the_splitting_tower(text, minpolys, roots, degree):
    # Pinned generators, minimal polynomials and root order: each adjoined
    # root is split off its factor, and the cofactor is factored over the
    # new field, which must pick the same next factor as factoring the
    # whole factor again would
    f = up(text)
    found, tower = adjoin_roots(f)
    assert tower.names() == tuple(f"a{k}" for k in range(len(minpolys)))
    for k, (_, coeffs) in enumerate(tower.generators()):
        assert str(UniPoly(tower.subtower(k), "t", list(coeffs))) == minpolys[k]
    assert tower.degree() == degree
    assert [str(r) for r in found] == roots
    assert len(set(found)) == len(found)
    g = f.embed(tower)
    for r in found:
        assert g.eval(r).is_zero()


def test_adjoin_roots_factors_each_polynomial_once(monkeypatch, extend_field_calls):
    # every factor adjoined is irreducible as factor_univariate returned
    # it, so nothing is factored again to prove it
    factored = []
    real = factorize.factor_univariate

    def spied(f, tower=None):
        factored.append((f.tower, f.coeffs))
        return real(f, tower)

    monkeypatch.setattr(factorize, "factor_univariate", spied)
    roots, tower = adjoin_roots(up("t^4 + t + 1"))
    assert tower.degree() == 24 and len(roots) == 4
    assert extend_field_calls == []
    assert factored and len(set(factored)) == len(factored)


# x^8 - 40x^6 + 352x^4 - 960x^2 + 576, the minimal polynomial of
# sqrt(2) + sqrt(3) + sqrt(5); it splits into quadratics or linear factors
# modulo every prime
_SWINNERTON_DYER = [576, 0, -960, 0, 352, 0, -40, 0, 1]


def _z_prod(polys):
    out = [1]
    for g in polys:
        out = factorize._z_mul(out, g)
    return out


@pytest.mark.parametrize(
    "factors",
    [
        [[0, 1], [-9, 1], [-8, 1], [-7, 1], [-6, 1], [-5, 1], [-4, 1], [-3, 1],
         [-2, 1], [-1, 1]],
        # the second factor is the first at x + 1
        [[-71, -744, 580, 664, -178, -184, -12, 8, 1], _SWINNERTON_DYER],
    ],
    ids=["x-times-linears", "swinnerton-dyer-pair"],
)
def test_integer_recombination(factors):
    # x * (x - 1) * ... * (x - 9) has constant term 0, so the constant-term
    # test of the recombination must let zero through only while x | h;
    # the Swinnerton-Dyer pair needs subsets of 4 of its 8 modular factors
    g = _z_prod(factors)
    p = factorize._choose_prime(g)
    assert len(factorize._gf_factor_squarefree(factorize._z_mod(g, p), p)) >= 8
    found = factorize._factor_int_monic_squarefree(g)
    assert found == factors
    assert _z_prod(found) == g


def test_rational_scaling_takes_the_least_power(monkeypatch):
    # 3^4 clears 2/81 from t^4 - 2/81: b = 3, where the lcm 81 gives
    # x^4 - 2*81^3 = x^4 - 1062882
    seen = []
    real = factorize._factor_int_monic_squarefree

    def spy(g):
        seen.append(list(g))
        return real(g)

    monkeypatch.setattr(factorize, "_factor_int_monic_squarefree", spy)
    factors = factor_univariate(up("t^4 - 2/81"))
    assert seen == [[-2, 0, 0, 0, 1]]
    assert [(str(g), m) for g, m in factors] == [("t^4 - 2/81", 1)]


def _factor_by_lcm(f):
    """Factors of a monic squarefree f over QQ, with coefficient i scaled by
    b^(n-i) for b the lcm of all denominators."""
    coeffs = [c.as_rational() for c in f.coeffs]
    b = math.lcm(*(c.denominator for c in coeffs))
    n = len(coeffs) - 1
    g = [int(coeffs[i] * b ** (n - i)) for i in range(n + 1)]
    return [
        UniPoly(QQ, "t", [Fraction(part[i], b ** (len(part) - 1 - i)) for i in range(len(part))])
        for part in factorize._factor_int_monic_squarefree(g)
    ]


def _seeded_denominators():
    """Monic squarefree products with denominators built from 2, 3, 5, 7 and
    the primes 101 and 103, above the exact-exponent range."""
    rng = random.Random(81)
    dens = (1, 2, 4, 3, 9, 27, 25, 7, 101, 2 * 103, 101 * 9)
    out = []
    for _ in range(14):
        f = UniPoly.one(QQ, "t")
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(1, 3)
            f = f * UniPoly(
                QQ, "t", [Fraction(rng.randint(-6, 6), rng.choice(dens)) for _ in range(d)] + [1]
            )
        f = squarefree_part(f)
        if f.degree() >= 2:
            out.append(f)
    return out


def test_rational_factors_as_by_the_lcm():
    polys = _seeded_denominators()
    assert any(c.as_rational().denominator % 101 == 0 for f in polys for c in f.coeffs)
    for f in polys:
        ours = factorize._factor_rational_squarefree(f)
        assert sorted(ours, key=UniPoly.sort_key) == sorted(_factor_by_lcm(f), key=UniPoly.sort_key)
        assert rebuild(f, [(g, 1) for g in ours]) == f


def test_rational_factors_match_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    for f in _seeded_denominators():
        expr = sum(sympy.Rational(c.as_rational()) * t**k for k, c in enumerate(f.coeffs))
        _, theirs = sympy.factor_list(expr, t)
        theirs = sorted(
            tuple(Fraction(int(c.p), int(c.q))
                  for c in reversed(sympy.Poly(g, t).monic().all_coeffs()))
            for g, _ in theirs
        )
        ours = sorted(
            tuple(c.as_rational() for c in g.coeffs)
            for g in factorize._factor_rational_squarefree(f)
        )
        assert ours == theirs


PRIMES = [p for p in range(5, 212) if factorize._is_prime(p)]


def _gf_irreducible(f, p):
    """gcd(f, x^(p^k) - x) = 1 for 1 <= k <= deg f / 2, by plain powering."""
    h = [0, 1]
    for _ in range((len(f) - 1) // 2):
        h = factorize._gf_pow_mod(h, p, f, p)
        if len(factorize._gf_gcd(f, factorize._z_add(h, [0, 1], -1), p)) > 1:
            return False
    return True


def test_gf_pow_mod_matches_the_naive_product():
    # the full product mod p, reduced by the modulus once at the end
    rng = random.Random(23)
    for p in (5, 7, 101):
        mod = [rng.randrange(p) for _ in range(4)] + [1]
        base = [rng.randrange(p) for _ in range(6)]
        full = [1]
        for e in range(41):
            expected = factorize._z_divmod(full, mod, p)[1]
            assert factorize._gf_pow_mod(base, e, mod, p) == expected
            full = factorize._z_mul(full, base, p)


def _gf_random_irreducible(rng, d, p):
    while True:
        f = [rng.randrange(p) for _ in range(d)] + [1]
        if _gf_irreducible(f, p):
            return f


def _gf_product(factors, p):
    out = [1]
    for f in factors:
        out = factorize._z_mul(out, f, p)
    return out


def _modular_corpus():
    """(g, p) with g monic and squarefree over F_p: random polynomials of
    degree 1 to 60, products of distinct linear factors, and products of
    several irreducibles of one degree or of a few."""
    rng = random.Random(14)
    corpus = []
    for n in (1, 2, 3, 4, 6, 9, 13, 20, 30, 45, 60):
        for _ in range(3):
            p = rng.choice(PRIMES)
            while True:
                g = [rng.randrange(p) for _ in range(n)] + [1]
                dg = factorize._z_mod([k * c for k, c in enumerate(g)][1:], p)
                if dg and len(factorize._gf_gcd(g, dg, p)) == 1:
                    break
            corpus.append((g, p))
    for p, n in ((5, 5), (7, 6), (31, 20), (211, 40)):
        roots = rng.sample(range(p), n)
        corpus.append((_gf_product([[-a % p, 1] for a in roots], p), p))
    for shape, p in (
        ((2,) * 6, 5), ((3,) * 5, 7), ((5,) * 4, 13), ((10,) * 3, 29),
        ((12,) * 5, 5), ((20,) * 3, 101), ((30, 30), 211), ((1, 1, 2, 2, 3, 7, 7), 11),
    ):
        while True:
            factors = [_gf_random_irreducible(rng, d, p) for d in shape]
            if len({tuple(f) for f in factors}) == len(factors):
                break
        corpus.append((_gf_product(factors, p), p))
    return corpus


def test_modular_factors_are_irreducible_and_multiply_back():
    for g, p in _modular_corpus():
        factors = factorize._gf_factor_squarefree(g, p)
        assert _gf_product(factors, p) == g
        assert all(f[-1] == 1 for f in factors)
        assert len({tuple(f) for f in factors}) == len(factors)
        assert all(_gf_irreducible(f, p) for f in factors)


def test_modular_factors_match_sympy():
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    for g, p in _modular_corpus():
        _, theirs = galoistools.gf_factor_sqf([ZZ(c) for c in g[::-1]], p, ZZ)
        ours = factorize._gf_factor_squarefree(g, p)
        assert sorted(f[::-1] for f in ours) == sorted([int(c) for c in f] for f in theirs)


def _random_monic(rng, tower, max_deg=4):
    deg = rng.randint(1, max_deg)
    coeffs = [
        tower.rational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        for _ in range(deg)
    ]
    return UniPoly(tower, "t", coeffs + [tower.one()])


def test_factor_product_round_trip():
    rng = random.Random(99)
    gaussian, _, _ = extend_field(QQ, [1, 0, 1], "i")
    for k in range(30):
        tower = gaussian if k % 3 == 0 else QQ
        f = _random_monic(rng, tower) * _random_monic(rng, tower)
        factors = factor_univariate(f)
        assert rebuild(f, factors) == f
        for g, _ in factors:
            assert g.lc() == tower.one()


def test_irreducible_minimal_polynomials_with_field_coefficients():
    # b is a root of a cubic over Q(a) and the quadratic is the cubic's
    # cofactor of t - b, so each level's minimal polynomial has
    # coefficients from the levels below
    qa, _, _ = extend_field(QQ, up("t^4 + t + 1"), "a")
    cubic = up("t^3 + a*t^2 + a^2*t + a^3 + 1", qa)
    assert factor_univariate(cubic) == [(cubic, 1)]
    qab, _, _ = extend_field(qa, cubic, "b")
    quadratic = up("t^2 + (a + b)*t + a^2 + a*b + b^2", qab)
    assert factor_univariate(quadratic) == [(quadratic, 1)]


# Towers for the sympy oracle: (name, minimal polynomial over the levels
# below) for each level, the same generators as sympy values, and a
# polynomial that splits further over the top level than below it.
ORACLE_TOWERS = [
    ([("i", "t^2 + 1"), ("s", "t^2 - 2")], ["I", "sqrt(2)"], "t^2 - 2"),
    ([("a", "t^2 - 2"), ("r", "t^2 - a")], ["sqrt(2)", "2**Rational(1, 4)"], "t^2 - a"),
    (
        [("c", "t^3 - 2"), ("w", "t^2 + t + 1")],
        ["2**Rational(1, 3)", "(-1 + sqrt(3)*I)/2"],
        "t^2 + t + 1",
    ),
]


@pytest.mark.parametrize(
    "levels, values, splits", ORACLE_TOWERS, ids=["i-sqrt2", "sqrt2-root4", "cbrt2-omega"]
)
def test_tower_factors_match_sympy(levels, values, splits):
    sympy = pytest.importorskip("sympy")
    tower = QQ
    for name, minpoly in levels:
        tower, _, _ = extend_field(tower, up(minpoly, tower), name)
    gens = [sympy.sympify(v) for v in values]
    t = sympy.Symbol("t")

    rng = random.Random(5)

    def random_monic(deg):
        coeffs = [
            rng.randint(-2, 2) + rng.randint(-1, 1) * tower.gen(rng.randrange(tower.width))
            for _ in range(deg)
        ]
        return UniPoly(tower, "t", coeffs + [1])

    f = up(splits, tower) * random_monic(1) ** 2 * random_monic(2)
    factors = factor_univariate(f)
    assert rebuild(f, factors) == f
    expr = sum(
        sympy.Rational(n, d) * sympy.Mul(*(g**e for g, e in zip(gens, exps))) * t**k
        for k, c in enumerate(f.coeffs)
        for exps, n, d in c.terms()
    )
    _, theirs = sympy.factor_list(expr, t, extension=gens)
    assert sorted((g.degree(), m) for g, m in factors) == sorted(
        (sympy.degree(g, t), m) for g, m in theirs
    )


def _yun_reference(f):
    """squarefree_decomposition by Yun's loop with no early exit."""
    f = f.monic()
    if f.degree() <= 0:
        return []
    if f.degree() == 1:
        return [(f, 1)]
    d = f.derivative()
    a = f.gcd(d)
    b = f.exact_div(a)
    rest = d.exact_div(a) - b.derivative()
    out = []
    i = 1
    while not b.is_constant():
        g = b.gcd(rest)
        if g.degree() > 0:
            out.append((g, i))
        b = b.exact_div(g)
        rest = rest.exact_div(g) - b.derivative()
        i += 1
    return out


def _squarefree_corpus():
    rng = random.Random(31)
    gauss, _, i = extend_field(QQ, [1, 0, 1], "i")
    out = []
    for tower, gen in ((QQ, None), (gauss, i)):
        for _ in range(30):
            f = UniPoly.constant(tower, "t", Fraction(rng.randint(1, 5), rng.randint(1, 3)))
            for _ in range(rng.randint(1, 3)):
                coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                          for _ in range(rng.randint(1, 3))] + [1]
                if gen is not None:
                    coeffs = [c + gen * rng.randint(-1, 1) for c in coeffs[:-1]] + [1]
                f = f * UniPoly(tower, "t", coeffs) ** rng.choice((1, 1, 2, 3))
            out.append(f)
    return out


def test_squarefree_decomposition_matches_yun_loop():
    corpus = _squarefree_corpus()
    assert sum(_yun_reference(f) == [(f.monic(), 1)] for f in corpus) > 10
    assert sum(any(m > 1 for _, m in _yun_reference(f)) for f in corpus) > 10
    for f in corpus:
        assert squarefree_decomposition(f) == _yun_reference(f)


def test_squarefree_input_takes_one_gcd(monkeypatch):
    calls = []
    gcd = UniPoly.gcd

    def spy(self, other):
        calls.append(other)
        return gcd(self, other)

    monkeypatch.setattr(UniPoly, "gcd", spy)
    f = up("t^4 - 3*t^2 + t - 7/2")
    assert squarefree_decomposition(f) == [(f.monic(), 1)]
    assert len(calls) == 1


@pytest.mark.parametrize("minpoly", [[-2, 0, 1], [1, 0, 1], [1, 1, 0, 0, 1]])
def test_norm_on_integers_matches_the_substituted_resultant(minpoly):
    # over Q(sqrt 2), Q(i) and Q(a) with a^4 + a + 1 = 0
    tower, _, a = extend_field(QQ, minpoly, "a")
    rng = random.Random(str(minpoly))
    mv = BiPoly(QQ, {(0, i): c for i, c in enumerate(minpoly)})
    u, v = BiPoly.variable(QQ, "u"), BiPoly.variable(QQ, "v")
    for _ in range(6):
        coeffs = []
        for _ in range(rng.randint(2, 5)):
            c = tower.zero()
            for k in range(len(minpoly) - 1):
                c = c + a**k * Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            coeffs.append(c)
        f = UniPoly(tower, "t", coeffs + [1])
        fhat = BiPoly(QQ, {
            (k, i): b for k, c in enumerate(f.coeffs) for i, b in enumerate(c.top_dense(QQ))
        })
        for s in (0, 1, -1):
            want = resultant(mv, fhat.subs_polys(u - s * v, v), "v")
            assert factorize._norm(fhat, mv, s) == want


def test_squarefree_test_modulo_a_prime_falls_back_to_the_exact_gcd(monkeypatch):
    prs_calls, primes = [], []
    real_prs, real_gf_gcd = bipoly._subresultant_prs, bipoly._gf_gcd

    def spied_prs(a, b, ring):
        prs_calls.append(a)
        return real_prs(a, b, ring)

    def spied_gf_gcd(a, b, p):
        primes.append(p)
        return real_gf_gcd(a, b, p)

    monkeypatch.setattr(bipoly, "_subresultant_prs", spied_prs)
    monkeypatch.setattr(bipoly, "_gf_gcd", spied_gf_gcd)

    def squarefree(text):
        f = up(text)
        return f.gcd(f.derivative()).degree() == 0

    # coprime to its derivative modulo 5, the first prime tried: no PRS
    assert squarefree("t^4 - 3") and prs_calls == [] and primes == [5]
    # 2 divides the primitive leading coefficient of 2*t^2 - 1, not 5
    assert squarefree("t^2 - 1/2") and prs_calls == [] and primes == [5, 5]
    # t^4 - 5 is t^4 modulo 5, but squarefree over QQ: the PRS decides
    assert real_gf_gcd([0, 0, 0, 0, 1], [0, 0, 0, 4], 5) == [0, 0, 0, 1]
    assert squarefree("t^4 - 5") and len(prs_calls) == 1
    # 5 divides the primitive leading coefficient of 5*t^2 - 7, so 7 is
    # tried, where it is t^2
    primes.clear()
    assert squarefree("t^2 - 7/5") and primes == [7] and len(prs_calls) == 2
    assert not squarefree("(t^2 - 2)^2")
    assert not squarefree("(t - 1/3)^2 * (t + 1)")


def test_shift_zero_kept_when_the_norm_is_squarefree_only_over_qq(monkeypatch):
    # over Q(a), a^2 = 5, the norm of t^2 - a at shift 0 is t^4 - 5, which
    # is t^4 modulo 5; the exact gcd still accepts shift 0
    tower, _, a = extend_field(QQ, [-5, 0, 1], "a")
    f = UniPoly(tower, "t", [-a, 0, 1])
    shifts = []
    real = factorize._norm

    def spied(fhat, mv, s):
        shifts.append(s)
        return real(fhat, mv, s)

    monkeypatch.setattr(factorize, "_norm", spied)
    assert factor_univariate(f) == [(f, 1)]
    assert shifts == [0]
