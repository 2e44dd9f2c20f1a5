"""Univariate factorization over the rationals and over field towers.

The rational case reduces to factoring a monic squarefree integer
polynomial: split it mod a good prime by factor degree, then within each
degree (Cantor–Zassenhaus), lift with quadratic Hensel steps past the
Mignotte bound, then recombine subsets by trial division, after a test on
their constant terms.  Over a tower K = L(a), Trager's norm is taken
relative to the top generator: a shifted norm, squarefree over the
subtower L, is factored over L by the same method one level down, and
each of its factors pulls back to a factor over K by a gcd.  When L is
QQ, the shifted polynomial is summed on integers, and a norm coprime to
its derivative modulo a prime is squarefree without an exact gcd.  The
dense integer helpers (_z_*) are bipoly's.
"""

from __future__ import annotations

import itertools
import math
import random

from .bipoly import (
    BiPoly,
    UniPoly,
    _trim,
    _z_add,
    _z_divmod,
    _z_mod,
    _z_mul,
    resultant,
)
from .errors import InvalidInput
from .numfield import FieldElement, FieldTower, Rational, _adjoin
from .numfield import extend_field  # noqa: F401  (the benchmark's tracer wraps it here)

# -- dense integer polynomials: the _z_ helpers are bipoly's -------------------


def _balanced(a, m):
    half = m // 2
    return _trim([c - m if c > half else c for c in _z_mod(a, m)])


# -- dense polynomials over a prime field --------------------------------------


def _gf_gcd(a, b, p):
    """Monic gcd over F_p."""
    a = _z_mod(a, p)
    b = _z_mod(b, p)
    while b:
        a, b = b, _z_divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p) if a else 0
    return [c * inv % p for c in a]


def _gf_ext_gcd(a, b, p):
    """(g, s, t) with s*a + t*b == g, g monic; a and b not both zero."""
    r0, s0, t0 = _z_mod(a, p), [1], []
    r1, s1, t1 = _z_mod(b, p), [], [1]
    while r1:
        q, r = _z_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _z_mod(_z_add(s0, _z_mul(q, s1), -1), p)
        t0, t1 = t1, _z_mod(_z_add(t0, _z_mul(q, t1), -1), p)
    inv = pow(r0[-1], p - 2, p)
    r0 = [c * inv % p for c in r0]
    s0 = [c * inv % p for c in s0]
    t0 = [c * inv % p for c in t0]
    return r0, s0, t0


def _gf_pow_mod(base, e, mod, p):
    result = [1]
    base = _z_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _z_divmod(_z_mul(result, base, p), mod, p)[1]
        base = _z_divmod(_z_mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


# -- primes ---------------------------------------------------------------------


def _is_prime(n):
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def _choose_prime(g):
    """Smallest prime at least 5 where the monic g stays squarefree."""
    deriv = [k * c for k, c in enumerate(g)][1:]
    p = 5
    while True:
        # a derivative vanishing mod p leaves the gcd g itself
        if _is_prime(p) and len(_gf_gcd(g, deriv, p)) == 1:
            return p
        p += 1


_SMALL_PRIMES = [p for p in range(100) if _is_prime(p)]


# -- Cantor–Zassenhaus over F_p -------------------------------------------------


def _gf_factor_squarefree(g, p):
    """Monic irreducible factors of a monic squarefree g over F_p, p odd.

    The factors of degree d are those of gcd(g, x^(p^d) - x) left after the
    lower degrees are divided out.  Each such product is split by gcds with
    a^((p^d - 1)/2) - 1 for random a (Cantor and Zassenhaus, 1981).
    """
    n = len(g) - 1
    xp = _gf_pow_mod([0, 1], p, g, p)
    table = [[1]]
    for _ in range(n - 1):
        table.append(_z_divmod(_z_mul(table[-1], xp, p), g, p)[1])
    rng = random.Random(0)
    factors = []
    rest = g
    h = [0, 1]
    d = 0
    # a rest with no factor of degree <= d and degree below 2(d+1) is irreducible
    while len(rest) - 1 >= 2 * (d + 1):
        d += 1
        h = _gf_frobenius(h, table, rest, p)
        f = _gf_gcd(rest, _z_add(h, [0, 1], -1), p)
        if len(f) > 1:
            factors += _gf_equal_degree_split(f, d, table, p, rng)
            rest = _z_divmod(rest, f, p)[0]
    if len(rest) > 1:
        factors.append(rest)
    return factors


def _gf_frobenius(h, table, mod, p):
    """h^p mod a divisor of g: sum h_i x^(ip), from table[i] = x^(ip) mod g."""
    out = [0] * len(table)
    for c, row in zip(h, table):
        if c:
            for j, x in enumerate(row):
                out[j] += c * x
    return _z_divmod(out, mod, p)[1]


def _gf_equal_degree_split(f, d, table, p, rng):
    """The degree-d factors of f, a product of such; table as in _gf_frobenius.

    a^((p^d - 1)/2) is s^((p-1)/2) for s = a * a^p * ... * a^(p^(d-1))."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        # a constant a gives +-1, so no split, and another draw
        s = b = _trim([rng.randrange(p) for _ in range(n)])
        for _ in range(d - 1):
            b = _gf_frobenius(b, table, f, p)
            s = _z_divmod(_z_mul(s, b, p), f, p)[1]
        w = _gf_gcd(f, _z_add(_gf_pow_mod(s, (p - 1) // 2, f, p), [1], -1), p)
        if 1 < len(w) < len(f):
            return (_gf_equal_degree_split(w, d, table, p, rng)
                    + _gf_equal_degree_split(_z_divmod(f, w, p)[0], d, table, p, rng))


# -- Hensel lifting ----------------------------------------------------------------


def _hensel_step(f, g, h, s, t, m):
    """One quadratic lift: from mod m to mod m*m.

    Requires f == g*h and s*g + t*h == 1 mod m, with g and h monic.
    """
    m2 = m * m
    e = _z_mod(_z_add(f, _z_mul(g, h), -1), m2)
    q, r = _z_divmod(_z_mul(s, e), h, m2)
    g1 = _z_mod(_z_add(_z_add(g, _z_mul(t, e)), _z_mul(q, g)), m2)
    h1 = _z_mod(_z_add(h, r), m2)
    b = _z_mod(_z_add(_z_add(_z_mul(s, g1), _z_mul(t, h1)), [1], -1), m2)
    c, d = _z_divmod(_z_mul(s, b), h1, m2)
    s1 = _z_mod(_z_add(s, d, -1), m2)
    t1 = _z_mod(_z_add(_z_add(t, _z_mul(t, b), -1), _z_mul(c, g1), -1), m2)
    return g1, h1, s1, t1


def _lift_split(f, facs, p, target):
    """Lift a mod-p factorization of f up to a modulus of at least target."""
    if len(facs) == 1:
        return [f]
    mid = len(facs) // 2
    a = [1]
    for fac in facs[:mid]:
        a = _z_mul(a, fac, p)
    b = [1]
    for fac in facs[mid:]:
        b = _z_mul(b, fac, p)
    _, s, t = _gf_ext_gcd(a, b, p)
    m = p
    while m < target:
        a, b, s, t = _hensel_step(f, a, b, s, t, m)
        m = m * m
    return _lift_split(a, facs[:mid], p, target) + _lift_split(b, facs[mid:], p, target)


def _factor_int_monic_squarefree(g):
    """Monic irreducible integer factors of a monic squarefree integer poly."""
    n = len(g) - 1
    if n <= 1:
        return [g]
    p = _choose_prime(g)
    modfacs = _gf_factor_squarefree(_z_mod(g, p), p)
    modfacs.sort(key=lambda f: (len(f), tuple(f)))
    if len(modfacs) == 1:
        return [g]
    norm2 = math.isqrt(sum(c * c for c in g)) + 1
    bound = 2 * (2 ** n) * norm2
    target = p
    while target <= bound:
        target = target * target
    lifted = _lift_split(_z_mod(g, target), modfacs, p, target)
    out = []
    h = list(g)
    idx = list(range(len(lifted)))
    size = 1
    while 2 * size <= len(idx):
        hit = False
        for combo in itertools.combinations(idx, size):
            # a factor's constant term divides h[0]; a zero one needs x | h
            const = 1
            for i in combo:
                const = const * lifted[i][0] % target
            if const > target // 2:
                const -= target
            if (h[0] % const) if const else h[0]:
                continue
            cand = [1]
            for i in combo:
                cand = _z_mul(cand, lifted[i])
            cand = _balanced(cand, target)
            if not cand or cand[-1] != 1:
                continue
            q, r = _z_divmod(h, cand)
            if not r:
                out.append(cand)
                h = q
                for i in combo:
                    idx.remove(i)
                hit = True
                break
        if not hit:
            size += 1
    if len(h) > 1:
        out.append(h)
    return out


# -- rational and tower factorization ----------------------------------------------


def _factor_rational_squarefree(f: UniPoly):
    """Monic irreducible factors of a monic squarefree UniPoly over QQ."""
    if f.degree() <= 1:
        return [f]
    coeffs = [c.as_rational() for c in f.coeffs]
    n = len(coeffs) - 1
    # each b^(n-i)*c_i must be integral: a prime below 100 enters b with the
    # least exponent that does it, the rest of the denominators' lcm whole
    rest = math.lcm(*(c.denominator for c in coeffs))
    b = 1
    for p in _SMALL_PRIMES:
        if rest % p == 0:
            e = 1
            while any((c * p ** (e * (n - i))).denominator % p == 0
                      for i, c in enumerate(coeffs[:n])):
                e += 1
            b *= p ** e
            while rest % p == 0:
                rest //= p
    b *= rest
    g = [int(coeffs[i] * b ** (n - i)) for i in range(n + 1)]
    parts = _factor_int_monic_squarefree(g)
    out = []
    for part in parts:
        d = len(part) - 1
        cs = [Rational(part[i], b ** (d - i)) for i in range(d + 1)]
        out.append(UniPoly(f.tower, f.var, cs))
    return out


_SHIFT_LIMIT = 400


def _shifts():
    yield 0
    k = 1
    while True:
        yield k
        yield -k
        k += 1


def _factor_squarefree(f: UniPoly):
    """Monic irreducible factors of a monic squarefree UniPoly."""
    if f.tower.width == 0:
        return _factor_rational_squarefree(f)
    return _factor_tower_squarefree(f)


def _factor_tower_squarefree(f: UniPoly):
    """Monic irreducible factors of a monic squarefree UniPoly over K = L(a).

    With m the minimal polynomial of a over L and f(x) = F(x, a), take
    N(x) = Res_t(m(t), F(x - s*t, t)) for shifts s until N is squarefree;
    then each irreducible factor g of N over L gives the factor
    gcd(f, g(x + s*a)) over K (Trager, SYMSAC 1976).
    """
    tower = f.tower
    if f.degree() <= 1:
        return [f]
    sub = tower.subtower(tower.width - 1)
    minpoly = tower.generators()[-1][1]
    fhat = BiPoly(sub, {
        (k, i): b for k, c in enumerate(f.coeffs) for i, b in enumerate(c.top_dense(sub))
    })
    mv = BiPoly(sub, {(0, i): c for i, c in enumerate(minpoly)})
    top = tower.gen(tower.width - 1)
    for s in itertools.islice(_shifts(), _SHIFT_LIMIT):
        norm = _norm(fhat, mv, s).monic()
        if not _is_squarefree(norm):
            continue
        nfacs = _factor_squarefree(norm)
        if len(nfacs) == 1:
            return [f.monic()]
        shift_poly = UniPoly(tower, f.var, [s * top, tower.one()])
        out = []
        for nf in nfacs:
            g = f.gcd(UniPoly(tower, f.var, nf.coeffs).compose(shift_poly))
            if g.degree() > 0:
                out.append(g)
        if sum(g.degree() for g in out) == f.degree():
            out.sort(key=UniPoly.sort_key)
            return out
    raise InvalidInput(f"norm stayed degenerate while factoring {f}")


def _norm(fhat: BiPoly, mv: BiPoly, s: int) -> UniPoly:
    """Res_v(mv, fhat(u - s*v, v)), Trager's norm at shift s.

    Over QQ the substitution is summed on integers over one denominator,
    by the binomial expansion of (u - s*v)^k."""
    sub = fhat.tower
    if sub.width:
        u = BiPoly.variable(sub, "u")
        v = BiPoly.variable(sub, "v")
        return resultant(mv, fhat.subs_polys(u - s * v, v), "v")
    terms = fhat.terms()
    den = math.lcm(*(c.den for c in terms.values()))
    acc = {}
    for (k, i), c in terms.items():
        x = c.num[0] * (den // c.den)
        for j in range(k + 1):
            key = (j, i + k - j)
            acc[key] = acc.get(key, 0) + x * math.comb(k, j) * (-s) ** (k - j)
    shifted = BiPoly(sub, {key: Rational(x, den) for key, x in acc.items()})
    return resultant(mv, shifted, "v")


def _is_squarefree(norm: UniPoly) -> bool:
    """Whether a monic norm is squarefree.

    Over QQ it is when, modulo the first prime from 5 up that divides no
    denominator, it keeps its degree and is coprime to its derivative:
    its monic factors over QQ are integral at that prime, so a square
    factor would survive the reduction.  Otherwise the exact gcd decides.
    """
    if norm.tower.width == 0:
        dens = math.lcm(*(c.den for c in norm.coeffs))
        p = next(q for q in itertools.count(5) if dens % q and _is_prime(q))
        reduced = [c.num[0] * pow(c.den, -1, p) % p for c in norm.coeffs]
        deriv = [k * c for k, c in enumerate(reduced)][1:]
        if reduced[-1] and len(_gf_gcd(reduced, deriv, p)) == 1:
            return True
    return norm.gcd(norm.derivative()).degree() == 0


def squarefree_decomposition(f: UniPoly):
    """Pairwise coprime squarefree parts with multiplicities, by Yun's method."""
    f = f.monic()
    if f.degree() <= 0:
        return []
    if f.degree() == 1:
        return [(f, 1)]
    d = f.derivative()
    a = f.gcd(d)
    if a.is_constant():
        return [(f, 1)]
    b = f.exact_div(a)
    c = d.exact_div(a)
    rest = c - b.derivative()
    out = []
    i = 1
    while not b.is_constant():
        g = b.gcd(rest)
        if g.degree() > 0:
            out.append((g, i))
        b = b.exact_div(g)
        c = rest.exact_div(g)
        rest = c - b.derivative()
        i += 1
    return out


def squarefree_part(f: UniPoly) -> UniPoly:
    """The monic product of the distinct irreducible factors of f."""
    if f.is_zero():
        raise InvalidInput("squarefree part of zero")
    if f.degree() <= 0:
        return UniPoly.one(f.tower, f.var)
    return f.monic().exact_div(f.gcd(f.derivative())).monic()


def factor_univariate(f: UniPoly, tower: FieldTower | None = None):
    """Factor into monic irreducibles: a sorted list of (factor, multiplicity).

    The leading coefficient is dropped, so the product of the factors is
    the monic normalization of the input.
    """
    if tower is not None:
        f = f.embed(tower)
    if f.is_zero():
        raise InvalidInput("cannot factor the zero polynomial")
    if f.degree() == 0:
        return []
    out = []
    for part, mult in squarefree_decomposition(f):
        out.extend((g.monic(), mult) for g in _factor_squarefree(part))
    out.sort(key=lambda pair: pair[0].sort_key())
    return out


def adjoin_roots(f: UniPoly, tower: FieldTower | None = None):
    """All roots of f, adjoining new generators until every factor is linear.

    Returns (roots, final tower): the roots are distinct elements of the
    final tower, sorted, and the final tower extends the starting one by
    one fresh generator per irreducible factor that had to be split.
    """
    t = tower if tower is not None else f.tower
    if not t.extends(f.tower):
        t = f.tower if f.tower.extends(t) else None
        if t is None:
            raise InvalidInput("tower does not match the polynomial")
    if f.is_zero():
        raise InvalidInput("every value is a root of the zero polynomial")
    roots: list[FieldElement] = []
    work = [f.embed(t)]
    while work:
        g = work.pop(0).embed(t)
        if g.degree() <= 0:
            continue
        nonlinear = []
        for fac, _ in factor_univariate(g):
            if fac.degree() == 1:
                root = -fac.coeffs[0]
                if all(root != r for r in roots):
                    roots.append(root)
            else:
                nonlinear.append(fac)
        if nonlinear:
            # x - alpha divides the first factor over the new field, so only
            # its cofactor is left to factor; the others may split too.  The
            # factor is monic and irreducible, as factor_univariate returned it.
            t, _, alpha = _adjoin(t, nonlinear[0].coeffs)
            roots = [r.embed(t) for r in roots] + [alpha]
            linear = UniPoly(t, g.var, [-alpha, t.one()])
            work = (
                [nonlinear[0].embed(t).exact_div(linear)]
                + [h.embed(t) for h in nonlinear[1:]]
                + work
            )
    roots.sort(key=FieldElement.sort_key)
    return roots, t
