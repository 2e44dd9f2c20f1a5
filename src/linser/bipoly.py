"""Polynomials in u and v over a number field tower.

BiPoly is a sparse bivariate polynomial with FieldElement coefficients,
and UniPoly a dense univariate one, for coefficient arithmetic,
factoring and root work.  The _z_ helpers are dense integer polynomials,
over Z or mod m, shared with factorize.  The module also provides the
handful of global operations the blowup machinery needs: gcds and
resultants, both read off one subresultant PRS, and the one blowup step.

The PRS takes its coefficient ring's product, difference, exact quotient
and power, so one loop serves UniPoly coefficients over a tower, integer
lists and integers.  Over QQ, resultants clear the denominators and run
on lists of integer lists, and UniPoly.gcd runs on primitive integer
lists; both return what the field arithmetic would.  The blowup step is
taylor_shift, which expands polynomials about a shared center, then
pullback_blowup, which relabels the expansion's exponents into a chart
and divides out the exceptional power in the same pass.  A derivative at
a point is a coefficient of the shift times factorials.

The constructors validate and coerce every coefficient.  Results whose
coefficients are already nonzero elements of the result's tower (the
shift, the pullback, embeddings, and UniPoly sums, products and
quotients) are built
through the private _of constructors instead, which skip that work.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from functools import reduce
from math import comb, factorial, lcm

from .errors import (
    DivisionByZero,
    FieldMismatch,
    InvalidInput,
    NotDivisible,
)
from .numfield import (
    QQ,
    FieldElement,
    FieldTower,
    Rational,
    integer_row,
    rational_row,
    render_terms,
)

VARS = ("u", "v")


def _check_var(var: str) -> str:
    if var not in VARS:
        raise InvalidInput(f"unknown variable {var!r}; expected 'u' or 'v'")
    return var


def common_tower(a: FieldTower, b: FieldTower) -> FieldTower:
    """The larger of two towers when one extends the other."""
    if a.extends(b):
        return a
    if b.extends(a):
        return b
    raise FieldMismatch("towers are not nested")


def _on_common_tower(tower: FieldTower, values):
    """The tower joining ``tower`` and the values' towers, and the values in it."""
    for x in values:
        if isinstance(x, FieldElement):
            tower = common_tower(tower, x.tower)
    return tower, [
        x.embed(tower) if isinstance(x, FieldElement) else tower.rational(x)
        for x in values
    ]


class UniPoly:
    """Dense univariate polynomial, coefficients low degree first."""

    __slots__ = ("tower", "var", "coeffs")

    def __init__(self, tower: FieldTower, var: str, coeffs):
        self.tower = tower
        self.var = var
        self.coeffs = tuple(_trim([self._coerce_coeff(c) for c in coeffs]))

    @classmethod
    def _of(cls, tower: FieldTower, var: str, coeffs: list) -> "UniPoly":
        # for coefficients already elements of ``tower`` (arithmetic on this
        # class's results), skipping coercion; trailing zeros are trimmed
        out = object.__new__(cls)
        out.tower = tower
        out.var = var
        out.coeffs = tuple(_trim(coeffs))
        return out

    def _coerce_coeff(self, c) -> FieldElement:
        if isinstance(c, FieldElement):
            if c.tower is not self.tower:
                if not c.tower.extends(self.tower) and not self.tower.extends(c.tower):
                    raise FieldMismatch("coefficient from an unrelated tower")
                if not self.tower.extends(c.tower):
                    raise FieldMismatch("coefficient tower exceeds polynomial tower")
                return c.embed(self.tower)
            return c
        if isinstance(c, (int, Rational)):
            return self.tower.rational(c)
        raise InvalidInput(f"cannot use {type(c).__name__} as a coefficient")

    @classmethod
    def zero(cls, tower: FieldTower, var: str) -> "UniPoly":
        return cls(tower, var, ())

    @classmethod
    def one(cls, tower: FieldTower, var: str) -> "UniPoly":
        return cls(tower, var, (tower.one(),))

    @classmethod
    def constant(cls, tower: FieldTower, var: str, value) -> "UniPoly":
        return cls(tower, var, (value,))

    @classmethod
    def variable(cls, tower: FieldTower, var: str) -> "UniPoly":
        return cls(tower, var, (tower.zero(), tower.one()))

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_value(self) -> FieldElement:
        if not self.is_constant():
            raise InvalidInput("polynomial is not constant")
        return self.coeffs[0] if self.coeffs else self.tower.zero()

    def lc(self) -> FieldElement:
        if not self.coeffs:
            raise InvalidInput("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> FieldElement:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.tower.zero()

    def _same(self, other: "UniPoly") -> "UniPoly":
        if not isinstance(other, UniPoly):
            raise InvalidInput("expected a univariate polynomial")
        if other.var != self.var:
            raise InvalidInput(f"variable mismatch: {self.var!r} vs {other.var!r}")
        if other.tower is not self.tower:
            t = common_tower(self.tower, other.tower)
            return other.embed(t)
        return other

    def _pair(self, other):
        if isinstance(other, (int, Rational, FieldElement)):
            other = UniPoly.constant(self.tower, self.var, other)
        other = self._same(other)
        if other.tower is self.tower:
            return self, other
        return self.embed(other.tower), other

    def _termwise(self, other, op):
        a, b = self._pair(other)
        n = max(len(a.coeffs), len(b.coeffs))
        return UniPoly._of(a.tower, a.var, [op(a.coeff(k), b.coeff(k)) for k in range(n)])

    def __add__(self, other):
        return self._termwise(other, operator.add)

    __radd__ = __add__

    def __neg__(self) -> "UniPoly":
        return UniPoly._of(self.tower, self.var, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self._termwise(other, operator.sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        if a.is_zero() or b.is_zero():
            return UniPoly.zero(a.tower, a.var)
        out = [a.tower.zero()] * (len(a.coeffs) + len(b.coeffs) - 1)
        nonzero_b = [(j, cb) for j, cb in enumerate(b.coeffs) if cb]
        for i, ca in enumerate(a.coeffs):
            if ca.is_zero():
                continue
            for j, cb in nonzero_b:
                out[i + j] = out[i + j] + ca * cb
        return UniPoly._of(a.tower, a.var, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        if not isinstance(n, int) or n < 0:
            raise InvalidInput("polynomial powers must be nonnegative integers")
        result = UniPoly.one(self.tower, self.var)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def divmod(self, other: "UniPoly"):
        a, b = self._pair(other)
        if b.is_zero():
            raise DivisionByZero("polynomial division by zero")
        q = [a.tower.zero()] * max(len(a.coeffs) - len(b.coeffs) + 1, 0)
        rem = list(a.coeffs)
        inv_lc = b.lc().inverse()
        db = b.degree()
        while len(rem) - 1 >= db and rem:
            shift = len(rem) - 1 - db
            factor = rem[-1] * inv_lc
            q[shift] = factor
            for k in range(db + 1):
                rem[shift + k] = rem[shift + k] - factor * b.coeffs[k]
            _trim(rem)
        return UniPoly._of(a.tower, a.var, q), UniPoly._of(a.tower, a.var, rem)

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[1]

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise NotDivisible("univariate division left a remainder")
        return q

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        lead = self.lc()
        if lead == 1:
            return self
        inv = lead.inverse()
        return UniPoly._of(self.tower, self.var, [c * inv for c in self.coeffs])

    def gcd(self, other: "UniPoly") -> "UniPoly":
        a, b = self._pair(other)
        if a.tower.width == 0:
            return _rational_gcd(a, b)
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def derivative(self) -> "UniPoly":
        return UniPoly(
            self.tower, self.var, [k * c for k, c in enumerate(self.coeffs)][1:]
        )

    def eval(self, x) -> FieldElement:
        if isinstance(x, (int, Rational)):
            x = self.tower.rational(x)
        t = common_tower(self.tower, x.tower)
        x = x.embed(t)
        acc = t.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c.embed(t)
        return acc

    def compose(self, other: "UniPoly") -> "UniPoly":
        a, b = self._pair(other)
        acc = UniPoly.zero(b.tower, b.var)
        for c in reversed(a.coeffs):
            acc = acc * b + c
        return acc

    def embed(self, tower: FieldTower) -> "UniPoly":
        if tower is self.tower:
            return self
        return UniPoly._of(tower, self.var, [c.embed(tower) for c in self.coeffs])

    def sort_key(self):
        return (
            len(self.coeffs),
            tuple(c.sort_key() for c in reversed(self.coeffs)),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        if self.var != other.var:
            return False
        if self.tower is not other.tower:
            try:
                t = common_tower(self.tower, other.tower)
            except FieldMismatch:
                return False
            return self.embed(t).coeffs == other.embed(t).coeffs
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.var, self.coeffs))

    def __str__(self) -> str:
        items = [((k,), c) for k, c in enumerate(self.coeffs) if not c.is_zero()]
        return render_terms(items[::-1], (self.var,))

    def __repr__(self) -> str:
        return f"UniPoly({self})"


class BiPoly:
    """Sparse polynomial in u and v with coefficients in a field tower."""

    __slots__ = ("tower", "_terms", "_hash")

    def __init__(self, tower: FieldTower, terms=None):
        self.tower = tower
        clean = {}
        if terms:
            for key, c in dict(terms).items():
                du, dv = key
                if not isinstance(du, int) or not isinstance(dv, int) or du < 0 or dv < 0:
                    raise InvalidInput(f"bad exponent pair {key!r}")
                if isinstance(c, (int, Rational)):
                    c = tower.rational(c)
                elif not isinstance(c, FieldElement):
                    raise InvalidInput(f"cannot use {type(c).__name__} as a coefficient")
                elif c.tower is not tower:
                    c = c.embed(tower)
                if not c.is_zero():
                    clean[(du, dv)] = c
        self._terms = clean
        self._hash = None

    @classmethod
    def _of(cls, tower: FieldTower, terms: dict) -> "BiPoly":
        # for terms known to be nonzero elements of ``tower`` under valid
        # exponent pairs, skipping validation; the dict is kept, not copied
        out = object.__new__(cls)
        out.tower = tower
        out._terms = terms
        out._hash = None
        return out

    @classmethod
    def zero(cls, tower: FieldTower) -> "BiPoly":
        return cls(tower)

    @classmethod
    def one(cls, tower: FieldTower) -> "BiPoly":
        return cls(tower, {(0, 0): tower.one()})

    @classmethod
    def constant(cls, tower: FieldTower, value) -> "BiPoly":
        return cls(tower, {(0, 0): value})

    @classmethod
    def variable(cls, tower: FieldTower, var: str) -> "BiPoly":
        _check_var(var)
        key = (1, 0) if var == "u" else (0, 1)
        return cls(tower, {key: tower.one()})

    @classmethod
    def from_unipoly(cls, p: UniPoly, var: str | None = None) -> "BiPoly":
        var = _check_var(var or p.var)
        if var == "u":
            terms = {(k, 0): c for k, c in enumerate(p.coeffs)}
        else:
            terms = {(0, k): c for k, c in enumerate(p.coeffs)}
        return cls(p.tower, terms)

    def terms(self):
        return dict(self._terms)

    def coeff(self, du: int, dv: int) -> FieldElement:
        return self._terms.get((du, dv), self.tower.zero())

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(k == (0, 0) for k in self._terms)

    def constant_value(self) -> FieldElement:
        if not self.is_constant():
            raise InvalidInput("polynomial is not constant")
        return self._terms.get((0, 0), self.tower.zero())

    def degree(self, var: str | None = None) -> int:
        """Degree in one variable, or total degree when var is None."""
        if not self._terms:
            return -1
        if var is None:
            return max(du + dv for du, dv in self._terms)
        _check_var(var)
        idx = 0 if var == "u" else 1
        return max(k[idx] for k in self._terms)

    def lex_leading(self):
        """Leading (exponents, coefficient) for lex order with u above v."""
        if not self._terms:
            raise InvalidInput("zero polynomial has no leading term")
        key = max(self._terms)
        return key, self._terms[key]

    def monic_lex(self) -> "BiPoly":
        if self.is_zero():
            return self
        _, lead = self.lex_leading()
        if lead == 1:
            return self
        inv = lead.inverse()
        return BiPoly(self.tower, {k: c * inv for k, c in self._terms.items()})

    def _pair(self, other):
        if isinstance(other, (int, Rational, FieldElement)):
            other = BiPoly.constant(self.tower, other)
        if not isinstance(other, BiPoly):
            raise InvalidInput("expected a bivariate polynomial")
        if other.tower is self.tower:
            return self, other
        t = common_tower(self.tower, other.tower)
        return self.embed(t), other.embed(t)

    def __add__(self, other):
        a, b = self._pair(other)
        out = dict(a._terms)
        for k, c in b._terms.items():
            out[k] = out.get(k, a.tower.zero()) + c
        return BiPoly(a.tower, out)

    __radd__ = __add__

    def __neg__(self) -> "BiPoly":
        return BiPoly(self.tower, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-self._pair(other)[1])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        out = {}
        for (i1, j1), c1 in a._terms.items():
            for (i2, j2), c2 in b._terms.items():
                k = (i1 + i2, j1 + j2)
                prod = c1 * c2
                if k in out:
                    out[k] = out[k] + prod
                else:
                    out[k] = prod
        return BiPoly(a.tower, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BiPoly":
        if not isinstance(n, int) or n < 0:
            raise InvalidInput("polynomial powers must be nonnegative integers")
        result = BiPoly.one(self.tower)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def substitute(self, var: str, value) -> UniPoly:
        """Set one variable to a field element, leaving a UniPoly in the other."""
        _check_var(var)
        t, (value,) = _on_common_tower(self.tower, (value,))
        idx = 0 if var == "u" else 1
        other = "v" if var == "u" else "u"
        n = self.degree(other)
        out = [t.zero()] * (n + 1)
        pw = _powers(value, self.degree(var), t.one())
        for (du, dv), c in self._terms.items():
            e = (du, dv)[idx]
            k = (du, dv)[1 - idx]
            out[k] = out[k] + c.embed(t) * pw[e]
        return UniPoly(t, other, out)

    def eval(self, point) -> FieldElement:
        t, (xu, xv) = _on_common_tower(self.tower, point)
        pu = _powers(xu, self.degree("u"), t.one())
        pv = _powers(xv, self.degree("v"), t.one())
        acc = t.zero()
        for (du, dv), c in self._terms.items():
            acc = acc + c.embed(t) * pu[du] * pv[dv]
        return acc

    def subs_polys(self, pu: "BiPoly", pv: "BiPoly") -> "BiPoly":
        """Evaluate at a pair of polynomials: self(pu, pv)."""
        t = common_tower(common_tower(self.tower, pu.tower), pv.tower)
        pu = pu.embed(t)
        pv = pv.embed(t)
        cu = _powers(pu, self.degree("u"), BiPoly.one(t))
        cv = _powers(pv, self.degree("v"), BiPoly.one(t))
        acc = BiPoly.zero(t)
        for (du, dv), c in sorted(self._terms.items()):
            acc = acc + BiPoly.constant(t, c.embed(t)) * cu[du] * cv[dv]
        return acc

    def exact_div(self, other: "BiPoly") -> "BiPoly":
        """Divide by a known divisor; raises NotDivisible otherwise."""
        a, b = self._pair(other)
        if b.is_zero():
            raise DivisionByZero("polynomial division by zero")
        if b.is_constant():
            inv = b.constant_value().inverse()
            return BiPoly(a.tower, {k: c * inv for k, c in a._terms.items()})
        if a.is_zero():
            return a
        main = "u" if b.degree("u") > 0 else "v"
        other_var = "v" if main == "u" else "u"
        da = _dense_main(a, main)
        db = _dense_main(b, main)
        if len(da) < len(db):
            raise NotDivisible("divisor degree exceeds dividend degree")
        lead = db[-1]
        q = [UniPoly.zero(a.tower, other_var)] * (len(da) - len(db) + 1)
        rem = list(da)
        while len(rem) >= len(db):
            if rem[-1].is_zero():
                rem.pop()
                continue
            k = len(rem) - len(db)
            f = rem[-1].exact_div(lead)
            q[k] = f
            for i in range(len(db)):
                rem[k + i] = rem[k + i] - f * db[i]
            rem.pop()
        if any(not r.is_zero() for r in rem):
            raise NotDivisible("bivariate division left a remainder")
        return _from_dense(q, main, a.tower)

    def as_unipoly(self, var: str) -> UniPoly:
        _check_var(var)
        other = "v" if var == "u" else "u"
        if self.degree(other) > 0:
            raise InvalidInput(f"polynomial involves {other!r}")
        idx = 0 if var == "u" else 1
        n = self.degree(var)
        out = [self.tower.zero()] * (n + 1)
        for k, c in self._terms.items():
            out[k[idx]] = c
        return UniPoly(self.tower, var, out)

    def embed(self, tower: FieldTower) -> "BiPoly":
        if tower is self.tower:
            return self
        return BiPoly._of(tower, {k: c.embed(tower) for k, c in self._terms.items()})

    def sort_key(self):
        items = sorted(self._terms.items(), reverse=True)
        return tuple((k, c.sort_key()) for k, c in items)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Rational)):
            other = BiPoly.constant(self.tower, other)
        if not isinstance(other, BiPoly):
            return NotImplemented
        if self.tower is not other.tower:
            try:
                t = common_tower(self.tower, other.tower)
            except FieldMismatch:
                return False
            return self.embed(t)._terms == other.embed(t)._terms
        return self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        items = [((du, dv), c) for (du, dv), c in self._terms.items()]
        items.sort(key=lambda t: t[0], reverse=True)
        return render_terms(items, ("u", "v"))

    def __repr__(self) -> str:
        return f"BiPoly({self})"


def _powers(base, n: int, one) -> list:
    """[one, base, base^2, ..., base^n], built in a loop."""
    out = [one]
    for _ in range(n):
        out.append(out[-1] * base)
    return out


def _rational_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd of two UniPolys over QQ, read off the subresultant PRS of
    their primitive integer multiples."""
    if a.is_zero() or b.is_zero():
        return (b if a.is_zero() else a).monic()
    if a.is_constant() or b.is_constant():
        return UniPoly.one(a.tower, a.var)
    pa, pb = integer_row(a.coeffs), integer_row(b.coeffs)
    if len(pa) < len(pb):
        pa, pb = pb, pa
    last, rem, *_ = _subresultant_prs(pa, pb, _ZZ)
    if rem:
        return UniPoly.one(a.tower, a.var)
    return UniPoly._of(a.tower, a.var, rational_row(a.tower, last, last[-1]))


def uni_gcd_list(polys) -> UniPoly:
    """Monic gcd of a nonempty list of UniPoly in one shared variable."""
    polys = list(polys)
    if not polys:
        raise InvalidInput("gcd of an empty list")
    g = polys[0]
    for p in polys[1:]:
        if not g.is_zero() and g.is_constant():
            break
        g = g.gcd(p)
    return g.monic()


def _dense_main(f: BiPoly, main: str):
    """Coefficient list of f in the main variable, entries UniPoly in the other."""
    other = "v" if main == "u" else "u"
    idx = 0 if main == "u" else 1
    n = f.degree(main)
    m = f.degree(other)
    rows = [[f.tower.zero()] * (m + 1) for _ in range(n + 1)]
    for (du, dv), c in f._terms.items():
        e = (du, dv)[idx]
        k = (du, dv)[1 - idx]
        rows[e][k] = c
    return [UniPoly(f.tower, other, r) for r in rows]


def _integer_main(f: BiPoly, main: str):
    """(rows, den) for f over QQ: the coefficient list of den * f in the main
    variable, entries integer lists in the other, den the lcm of f's
    denominators."""
    other = "v" if main == "u" else "u"
    idx = 0 if main == "u" else 1
    den = lcm(*(c.den for c in f._terms.values()))
    rows = [[0] * (f.degree(other) + 1) for _ in range(f.degree(main) + 1)]
    for key, c in f._terms.items():
        rows[key[idx]][key[1 - idx]] = c.num[0] * (den // c.den)
    return [_trim(r) for r in rows], den


def _from_dense(coeffs, main: str, tower: FieldTower) -> BiPoly:
    idx = 0 if main == "u" else 1
    out = {}
    for e, p in enumerate(coeffs):
        for k, c in enumerate(p.coeffs):
            key = (e, k) if idx == 0 else (k, e)
            out[key] = c
    return BiPoly(tower, out)


def _trim(cs):
    """Drop trailing zero coefficients (any falsy entry) in place."""
    while cs and not cs[-1]:
        cs.pop()
    return cs


# -- dense integer polynomials (lists, low degree first), over Z or mod m -----


def _z_mod(a, m):
    return _trim([c % m for c in a])


def _z_mul(a, b, m=None):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _trim(out) if m is None else _z_mod(out, m)


def _z_add(a, b, sign=1):
    """a + sign*b."""
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += sign * c
    return _trim(out)


def _z_pow(a, n):
    out = [1]
    for _ in range(n):
        out = _z_mul(out, a)
    return out


def _z_divmod(a, b, m=None):
    """Quotient and remainder: over Z b must be monic; mod m, lc(b) a unit."""
    r = _trim(list(a)) if m is None else _z_mod(a, m)
    inv = 1 if m is None else pow(b[-1], -1, m)
    q = [0] * max(len(r) - len(b) + 1, 0)
    while len(r) >= len(b):
        f = r[-1] if inv == 1 else r[-1] * inv % m
        k = len(r) - len(b)
        q[k] = f
        if m is None:
            for i, bc in enumerate(b):
                r[k + i] -= f * bc
        else:
            for i, bc in enumerate(b):
                r[k + i] = (r[k + i] - f * bc) % m
        _trim(r)
    return _trim(q), r


def _z_exact_div(a, b):
    """a / b over Z for any nonzero b; raises NotDivisible unless b divides a."""
    r = list(a)
    lead = b[-1]
    q = [0] * max(len(r) - len(b) + 1, 0)
    while len(r) >= len(b):
        f, x = divmod(r[-1], lead)
        if x:
            break
        k = len(r) - len(b)
        q[k] = f
        for i, bc in enumerate(b):
            r[k + i] -= f * bc
        _trim(r)
    if r:
        raise NotDivisible("integer polynomial division left a remainder")
    return _trim(q)


def _int_exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise NotDivisible("integer division left a remainder")
    return q


# -- one subresultant PRS over three coefficient rings ------------------------

# The few operations the PRS takes from its coefficient ring: the unit, then
# product, difference, exact quotient and power.
_Ring = namedtuple("_Ring", "one mul sub div pow")

# Z, for gcds in Q[x] run on primitive integer lists
_ZZ = _Ring(1, operator.mul, operator.sub, _int_exact_div, pow)
# Z[y], for resultants in Q[y][x] with the denominators cleared
_ZZ_POLY = _Ring([1], _z_mul, lambda a, b: _z_add(a, b, -1), _z_exact_div, _z_pow)


def _unipoly_ring(tower: FieldTower, var: str) -> _Ring:
    """K[var] for a tower K, as UniPoly coefficients."""
    return _Ring(
        UniPoly.one(tower, var), operator.mul, operator.sub, UniPoly.exact_div, operator.pow
    )


def _prem(a, b, ring):
    """Pseudo-remainder of dense coefficient lists, lc(b)^(da-db+1) scaling."""
    mul, sub = ring.mul, ring.sub
    da = len(a) - 1
    db = len(b) - 1
    lb = b[-1]
    monic = lb == ring.one
    rem = list(a)
    scale = da - db + 1
    while len(rem) - 1 >= db and rem:
        s = rem[-1]
        if not monic:
            rem = [mul(lb, c) for c in rem]
        shift = len(rem) - 1 - db
        for k in range(db + 1):
            rem[shift + k] = sub(rem[shift + k], mul(s, b[k]))
        _trim(rem)
        scale -= 1
    if scale > 0 and not monic:
        mult = ring.pow(lb, scale)
        rem = [mul(mult, c) for c in rem]
    return rem


def _primitive(coeffs, tower, other):
    """Split a dense coefficient list into (content UniPoly, primitive list)."""
    cont = uni_gcd_list([c for c in coeffs if not c.is_zero()])
    if cont.is_constant():
        return UniPoly.one(tower, other), list(coeffs)
    return cont, [
        c.exact_div(cont) if not c.is_zero() else c for c in coeffs
    ]


def _subresultant_prs(a, b, ring):
    """Brown's subresultant PRS of dense lists with deg a >= deg b >= 1.

    Runs until the first pseudo-remainder that is zero or constant and
    returns the state there, before that remainder is divided:
    (b, rem, g, h, delta, sign), where b is the last nonconstant member
    and sign is that of Res(a, b), flipped at each step whose two degrees
    are both odd (Cohen, Algorithm 3.3.7).
    """
    g = h = ring.one
    sign = 1
    while True:
        delta = len(a) - len(b)
        if (len(a) - 1) % 2 and (len(b) - 1) % 2:
            sign = -sign
        rem = _prem(a, b, ring)
        if len(rem) <= 1:
            return b, rem, g, h, delta, sign
        divisor = ring.mul(g, ring.pow(h, delta))
        if divisor != ring.one:
            rem = [ring.div(c, divisor) for c in rem]
        a, b = b, rem
        g = a[-1]
        h = _next_h(h, g, delta, ring)


def _next_h(h, g, delta, ring):
    """h^(1 - delta) * g^delta, the subresultant PRS's running scale."""
    if delta == 0:
        return h
    if delta == 1:
        return g
    return ring.div(ring.pow(g, delta), ring.pow(h, delta - 1))


def _gcd2(f: BiPoly, g: BiPoly) -> BiPoly:
    t = f.tower
    if max(f.degree("v"), g.degree("v")) >= max(f.degree("u"), g.degree("u")):
        main = "v"
    else:
        main = "u"
    other = "v" if main == "u" else "u"
    da = _dense_main(f, main)
    db = _dense_main(g, main)
    cont_a, pa = _primitive(da, t, other)
    cont_b, pb = _primitive(db, t, other)
    cont = cont_a.gcd(cont_b)
    ring = _unipoly_ring(t, other)
    pg = [ring.one]
    if len(pa) > 1 and len(pb) > 1:
        if len(pa) < len(pb):
            pa, pb = pb, pa
        last, rem, *_ = _subresultant_prs(pa, pb, ring)
        if not rem:
            pg = _primitive(last, t, other)[1]
    result = _from_dense(pg, main, t)
    if not cont.is_constant():
        result = result * BiPoly.from_unipoly(cont, other)
    return result


def gcd_tuple(polys) -> BiPoly:
    """Gcd of a nonempty collection of BiPoly, monic in its lex leading term."""
    polys = list(polys)
    if not polys:
        raise InvalidInput("gcd of an empty collection")
    t = polys[0].tower
    for f in polys[1:]:
        t = common_tower(t, f.tower)
    polys = [f.embed(t) for f in polys]
    nonzero = [f for f in polys if not f.is_zero()]
    if not nonzero:
        raise InvalidInput("gcd of all-zero collection")
    g = nonzero[0]
    for f in nonzero[1:]:
        if g.is_constant():
            break
        g = _gcd2(g, f)
    if g.is_constant():
        return BiPoly.one(t)
    return g.monic_lex()


def resultant(f: BiPoly, g: BiPoly, eliminate: str) -> UniPoly:
    """Resultant of f and g with respect to one variable.

    Returns a UniPoly in the remaining variable.  The sign is that of the
    Sylvester matrix laid out with the block of g-coefficient rows on top,
    that is Res(g, f) in the usual order.  The value is read off the
    subresultant PRS that also serves the gcd.
    """
    _check_var(eliminate)
    t = common_tower(f.tower, g.tower)
    f = f.embed(t)
    g = g.embed(t)
    if f.is_zero() or g.is_zero():
        raise InvalidInput("resultant of the zero polynomial")
    other = "v" if eliminate == "u" else "u"
    n = f.degree(eliminate)
    m = g.degree(eliminate)
    if n == 0 and m == 0:
        raise InvalidInput("neither argument involves the eliminated variable")
    if n == 0:
        return f.as_unipoly(other) ** m
    if m == 0:
        return g.as_unipoly(other) ** n
    # over QQ the PRS runs on F = cf*f and G = cg*g with integer coefficients,
    # and Res(G, F) = cg^n * cf^m * Res(g, f)
    if t.width == 0:
        (a, cg), (b, cf) = _integer_main(g, eliminate), _integer_main(f, eliminate)
        ring = _ZZ_POLY
    else:
        a, b = _dense_main(g, eliminate), _dense_main(f, eliminate)
        ring = _unipoly_ring(t, other)
    # Res(g, f) = (-1)^(nm) Res(f, g); the PRS wants the larger degree first
    swap = 1
    if m < n:
        a, b = b, a
        swap = -1 if n * m % 2 else 1
    last, rem, g_prs, h, delta, sign = _subresultant_prs(a, b, ring)
    if not rem:
        return UniPoly.zero(t, other)
    # the one constant step the loop leaves undone
    rem = ring.div(rem[0], ring.mul(g_prs, ring.pow(h, delta)))
    h = _next_h(h, last[-1], delta, ring)
    d = len(last) - 1
    res = ring.div(ring.pow(rem, d), ring.pow(h, d - 1))
    if t.width == 0:
        return UniPoly._of(t, other, rational_row(t, res, sign * swap * cg**n * cf**m))
    return res if sign * swap > 0 else -res


def taylor_shift(polys, point, order: int | None = None):
    """Expand polynomials about one center: each f(u + x, v + y) at (x, y).

    For each nonzero coordinate c, the table C(n, k)*c^(n-k) is built once
    and shared by the whole list.  With ``order``, terms of total degree
    ``order`` or more are dropped; the tables stop short of most of them.
    Without it, a shift to the origin returns the inputs on the joined tower.
    The center is a pair of ints, Fractions or FieldElements.
    """
    polys = list(polys)
    if not polys:
        raise InvalidInput("empty collection")
    if not (
        isinstance(point, (tuple, list))
        and len(point) == 2
        and all(isinstance(c, (int, Rational, FieldElement)) for c in point)
    ):
        raise InvalidInput(f"a center is a pair of field elements, not {point!r}")
    t, center = _on_common_tower(reduce(common_tower, [f.tower for f in polys]), point)
    if order is None and all(c.is_zero() for c in center):
        return [f.embed(t) for f in polys]
    cap = order if order is not None else max(f.degree() for f in polys) + 1
    shifted = [f.embed(t)._terms for f in polys]
    for idx, c in enumerate(center):
        if c.is_zero():
            continue
        exps = {e[idx] for terms in shifted for e in terms}
        pw = _powers(c, max(exps, default=0), t.one())
        table = {
            n: [pw[n - k] * comb(n, k) for k in range(min(n + 1, cap))]
            for n in exps
        }
        shifted = [_shift_terms(terms, idx, table, cap) for terms in shifted]
    # sums in _shift_terms may cancel to zero
    return [
        BiPoly._of(t, {e: c for e, c in terms.items() if e[0] + e[1] < cap and c})
        for terms in shifted
    ]


def _shift_terms(terms, idx, table, cap):
    """Shift one variable (index idx): x^n becomes the sum of table[n][k]*x^k."""
    out = {}
    for e, c in terms.items():
        row = table[e[idx]]
        # v is shifted last, so its terms keep a final u exponent
        stop = min(len(row), cap - e[0]) if idx else len(row)
        for k in range(stop):
            key = (k, e[1]) if idx == 0 else (e[0], k)
            prod = c * row[k]
            out[key] = out[key] + prod if key in out else prod
    return out


def pullback_blowup(shifted, chart: str, m: int):
    """Transforms in one blowup chart, with the exceptional power u^m or v^m
    divided out, of polynomials expanded about the center (taylor_shift).

    Chart "t" substitutes (u*v, v), chart "s" substitutes (u, u*v): u^a v^b
    becomes u^a v^(a+b-m) in chart "t" and u^(a+b-m) v^b in chart "s", and
    terms with a + b < m are dropped.  With m the lowest total degree of
    the expansion none is dropped, and these are the strict transforms;
    with m = 0 they are the total transforms.
    """
    if chart not in ("t", "s"):
        raise InvalidInput(f"unknown chart {chart!r}; expected 't' or 's'")
    if not isinstance(m, int) or m < 0:
        raise InvalidInput("power must be a nonnegative integer")
    out = []
    for f in shifted:
        if chart == "t":
            terms = {(a, a + b - m): c for (a, b), c in f._terms.items() if a + b >= m}
        else:
            terms = {(a + b - m, b): c for (a, b), c in f._terms.items() if a + b >= m}
        out.append(BiPoly._of(f.tower, terms))
    return out


def deriv_eval(g: BiPoly, a: int, b: int, point) -> FieldElement:
    """Evaluate the (a, b) mixed partial of g at a point.

    That is a!*b! times the (a, b) coefficient of g expanded about the point.
    """
    if not isinstance(a, int) or not isinstance(b, int) or a < 0 or b < 0:
        raise InvalidInput("derivative orders must be nonnegative integers")
    shifted = taylor_shift([g], point, a + b + 1)[0]
    return shifted.coeff(a, b) * (factorial(a) * factorial(b))
