"""Exact arithmetic in towers of number fields over the rationals.

A tower QQ(a_1, ..., a_k) is described by an ordered list of generators,
each a root of a monic irreducible polynomial over the tower below it.
An element is an integer numerator vector on the power-product basis
a_1^e_1 * ... * a_k^e_k (0 <= e_j < deg a_j), top generator slowest, and
one common denominator.  So the basis of a subtower is a prefix (embedding
pads zeros) and the coefficient of a_k^i is one contiguous block.  The
denominator is positive, gcd(denominator, *numerator) == 1 and the
numerator's length is the tower's degree; this form is canonical, so
equality compares numerators and denominators.

A product is one integer convolution on exponents, then one pass over a
per-tower table, built on first use, that rewrites each monomial past a
generator's degree in the basis; a rational factor only scales the
other's numerator.  An element x is inverted by solving
x * y = 1 on the basis: the same table gives the integer matrix of
multiplication by x, which _gauss.integer_rref reduces in one pass.

An element prints as a sum of terms, highest exponents first; a rational
element or polynomial coefficient prints straight from its pair, already
in lowest terms.  Printing an integer of more than MAX_DIGITS digits
raises SizeLimitExceeded.

power is the one repeated-squaring loop, for this layer and those above
it: element, polynomial and dense-list powers, powers modulo a
polynomial and the parser's ^ pass it their own product.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, mul, neg, sub
from typing import Callable

from .errors import (
    ConjugationUnavailable,
    DivisionByZero,
    FieldMismatch,
    InvalidExtension,
    InvalidInput,
    SizeLimitExceeded,
)

Rational = Fraction

MAX_DIGITS = 4300  # Python's default limit on int <-> str conversions
_TOO_LONG = 10**MAX_DIGITS

_RESERVED_NAMES = {"u", "v", "t"}


class _Generator:
    """One tower level: a named root of a monic polynomial over the levels below."""

    __slots__ = ("name", "minpoly", "degree", "exponents", "table", "key")

    def __init__(self, name: str, minpoly: tuple["FieldElement", ...], below: "FieldTower"):
        # minpoly: full monic coefficient tuple, low degree first, entries in
        # the subtower ``below`` this generator sits on top of.
        self.name = name
        self.minpoly = minpoly
        self.degree = len(minpoly) - 1
        # basis exponent tuples of the tower this generator tops, in
        # numerator order
        self.exponents = tuple(
            e + (i,) for i in range(self.degree) for e in below.exponents()
        )
        self.table = None
        self.key = (name, tuple((c.num, c.den) for c in minpoly))


class FieldTower:
    """An ordered tower of simple extensions of QQ.  Immutable."""

    __slots__ = ("_gens", "_key", "_hash", "_degree")

    def __init__(self, gens: tuple[_Generator, ...] = ()):
        self._gens = gens
        self._key = tuple(g.key for g in gens)
        self._hash = hash(self._key)
        self._degree = len(gens[-1].exponents) if gens else 1

    @classmethod
    def rationals(cls) -> "FieldTower":
        return cls(())

    @property
    def width(self) -> int:
        return len(self._gens)

    def names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self._gens)

    def generators(self) -> tuple[tuple[str, tuple["FieldElement", ...]], ...]:
        """Pairs (name, monic minimal polynomial coefficients over the subtower)."""
        return tuple((g.name, g.minpoly) for g in self._gens)

    def degree(self) -> int:
        """Absolute degree over QQ."""
        return self._degree

    def exponents(self) -> tuple[tuple[int, ...], ...]:
        """Exponent tuples of the power-product basis, in numerator order."""
        return self._gens[-1].exponents if self._gens else ((),)

    def subtower(self, k: int) -> "FieldTower":
        return FieldTower(self._gens[:k])

    def extends(self, other: "FieldTower") -> bool:
        """True when ``other`` is an initial segment of this tower."""
        if self is other:
            return True
        n = len(other._gens)
        return len(self._gens) >= n and self._key[:n] == other._key

    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self._degree, 1)

    def one(self) -> "FieldElement":
        return self.rational(1)

    def rational(self, q) -> "FieldElement":
        pad = (0,) * (self._degree - 1)
        if type(q) is int:
            return FieldElement(self, (q,) + pad, 1)
        q = Fraction(q)
        return FieldElement(self, (q.numerator,) + pad, q.denominator)

    def gen(self, which) -> "FieldElement":
        """The generator at an index, or by name."""
        if isinstance(which, str):
            if which not in self.names():
                raise InvalidInput(f"no generator named {which!r}")
            which = self.names().index(which)
        j = range(self.width)[which]
        num = [0] * self._degree
        num[self.subtower(j)._degree] = 1
        return FieldElement(self, tuple(num), 1)

    def fresh_name(self) -> str:
        used = set(self.names()) | _RESERVED_NAMES
        n = 0
        while f"a{n}" in used:
            n += 1
        return f"a{n}"

    def _mul_table(self):
        """(slots, size, over, scale) of a tower of width >= 1, built on first use.

        slots[i][j] places the exponent sum of basis elements i and j among
        the ``size`` exponent tuples a product reaches, the basis first;
        ``over`` maps each place past the basis to ``scale`` times its
        monomial in the basis, as sparse (index, integer) pairs."""
        top = self._gens[-1]
        if top.table is None:
            exps = self.exponents()
            places = {e: i for i, e in enumerate(exps)}
            slots = tuple(
                tuple(
                    places.setdefault(tuple(map(add, a, b)), len(places)) for b in exps
                )
                for a in exps
            )
            reached = [(i, _monomial(self, e)) for e, i in places.items() if i >= len(exps)]
            scale = lcm(*(m.den for _, m in reached))
            over = tuple(
                (i, tuple((k, x * (scale // m.den)) for k, x in enumerate(m.num) if x))
                for i, m in reached
            )
            top.table = (slots, len(places), over, scale)
        return top.table

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FieldTower):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self._gens:
            return "QQ"
        return "QQ(" + ", ".join(self.names()) + ")"


QQ = FieldTower.rationals()


def _monomial(tower: FieldTower, exps: tuple[int, ...]) -> "FieldElement":
    """a_1^e_1 * ... * a_k^e_k in the basis, by products in the tower below
    and one division by the top generator's minimal polynomial."""
    from .bipoly import UniPoly  # deferred: bipoly depends on this module

    below = tower.subtower(tower.width - 1)
    low = below.one()
    for j, k in enumerate(exps[:-1]):
        low = low * below.gen(j) ** k
    top = UniPoly(below, "t", [0] * exps[-1] + [low])
    rem = top % UniPoly(below, "t", tower._gens[-1].minpoly)
    return FieldElement._from_top_dense(tower, rem.coeffs)


def _normal(tower: FieldTower, num, den: int) -> "FieldElement":
    """The element num / den, for den > 0, with the gcd divided out."""
    g = gcd(den, *num)
    if g == 1:
        return FieldElement(tower, tuple(num), den)
    return FieldElement(tower, tuple([x // g for x in num]), den // g)


def _scaled(x: "FieldElement", n: int, d: int) -> "FieldElement":
    """x * (n / d), for n / d in lowest terms with d > 0."""
    if n == d:
        return x
    return _normal(x.tower, [n * c for c in x.num], x.den * d)


def _sum(x: "FieldElement", y: "FieldElement", op) -> "FieldElement":
    """x + y for op = add, x - y for op = sub, over x's tower."""
    b = y.num
    if not any(b):
        return x
    a = x.num
    if not any(a) and op is add:
        return FieldElement(x.tower, b, y.den)
    da, db = x.den, y.den
    if da == db:
        return _normal(x.tower, tuple(map(op, a, b)), da)
    g = gcd(da, db)
    ma, mb = db // g, da // g
    return _normal(x.tower, [op(p * ma, q * mb) for p, q in zip(a, b)], da * ma)


def power(base, n: int, one, mul=mul):
    """base^n for an integer n >= 0 by repeated squaring, for elements,
    polynomials and dense lists alike: mul(result, base) once per set bit
    of n, lowest first, and mul(base, base) once per bit below the highest,
    so a caller's mul may count or reduce the products."""
    result = one
    while n:
        if n & 1:
            result = mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


def cleared_row(row) -> tuple[list[int], int]:
    """(nums, den) for a row of rational elements: den the lcm of their
    denominators and row[j] = nums[j] / den."""
    den = lcm(*(x.den for x in row))
    return [x.num[0] * (den // x.den) for x in row], den


def integer_row(row) -> list[int]:
    """The primitive integer row proportional to a row of rational elements:
    denominators cleared and the content divided out."""
    out = cleared_row(row)[0]
    g = gcd(*out)
    return out if g < 2 else [x // g for x in out]


def rational_row(tower: FieldTower, row, den: int) -> list["FieldElement"]:
    """The elements row[j] / den of a rational tower, for an integer row and
    a nonzero integer den."""
    if den < 0:
        row, den = [-x for x in row], -den
    out = []
    for x in row:
        g = gcd(x, den)
        out.append(FieldElement(tower, (x // g,), den // g))
    return out


class FieldElement:
    """An element of a FieldTower: numerator vector over one denominator."""

    __slots__ = ("tower", "num", "den")

    def __init__(self, tower: FieldTower, num: tuple[int, ...], den: int):
        # (num, den) must already satisfy the module's invariants;
        # construction goes through the tower factories or arithmetic below.
        self.tower = tower
        self.num = num
        self.den = den

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.tower is self.tower or other.tower == self.tower:
                return other
            raise FieldMismatch(
                f"cannot combine elements of {self.tower!r} and {other.tower!r}"
            )
        if isinstance(other, (int, Fraction)):
            return self.tower.rational(other)
        return None

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if any(self.num[1:]):
            raise InvalidInput(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def words(self) -> int:
        """64-bit machine words of the longest integer in the numerator and
        denominator: the size that the cost of a product grows with."""
        return max(self.den.bit_length(), *map(int.bit_length, self.num)) // 64 + 1

    def terms(self) -> list[tuple[tuple[int, ...], int, int]]:
        """Nonzero terms as (exponent tuple, numerator, denominator) in
        lowest terms, highest exponents first."""
        out = []
        for e, x in zip(self.tower.exponents(), self.num):
            if x:
                g = gcd(x, self.den)
                out.append((e, x // g, self.den // g))
        out.sort(reverse=True)
        return out

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if type(other) is not FieldElement or other.tower is not self.tower:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return _sum(self, other, add)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.tower, tuple(map(neg, self.num)), self.den)

    def __sub__(self, other):
        if type(other) is not FieldElement or other.tower is not self.tower:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return _sum(self, other, sub)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _sum(other, self, sub)

    def __mul__(self, other):
        if type(other) is not FieldElement or other.tower is not self.tower:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.num, other.num
        den = self.den * other.den
        if len(a) == 1:
            # QQ: the convolution below with one slot and nothing to rewrite
            p = a[0] * b[0]
            g = gcd(p, den)
            return FieldElement(self.tower, (p // g,), den // g)
        # a rational factor scales the other's numerator, in O(d) steps
        if not any(b[1:]):
            return _scaled(self, b[0], other.den)
        if not any(a[1:]):
            return _scaled(other, a[0], self.den)
        slots, size, over, scale = self.tower._mul_table()
        acc = [0] * size
        for x, row in zip(a, slots):
            if x:
                for y, i in zip(b, row):
                    if y:
                        acc[i] += x * y
        out = acc[: len(a)]
        if scale != 1:
            out = [scale * x for x in out]
            den *= scale
        for i, row in over:
            c = acc[i]
            if c:
                for k, r in row:
                    out[k] += c * r
        return _normal(self.tower, out, den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """1 / self: the solution y of self * y = 1, one integer linear solve
        on the power basis."""
        a = self.num
        if not any(a):
            raise DivisionByZero("inverse of zero")
        if not any(a[1:]):
            p = a[0]
            return FieldElement(self.tower, (self.den if p > 0 else -self.den,) + a[1:], abs(p))
        from ._gauss import integer_rref  # deferred: _gauss depends on this module

        d = len(a)
        slots, size, over, scale = self.tower._mul_table()
        # row k: coefficient k of den * scale * self * (basis element j), over j;
        # then the right-hand side den * scale * (1 at k = 0)
        rows = [[0] * (d + 1) for _ in range(d)]
        for j, places in enumerate(slots):
            # slots is symmetric: places[i] is where basis elements i and j meet
            acc = [0] * size
            for x, i in zip(a, places):
                acc[i] += x
            for k in range(d):
                rows[k][j] = scale * acc[k]
            for i, rewrite in over:
                c = acc[i]
                if c:
                    for k, r in rewrite:
                        rows[k][j] += c * r
        rows[0][d] = scale * self.den
        if integer_rref(rows) != list(range(d)):
            raise InvalidExtension(f"a minimal polynomial of {self.tower!r} is reducible")
        den = lcm(*(row[k] for k, row in enumerate(rows)))
        return _normal(self.tower, [row[d] * (den // row[k]) for k, row in enumerate(rows)], den)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, self.tower.one())

    # -- structure ----------------------------------------------------------

    def embed(self, tower: FieldTower) -> "FieldElement":
        """Reinterpret this element inside a tower extending its own."""
        if tower is self.tower:
            return self
        if not tower.extends(self.tower):
            raise FieldMismatch(f"{tower!r} does not extend {self.tower!r}")
        pad = (0,) * (tower._degree - len(self.num))
        return FieldElement(tower, self.num + pad, self.den)

    def trim(self) -> "FieldElement":
        """The same element over the shortest tower prefix that carries it."""
        num = self.num
        last = len(num) - 1
        while last and not num[last]:
            last -= 1
        gens = self.tower._gens
        need, size = 0, 1
        while size <= last:
            size *= gens[need].degree
            need += 1
        if need == len(gens):
            return self
        return FieldElement(self.tower.subtower(need), num[:size], self.den)

    def top_dense(self, sub: FieldTower) -> list:
        """Coefficients over ``sub``, the tower below the top generator, of
        this element as a polynomial in that generator, low degree first."""
        size = sub._degree
        num, den = self.num, self.den
        return [_normal(sub, num[i : i + size], den) for i in range(0, len(num), size)]

    @staticmethod
    def _from_top_dense(tower: FieldTower, coeffs: list) -> "FieldElement":
        # the lcm of normalized blocks' denominators leaves no common factor
        den = lcm(*(c.den for c in coeffs))
        num = []
        for c in coeffs:
            m = den // c.den
            num.extend(x * m for x in c.num)
        num.extend([0] * (tower._degree - len(num)))
        return FieldElement(tower, tuple(num), den)

    # -- comparison / rendering ---------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.tower.rational(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return (
            self.num == other.num and self.den == other.den and self.tower == other.tower
        )

    def __hash__(self) -> int:
        # agree with == on ints and Fractions, and across embeddings, which
        # only pad the numerator with zeros (BiPoly and UniPoly compare
        # equal across nested towers)
        num = self.num
        if not any(num[1:]):
            return hash(Fraction(num[0], self.den))
        last = len(num)
        while not num[last - 1]:
            last -= 1
        return hash((num[:last], self.den))

    def sort_key(self):
        return tuple(self.terms())

    def __str__(self) -> str:
        num = self.num
        if not any(num):
            return "0"
        if len(num) == 1:
            # QQ: the pair is already in lowest terms
            n, d = num[0], self.den
            _check_digits(n, d)
            return str(n) if d == 1 else f"{n}/{d}"
        names = self.tower.names()
        return _signed_sum(_term(n, d, _monomial_text(names, e)) for e, n, d in self.terms())

    def __repr__(self) -> str:
        return f"<{self} in {self.tower!r}>"


@lru_cache(maxsize=4096)
def _monomial_text(names: tuple[str, ...], exps: tuple[int, ...]) -> str:
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e)


def _check_digits(n: int, d: int) -> None:
    if max(abs(n), d) >= _TOO_LONG:
        raise SizeLimitExceeded(f"a coefficient has more than {MAX_DIGITS} digits")


def _term(n: int, d: int, mono: str = "") -> tuple[int, str]:
    """(sign, text) of the term (n/d) * mono; a magnitude of 1 is left out."""
    _check_digits(n, d)
    mag = str(abs(n)) if d == 1 else f"{abs(n)}/{d}"
    if not mono:
        return (-1 if n < 0 else 1), mag
    return (-1 if n < 0 else 1), mono if mag == "1" else f"{mag}*{mono}"


def _signed_sum(pieces) -> str:
    """Join (sign, text) pieces into a sum; "0" when there are none."""
    out = ""
    for sign, body in pieces:
        if not out:
            out = ("-" if sign < 0 else "") + body
        else:
            out += (" - " if sign < 0 else " + ") + body
    return out or "0"


def render_terms(items, varnames) -> str:
    """Render a UniPoly or BiPoly: items are (exponent tuple, nonzero
    FieldElement), already ordered.  A coefficient with more than one term
    prints in parentheses."""
    pieces = []
    for exps, c in items:
        mono = _monomial_text(varnames, exps)
        if len(c.num) == 1:
            # QQ: the pair is already in lowest terms
            pieces.append(_term(c.num[0], c.den, mono))
            continue
        terms = c.terms()
        if len(terms) > 1:
            pieces.append((1, f"({c})*{mono}" if mono else f"({c})"))
        else:
            ((gen_exps, n, d),) = terms
            gen_mono = _monomial_text(c.tower.names(), gen_exps)
            pieces.append(_term(n, d, "*".join(m for m in (gen_mono, mono) if m)))
    return _signed_sum(pieces)


# -- extensions ---------------------------------------------------------------


def _coerce_minpoly(tower: FieldTower, minpoly) -> tuple:
    if hasattr(minpoly, "coeffs") and hasattr(minpoly, "tower"):
        if minpoly.tower != tower:
            raise InvalidExtension("minimal polynomial lives over a different tower")
        coeffs = tuple(minpoly.coeffs)
    else:
        coeffs = tuple(minpoly)
    out = []
    for c in coeffs:
        if isinstance(c, (int, Fraction)):
            c = tower.rational(c)
        elif not isinstance(c, FieldElement):
            raise InvalidInput("minimal polynomial coefficients must be field elements")
        elif c.tower != tower:
            raise InvalidExtension("minimal polynomial lives over a different tower")
        out.append(c)
    while out and out[-1].is_zero():
        out.pop()
    return tuple(out)


def extend_field(
    tower: FieldTower, minpoly, name: str | None = None
) -> tuple[FieldTower, Callable[[FieldElement], FieldElement], FieldElement]:
    """Adjoin a root of a monic irreducible polynomial of degree >= 2.

    Returns the extended tower, an embedding for old elements, and the new
    root.  This is the checked, public path: irreducibility is re-verified
    here by factoring, whatever the caller claims.
    """
    coeffs = _coerce_minpoly(tower, minpoly)
    if len(coeffs) < 3:
        raise InvalidExtension("extension degree must be at least 2")
    if coeffs[-1] != tower.one():
        raise InvalidExtension("minimal polynomial must be monic")

    from . import bipoly, factorize  # deferred: factorize depends on this module

    poly = bipoly.UniPoly(tower, "t", coeffs)
    factors = factorize.factor_univariate(poly)
    if len(factors) != 1 or factors[0][1] != 1 or factors[0][0].degree() != len(coeffs) - 1:
        raise InvalidExtension(f"{poly} is reducible over {tower!r}")
    return _adjoin(tower, coeffs, name)


def _adjoin(
    tower: FieldTower, coeffs: tuple[FieldElement, ...], name: str | None = None
) -> tuple[FieldTower, Callable[[FieldElement], FieldElement], FieldElement]:
    """extend_field without its checks, for a monic polynomial of degree >= 2
    over ``tower`` (coefficients low degree first) that the caller has
    just proved irreducible, such as a factor from factorize.factor_univariate."""
    if name is None:
        name = tower.fresh_name()
    else:
        if not name.isidentifier() or name in _RESERVED_NAMES:
            raise InvalidExtension(f"bad generator name {name!r}")
        if name in tower.names():
            raise InvalidExtension(f"generator name {name!r} already in use")

    new = FieldTower(tower._gens + (_Generator(name, coeffs, tower),))
    return new, (lambda x: x.embed(new)), new.gen(new.width - 1)


# -- conjugation --------------------------------------------------------------


class FieldAutomorphism:
    """A field automorphism of a tower, given by generator images."""

    def __init__(self, tower: FieldTower, images: tuple[FieldElement, ...]):
        self.tower = tower
        self.images = images

    def __call__(self, x: FieldElement) -> FieldElement:
        if x.tower != self.tower:
            raise FieldMismatch("element does not live in this automorphism's tower")
        return _apply_images(self.tower, self.images, x)

    def is_identity(self) -> bool:
        return all(self(self.tower.gen(j)) == self.tower.gen(j) for j in range(self.tower.width))

    def __repr__(self) -> str:
        maps = ", ".join(
            f"{n} -> {img}" for n, img in zip(self.tower.names(), self.images)
        )
        return f"<automorphism {maps or 'id'} of {self.tower!r}>"


def _apply_images(tower: FieldTower, images, x: FieldElement) -> FieldElement:
    out = tower.zero()
    for e, n, d in x.terms():
        term = tower.rational(Fraction(n, d))
        for j, k in enumerate(e):
            if k:
                if images[j] is None:
                    raise InvalidInput("partial automorphism applied too widely")
                term = term * images[j] ** k
        out = out + term
    return out


def conjugation(tower: FieldTower) -> FieldAutomorphism:
    """The involutive automorphism sending each generator to a conjugate root.

    Candidate images are roots, inside the tower itself, of the image of
    each generator's minimal polynomial under the partial map built so far;
    where the map fixes that polynomial the generator is one root, and only
    the cofactor is factored.  Roots different from the generator are
    preferred; the first assignment that squares to the identity wins.
    Raises ConjugationUnavailable when no such assignment exists.
    """
    if tower.width == 0:
        return FieldAutomorphism(tower, ())

    from . import bipoly, factorize

    gens = tower._gens

    def roots_of_mapped_minpoly(j: int, images: tuple) -> list[FieldElement]:
        padded = images + (None,) * (tower.width - len(images))
        full = [c.embed(tower) for c in gens[j].minpoly]
        coeffs = [_apply_images(tower, padded, c) for c in full]
        poly = bipoly.UniPoly(tower, "t", coeffs)
        roots = []
        if coeffs == full:
            # the map fixes the minimal polynomial, so alpha_j is a root
            alpha = tower.gen(j)
            roots.append(alpha)
            poly = poly.exact_div(bipoly.UniPoly(tower, "t", (-alpha, 1)))
        for fac, _ in factorize.factor_univariate(poly):
            if fac.degree() == 1:
                roots.append(-fac.coeffs[0])
        return sorted(roots, key=FieldElement.sort_key)

    def search(j: int, images: tuple):
        if j == len(gens):
            sigma = FieldAutomorphism(tower, images)
            for i in range(tower.width):
                if sigma(images[i]) != tower.gen(i):
                    return None
            return images
        alpha = tower.gen(j)
        roots = roots_of_mapped_minpoly(j, images)
        candidates = [r for r in roots if r != alpha] + [r for r in roots if r == alpha]
        for r in candidates:
            found = search(j + 1, images + (r,))
            if found is not None:
                return found
        return None

    images = search(0, ())
    if images is None:
        raise ConjugationUnavailable(
            f"{tower!r} has no involutive conjugation with roots in the tower"
        )
    return FieldAutomorphism(tower, images)
