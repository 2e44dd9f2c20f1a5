"""Exact arithmetic in towers of number fields over the rationals.

A tower QQ(a_1, ..., a_k) is described by an ordered list of generators,
each a root of a monic irreducible polynomial over the tower below it.
Elements are kept as reduced multivariate polynomials in the generators
with rational coefficients, so equality is plain dictionary comparison.
An element is inverted as a polynomial in the top generator, modulo that
generator's minimal polynomial, by bipoly.UniPoly.inverse_mod over the
tower below.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .errors import (
    ConjugationUnavailable,
    DivisionByZero,
    FieldMismatch,
    InvalidExtension,
    InvalidInput,
)

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)

_RESERVED_NAMES = {"u", "v", "t"}


class _Generator:
    """One tower level: a named root of a monic polynomial over the levels below."""

    __slots__ = ("name", "minpoly", "degree", "tail", "_key")

    def __init__(self, name: str, minpoly: tuple["FieldElement", ...]):
        # minpoly: full monic coefficient tuple, low degree first, entries in
        # the subtower this generator sits on top of.
        self.name = name
        self.minpoly = minpoly
        self.degree = len(minpoly) - 1
        # alpha^degree rewritten as terms of lower alpha-powers; exponent
        # tuples here have width (subtower width + 1).
        tail: dict[tuple[int, ...], Fraction] = {}
        for i in range(self.degree):
            for exps, q in minpoly[i]._terms.items():
                key = exps + (i,)
                tail[key] = tail.get(key, _ZERO) - q
        self.tail = {e: q for e, q in tail.items() if q}
        self._key = (name, tuple(tuple(sorted(c._terms.items())) for c in minpoly))

    def key(self):
        return self._key


class FieldTower:
    """An ordered tower of simple extensions of QQ.  Immutable."""

    __slots__ = ("_gens", "_key", "_hash")

    def __init__(self, gens: tuple[_Generator, ...] = ()):
        self._gens = gens
        self._key = tuple(g.key() for g in gens)
        self._hash = hash(self._key)

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
        d = 1
        for g in self._gens:
            d *= g.degree
        return d

    def subtower(self, k: int) -> "FieldTower":
        return FieldTower(self._gens[:k])

    def extends(self, other: "FieldTower") -> bool:
        """True when ``other`` is an initial segment of this tower."""
        if self is other:
            return True
        n = len(other._gens)
        return len(self._gens) >= n and self._key[:n] == other._key

    def zero(self) -> "FieldElement":
        return FieldElement(self, {})

    def one(self) -> "FieldElement":
        return FieldElement(self, {(0,) * self.width: _ONE})

    def rational(self, q) -> "FieldElement":
        q = Fraction(q)
        if not q:
            return self.zero()
        return FieldElement(self, {(0,) * self.width: q})

    def gen(self, which) -> "FieldElement":
        """The generator at an index, or by name."""
        if isinstance(which, str):
            for j, g in enumerate(self._gens):
                if g.name == which:
                    which = j
                    break
            else:
                raise InvalidInput(f"no generator named {which!r}")
        j = range(self.width)[which]
        exps = tuple(1 if i == j else 0 for i in range(self.width))
        return FieldElement(self, {exps: _ONE})

    def fresh_name(self) -> str:
        used = set(self.names()) | _RESERVED_NAMES
        n = 0
        while f"a{n}" in used:
            n += 1
        return f"a{n}"

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


def _reduce(tower: FieldTower, terms: dict) -> dict:
    """Rewrite generator exponents below their minimal polynomial degrees.

    Processes levels from the top down; a rewrite at level j only touches
    exponents at levels <= j, so one downward pass settles everything.
    """
    gens = tower._gens
    width = len(gens)
    for j in range(width - 1, -1, -1):
        d = gens[j].degree
        while True:
            over = [(e, c) for e, c in terms.items() if e[j] >= d]
            if not over:
                break
            tail = gens[j].tail
            for e, c in over:
                del terms[e]
                base = list(e)
                base[j] -= d
                for te, tq in tail.items():
                    ne = list(base)
                    for i, ti in enumerate(te):
                        ne[i] += ti
                    ne = tuple(ne)
                    q = terms.get(ne, _ZERO) + c * tq
                    if q:
                        terms[ne] = q
                    elif ne in terms:
                        del terms[ne]
    return terms


class FieldElement:
    """An element of a FieldTower, in reduced canonical form."""

    __slots__ = ("tower", "_terms", "_hash")

    def __init__(self, tower: FieldTower, terms: dict):
        # terms must already be reduced and free of zero coefficients;
        # construction goes through the tower factories or arithmetic below.
        self.tower = tower
        self._terms = terms
        self._hash = None

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
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_rational(self) -> bool:
        if not self._terms:
            return True
        zero_key = (0,) * self.tower.width
        return set(self._terms) == {zero_key}

    def as_rational(self) -> Fraction:
        if not self._terms:
            return _ZERO
        zero_key = (0,) * self.tower.width
        if set(self._terms) == {zero_key}:
            return self._terms[zero_key]
        raise InvalidInput(f"{self} is not rational")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            # no element mutates its terms, so the dict can be shared
            return FieldElement(self.tower, other._terms)
        terms = dict(self._terms)
        for e, c in other._terms.items():
            q = terms.get(e, _ZERO) + c
            if q:
                terms[e] = q
            elif e in terms:
                del terms[e]
        return FieldElement(self.tower, terms)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.tower, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                q = out.get(e, _ZERO) + c1 * c2
                if q:
                    out[e] = q
                elif e in out:
                    del out[e]
        gens = self.tower._gens
        if any(e[j] >= gens[j].degree for e in out for j in range(len(gens))):
            _reduce(self.tower, out)
            out = {e: c for e, c in out.items() if c}
        return FieldElement(self.tower, out)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if not self._terms:
            raise DivisionByZero("inverse of zero")
        tower = self.tower
        gens = tower._gens
        if not gens:
            return FieldElement(tower, {(): _ONE / self._terms[()]})
        from .bipoly import UniPoly  # deferred: bipoly depends on this module

        sub = tower.subtower(len(gens) - 1)
        a = UniPoly(sub, "t", self._top_dense(sub))
        inv = a.inverse_mod(UniPoly(sub, "t", gens[-1].minpoly))
        return self._from_top_dense(tower, inv.coeffs)

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
        result = self.tower.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- structure ----------------------------------------------------------

    def embed(self, tower: FieldTower) -> "FieldElement":
        """Reinterpret this element inside a tower extending its own."""
        if tower is self.tower or tower == self.tower:
            return FieldElement(tower, dict(self._terms))
        if not tower.extends(self.tower):
            raise FieldMismatch(f"{tower!r} does not extend {self.tower!r}")
        pad = (0,) * (tower.width - self.tower.width)
        return FieldElement(tower, {e + pad: c for e, c in self._terms.items()})

    def trim(self) -> "FieldElement":
        """The same element over the shortest tower prefix that carries it."""
        need = 0
        for e in self._terms:
            for j in range(len(e) - 1, -1, -1):
                if e[j]:
                    need = max(need, j + 1)
                    break
        if need == self.tower.width:
            return self
        sub = self.tower.subtower(need)
        return FieldElement(sub, {e[:need]: c for e, c in self._terms.items()})

    def _top_dense(self, sub: FieldTower) -> list:
        d = self.tower._gens[-1].degree
        coeffs = [dict() for _ in range(d)]
        for e, c in self._terms.items():
            coeffs[e[-1]][e[:-1]] = c
        return [FieldElement(sub, t) for t in coeffs]

    @staticmethod
    def _from_top_dense(tower: FieldTower, coeffs: list) -> "FieldElement":
        terms = {}
        for i, c in enumerate(coeffs):
            for e, q in c._terms.items():
                terms[e + (i,)] = q
        return FieldElement(tower, terms)

    # -- comparison / rendering ---------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.tower.rational(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.tower == other.tower and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.tower, frozenset(self._terms.items())))
        return self._hash

    def sort_key(self):
        return tuple(
            sorted(
                ((e, c.numerator, c.denominator) for e, c in self._terms.items()),
                reverse=True,
            )
        )

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        names = self.tower.names()
        parts = []
        for e, c in sorted(self._terms.items(), reverse=True):
            mono = "*".join(
                n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k
            )
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"<{self} in {self.tower!r}>"


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
    root.  Irreducibility is re-verified here, whatever the caller claims.
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

    if name is None:
        name = tower.fresh_name()
    else:
        if not name.isidentifier() or name in _RESERVED_NAMES:
            raise InvalidExtension(f"bad generator name {name!r}")
        if name in tower.names():
            raise InvalidExtension(f"generator name {name!r} already in use")

    new = FieldTower(tower._gens + (_Generator(name, coeffs),))
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
    for e, c in x._terms.items():
        term = tower.rational(c)
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
    each generator's minimal polynomial under the partial map built so far.
    Roots different from the generator are preferred; the first assignment
    that squares to the identity wins.  Raises ConjugationUnavailable when
    no such assignment exists.
    """
    if tower.width == 0:
        return FieldAutomorphism(tower, ())

    from . import bipoly, factorize

    gens = tower._gens

    def roots_of_mapped_minpoly(j: int, images: tuple) -> list[FieldElement]:
        padded = images + (None,) * (tower.width - len(images))
        coeffs = []
        for c in gens[j].minpoly:
            full = c.embed(tower)
            coeffs.append(_apply_images(tower, padded, full))
        poly = bipoly.UniPoly(tower, "t", tuple(coeffs))
        roots = []
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
