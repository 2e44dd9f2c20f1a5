"""Parsing and serialization of polynomial expressions and field towers.

The expression grammar is deliberately small: integer and rational
literals, named generators and variables, +, -, *, ^ and parentheses.
Multiplication is always explicit, so "2u" is a syntax error and "2*u"
is not.  Canonical string output from the polynomial types parses back
to an equal object.

One parser serves BiPoly, UniPoly and field elements through one atom
class, built from the type's constant constructor, its own variables
and its coefficient view.  Every product, the repeated squarings of ^
included, is charged against MAX_PRODUCTS.
"""

from __future__ import annotations

from .errors import InvalidInput, ParseError, SizeLimitExceeded
from .numfield import MAX_DIGITS, QQ, FieldElement, FieldTower, Rational, extend_field, power
from .bipoly import BiPoly, UniPoly

_OPS = set("+-*^()/")
MAX_NESTING = 100  # keeps the recursive descent inside Python's recursion limit
MAX_EXPONENT = 10_000  # u^MAX_EXPONENT + v still ends at the blowup depth guard
# coefficient products per expression, weighted by the size of their
# integers: (u+v)^400 takes about 70k, (u+v)^1000 about 700k
MAX_PRODUCTS = 1_000_000
# a product of coefficients of a and b machine words counts 1 + a*b/64, so
# (123456789*u+v)^1000, whose coefficients reach hundreds of words, stops
# within a second instead of running for 15 s inside the budget
_WORD_PAIRS_PER_UNIT = 64


def _tokenize(text: str):
    if not isinstance(text, str):
        raise ParseError(f"expected an expression string, got {type(text).__name__}")
    toks = []
    depth = 0
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("INT", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("NAME", text[i:j], i))
            i = j
            continue
        if ch in _OPS:
            depth += (ch == "(") - (ch == ")")
            if depth > MAX_NESTING:
                raise ParseError(f"parentheses nested too deeply at position {i}")
            toks.append(("OP", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r} at position {i}")
    toks.append(("END", "", n))
    return toks


class _Parser:
    """Recursive descent over the token list, building through an atom factory.

    Every product goes through _mul, which charges len(a) * len(b)
    coefficient products, in the atoms' sizes, each weighted by the machine
    words of the operands' largest coefficients, against MAX_PRODUCTS."""

    def __init__(self, text: str, atoms):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.atoms = atoms
        self.products = 0

    def _mul(self, a, b):
        (na, wa), (nb, wb) = self.atoms.size(a), self.atoms.size(b)
        pairs = _WORD_PAIRS_PER_UNIT
        self.products += na * nb * (pairs + wa * wb) // pairs
        if self.products > MAX_PRODUCTS:
            raise SizeLimitExceeded(
                f"expression needs more than {MAX_PRODUCTS} coefficient products"
                " (weighted by the size of their integers)"
            )
        return a * b

    def _power(self, base, n: int):
        return power(base, n, self.atoms.constant(Rational(1)), self._mul)

    def _peek(self):
        return self.toks[self.i]

    def _next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def _fail(self, tok, what: str):
        kind, val, pos = tok
        got = "end of input" if kind == "END" else repr(val)
        raise ParseError(f"expected {what} at position {pos}, got {got}")

    def parse(self):
        kind, _, _ = self._peek()
        if kind == "END":
            raise ParseError("empty expression")
        value = self._expr()
        tok = self._peek()
        if tok[0] != "END":
            self._fail(tok, "an operator or end of input")
        return value

    def _expr(self):
        value = self._term()
        while True:
            kind, val, _ = self._peek()
            if kind == "OP" and val in "+-":
                self._next()
                rhs = self._term()
                value = value + rhs if val == "+" else value - rhs
            else:
                return value

    def _term(self):
        value = self._factor()
        while True:
            kind, val, _ = self._peek()
            if kind == "OP" and val == "*":
                self._next()
                value = self._mul(value, self._factor())
            else:
                return value

    def _factor(self):
        negate = False
        while self._peek()[:2] == ("OP", "-"):
            self._next()
            negate = not negate
        return -self._primary() if negate else self._primary()

    def _primary(self):
        value = self._atom()
        kind, val, _ = self._peek()
        if kind == "OP" and val == "^":
            self._next()
            tok = self._next()
            if tok[0] != "INT":
                self._fail(tok, "an integer exponent")
            # compare lengths first: int() refuses very long digit strings
            if len(tok[1]) > len(str(MAX_EXPONENT)) or int(tok[1]) > MAX_EXPONENT:
                raise SizeLimitExceeded(
                    f"exponent at position {tok[2]} exceeds {MAX_EXPONENT}"
                )
            value = self._power(value, int(tok[1]))
        return value

    def _int(self, tok):
        if len(tok[1]) > MAX_DIGITS:
            raise SizeLimitExceeded(
                f"integer at position {tok[2]} has more than {MAX_DIGITS} digits"
            )
        return int(tok[1])

    def _atom(self):
        tok = self._next()
        kind, val, pos = tok
        if kind == "INT":
            num = self._int(tok)
            nk, nv, _ = self._peek()
            if nk == "OP" and nv == "/":
                self._next()
                dtok = self._next()
                if dtok[0] != "INT":
                    self._fail(dtok, "an integer denominator")
                den = self._int(dtok)
                if den == 0:
                    raise ParseError(f"zero denominator at position {dtok[2]}")
                return self.atoms.constant(Rational(num, den))
            return self.atoms.constant(Rational(num))
        if kind == "NAME":
            return self.atoms.from_name(val, pos)
        if kind == "OP" and val == "(":
            value = self._expr()
            tok = self._next()
            if tok[0] != "OP" or tok[1] != ")":
                self._fail(tok, "a closing parenthesis")
            return value
        self._fail(tok, "a number, a name or a parenthesized expression")


class _Atoms:
    """The leaves of one expression type over a tower.

    constant(c) is the type's constant for a rational or a generator,
    variables maps each of the type's own names to its value, and coeffs(x)
    is x's coefficient elements, which size reads."""

    def __init__(self, tower: FieldTower, constant, variables: dict, coeffs):
        self.tower = tower
        self.constant = constant
        self.variables = variables
        self.coeffs = coeffs

    def size(self, x) -> tuple[int, int]:
        """(coefficients, machine words of the largest)."""
        coeffs = self.coeffs(x)
        return len(coeffs), max((c.words() for c in coeffs), default=1)

    def from_name(self, name, pos):
        if name in self.variables:
            return self.variables[name]
        if name in self.tower.names():
            return self.constant(self.tower.gen(name))
        known = tuple(self.variables) + self.tower.names()
        raise ParseError(
            f"unknown name {name!r} at position {pos}; known names: "
            + ", ".join(known or ("none",))
        )


def parse_bipoly(text: str, tower: FieldTower) -> BiPoly:
    """Parse an expression in u, v and the tower's generators."""
    atoms = _Atoms(
        tower,
        lambda c: BiPoly.constant(tower, c),
        {name: BiPoly.variable(tower, name) for name in ("u", "v")},
        lambda p: p.terms().values(),
    )
    return _Parser(text, atoms).parse()


def parse_unipoly(text: str, tower: FieldTower, var: str) -> UniPoly:
    """Parse an expression in one named variable and the tower's generators."""
    atoms = _Atoms(
        tower,
        lambda c: UniPoly.constant(tower, var, c),
        {var: UniPoly.variable(tower, var)},
        lambda p: p.coeffs,
    )
    return _Parser(text, atoms).parse()


def parse_element(text: str, tower: FieldTower) -> FieldElement:
    """Parse a constant expression in the tower's generators."""
    atoms = _Atoms(
        tower,
        lambda c: c if isinstance(c, FieldElement) else tower.rational(c),
        {},
        lambda x: (x,),
    )
    return _Parser(text, atoms).parse()


def tower_to_json(tower: FieldTower) -> list:
    """Describe a tower as a list of {name, minpoly} dicts, minpolys in t."""
    out = []
    for j, (name, minpoly) in enumerate(tower.generators()):
        poly = UniPoly(tower.subtower(j), "t", minpoly)
        out.append({"name": name, "minpoly": str(poly)})
    return out


def tower_from_json(data) -> FieldTower:
    """Rebuild a tower from its JSON description, re-verifying each level."""
    if not isinstance(data, list):
        raise InvalidInput("tower description must be a list")
    tower = QQ
    for entry in data:
        if not isinstance(entry, dict) or set(entry) != {"name", "minpoly"}:
            raise InvalidInput(
                "each tower level must be an object with 'name' and 'minpoly'"
            )
        name = entry["name"]
        if not isinstance(name, str):
            raise InvalidInput("generator names must be strings")
        poly = parse_unipoly(entry["minpoly"], tower, "t")
        tower, _, _ = extend_field(tower, poly, name)
    return tower
