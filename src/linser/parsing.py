"""Parsing and serialization of polynomial expressions and field towers.

The expression grammar is deliberately small: integer and rational
literals, named generators and variables, +, -, *, ^ and parentheses.
Multiplication is always explicit, so "2u" is a syntax error and "2*u"
is not.  Canonical string output from the polynomial types parses back
to an equal object.

One parser serves BiPoly, UniPoly and field elements through one atom
class, built from the type's constant constructor, its own variables,
its coefficient view and its monomial constructor.  The tokenizer is one
regular expression.  Besides INT, NAME and OP tokens it reads a
canonical monomial term such as 3/4*u^2*v (an optional integer or
rational, then the type's own variables with optional integer
exponents, joined by * without spaces) as one TERM token wherever it is
a whole term of the expression, and the parser builds it as one
monomial.  Every product, the repeated squarings of ^ included, is
charged against MAX_PRODUCTS; a TERM is charged exactly the products
that reading it factor by factor makes, in the same order, so both ways
raise the same errors at the same positions.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .errors import InvalidInput, ParseError, SizeLimitExceeded
from .numfield import MAX_DIGITS, QQ, FieldElement, FieldTower, Rational, extend_field, power
from .bipoly import BiPoly, UniPoly

MAX_NESTING = 100  # keeps the recursive descent inside Python's recursion limit
MAX_EXPONENT = 10_000  # u^MAX_EXPONENT + v still ends at the blowup depth guard
_EXPONENT_DIGITS = len(str(MAX_EXPONENT))
# coefficient products per expression, weighted by the size of their
# integers: (u+v)^400 takes about 70k, (u+v)^1000 about 700k
MAX_PRODUCTS = 1_000_000
# a product of coefficients of a and b machine words counts 1 + a*b/64, so
# (123456789*u+v)^1000, whose coefficients reach hundreds of words, stops
# within a second instead of running for 15 s inside the budget
_WORD_PAIRS_PER_UNIT = 64


@lru_cache(maxsize=None)
def _token_pattern() -> re.Pattern:
    r"""The tokenizer's one expression, compiled on first use.

    A TERM is a name, or an integer or rational times a name, then more
    names joined by *, each name with an optional integer exponent, and it
    must be followed by +, -, ) or the end, so a term that goes on with ^,
    / or a factor that is not a monomial is not one.  \s, \d and \w are
    exactly str.isspace, str.isdecimal and str.isalnum or _."""
    name = r"[^\W\d]\w*"
    return re.compile(
        r"\s*(?:(?P<OP>[-+*^()/])"
        rf"|(?P<TERM>(?:(?P<num>\d+)(?:/\d+)?(?=\*)|(?P<var>{name})(?:\^\d+)?)"
        rf"(?:\*{name}(?:\^\d+)?)*)(?=\s*(?:[-+)]|\Z))"
        r"|(?P<INT>\d+)|(?P<NAME>\w+)|(?P<bad>.))",
        re.DOTALL,
    )


def _tokenize(text: str, variables: tuple[str, ...]):
    """(kind, text, position) tokens of an expression, ending with END.

    A TERM is emitted only where the parser would read its characters as
    one whole term: at a term start, which is the start, after + or ( or
    after a minus that follows an operand or a term start, and only when
    its names are all variables.  Elsewhere its leading number or name is
    emitted alone and scanning goes on."""
    if not isinstance(text, str):
        raise ParseError(f"expected an expression string, got {type(text).__name__}")
    match = _token_pattern().match
    toks = []
    depth = 0
    term_start, operand = True, False
    i, n = 0, len(text.rstrip())
    while i < n:
        m = match(text, i)
        kind = m.lastgroup
        i, end = m.span(kind)
        if kind == "OP":
            val = text[i]
            depth += (val == "(") - (val == ")")
            if depth > MAX_NESTING:
                raise ParseError(f"parentheses nested too deeply at position {i}")
            term_start = val in "+(" or (val == "-" and (operand or term_start))
            operand = val == ")"
        else:
            if kind == "TERM" and not (term_start and _names_in(text[i:end], variables)):
                if m.group("num") is not None:
                    kind, end = "INT", m.end("num")
                else:
                    kind, end = "NAME", m.end("var")
            if kind == "bad" or (kind == "NAME" and not (text[i].isalpha() or text[i] == "_")):
                raise ParseError(f"unexpected character {text[i]!r} at position {i}")
            val = text[i:end]
            term_start, operand = False, True
        toks.append((kind, val, i))
        i = end
    toks.append(("END", "", len(text)))
    return toks


def _names_in(term: str, variables) -> bool:
    """Whether every name of a TERM's text is one of the variables."""
    for factor in term.split("*"):
        name = factor.partition("^")[0]
        if not name[0].isdecimal() and name not in variables:
            return False
    return True


class _Parser:
    """Recursive descent over the token list, building through an atom factory.

    Every product is charged against MAX_PRODUCTS as len(a) * len(b)
    coefficient products, in the atoms' sizes, each weighted by the machine
    words of the operands' largest coefficients (_cost)."""

    def __init__(self, text: str, atoms):
        self.toks = _tokenize(text, atoms.variables)
        self.i = 0
        self.atoms = atoms
        self.products = 0

    def _charge(self, *costs):
        """Add the costs of products one by one, raising past the budget."""
        for cost in costs:
            self.products += cost
            if self.products > MAX_PRODUCTS:
                raise SizeLimitExceeded(
                    f"expression needs more than {MAX_PRODUCTS} coefficient products"
                    " (weighted by the size of their integers)"
                )

    def _mul(self, a, b):
        self._charge(_cost(self.atoms.size(a), self.atoms.size(b)))
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
        kind, val, pos = self.toks[self.i]
        if kind == "TERM":  # a whole term, by the tokenizer's rule
            self.i += 1
            return self._monomial(val, pos)
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
            value = self._power(value, self._exponent(tok[1], tok[2]))
        return value

    @staticmethod
    def _exponent(digits: str, pos: int) -> int:
        # compare lengths first: int() refuses very long digit strings
        if len(digits) > _EXPONENT_DIGITS or int(digits) > MAX_EXPONENT:
            raise SizeLimitExceeded(f"exponent at position {pos} exceeds {MAX_EXPONENT}")
        return int(digits)

    @staticmethod
    def _int(digits: str, pos: int) -> int:
        if len(digits) > MAX_DIGITS:
            raise SizeLimitExceeded(
                f"integer at position {pos} has more than {MAX_DIGITS} digits"
            )
        return int(digits)

    @staticmethod
    def _denominator(digits: str, pos: int) -> int:
        den = _Parser._int(digits, pos)
        if den == 0:
            raise ParseError(f"zero denominator at position {pos}")
        return den

    def _atom(self):
        tok = self._next()
        kind, val, pos = tok
        if kind == "TERM":
            return self._monomial(val, pos)
        if kind == "INT":
            num = self._int(val, pos)
            nk, nv, _ = self._peek()
            if nk == "OP" and nv == "/":
                self._next()
                dtok = self._next()
                if dtok[0] != "INT":
                    self._fail(dtok, "an integer denominator")
                return self.atoms.constant(Rational(num, self._denominator(dtok[1], dtok[2])))
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

    def _monomial(self, text: str, pos: int):
        """A TERM as one monomial, charged and checked as its factors are.

        Read factor by factor, c*x^a*y^b charges the products of x^a and y^b
        (power's loop from the constant 1) and then c*x^a and (c*x^a)*y^b,
        whose costs follow from the operands' degrees and the words of c."""
        atoms = self.atoms
        variables, dense = atoms.variables, atoms.dense
        exps = [0] * len(variables)
        factors = text.split("*")
        degree = None  # of the product so far, before its first factor
        end = pos - 1
        if text[0].isdecimal():  # a number, not a variable
            head = factors.pop(0)
            num, _, den = head.partition("/")
            q = self._int(num, pos)
            if den:
                q = Rational(q, self._denominator(den, pos + len(num) + 1))
            coeff, degree = atoms.tower.rational(q), 0
            end += 1 + len(head)
        else:
            coeff = atoms.tower.one()
        for factor in factors:
            end += 1 + len(factor)
            name, _, digits = factor.partition("^")
            d = 1
            if digits:
                d = self._exponent(digits, end - len(digits))
                self._charge(*_power_costs(d, dense))
            if degree is None:
                degree = d
            else:
                # (c*x^a) times y^b; a zero c has no coefficients to multiply
                if coeff:
                    sizes = (degree + 1, d + 1) if dense else (1, 1)
                    self._charge(_cost((sizes[0], coeff.words()), (sizes[1], 1)))
                degree += d
            exps[variables.index(name)] += d
        return atoms.monomial(coeff, exps)


def _cost(a, b) -> int:
    """The budget's cost of one product of operands of sizes a and b,
    (coefficients, machine words of the largest)."""
    (na, wa), (nb, wb) = a, b
    return na * nb * (_WORD_PAIRS_PER_UNIT + wa * wb) // _WORD_PAIRS_PER_UNIT


@lru_cache(maxsize=256)
def _power_costs(n: int, dense: bool) -> tuple[int, ...]:
    """The costs, in order, of the products of power(x, n, 1) for a variable
    x: powers of x times powers of x."""
    costs = []

    def mul(a, b):  # powers of x as their degrees
        costs.append(_cost((a + 1 if dense else 1, 1), (b + 1 if dense else 1, 1)))
        return a + b

    power(1, n, 0, mul)
    return tuple(costs)


class _Atoms:
    """The leaves of one expression type over a tower.

    constant(c) is the type's constant for a rational or a generator,
    variables are the names of the type's own variables, coeffs(x) is x's
    coefficient elements, which size reads, and monomial(c, exps) is c
    times the variables to the exponents exps, listed as variables.  A dense
    type stores every coefficient up to the degree."""

    def __init__(self, tower: FieldTower, constant, variables: tuple[str, ...], coeffs,
                 monomial, dense: bool = False):
        self.tower = tower
        self.constant = constant
        self.variables = variables
        self.coeffs = coeffs
        self.monomial = monomial
        self.dense = dense

    def size(self, x) -> tuple[int, int]:
        """(coefficients, machine words of the largest)."""
        coeffs = self.coeffs(x)
        return len(coeffs), max((c.words() for c in coeffs), default=1)

    def from_name(self, name, pos):
        if name in self.variables:
            return self.monomial(self.tower.one(), [int(name == x) for x in self.variables])
        if name in self.tower.names():
            return self.constant(self.tower.gen(name))
        known = self.variables + self.tower.names()
        raise ParseError(
            f"unknown name {name!r} at position {pos}; known names: "
            + ", ".join(known or ("none",))
        )


def _bipoly_atoms(tower: FieldTower) -> _Atoms:
    return _Atoms(
        tower,
        lambda c: BiPoly.constant(tower, c),
        ("u", "v"),
        lambda p: p.terms().values(),
        lambda c, e: BiPoly._of(tower, {tuple(e): c} if c else {}),
    )


def _unipoly_atoms(tower: FieldTower, var: str) -> _Atoms:
    return _Atoms(
        tower,
        lambda c: UniPoly.constant(tower, var, c),
        (var,),
        lambda p: p.coeffs,
        lambda c, e: UniPoly._of(tower, var, [tower.zero()] * e[0] + [c]),
        dense=True,
    )


def _element_atoms(tower: FieldTower) -> _Atoms:
    return _Atoms(
        tower,
        lambda c: c if isinstance(c, FieldElement) else tower.rational(c),
        (),
        lambda x: (x,),
        lambda c, e: c,
    )


def parse_bipoly(text: str, tower: FieldTower) -> BiPoly:
    """Parse an expression in u, v and the tower's generators."""
    return _Parser(text, _bipoly_atoms(tower)).parse()


def parse_unipoly(text: str, tower: FieldTower, var: str) -> UniPoly:
    """Parse an expression in one named variable and the tower's generators."""
    return _Parser(text, _unipoly_atoms(tower, var)).parse()


def parse_element(text: str, tower: FieldTower) -> FieldElement:
    """Parse a constant expression in the tower's generators."""
    return _Parser(text, _element_atoms(tower)).parse()


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
