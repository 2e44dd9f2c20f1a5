"""Divisor-class arithmetic on blown-up planes and quadric products.

A basepoint tree with r nodes spans a lattice with one exceptional
generator per node, next to the pullback classes of the ambient surface.
Intersection numbers, the canonical class, the conjugation-induced
involution, and dimension counts through the constraint matrix all live
here as plain integer arithmetic.
"""

from __future__ import annotations

from . import _gauss
from .baselocus import BasepointTree
from .errors import (
    BasisMismatch,
    ConjugationUnavailable,
    InvalidInput,
    LinserError,
)
from .linseries import (
    Bidegree,
    TotalDegree,
    monomial_basis,
    set_basepoints,
)
from .linseries import kernel_basis  # noqa: F401  (the benchmark's tracer wraps it here)
from .numfield import conjugation

_BASES = ("type1", "type2")


class NSClass:
    """An integer divisor class over a fixed lattice basis.

    type1 coefficients (a0; a1..ar) weigh <e0, e1, .., er> with
    e0^2 = 1, ej^2 = -1; type2 coefficients (b0, b1; g1..gr) weigh
    <l0, l1, eps1, .., epsr> with l0.l1 = 1, epsj^2 = -1.
    """

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis: str, coeffs):
        if basis not in _BASES:
            raise InvalidInput(f"unknown lattice basis {basis!r}")
        coeffs = tuple(coeffs)
        if any(not isinstance(c, int) or isinstance(c, bool) for c in coeffs):
            raise InvalidInput("class coefficients must be integers")
        if basis == "type1" and len(coeffs) < 1:
            raise InvalidInput("a type1 class needs at least the e0 coefficient")
        if basis == "type2" and len(coeffs) < 2:
            raise InvalidInput("a type2 class needs the l0 and l1 coefficients")
        self.basis = basis
        self.coeffs = coeffs

    @property
    def rank(self) -> int:
        """Number of exceptional generators the class is written over."""
        return len(self.coeffs) - (1 if self.basis == "type1" else 2)

    def degree_part(self):
        if self.basis == "type1":
            return self.coeffs[:1]
        return self.coeffs[:2]

    def exceptional_part(self):
        return self.coeffs[1:] if self.basis == "type1" else self.coeffs[2:]

    def _names(self):
        if self.basis == "type1":
            return tuple(f"e{j}" for j in range(len(self.coeffs)))
        return ("l0", "l1") + tuple(f"e{j}" for j in range(1, self.rank + 1))

    def __add__(self, other):
        self._match(other)
        return NSClass(self.basis, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._match(other)
        return NSClass(self.basis, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return NSClass(self.basis, tuple(-a for a in self.coeffs))

    def _match(self, other):
        if not isinstance(other, NSClass):
            raise BasisMismatch("expected a lattice class")
        if self.basis != other.basis or len(self.coeffs) != len(other.coeffs):
            raise BasisMismatch(
                f"classes over different bases: {self.basis}(rank {self.rank}) "
                f"vs {other.basis}(rank {other.rank})"
            )

    def __eq__(self, other):
        if not isinstance(other, NSClass):
            return NotImplemented
        return self.basis == other.basis and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.basis, self.coeffs))

    def __str__(self):
        parts = []
        for c, name in zip(self.coeffs, self._names()):
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            body = name if mag == 1 else f"{mag}*{name}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts) if parts else "0"

    def __repr__(self):
        return f"NSClass({self.basis!r}, {self.coeffs!r})"


def intersect(c: NSClass, d: NSClass) -> int:
    """Intersection number of two classes over the same basis."""
    if not isinstance(c, NSClass) or not isinstance(d, NSClass):
        raise BasisMismatch("expected two lattice classes")
    c._match(d)
    if c.basis == "type1":
        head = c.coeffs[0] * d.coeffs[0]
        tail = sum(a * b for a, b in zip(c.coeffs[1:], d.coeffs[1:]))
    else:
        head = c.coeffs[0] * d.coeffs[1] + c.coeffs[1] * d.coeffs[0]
        tail = sum(a * b for a, b in zip(c.coeffs[2:], d.coeffs[2:]))
    return head - tail


class LatticeContext:
    """A lattice basis with its hyperplane class, canonical class and involution.

    The involution is a permutation of the exceptional indices pairing
    conjugate basepoints, or None when no compatible pairing exists.
    """

    __slots__ = ("basis", "h", "k", "involution")

    def __init__(self, basis, h: NSClass, k: NSClass, involution):
        if basis not in _BASES:
            raise InvalidInput(f"unknown lattice basis {basis!r}")
        h._match(k)
        if h.basis != basis:
            raise BasisMismatch("context classes must live in the context basis")
        if involution is not None:
            involution = tuple(involution)
            r = h.rank
            if sorted(involution) != list(range(r)):
                raise InvalidInput("involution must permute the exceptional indices")
            if any(involution[involution[j]] != j for j in range(r)):
                raise LinserError("exceptional pairing is not an involution")
            exc = h.exceptional_part()
            if any(exc[involution[j]] != exc[j] for j in range(r)):
                raise LinserError("exceptional pairing does not fix the hyperplane class")
        self.basis = basis
        self.h = h
        self.k = k
        self.involution = involution

    def __repr__(self):
        return f"<LatticeContext {self.basis} h={self.h} k={self.k}>"


def _pair_conjugates(tree: BasepointTree):
    """Permutation matching every node with its coordinatewise conjugate."""
    nodes = tree.nodes()
    if not nodes:
        return ()
    try:
        sigma = conjugation(tree.tower)
    except ConjugationUnavailable:
        return None

    def mapped(node):
        seq = tuple(((sigma(a), sigma(b)), ch) for (a, b), ch in node.sequence)
        return (seq, (sigma(node.point[0]), sigma(node.point[1])), node.mult)

    def raw(node):
        return (node.sequence, node.point, node.mult)

    keys = [raw(n) for n in nodes]
    perm = []
    for node in nodes:
        image = mapped(node)
        matches = [j for j, key in enumerate(keys) if key == image]
        if len(matches) != 1:
            return None
        perm.append(matches[0])
    if any(perm[perm[j]] != j for j in range(len(perm))):
        return None
    return tuple(perm)


def class_of_series(tree: BasepointTree, spec):
    """Hyperplane and canonical class of the blowup along a basepoint tree.

    Exceptional generators follow the tree's node order.  Returns
    (h, k, context); the context carries the conjugation involution when
    the tree is stable under it.
    """
    if not isinstance(tree, BasepointTree):
        raise InvalidInput("expected a basepoint tree")
    mults = tree.multiplicities()
    r = len(mults)
    if isinstance(spec, TotalDegree):
        basis = "type1"
        h = NSClass(basis, (spec.degree, *(-m for m in mults)))
        k = NSClass(basis, (-3, *([1] * r)))
    elif isinstance(spec, Bidegree):
        basis = "type2"
        h = NSClass(basis, (spec.deg_u, spec.deg_v, *(-m for m in mults)))
        k = NSClass(basis, (-2, -2, *([1] * r)))
    else:
        raise InvalidInput(f"unknown degree specification {spec!r}")
    ctx = LatticeContext(basis, h, k, _pair_conjugates(tree))
    return h, k, ctx


def degree_of_surface(ctx: LatticeContext) -> int:
    """Self-intersection of the hyperplane class."""
    return intersect(ctx.h, ctx.h)


def sectional_genus(ctx: LatticeContext) -> int:
    """Genus of a general hyperplane section: (h^2 + h.k)/2 + 1."""
    n = intersect(ctx.h, ctx.h) + intersect(ctx.h, ctx.k)
    if n % 2:
        raise LinserError("h^2 + h.k must be even on a lattice class")
    return n // 2 + 1


def arithmetic_genus(ctx: LatticeContext, h0: int) -> int:
    """Genus from the section count: h0 - (h^2 - h.k)/2 - 1."""
    if not isinstance(h0, int) or isinstance(h0, bool) or h0 < 1:
        raise InvalidInput(f"section dimension must be a positive integer: {h0!r}")
    n = intersect(ctx.h, ctx.h) - intersect(ctx.h, ctx.k)
    if n % 2:
        raise LinserError("h^2 - h.k must be even on a lattice class")
    return h0 - n // 2 - 1


def adjoint_class(ctx: LatticeContext) -> NSClass:
    return ctx.h + ctx.k


def involution_image(ctx: LatticeContext, c: NSClass) -> NSClass:
    """Push a class through the conjugation involution."""
    if ctx.involution is None:
        raise ConjugationUnavailable(
            "the basepoints admit no conjugation-compatible pairing"
        )
    if not isinstance(c, NSClass):
        raise BasisMismatch("expected a lattice class")
    c._match(ctx.h)
    head = c.degree_part()
    exc = c.exceptional_part()
    out = [0] * len(exc)
    for j, coeff in enumerate(exc):
        out[ctx.involution[j]] = coeff
    return NSClass(c.basis, head + tuple(out))


def h0_of_class(c: NSClass, tree: BasepointTree) -> int:
    """Dimension of the sections of a class, counted through the tree.

    The degree part picks the monomial basis, the exceptional
    coefficients prescribe node multiplicities; the answer is the kernel
    dimension of the resulting constraint matrix, read off its rank.
    Classes demanding a negative degree or negative multiplicity anywhere
    have no sections.
    """
    if not isinstance(c, NSClass):
        raise InvalidInput("expected a lattice class")
    if not isinstance(tree, BasepointTree):
        raise InvalidInput("expected a basepoint tree")
    if c.rank != tree.node_count():
        raise InvalidInput(
            f"class rank {c.rank} does not match the tree's {tree.node_count()} nodes"
        )
    mults = [-g for g in c.exceptional_part()]
    if any(m < 0 for m in mults):
        return 0
    if c.basis == "type1":
        if c.coeffs[0] < 0:
            return 0
        spec = TotalDegree(c.coeffs[0])
    else:
        if c.coeffs[0] < 0 or c.coeffs[1] < 0:
            return 0
        spec = Bidegree(c.coeffs[0], c.coeffs[1])
    G = monomial_basis(spec)
    if tree.node_count() == 0 or all(m == 0 for m in mults):
        return len(G)
    M = set_basepoints(tree.with_multiplicities(mults), G)
    return len(G) - _gauss.rank(M.rows)


def class_to_json(c: NSClass) -> dict:
    return {"basis": c.basis, "coeffs": list(c.coeffs)}


def class_from_json(data) -> NSClass:
    if not isinstance(data, dict) or set(data) != {"basis", "coeffs"}:
        raise InvalidInput("a class document needs exactly the fields basis and coeffs")
    if not isinstance(data["coeffs"], list):
        raise InvalidInput("class coefficients must form a list")
    return NSClass(data["basis"], data["coeffs"])
