"""Common zeros of finite systems of bivariate polynomials.

The solver eliminates v once: the u-candidate is the gcd of the members
free of v, or else one resultant of the first member against a
combination of the others.  One pass over the candidate's irreducible
factors decides each at one root, whose conjugates behave alike, and
adjoins the roots of a factor that carries points.  While nothing has
been adjoined yet, the tower the factor was tested in is kept, so that
root is adjoined once and only the cofactor is split.  Each fiber is
solved by univariate gcd, and every candidate point (x, y) is verified by
evaluating the members on the fiber u = x at y.  A common factor makes
every resultant vanish, or a whole fiber, and is refused.  All field
extensions are threaded through one growing tower, so every coordinate
that the caller receives embeds into the final tower returned alongside
the points.
"""

from __future__ import annotations

from .bipoly import (
    UniPoly,
    common_tower,
    gcd_tuple,
    resultant,
    substitute_each,
    uni_gcd_list,
)
from .errors import InvalidInput, NonConstantGcd
from .factorize import adjoin_roots, factor_univariate
from .numfield import FieldElement, FieldTower, _adjoin


class ZeroPoint:
    """One common zero: coordinates over the smallest sufficient tower.

    The tower extends the tower the system was solved over by exactly the
    generators this point's coordinates need; embed() moves the
    coordinates into any further extension, such as the final tower the
    solver returned.
    """

    __slots__ = ("u", "v", "tower")

    def __init__(self, xu: FieldElement, xv: FieldElement, tower: FieldTower):
        self.u = xu
        self.v = xv
        self.tower = tower

    def point(self):
        return (self.u, self.v)

    def embed(self, tower: FieldTower):
        return (self.u.embed(tower), self.v.embed(tower))

    def __eq__(self, other):
        if not isinstance(other, ZeroPoint):
            return NotImplemented
        return self.tower == other.tower and self.u == other.u and self.v == other.v

    def __hash__(self):
        return hash((self.u, self.v))

    def __repr__(self):
        return f"ZeroPoint(({self.u}, {self.v}) over {self.tower!r})"


def _as_record(xu: FieldElement, xv: FieldElement, floor: int, chain: FieldTower) -> ZeroPoint:
    width = max(xu.trim().tower.width, xv.trim().tower.width, floor)
    sub = chain.subtower(width)
    return ZeroPoint(xu.trim().embed(sub), xv.trim().embed(sub), sub)


def prepare_system(F, tower: FieldTower | None = None):
    """The nonzero members of F, embedded in the join of their towers and tower."""
    polys = list(F)
    if not polys:
        raise InvalidInput("empty system")
    t = polys[0].tower if tower is None else tower
    for f in polys:
        t = common_tower(t, f.tower)
    nonzero = [f.embed(t) for f in polys if not f.is_zero()]
    if not nonzero:
        raise InvalidInput("every polynomial in the system is zero")
    return nonzero, t


def zero_set(F, tower: FieldTower | None = None):
    """All common zeros of F, with the tower every coordinate lives in.

    Returns (points, final tower).  The points are sorted by the degree of
    the smallest tower that carries them, then by coordinates.  A system
    with a common factor raises NonConstantGcd.
    """
    nonzero, t = prepare_system(F, tower)
    raw, chain = _solve_full(nonzero, t)
    records = [_as_record(xu, xv, t.width, chain) for xu, xv in raw]
    records.sort(
        key=lambda r: (
            r.tower.degree(),
            r.u.embed(chain).sort_key(),
            r.v.embed(chain).sort_key(),
        )
    )
    return records, chain


def _common_factor(polys) -> NonConstantGcd:
    return NonConstantGcd(f"system has the common factor {gcd_tuple(polys)}")


def _candidate(polys) -> UniPoly:
    """A polynomial in u vanishing at the u-coordinate of every common zero.

    The gcd of the members free of v, else Res_v(f1, f2 + k*f3 + k^2*f4 + ...)
    for the first k = 1, 2, ... that makes it nonzero.  With constant gcd,
    each of the at most deg_v(f1) factors of f1 involving v kills at most
    len(polys) - 2 values of k, so a system for which every k fails (a
    single member has none) has a common factor.  A common factor in u
    alone divides the candidate.
    """
    u_only = [f.as_unipoly("u") for f in polys if f.degree("v") == 0]
    if u_only:
        return uni_gcd_list(u_only)
    f1, *rest = polys
    for k in range(1, f1.degree("v") * (len(rest) - 1) + 2):
        g = rest[0]
        for i, f in enumerate(rest[1:], 1):
            g = g + f * k**i
        r = resultant(f1, g, "v")
        if not r.is_zero():
            return r.monic()
    raise _common_factor(polys)


def _fiber(polys, x: FieldElement):
    """The nonzero members of the system restricted to the vertical line
    u = x, sorted by degree in v, and their monic gcd.

    A system vanishing on the whole line has x's minimal polynomial as a
    common factor."""
    nz = sorted((p for p in substitute_each(polys, "u", x) if p), key=UniPoly.degree)
    if not nz:
        raise _common_factor(polys)
    return nz, uni_gcd_list(nz)


def _fiber_roots(gv: UniPoly, known, chain: FieldTower):
    """The sorted roots of gv, adjoining only those not among the known values."""
    ys = []
    for y in known:
        y = y.embed(chain)
        if not gv.eval(y) and all(y != z for z in ys):
            ys.append(y)
            gv = gv.exact_div(UniPoly(chain, gv.var, [-y, chain.one()]))
    if gv.degree() > 0:
        new, chain = adjoin_roots(gv, chain)
        ys = [y.embed(chain) for y in ys]
        ys += [r for r in new if all(r != y for y in ys)]
    ys.sort(key=FieldElement.sort_key)
    return ys, chain


def _solve_full(polys, t: FieldTower):
    """Solve polys, nonzero over t; returns (points, tower), all on the tower."""
    # The roots of a factor are conjugate over t, so one root, in a tower
    # of its own over t, decides for all; only a factor that carries points
    # is adjoined to the chain.  A nonlinear factor is monic and
    # irreducible, so it is adjoined without a check.
    chain = t
    found = []
    for q, _ in factor_univariate(_candidate(polys)):
        if q.degree() == 1:
            xs = [-q.coeffs[0]]
        else:
            tested, _, alpha = _adjoin(t, q.coeffs)
            if _fiber(polys, alpha)[1].degree() == 0:
                continue
            if chain is t:
                # the tested tower is the one adjoin_roots would build first,
                # so alpha is kept and only the cofactor is split
                linear = UniPoly(tested, q.var, [-alpha, tested.one()])
                xs, chain = adjoin_roots(q.embed(tested).exact_div(linear), tested)
                xs = sorted([alpha.embed(chain)] + xs, key=FieldElement.sort_key)
            else:
                xs, chain = adjoin_roots(q, chain)
        for x in xs:
            fiber, gv = _fiber(polys, x)
            if gv.degree() == 0:
                continue
            ys, chain = _fiber_roots(gv.embed(chain), [y for _, y in found], chain)
            x = x.embed(chain)
            for y in ys:
                if not any(p.eval(y) for p in fiber):
                    found.append((x, y))
    return [(a.embed(chain), b.embed(chain)) for a, b in found], chain
