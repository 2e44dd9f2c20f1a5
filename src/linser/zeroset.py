"""Common zeros of finite systems of bivariate polynomials.

The solver eliminates one variable with pairwise resultants, adjoins the
roots of their gcd as candidates, solves each fiber by univariate gcd,
and verifies every candidate point by substitution.  All field
extensions are threaded through one growing tower, so every coordinate
that the caller receives embeds into the final tower returned alongside
the points.
"""

from __future__ import annotations

from .bipoly import (
    common_tower,
    gcd_tuple,
    resultant,
    uni_gcd_list,
)
from .errors import InvalidInput, NonConstantGcd
from .factorize import adjoin_roots, factor_univariate
from .numfield import FieldElement, FieldTower


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


def zero_set(F, tower: FieldTower | None = None):
    """All common zeros of F, with the tower every coordinate lives in.

    Returns (points, final tower).  The points are sorted by the degree of
    the smallest tower that carries them, then by coordinates.
    """
    polys = list(F)
    if not polys:
        raise InvalidInput("empty system")
    t = polys[0].tower
    for f in polys[1:]:
        t = common_tower(t, f.tower)
    if tower is not None:
        t = common_tower(t, tower)
    polys = [f.embed(t) for f in polys]
    nonzero = [f for f in polys if not f.is_zero()]
    if not nonzero:
        raise InvalidInput("every polynomial in the system is zero")
    g = gcd_tuple(nonzero)
    if not g.is_constant():
        raise NonConstantGcd(f"system has the common factor {g}")
    raw, chain = _solve_full(nonzero, t)
    records = [_as_record(xu.embed(chain), xv.embed(chain), t.width, chain)
               for xu, xv in raw]
    records.sort(
        key=lambda r: (
            r.tower.degree(),
            r.u.embed(chain).sort_key(),
            r.v.embed(chain).sort_key(),
        )
    )
    return records, chain


def _solve_full(polys, t: FieldTower):
    """Unrestricted solve; polys are nonzero with constant gcd."""
    if any(f.is_constant() for f in polys):
        return [], t
    with_v = [f for f in polys if f.degree("v") > 0]
    u_only = [f.as_unipoly("u") for f in polys if f.degree("v") == 0]

    cand = None
    for p in u_only:
        cand = p if cand is None else cand.gcd(p)
    if cand is None or not cand.is_constant():
        done = False
        for i in range(len(with_v)):
            if done:
                break
            for j in range(i + 1, len(with_v)):
                r = resultant(with_v[i], with_v[j], "v")
                if r.is_zero():
                    continue
                cand = r.monic() if cand is None else cand.gcd(r)
                if cand.is_constant():
                    done = True
                    break
    if cand is None:
        return _solve_split(polys, with_v, t)
    if cand.degree() <= 0:
        return [], t

    chain = t
    found = []
    for q, _ in factor_univariate(cand):
        trial = chain
        if q.degree() == 1:
            xs = [(-q.coeffs[0]).embed(trial)]
        else:
            xs, trial = adjoin_roots(q, trial)
        hit = False
        for x in xs:
            x = x.embed(trial)
            fiber = [f.substitute("u", x) for f in polys]
            nz = [p for p in fiber if not p.is_zero()]
            if not nz:
                raise NonConstantGcd("a vertical line lies in the zero set")
            if any(p.degree() == 0 for p in nz):
                continue
            gv = uni_gcd_list(nz)
            if gv.degree() <= 0:
                continue
            ys, trial = adjoin_roots(gv, trial)
            x = x.embed(trial)
            for y in ys:
                if all(not f.eval((x, y)) for f in polys):
                    found.append((x, y))
                    hit = True
        if hit:
            chain = trial
    return [(a.embed(chain), b.embed(chain)) for a, b in found], chain


def _solve_split(polys, with_v, t: FieldTower):
    """Fallback when every resultant pair vanishes: split off a shared factor.

    With h = gcd of the first pair, V(F) is the disjoint union of the
    zeros of (F minus the pair, plus h) and the zeros of (F with the pair
    replaced by its cofactors) away from h.  Both subsystems have smaller
    total degree, so the recursion bottoms out.
    """
    if len(with_v) < 2:
        raise NonConstantGcd("system does not cut out a finite set")
    f1, f2 = with_v[0], with_v[1]
    h = gcd_tuple([f1, f2])
    if h.is_constant():
        raise InvalidInput("resultant vanished for a coprime pair")
    rest = [f for f in polys if f is not f1 and f is not f2]
    on_h = rest + [h]
    pts_a, chain = _solve_full([f.embed(t) for f in on_h], t)
    off_h = [f1.exact_div(h), f2.exact_div(h)] + rest
    pts_b, chain = _solve_full([f.embed(chain) for f in off_h], chain)
    out = [(a.embed(chain), b.embed(chain)) for a, b in pts_a]
    hh = h.embed(chain)
    for a, b in pts_b:
        if hh.eval((a.embed(chain), b.embed(chain))):
            out.append((a.embed(chain), b.embed(chain)))
    return out, chain
