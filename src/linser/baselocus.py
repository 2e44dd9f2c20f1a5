"""Basepoint trees of plane linear series, through iterated blowups.

A basepoint of a system F is a common zero of all members; blowing it up
and dividing the exceptional factor out of the pullbacks exposes any
basepoints infinitely near it, which live on the exceptional line in one
of the two charts.  Those points are read off the tangent cones, and a
chart is pulled back only when it holds one.  The tree collects every
such point with its multiplicity, all coordinates embedded in one final
field tower.
"""

from __future__ import annotations

from . import factorize, parsing
from .bipoly import (
    UniPoly,
    gcd_tuple,
    pullback_blowup,
    taylor_shift,
    uni_gcd_list,
)
from .errors import (
    InvalidInput,
    LinserError,
    NonConstantGcd,
    NotABasepoint,
    RecursionLimitExceeded,
)
from .numfield import FieldTower
from .zeroset import prepare_system, zero_set

DEFAULT_MAX_DEPTH = 32

_CHARTS = ("t", "s")


class BasepointNode:
    """One basepoint: its blowup sequence, coordinates and multiplicity."""

    __slots__ = ("sequence", "point", "mult", "children_t", "children_s")

    def __init__(self, sequence, point, mult, children_t=(), children_s=()):
        self.sequence = tuple(sequence)
        self.point = tuple(point)
        self.mult = mult
        self.children_t = tuple(children_t)
        self.children_s = tuple(children_s)
        # the exceptional line is v = 0 in chart t and u = 0 in chart s
        if any(c.point[1] for c in self.children_t):
            raise InvalidInput("a T-branch child must have v-coordinate 0")
        if any(c.point[0] for c in self.children_s):
            raise InvalidInput("an S-branch child must have u-coordinate 0")
        # and an S-child at (0, c), c != 0, is the T-child at (1/c, 0)
        twins = {(1 / c.point[1], c.point[0]) for c in self.children_s if c.point[1]}
        if any(c.point in twins for c in self.children_t):
            raise InvalidInput("a T-branch child and an S-branch child lie at the same point")

    def children(self):
        return self.children_t + self.children_s

    def __eq__(self, other):
        if not isinstance(other, BasepointNode):
            return NotImplemented
        return (
            self.sequence == other.sequence
            and self.point == other.point
            and self.mult == other.mult
            and self.children_t == other.children_t
            and self.children_s == other.children_s
        )

    def __hash__(self):
        return hash((self.sequence, self.point, self.mult))

    def __repr__(self):
        path = "".join(ch for _, ch in self.sequence)
        return (
            f"<node [{path or 'root'}] ({self.point[0]}, {self.point[1]})"
            f" mult {self.mult}>"
        )


class BasepointTree:
    """All basepoints of a system, with the tower their coordinates live in."""

    __slots__ = ("roots", "tower")

    def __init__(self, roots, tower: FieldTower):
        self.roots = tuple(roots)
        self.tower = tower

    def nodes(self):
        """Every node in depth-first order, T-branches before S-branches."""
        out = []

        def walk(node):
            out.append(node)
            for child in node.children_t:
                walk(child)
            for child in node.children_s:
                walk(child)

        for root in self.roots:
            walk(root)
        return out

    def is_empty(self) -> bool:
        return not self.roots

    def node_count(self) -> int:
        return len(self.nodes())

    def multiplicities(self):
        return [n.mult for n in self.nodes()]

    def with_multiplicities(self, mults) -> "BasepointTree":
        """The same tree shape carrying a new multiplicity per node.

        Multiplicities are consumed in this tree's node order and may be
        zero: a zero node imposes no conditions but keeps its place in
        the recursion.
        """
        mults = list(mults)
        if len(mults) != self.node_count():
            raise InvalidInput(
                f"expected {self.node_count()} multiplicities, got {len(mults)}"
            )
        if any(not isinstance(m, int) or m < 0 for m in mults):
            raise InvalidInput("multiplicities must be nonnegative integers")
        it = iter(mults)

        def rebuild(node):
            m = next(it)
            return BasepointNode(
                node.sequence,
                node.point,
                m,
                tuple(rebuild(c) for c in node.children_t),
                tuple(rebuild(c) for c in node.children_s),
            )

        return BasepointTree(tuple(rebuild(r) for r in self.roots), self.tower)

    def __eq__(self, other):
        if not isinstance(other, BasepointTree):
            return NotImplemented
        return self.tower == other.tower and self.roots == other.roots

    def __repr__(self):
        return f"<BasepointTree of {self.node_count()} nodes over {self.tower!r}>"


def _expansion(polys, point):
    """The expansion of polys about point, and its lowest total degree m.

    With constant gcd, m is the multiplicity at the point, and each chart's
    pullback has gcd the exceptional coordinate to the power m: so a strict
    transform keeps a constant gcd."""
    shifted = taylor_shift(polys, point)
    return shifted, min((a + b for f in shifted for a, b in f.terms()), default=0)


def _constant_gcd(F):
    """The nonzero members of F; a common factor raises NonConstantGcd."""
    polys, _ = prepare_system(F)
    g = gcd_tuple(polys)
    if not g.is_constant():
        raise NonConstantGcd(f"system has the common factor {g}")
    return polys


def multiplicity(F, point) -> int:
    """Order of vanishing at a point of a generic member of the system.

    Zero when the point is not a basepoint.  A system with a common
    factor raises NonConstantGcd.
    """
    return _expansion(_constant_gcd(F), point)[1]


def strict_transform(F, sequence):
    """Transform a system along a blowup sequence of (point, chart) steps.

    Each step pulls the system back through its chart and divides out the
    full power of the exceptional coordinate.  A step whose point is not
    a basepoint of the running system raises NotABasepoint, and a system
    with a common factor raises NonConstantGcd.
    """
    polys = _constant_gcd(F)
    for step in sequence:
        try:
            point, chart = step
        except (TypeError, ValueError):
            raise InvalidInput(f"bad blowup step {step!r}") from None
        chart = str(chart).lower()
        if chart not in _CHARTS:
            raise InvalidInput(f"unknown chart {chart!r}; expected 't' or 's'")
        shifted, m = _expansion(polys, point)
        if m == 0:
            raise NotABasepoint(
                f"({point[0]}, {point[1]}) is not a basepoint of the transform"
            )
        polys = pullback_blowup(shifted, chart, m)
    return polys


def get_basepoints(F, tower: FieldTower | None = None,
                   max_depth: int = DEFAULT_MAX_DEPTH) -> BasepointTree:
    """The complete basepoint tree of a system with constant gcd.

    Top-level basepoints are the common zeros of the system; under each,
    the exceptional line is searched recursively for zeros.  The T-chart
    holds every direction but one, which the S-chart adds at its origin,
    so no direction is reported twice.
    """
    if not isinstance(max_depth, int) or isinstance(max_depth, bool) or max_depth < 1:
        raise InvalidInput("max_depth must be a positive integer")
    polys, t = prepare_system(F, tower)
    records, chain = zero_set(polys, tower=t)
    roots = []
    for rec in records:
        node, chain = _build_node(
            rec.embed(chain),
            [f.embed(chain) for f in polys],
            (),
            chain,
            1,
            max_depth,
        )
        roots.append(node)
    return BasepointTree(tuple(_embed_node(n, chain) for n in roots), chain)


def _exceptional_line(shifted, m, tower):
    """The gcd of chart t's strict transforms at v = 0, and whether chart s's
    origin lies on every strict transform, from expansions of order m.

    Chart t's strict transform of f at v = 0 is sum_{a+b=m} c_ab u^a, the
    tangent cone at v = 1; at chart s's origin it is c_m0, the u^m term."""
    cones = [
        UniPoly(tower, "u", [f.coeff(a, m - a) for a in range(m + 1)])
        for f in shifted
    ]
    line = uni_gcd_list(p for p in cones if not p.is_zero())
    return line, all(p.degree() < m for p in cones)


def _build_node(point, transforms, sequence, chain, depth, max_depth):
    if depth > max_depth:
        raise RecursionLimitExceeded(
            f"blowup recursion passed depth {max_depth}"
        )
    # zero_set refused a root system with a common factor, so every
    # transform here has constant gcd (see _expansion).
    shifted, m = _expansion(transforms, point)
    if m < 1:
        raise LinserError("zero multiplicity for a verified common zero")

    # Chart t sees every direction on the exceptional line but one, so its
    # points are the roots of the transforms' gcd along v = 0; a point
    # v = c != 0 of chart s is u = 1/c of chart t, leaving chart s its origin.
    # Both come from the tangent cones, and a chart is pulled back only when
    # it has a child.
    floor = chain.width
    line, s_point = _exceptional_line(shifted, m, chain)
    found = []
    if line.degree() > 0:
        roots, chain = factorize.adjoin_roots(line, chain)
        roots.sort(key=lambda r: (max(r.trim().tower.width, floor), r.sort_key()))
        strict_t = pullback_blowup(shifted, "t", m)
        found = [("t", strict_t, (r, chain.zero())) for r in roots]
    if s_point:
        strict_s = pullback_blowup(shifted, "s", m)
        found.append(("s", strict_s, (chain.zero(), chain.zero())))

    children = {"t": [], "s": []}
    for chart, strict, child_point in found:
        child, chain = _build_node(
            tuple(c.embed(chain) for c in child_point),
            [f.embed(chain) for f in strict],
            sequence + ((point, chart),),
            chain,
            depth + 1,
            max_depth,
        )
        children[chart].append(child)

    node = BasepointNode(sequence, point, m, children["t"], children["s"])
    return node, chain


def _embed_node(node: BasepointNode, tower: FieldTower) -> BasepointNode:
    seq = tuple(
        ((a.embed(tower), b.embed(tower)), ch) for (a, b), ch in node.sequence
    )
    pt = (node.point[0].embed(tower), node.point[1].embed(tower))
    return BasepointNode(
        seq,
        pt,
        node.mult,
        tuple(_embed_node(c, tower) for c in node.children_t),
        tuple(_embed_node(c, tower) for c in node.children_s),
    )


# -- serialization ---------------------------------------------------------------


def _node_to_json(node: BasepointNode) -> dict:
    return {
        "sequence": [
            [[str(a), str(b)], ch] for (a, b), ch in node.sequence
        ],
        "point": [str(node.point[0]), str(node.point[1])],
        "mult": node.mult,
        "children_t": [_node_to_json(c) for c in node.children_t],
        "children_s": [_node_to_json(c) for c in node.children_s],
    }


def tree_to_json(tree: BasepointTree) -> dict:
    """JSON-ready dict: the tower declaration plus the node forest."""
    return {
        "tower": parsing.tower_to_json(tree.tower),
        "tree": [_node_to_json(n) for n in tree.roots],
    }


def _parse_point(data, parse):
    if (
        not isinstance(data, (list, tuple))
        or len(data) != 2
        or not all(isinstance(c, str) for c in data)
    ):
        raise InvalidInput(f"a point must be a pair of expression strings: {data!r}")
    return parse(data[0]), parse(data[1])


def _element_parser(tower: FieldTower):
    """parsing.parse_element over ``tower``, once per distinct string: the
    nodes of a tree document repeat their ancestors' coordinates."""
    parsed = {}

    def parse(text: str):
        if text not in parsed:
            parsed[text] = parsing.parse_element(text, tower)
        return parsed[text]

    return parse


def sequence_from_json(data, tower: FieldTower):
    """Blowup steps ((x, y), chart) from a list of [[x, y], chart] entries."""
    return _sequence_from_json(data, _element_parser(tower))


def _sequence_from_json(data, parse):
    if not isinstance(data, list):
        raise InvalidInput("a blowup sequence must be a list")
    steps = []
    for entry in data:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise InvalidInput(f"bad sequence entry {entry!r}")
        pt_data, ch = entry
        if ch not in _CHARTS:
            raise InvalidInput(f"unknown chart {ch!r}; expected 't' or 's'")
        steps.append((_parse_point(pt_data, parse), ch))
    return tuple(steps)


def _node_from_json(data, parse, parent_seq, parent_point, chart, depth, max_depth):
    if depth > max_depth:
        raise RecursionLimitExceeded(
            f"tree input passed the depth limit of {max_depth}"
        )
    if not isinstance(data, dict) or set(data) != {
        "sequence",
        "point",
        "mult",
        "children_t",
        "children_s",
    }:
        raise InvalidInput(
            "tree nodes need exactly the fields sequence, point, mult, "
            "children_t, children_s"
        )
    if parent_point is None:
        expected_seq = ()
    else:
        expected_seq = parent_seq + ((parent_point, chart),)
    seq = _sequence_from_json(data["sequence"], parse)
    if seq != expected_seq:
        raise InvalidInput("node sequence does not match its position in the tree")
    point = _parse_point(data["point"], parse)
    mult = data["mult"]
    if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
        raise InvalidInput(f"multiplicity must be a positive integer: {mult!r}")
    for key in ("children_t", "children_s"):
        if not isinstance(data[key], list):
            raise InvalidInput(f"{key} must be a list")
    children_t, children_s = (
        _distinct(
            [_node_from_json(c, parse, seq, point, ch, depth + 1, max_depth)
             for c in data["children_" + ch]],
            f"children_{ch} of one node",
        )
        for ch in ("t", "s")
    )
    return BasepointNode(seq, point, mult, children_t, children_s)


def _distinct(nodes: list, where: str) -> tuple:
    """The nodes as a tuple, once no two of them lie at one point."""
    if len({n.point for n in nodes}) < len(nodes):
        raise InvalidInput(f"two {where} lie at the same point")
    return tuple(nodes)


def tree_from_json(data, max_depth: int = DEFAULT_MAX_DEPTH) -> BasepointTree:
    """Rebuild and validate a tree; raises on any structural defect."""
    if not isinstance(max_depth, int) or isinstance(max_depth, bool) or max_depth < 1:
        raise InvalidInput("max_depth must be a positive integer")
    if not isinstance(data, dict) or set(data) != {"tower", "tree"}:
        raise InvalidInput("tree document needs exactly the fields tower and tree")
    tower = parsing.tower_from_json(data["tower"])
    if not isinstance(data["tree"], list):
        raise InvalidInput("tree must be a list of root nodes")
    parse = _element_parser(tower)
    roots = _distinct(
        [_node_from_json(n, parse, (), None, None, 1, max_depth) for n in data["tree"]],
        "roots",
    )
    return BasepointTree(roots, tower)
