"""Seeded inputs for the three benchmark workloads.

Every case is one CLI invocation: an argument list, the JSON document fed
to it on stdin, and the facts the independent checks need about how the
document was made.  The configurations (points, centres, chains, affine
changes of coordinates) are fixed; the seed reflects each one through
u -> +-u and v -> +-v and flips the sign of each chain slope.  A
reflection keeps the size of every coefficient, so a workload costs
nearly the same on every seed, and all four reflections of every
basepoints case have been run to completion.

Regenerate the documents of one workload with

    python3 bench/workloads.py --workload series --seed 3 --out some/dir
"""

from __future__ import annotations

import argparse
import json
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("basepoints", "series", "invariants")

# The only case allowed to fail: the tower gcd in factorize blows up its
# coefficients on this degree-4 system.  Its inputs do not depend on the
# seed, and it runs last in every pass under a fixed time budget.
KNOWN_FAILING = ["u*v - 1", "u^2 + v^2 - 5"]
FAILING_BUDGET_S = 0.5

# Small documents from the repository's golden files, copied so that the
# benchmark depends only on its own files.
EX2 = {
    "variables": ["u", "v"],
    "extensions": [{"name": "i", "minpoly": "t^2 + 1"}],
    "series": ["u^2 + v^2", "v^2 + u"],
}
QUINTIC = {
    "series": [
        "u^5", "u^4*v", "u^4", "u^3*v^2", "u^3*v", "u^3", "u^2*v^3",
        "u^2*v^2", "u^2*v", "u^2", "u*v^4", "u*v^3", "u*v^2", "u*v",
        "v^5 - v^2", "v^4 - v^2", "v^3 - v^2",
    ]
}
CONIC = {"series": ["u^2", "u*v", "u", "v^2", "v"]}
Q42 = {"series": ["u^2 - u*v", "u", "v^2", "v"]}

SCALES = (1, 2, 3)
SHIFTS = tuple(Fraction(x) for x in ("1", "-1", "2", "-2", "1/2", "-3/2"))
COORDS = tuple(
    Fraction(x) for x in ("0", "1", "-1", "2", "-2", "3", "-3", "1/2", "-1/2", "3/2", "-1/3")
)
SMALL_COORDS = tuple(Fraction(x) for x in ("0", "1", "-1", "2", "-2", "1/2"))
SLOPES = tuple(Fraction(x) for x in ("1", "2", "1/2", "3"))


def q(x) -> str:
    return str(Fraction(x))


def _signs(rng):
    return rng.choice((1, -1)), rng.choice((1, -1))


def _affine(var: str, sign: int, scale, shift) -> str:
    """The string of scale*(sign*var - shift), parenthesized."""
    shift = Fraction(shift)
    inner = var if sign > 0 else f"-{var}"
    if shift:
        inner = f"{inner} - {shift}" if shift > 0 else f"{inner} + {-shift}"
    body = inner if scale == 1 else f"{scale}*({inner})"
    return f"({body})"


def _case(name, argv, doc, **meta):
    return {"name": name, "argv": argv, "doc": doc, "budget": None, "meta": meta}


# -- basepoints -----------------------------------------------------------------

# (template, moved): U and V stand for affine images of u and v.  Moved
# templates put the singular point at a rational centre other than the
# origin, so the general-centre pullback runs beside the origin path.
CHAINS = (
    (("{V} - {U}^6", "{V}^2"), False),
    (("{V} - {U}^6", "{V}^2"), True),
    (("{V}^3 - {U}^7", "{V}^2 - {U}^4"), False),
    (("{V}^3 - {U}^7", "{V}^2 - {U}^4"), True),
    (("{V}^4 - {U}^9", "{V}^3 - {U}^7"), False),
    (("{V}^2 - {U}^3", "{U}^4 + {V}^3"), True),
    (("{V}^2 - {U}^5", "{U}^6 + {V}^3"), False),
)
# Systems whose points need field towers of degree 2 to 6.
TOWERS = (
    ("{U}^2 - 2", "{V}^2 - 3"),
    ("{U}^3 - 2", "{V} - {U}"),
    ("{U}^2 + {V}^2", "{V}^2 + {U}"),
    ("{U}^2 - 2", "{V}^2 - {U}"),
    ("{U}^4 - 2", "{V} - {U}"),
    ("{U}^2 - {V}", "{V}^2 - 2"),
    ("{U}^2 - 2*{V}", "{V}^2 - 3*{U}"),
)


def basepoints_cases(base, rng):
    cases = []
    slots = [(f"chain{k}", t, moved) for k, (t, moved) in enumerate(CHAINS)]
    slots += [(f"tower{k}", t, False) for k, t in enumerate(TOWERS)]
    for name, template, moved in slots:
        scales = base.choice(SCALES), base.choice(SCALES)
        shifts = (base.choice(SHIFTS), base.choice(SHIFTS)) if moved else (0, 0)
        su, sv = _signs(rng)
        U = _affine("u", su, scales[0], shifts[0])
        V = _affine("v", sv, scales[1], shifts[1])
        series = [t.format(U=U, V=V) for t in template]
        cases.append(_case(name, ["basepoints", "-"], {"series": series}))
    cases.append(_case("ex2", ["basepoints", "-"], EX2))
    cases.append(_case("quintic", ["basepoints", "-"], QUINTIC))
    failing = _case("known_failing", ["basepoints", "-"], {"series": KNOWN_FAILING})
    failing["budget"] = FAILING_BUDGET_S
    cases.append(failing)
    return cases


# -- series -------------------------------------------------------------------------


def _node(sequence, point, mult, children_t=(), children_s=()):
    return {
        "sequence": sequence,
        "point": point,
        "mult": mult,
        "children_t": list(children_t),
        "children_s": list(children_s),
    }


def _distinct_points(base, n, coords=COORDS):
    seen = []
    while len(seen) < n:
        p = (base.choice(coords), base.choice(coords))
        if p not in seen:
            seen.append(p)
    return seen


def _flip(points, signs):
    su, sv = signs
    return [(su * x, sv * y) for x, y in points]


def _chain_tree(base, rng, mults):
    """One proper point followed by free infinitely near points.

    The first step may use either chart; later steps use chart t, off the
    strict transform of the previous exceptional line, so no point is
    satellite and non-increasing multiplicities are consistent.
    """
    su, sv = _signs(rng)
    root = [q(su * base.choice(SHIFTS)), q(sv * base.choice(SHIFTS))]
    steps = []
    point = root
    for depth in range(1, len(mults)):
        if depth == 1 and base.random() < 0.5:
            chart, nxt = "s", ["0", "0"]
        else:
            chart, nxt = "t", [q(rng.choice((1, -1)) * base.choice(SLOPES)), "0"]
        steps.append((point, chart, nxt))
        point = nxt
    node = None
    for depth in range(len(mults) - 1, -1, -1):
        sequence = [[steps[j][0], steps[j][1]] for j in range(depth)]
        pt = root if depth == 0 else steps[depth - 1][2]
        kids_t, kids_s = [], []
        if node is not None:
            (kids_t if steps[depth][1] == "t" else kids_s).append(node)
        node = _node(sequence, pt, mults[depth], kids_t, kids_s)
    return [node]


# (number of points, multiplicities, basis): fixed per slot, so every seed
# poses the same amount of linear algebra.
GENERAL_SLOTS = (
    (5, (3, 2, 2, 1, 1), "deg:6"),
    (6, (2, 2, 2, 1, 1, 1), "deg:5"),
    (8, (2, 2, 2, 1, 1, 1, 1, 1), "deg:6"),
    (10, (1,) * 10, "deg:4"),
    (5, (3, 2, 2, 1, 1), "deg:8"),
    (6, (2, 1, 1, 1, 1, 1), "bideg:3,3"),
)
CHAIN_SLOTS = (
    ((2, 2, 1), "deg:4"),
    ((3, 2, 2, 1), "deg:6"),
    ((2, 2, 2, 1, 1), "deg:6"),
    ((1,) * 6, "deg:5"),
    ((2, 1, 1, 1, 1, 1), "deg:6"),
    ((2, 2, 1, 1), "bideg:3,2"),
)
FIELDS = (
    {"name": "i", "minpoly": "t^2 + 1"},
    {"name": "r", "minpoly": "t^2 - 2"},
)
# (number of conjugate pairs, multiplicities per pair, basis)
CONJUGATE_SLOTS = (
    (1, (2,), "deg:4"),
    (2, (1, 1), "deg:5"),
    (2, (2, 1), "deg:5"),
    (2, (1, 1), "bideg:2,2"),
    (1, (1,), "deg:5"),
)


def _pair_text(x, y, gen):
    """The conjugates x + y*gen and x - y*gen, for y > 0."""
    return f"{q(x)} + {q(y)}*{gen}", f"{q(x)} - {q(y)}*{gen}"


def series_cases(base, rng):
    cases = []
    for k, (n, mults, basis) in enumerate(GENERAL_SLOTS):
        pts = _flip(_distinct_points(base, n), _signs(rng))
        tree = [_node([], [q(x), q(y)], m) for (x, y), m in zip(pts, mults)]
        doc = {"tower": [], "tree": tree}
        cases.append(_case(f"general{k}", ["series", "-", "--basis", basis], doc))
    for k, (mults, basis) in enumerate(CHAIN_SLOTS):
        doc = {"tower": [], "tree": _chain_tree(base, rng, list(mults))}
        cases.append(_case(f"chain{k}", ["series", "-", "--basis", basis], doc))
    for k, (pairs, mults, basis) in enumerate(CONJUGATE_SLOTS):
        ext = FIELDS[k % len(FIELDS)]
        centres = _flip(_distinct_points(base, pairs), _signs(rng))
        tree = []
        for (x, z), m in zip(centres, mults):
            y = abs(base.choice([c for c in COORDS if c]))
            for text in _pair_text(x, y, ext["name"]):
                tree.append(_node([], [text, q(z)], m))
        doc = {"tower": [dict(ext)], "tree": tree}
        cases.append(_case(f"conjugate{k}", ["series", "-", "--basis", basis], doc))
    return cases


# -- invariants ---------------------------------------------------------------------

# (multiplicities of rational points, degree) and (multiplicity of one
# conjugate pair x +- y*g with g^2 = square, rational multiplicities,
# degree, square).  The multiplicities sum to at most the degree, so the
# complete series has exactly the assigned basepoints.
RATIONAL_DOCS = (((1, 1, 1), 4), ((2, 2), 4))
CONJUGATE_DOCS = ((1, (), 3, 2), (1, (), 3, -1))


def invariants_cases(base, rng):
    from checks import complete_series_through

    docs = [
        ("conic", CONIC, 2, None),
        ("q42", Q42, 2, None),
        ("quintic", QUINTIC, 5, None),
        ("ex2", EX2, 2, None),
    ]
    for k, (mults, d) in enumerate(RATIONAL_DOCS):
        pts = _flip(_distinct_points(base, len(mults), SMALL_COORDS), _signs(rng))
        points = [(x, y, 0, m) for (x, y), m in zip(pts, mults)]
        docs.append((f"rational{k}", None, d, {"points": points, "square": None}))
    for k, (pair_mult, rational, d, square) in enumerate(CONJUGATE_DOCS):
        pts = _flip(_distinct_points(base, len(rational) + 1, SMALL_COORDS), _signs(rng))
        y = abs(base.choice([c for c in SMALL_COORDS if c]))
        (x, z), rest = pts[0], pts[1:]
        points = [(x, z, y, pair_mult)] + [(a, b, 0, m) for (a, b), m in zip(rest, rational)]
        docs.append((f"conjugate{k}", None, d, {"points": points, "square": square}))
    cases = []
    for name, doc, d, made in docs:
        meta = {"degree": d}
        if made is not None:
            doc = {"series": complete_series_through(made["points"], made["square"], d)}
            meta["construction"] = {
                "square": made["square"],
                "points": [[q(x), q(y), q(w), m] for x, y, w, m in made["points"]],
            }
        cases.append(_case(f"{name}.invariants", ["invariants", "-"], doc, **meta))
        cases.append(
            _case(f"{name}.complete", ["complete", "-", "--basis", f"deg:{d}"], doc, **meta)
        )
        if d >= 3:
            cases.append(
                _case(f"{name}.adjoint", ["adjoint", "-", "--basis", f"deg:{d}"], doc, **meta)
            )
    return cases


def make_cases(workload: str, seed: int):
    """The workload's cases: fixed configurations, signs drawn from the seed."""
    base = random.Random(f"{workload}:configuration")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "basepoints":
        return basepoints_cases(base, rng)
    if workload == "series":
        return series_cases(base, rng)
    if workload == "invariants":
        return invariants_cases(base, rng)
    raise ValueError(f"unknown workload {workload!r}")


def main(argv=None):
    parser = argparse.ArgumentParser(description="Write a workload's input documents.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write into")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for case in make_cases(args.workload, args.seed):
        (out / f"{case['name']}.json").write_text(json.dumps(case, indent=2) + "\n")


if __name__ == "__main__":
    main()
