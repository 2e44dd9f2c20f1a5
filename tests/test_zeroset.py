"""Tests for solving zero-dimensional bivariate polynomial systems."""

import random
from fractions import Fraction

import pytest

from linser import zeroset
from linser.errors import InvalidInput, NonConstantGcd
from linser.numfield import QQ, extend_field
from linser.parsing import parse_bipoly
from linser.zeroset import zero_set

QUINTIC_TEXTS = (
    "u^5", "u^4*v", "u^4", "u^3*v^2", "u^3*v", "u^3", "u^2*v^3", "u^2*v^2",
    "u^2*v", "u^2", "u*v^4", "u*v^3", "u*v^2", "u*v", "v^5 - v^2",
    "v^4 - v^2", "v^3 - v^2",
)


def bp(text, tower=QQ):
    return parse_bipoly(text, tower)


def coords(points):
    return [(str(p.u), str(p.v)) for p in points]


def test_full_solve_extends_as_needed():
    points, chain = zero_set([bp("u^2 + v^2"), bp("v^2 + u")])
    assert coords(points) == [("0", "0"), ("1", "-a0"), ("1", "a0")]
    assert chain.names() == ("a0",)
    # the rational point carries no extension baggage
    assert points[0].tower == QQ
    assert points[1].tower.names() == ("a0",)


def test_full_solve_over_declared_field():
    tower, _, i = extend_field(QQ, [1, 0, 1], "i")
    points, chain = zero_set([bp("u^2 + v^2", tower), bp("v^2 + u", tower)])
    assert coords(points) == [("0", "0"), ("1", "-i"), ("1", "i")]
    assert chain == tower
    assert points[2].v == i


def test_points_satisfy_system():
    F = [bp("u^2 + v^2"), bp("v^2 + u")]
    points, chain = zero_set(F)
    for p in points:
        for f in F:
            assert f.embed(chain).eval(p.embed(chain)).is_zero()


def test_common_factor_rejected():
    with pytest.raises(NonConstantGcd):
        zero_set([bp("u*v*(u + 1)"), bp("u*v")])
    with pytest.raises(NonConstantGcd):
        zero_set([bp("u*(v - 1)"), bp("u*(v + 1)")])


def test_constant_gcd_is_not_checked_separately(monkeypatch):
    # the elimination itself refuses a common factor, so the gcd of the
    # whole system is computed only to name a factor it has found
    calls = []
    real = zeroset.gcd_tuple

    def counted(polys):
        calls.append(polys)
        return real(polys)

    monkeypatch.setattr(zeroset, "gcd_tuple", counted)
    for texts in (("u^2 + v^2", "v^2 + u"), QUINTIC_TEXTS, ("u^3 - 2", "v^2 - u")):
        zero_set([bp(s) for s in texts])
    assert calls == []
    with pytest.raises(NonConstantGcd):
        zero_set([bp("u*(v - 1)"), bp("u*(v + 1)")])
    assert len(calls) == 1


def test_input_validation():
    with pytest.raises(InvalidInput):
        zero_set([])
    with pytest.raises(InvalidInput):
        zero_set([bp("0"), bp("0")])


def test_constant_in_system_means_empty():
    points, _ = zero_set([bp("1"), bp("u")])
    assert points == []
    points, _ = zero_set([bp("u + 3"), bp("u")])
    assert points == []


def test_split_fallback_three_line_cycle():
    # Every pairwise resultant vanishes identically because each pair of
    # generators shares one line; the solver has to eliminate against a
    # combination of two of them.
    a, b, c = bp("u - v"), bp("u + v"), bp("u - 2*v - 1")
    points, _ = zero_set([a * b, b * c, c * a])
    assert coords(points) == [("0", "0"), ("-1", "-1"), ("1/3", "-1/3")]
    # the same cycle with a conic in place of the third line: the conic
    # meets each line twice, over Q(sqrt 2)
    a, b, c = bp("u - v"), bp("u + v"), bp("u^2 - 2*v - 1")
    F = [a * b, b * c, c * a]
    points, chain = zero_set(F)
    assert len(points) == 5
    assert chain.degree() == 2
    for p in points:
        for f in F:
            assert f.embed(chain).eval(p.embed(chain)).is_zero()


def test_split_fallback_with_parallel_pair():
    a, b, c = bp("u - v"), bp("u + v"), bp("u + v - 1")
    points, _ = zero_set([a * b, b * c, c * a])
    assert coords(points) == [("0", "0"), ("1/2", "1/2")]


def _count_resultants(monkeypatch):
    calls = []
    real = zeroset.resultant

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(zeroset, "resultant", counted)
    return calls


def test_members_free_of_v_need_no_resultant(monkeypatch):
    calls = _count_resultants(monkeypatch)
    points, _ = zero_set([bp(s) for s in QUINTIC_TEXTS])
    assert coords(points) == [("0", "0"), ("0", "1")]
    assert calls == []


def test_one_resultant_when_every_pair_shares_a_line(monkeypatch):
    # Res_v(f1, f2) vanishes; Res_v(f1, f2 + f3) does not
    calls = _count_resultants(monkeypatch)
    a, b, c = bp("u - v"), bp("u + v"), bp("u - 2*v - 1")
    points, _ = zero_set([a * b, b * c, c * a])
    assert len(points) == 3
    assert len(calls) == 1


def test_adjoined_factors_are_not_factored_again(extend_field_calls):
    # the factor u^3 - 2 of the candidate is tried at one root and then
    # split, both without the check of the public extend_field
    points, chain = zero_set([bp("u^3 - 2"), bp("v - u")])
    assert len(points) == 3 and chain.degree() == 6
    assert extend_field_calls == []


def test_candidate_factor_without_points_is_skipped():
    # u^3 - 3 divides the candidate, but v and v + u^2 - 2 have no common
    # zero over it, so only Q(sqrt 2) is adjoined
    F = [bp("(u^2 - 2)*(u^3 - 3)"), bp("v"), bp("v + u^2 - 2")]
    points, chain = zero_set(F)
    assert coords(points) == [("-a0", "0"), ("a0", "0")]
    assert chain.degree() == 2


def test_every_point_is_checked_on_its_fiber(monkeypatch):
    # a fiber root that is not a root of the fiber is dropped by the check
    real = zeroset._fiber_roots
    offered = []

    def with_stray(gv, known, chain):
        ys, chain = real(gv, known, chain)
        offered.append(chain.rational(5))
        return ys + offered[-1:], chain

    monkeypatch.setattr(zeroset, "_fiber_roots", with_stray)
    points, _ = zero_set([bp("u^2 + v^2"), bp("v^2 + u")])
    assert coords(points) == [("0", "0"), ("1", "-a0"), ("1", "a0")]
    points, _ = zero_set([bp("u^3 - 2"), bp("v - u")])
    assert len(points) == 3 and all(str(p.v) != "5" for p in points)
    assert len(offered) == 5


# Candidates with factors that carry no points before and between factors
# that do.  Only the factors that carry points are adjoined, in the
# candidate's order, which fixes the generators, the points and their order.
ONE_PASS = (
    (
        ("(u^2 + u + 1)*(u^3 - 2)*(u^2 - 3)", "v^2 - u",
         "v*(u^3 - 2)*(u^2 - 3) + (u^2 + u + 1)*(v^2 - u)"),
        [("-a0", "-a1", 2), ("-a0", "a1", 2), ("a0", "-a2", 3), ("a0", "a2", 3),
         ("a3", "-a4", 5), ("a3", "a4", 5),
         ("-1/2*a1*a2*a3 - 1/2*a3", "-1/2*a1*a2*a4 + 1/2*a4", 5),
         ("-1/2*a1*a2*a3 - 1/2*a3", "1/2*a1*a2*a4 - 1/2*a4", 5),
         ("1/2*a1*a2*a3 - 1/2*a3", "-1/2*a1*a2*a4 - 1/2*a4", 5),
         ("1/2*a1*a2*a3 - 1/2*a3", "1/2*a1*a2*a4 + 1/2*a4", 5)],
        [("a0", ("-3", "0", "1")), ("a1", ("a0", "0", "1")), ("a2", ("-a0", "0", "1")),
         ("a3", ("-2", "0", "0", "1")), ("a4", ("-a3", "0", "1"))],
    ),
    (
        ("(u^2 - 5)*(u^2 - 2)*(u^2 + 1)*(u^2 + u + 1)", "v^2 - u",
         "v*(u^2 - 2)*(u^2 + u + 1) + (u^2 - 5)*(u^2 + 1)*(v^2 - u)"),
        [("-a0", "-a1", 2), ("-a0", "a1", 2), ("a0", "-a2", 3), ("a0", "a2", 3),
         ("-a3 - 1", "-a3", 4), ("-a3 - 1", "a3", 4), ("a3", "-a3 - 1", 4),
         ("a3", "a3 + 1", 4)],
        [("a0", ("-2", "0", "1")), ("a1", ("a0", "0", "1")), ("a2", ("-a0", "0", "1")),
         ("a3", ("1", "1", "1"))],
    ),
)


@pytest.mark.parametrize("texts, expected, generators", ONE_PASS)
def test_factors_decided_in_one_pass(texts, expected, generators):
    points, chain = zero_set([bp(s) for s in texts])
    assert [(str(p.u), str(p.v), p.tower.width) for p in points] == expected
    assert [(n, tuple(map(str, m))) for n, m in chain.generators()] == generators


def _line(alpha, beta, gamma):
    out = bp(f"{gamma}")
    if alpha:
        out = out + bp(f"{alpha}*u")
    if beta:
        out = out + bp(f"{beta}*v")
    return out


def _intersection(l1, l2):
    (a1, b1, g1), (a2, b2, g2) = l1, l2
    det = Fraction(a1 * b2 - a2 * b1)
    if det == 0:
        return None
    x = Fraction(-g1 * b2 + g2 * b1, 1) / det
    y = Fraction(-a1 * g2 + a2 * g1, 1) / det
    return (x, y)


def test_planted_lines_are_all_found():
    # Build two generators as products of known lines; the solver must
    # recover exactly the pairwise intersections across the two groups.
    rng = random.Random(424242)
    for _ in range(25):
        seen = set()
        groups = []
        for _ in range(2):
            lines = []
            while len(lines) < 2:
                a, b = rng.randint(-2, 2), rng.randint(-2, 2)
                if (a, b) == (0, 0):
                    continue
                g = rng.randint(-2, 2)
                key = tuple(Fraction(k, a if a else b) for k in (a, b, g))
                if key in seen:
                    continue
                seen.add(key)
                lines.append((a, b, g))
            groups.append(lines)
        f = _line(*groups[0][0]) * _line(*groups[0][1])
        g = _line(*groups[1][0]) * _line(*groups[1][1])
        expected = set()
        for l1 in groups[0]:
            for l2 in groups[1]:
                hit = _intersection(l1, l2)
                if hit is not None:
                    expected.add(hit)
        points, _ = zero_set([f, g])
        got = {(p.u.as_rational(), p.v.as_rational()) for p in points}
        assert got == expected


def test_output_is_sorted_and_deterministic():
    F = [bp("u^2 + v^2"), bp("v^2 + u")]
    first, _ = zero_set(F)
    second, _ = zero_set(F)
    assert coords(first) == coords(second)
    degrees = [p.tower.degree() for p in first]
    assert degrees == sorted(degrees)
