"""Tests for exact Gauss–Jordan elimination.

The reference is a plain Gauss–Jordan over Fraction kept in this file; it
shares nothing with the integer-row path that reduces matrices over QQ.
"""

import random
from fractions import Fraction

import pytest

from linser import _gauss
from linser.numfield import QQ, extend_field

GAUSS, _, I = extend_field(QQ, [1, 0, 1], "i")


def reference_rref(rows):
    rows = [list(r) for r in rows]
    n = len(rows[0]) if rows else 0
    pivots = []
    for c in range(n):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = [x - f * y for x, y in zip(row, rows[r])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def elements(rows, tower=QQ):
    return [[tower.rational(x) for x in r] for r in rows]


def check_reduced(rows, ncols, tower):
    """rref and kernel of rows against the defining properties; returns rref."""
    reduced, pivots = _gauss.rref(rows)
    zero, one = tower.zero(), tower.one()
    for i, c in enumerate(pivots):
        assert all(not x for x in reduced[i][:c])
        assert [reduced[k][c] for k in range(len(pivots))] == [
            one if k == i else zero for k in range(len(pivots))
        ]
    # every row is the combination of the reduced rows read off its pivot entries
    for row in rows:
        combo = [zero] * ncols
        for i, c in enumerate(pivots):
            combo = [x + row[c] * y for x, y in zip(combo, reduced[i])]
        assert combo == list(row)
    kern = _gauss.kernel(rows, ncols, zero, one)
    assert len(pivots) + len(kern) == ncols
    for v in kern:
        for row in rows:
            assert sum((a * b for a, b in zip(row, v)), zero) == zero
    assert _gauss.rref(reduced) == (reduced, pivots)
    return reduced, pivots


def assert_matches_reference(rows, ncols):
    reduced, pivots = check_reduced(elements(rows), ncols, QQ)
    expected, expected_pivots = reference_rref(rows)
    assert pivots == expected_pivots
    assert [[x.as_rational() for x in r] for r in reduced] == expected
    # the canonical pair for each entry, so the output prints the same
    assert reduced == elements(expected)


F = Fraction
SHAPES = [
    [],
    [[0, 0, 0], [0, 0, 0]],
    [[F(-2, 3), 0, 4]],
    [[0, 0, 5, F(7, 12)]],
    [[0, 2, 0, 4], [0, 1, 0, 3], [0, -5, 0, 1]],
    [[1, 2, 3], [F(-1, 2), -1, F(-3, 2)], [2, 4, 6]],
    [[-3, 1, 0], [0, -7, 2], [-6, 2, 1]],
    [[F(1, 12), F(-1, 11)], [F(5, 6), F(7, 4)], [0, 0]],
]


@pytest.mark.parametrize("rows", SHAPES)
def test_rref_over_rationals_matches_fraction_reference(rows):
    assert_matches_reference(rows, len(rows[0]) if rows else 0)


def test_rref_over_rationals_on_random_matrices():
    rng = random.Random(12)
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 8)
        rows = [
            [F(rng.randint(-9, 9), rng.randint(1, 12)) if rng.random() < 0.6 else F(0)
             for _ in range(n)]
            for _ in range(m)
        ]
        if m > 1 and rng.random() < 0.4:
            q = F(rng.randint(-5, 5), rng.randint(1, 12))
            rows[rng.randrange(1, m)] = [q * x for x in rows[0]]
        if rng.random() < 0.3:
            zero_col = rng.randrange(n)
            for r in rows:
                r[zero_col] = F(0)
        assert_matches_reference(rows, n)


def test_rref_over_gaussian_field():
    a, b = I + 1, I - 2
    rows = [[I, GAUSS.one(), GAUSS.zero()], [GAUSS.one(), GAUSS.zero(), I]]
    assert _gauss.rref(rows) == ([[1, 0, I], [0, 1, 1]], [0, 1])
    # the second row is (1 + i) times the first, the third has a zero column
    rows = [[a, b, GAUSS.zero(), I], [a * a, a * b, GAUSS.zero(), a * I], [b, a, GAUSS.zero(), 3]]
    reduced, pivots = check_reduced(rows, 4, GAUSS)
    assert pivots == [0, 1]
    # rational entries over Q(i) take the field loop, and agree with QQ
    rows = [[F(-3, 4), 2, 0], [F(1, 6), F(5, 12), -1]]
    over_qq, pivots_qq = _gauss.rref(elements(rows))
    over_gauss, pivots_gauss = check_reduced(elements(rows, GAUSS), 3, GAUSS)
    assert pivots_gauss == pivots_qq
    assert over_gauss == [[x.embed(GAUSS) for x in r] for r in over_qq]


def test_rref_properties_hypothesis():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    small = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    matrices = st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(small, min_size=n, max_size=n), min_size=1, max_size=5)
    )

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(matrices, st.booleans())
    def reduce(rows, gaussian):
        if gaussian:
            # a + b*i, with b taken from the column to the left, cyclically
            cells = [[GAUSS.rational(x) + GAUSS.rational(r[j - 1]) * I for j, x in enumerate(r)]
                     for r in rows]
            check_reduced(cells, len(rows[0]), GAUSS)
        else:
            assert_matches_reference(rows, len(rows[0]))

    reduce()


def test_rank_counts_the_pivots_of_rref():
    # over QQ rank reads integer_rref's pivots, over Q(i) it runs rref
    rng = random.Random(24)
    cases = [[], [[]], elements([[0, 0, 0]]), elements([[0, 0], [0, 0]]), [[GAUSS.zero()] * 3]]
    for n in range(200):
        tower = QQ if n % 2 else GAUSS
        m, k = rng.randint(1, 6), rng.randint(1, 7)
        rows = [
            [tower.rational(F(rng.randint(-9, 9), rng.randint(1, 12)))
             + (I * rng.randint(-2, 2) if tower is GAUSS else 0)
             if rng.random() < 0.6 else tower.zero() for _ in range(k)]
            for _ in range(m)
        ]
        if m > 1 and rng.random() < 0.5:
            # a multiple of another row, or a zero row
            q = tower.rational(F(rng.randint(-5, 5), rng.randint(1, 7)))
            rows[rng.randrange(1, m)] = [q * x for x in rows[0]]
        cases.append(rows)
    ranks = set()
    for rows in cases:
        ranks.add(_gauss.rank(rows))
        assert _gauss.rank(rows) == len(_gauss.rref(rows)[1])
    assert ranks >= {0, 1, 2, 3, 4, 5, 6}
