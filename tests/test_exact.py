"""Exact linear algebra: `common_denominator` and `_gauss_jordan` against
Fraction references, and the simplex `lp_maximize` against a basic-solution
enumeration."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from flatklein import _exact
from flatklein._exact import lp_maximize


def test_common_denominator_matches_fraction_reference():
    rng = random.Random(77)
    rows = [[], [F(-3, 4)], [5], [-7, F(1, 6), F(-5, 9), 0, F(2, 3)]]
    rows += [[rng.randrange(-9, 10) if rng.random() < 0.3
              else F(rng.randrange(-40, 41), rng.randrange(1, 13))
              for _ in range(rng.randrange(1, 9))] for _ in range(200)]
    for row in rows:
        nums, scale = _exact.common_denominator(row)
        assert scale == math.lcm(*(F(x).denominator for x in row)), row
        assert all(type(v) is int for v in nums), row
        assert [F(v, scale) for v in nums] == [F(x) for x in row], row
    assert _exact.common_denominator([]) == ([], 1)


def _dot(row, x):
    return sum((a * b for a, b in zip(row, x)), start=F(0))


def _solve(a, b):
    """The unique solution of a square Fraction system; None if singular."""
    n = len(a)
    m = [[F(v) for v in row] + [F(rhs)] for row, rhs in zip(a, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        m[col] = [v / m[col][col] for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return [row[-1] for row in m]


def _fraction_rref(rows):
    """Pivot columns and reduced row echelon form over Fractions, every
    pivot entry 1."""
    m = [[F(x) for x in row] for row in rows]
    pivots = []
    for col in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
    return pivots, m


def test_gauss_jordan_matches_fraction_rref():
    # row k over its pivot entry is the Fraction row exactly, and the rows
    # below the rank are zero; pivot entries may be negative
    rng = random.Random(2402)
    big = 2 ** 61
    deficient = negative = 0
    for _ in range(400):
        width = rng.randint(1, 7)
        m = [[rng.choice((0, 0, rng.randint(-9, 9), rng.randint(-big, big)))
              for _ in range(width)] for _ in range(rng.randint(1, 6))]
        for c in rng.sample(range(width), rng.randint(0, width // 2)):
            for row in m:  # a zero column
                row[c] = 0
        if len(m) > 1 and rng.random() < 0.5:  # a dependent row
            a, b = rng.sample(m, 2)
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            m.insert(rng.randrange(len(m) + 1),
                     [s * x + t * y for x, y in zip(a, b)])
        want_pivots, want = _fraction_rref(m)
        got = [list(row) for row in m]
        pivots = _exact._gauss_jordan(got)
        assert pivots == want_pivots, m
        for k, c in enumerate(pivots):
            assert [F(x, got[k][c]) for x in got[k]] == want[k], m
        assert not any(any(row) for row in got[len(pivots):]), m
        deficient += len(pivots) < min(len(m), width)
        negative += any(got[k][c] < 0 for k, c in enumerate(pivots))
    assert _exact._gauss_jordan([]) == []
    assert deficient >= 50 and negative >= 50, (deficient, negative)


def _reference_max(c, a_ub, b_ub, a_eq, b_eq):
    """Max of c.x over x >= 0 by making every n-subset of constraints tight.

    Enumerates the basic solutions of {rows, x_j = 0}, keeps the feasible
    ones and returns the best objective (None if there is none).  Valid for
    bounded LPs: x >= 0 makes the region pointed, so an optimum is basic.
    """
    n = len(c)
    axes = [[int(i == j) for j in range(n)] for i in range(n)]
    planes = [*zip(a_ub, b_ub), *zip(a_eq, b_eq), *((e, 0) for e in axes)]
    best = None
    for subset in itertools.combinations(planes, n):
        x = _solve([row for row, _ in subset], [b for _, b in subset])
        if x is None or any(v < 0 for v in x):
            continue
        if any(_dot(row, x) > b for row, b in zip(a_ub, b_ub)):
            continue
        if any(_dot(row, x) != b for row, b in zip(a_eq, b_eq)):
            continue
        value = _dot(c, x)
        best = value if best is None else max(best, value)
    return best


def _parallel(u, v):
    return all(a * d == b * c for (a, b), (c, d) in
               itertools.combinations(zip(u, v), 2))


def _random_lp(rng):
    """A bounded LP with n <= 4 and rational data; often feasible at x0."""
    n = rng.randint(1, 4)

    def q():
        return F(rng.randint(-6, 6), rng.randint(1, 4))

    x0 = [F(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(n)]
    feasible = rng.random() < 0.7
    c = [q() for _ in range(n)]
    a_ub = [[q() for _ in range(n)] for _ in range(rng.randint(0, 4))]
    b_ub = [_dot(row, x0) + F(rng.randint(0, 3), 2) if feasible else q()
            for row in a_ub]
    # sum(x) <= K keeps the LP bounded; a negative K makes it infeasible
    a_ub.append([F(1)] * n)
    b_ub.append(sum(x0) + rng.randint(0, 3) if feasible
                else F(rng.randint(-4, 8), rng.randint(1, 3)))
    a_eq = [[q() for _ in range(n)] for _ in range(rng.randint(0, 2))]
    b_eq = [_dot(row, x0) if feasible else q() for row in a_eq]
    if a_eq and rng.random() < 0.5:  # a repeated or scaled equality row
        i = rng.randrange(len(a_eq))
        k = rng.choice((F(1), F(3), F(-2, 3)))
        a_eq.append([k * v for v in a_eq[i]])
        b_eq.append(k * b_eq[i])
    return c, a_ub, b_ub, a_eq, b_eq


def test_lp_matches_basic_solution_enumeration():
    rng = random.Random(2024)
    infeasible = redundant = negative_rhs = 0
    for _ in range(240):
        c, a_ub, b_ub, a_eq, b_eq = _random_lp(rng)
        expected = _reference_max(c, a_ub, b_ub, a_eq, b_eq)
        assert lp_maximize(c, a_ub, b_ub, a_eq, b_eq) == expected, \
            (c, a_ub, b_ub, a_eq, b_eq)
        infeasible += expected is None
        redundant += any(_parallel(u, v) for u, v in itertools.combinations(a_eq, 2))
        negative_rhs += any(b < 0 for b in [*b_ub, *b_eq])
    assert infeasible >= 20 and redundant >= 20 and negative_rhs >= 40


def test_lp_redundant_equalities_and_infeasibility():
    # x1 - x2 = 1 given twice, once scaled: one artificial stays basic at zero
    assert lp_maximize([1, 2], [[1, 1]], [4], [[1, -1], [2, -2]], [1, 2]) \
        == F(11, 2)
    assert lp_maximize([1, 2], [[1, 1]], [4], [[1, -1], [2, -2]], [1, 3]) is None
    assert lp_maximize([1, 1], [[1, 1]], [F(-1, 2)]) is None
    assert lp_maximize([-1, F(-1, 3)], [[-1, -1]], [-2]) == F(-2, 3)
    assert lp_maximize([-1], [], []) == 0


def test_beale_cycling_example_terminates():
    # Beale (1955): the largest-coefficient rule cycles here; Bland's does not
    c = [F(3, 4), -20, F(1, 2), -6]
    a_ub = [[F(1, 4), -8, -1, 9], [F(1, 2), -12, F(-1, 2), 3], [0, 0, 1, 0]]
    assert lp_maximize(c, a_ub, [0, 0, 1]) == F(5, 4)


# Degenerate LPs (every rhs 0 but one).  The smallest-index entering rule
# cycles on them when ratio-test ties go to the first row or to the last
# row instead of to the smallest basis index: on the first two when every
# row starts with an artificial variable (first row, last row), and on the
# last two when the simplex starts from the slack basis (first row, last
# row).  The last two were found by a seeded search over random LPs with
# entries in -3..3 and rhs (0, ..., 0, 1).  The optima are those of
# `_reference_max`.
CYCLING = [
    ([2, 2, 0, 2, -1, 0, -3],
     [[0, -1, 1, 0, 2, -1, 1], [2, -1, -1, 2, 3, 0, -3],
      [1, 2, 3, -1, -1, 2, -3], [0, 0, 2, 0, -2, 1, -3],
      [-2, 0, 1, 0, -1, 3, -3], [1, 1, 1, 1, 1, 1, 1]],
     [0, 0, 0, 0, 0, 1], F(9, 7)),
    ([-1, -1, 0, 0, -1, 3, -2],
     [[-2, -3, 3, 1, -3, 0, 3], [3, 0, 0, 1, -1, -1, 1],
      [-2, -1, 3, 0, 0, -1, -2], [2, 0, -1, -2, 1, -3, 3],
      [1, 1, 1, 1, 1, 1, 1]],
     [0, 0, 0, 0, 1], 3),
    ([2, -3, -2, 0, 1, 0, -1],
     [[-1, 2, 0, -2, -1, 0, 0], [2, -1, -2, 3, -1, 3, 0],
      [2, -3, 1, 3, -2, -2, -3], [-2, 1, 0, 0, 2, -1, -1],
      [1, -1, 3, -3, -1, 0, -1], [1, 1, 1, 1, 1, 1, 1]],
     [0, 0, 0, 0, 0, 1], F(3, 5)),
    ([0, 2, -2, 0, 1, 0],
     [[-2, 0, 2, 1, -1, -1], [-1, -1, -3, 2, 2, 0],
      [3, 3, 2, -3, 1, -2], [2, 3, -3, 2, 0, -1],
      [2, 0, 2, -3, -3, -3], [1, 1, 1, 1, 1, 1]],
     [0, 0, 0, 0, 0, 1], F(5, 9)),
]


@pytest.mark.parametrize("c, a_ub, b_ub, optimum", CYCLING)
def test_bland_tie_break_prevents_cycling(monkeypatch, c, a_ub, b_ub, optimum):
    steps = []
    eliminate = _exact._eliminate

    def counted(rows, r, col):
        steps.append(col)
        if len(steps) > 200:
            raise AssertionError("simplex is cycling")
        eliminate(rows, r, col)

    monkeypatch.setattr(_exact, "_eliminate", counted)
    assert lp_maximize(c, a_ub, b_ub) == optimum


def test_lp_unbounded_raises():
    with pytest.raises(ValueError, match="unbounded"):
        lp_maximize([1, 1], [[1, 0]], [2])
