"""Exact linear algebra over rationals, plus a small exact simplex solver.

Everything in this module is tolerance-free, and it has one elimination:
`_eliminate`, a fraction-free row step on integer rows.  Rank, the vertex
oracle's simplicial cones and every simplex pivot run through it.  The LP
solver is a dense two-phase simplex with Bland's rule; problem sizes in
this package are tiny (fewer than ~30 variables and ~60 rows), so clarity
beats sparsity.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Row = Sequence[Fraction]


def common_denominator(row: Row) -> tuple[list[int], int]:
    """Integer numerators of a row of ints and Fractions over the lcm of
    its denominators, and that lcm."""
    scale = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row], scale


def _scaled(row: Row) -> list[int]:
    """A row of ints and Fractions times the lcm of its denominators."""
    return common_denominator(row)[0]


def _eliminate(rows: list[Sequence[int]], r: int, col: int) -> None:
    """Clear column col from every integer row but p = rows[r], in place.

    Each other row becomes p[col]*row - row[col]*p divided by the gcd of
    its entries, so it keeps its orientation when p[col] > 0.
    """
    p = rows[r]
    pc = p[col]
    for i, row in enumerate(rows):
        f = row[col]
        if i != r and f != 0:
            rows[i] = gcd_reduce([pc * x - f * y for x, y in zip(row, p)])


def _gauss_jordan(m: list[Sequence[int]]) -> list[int]:
    """Reduce integer rows in place to fraction-free reduced echelon form.

    Returns the pivot columns.
    """
    if not m:
        return []
    pivots: list[int] = []
    for col in range(len(m[0])):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        _eliminate(m, rank, col)
        pivots.append(col)
        if len(pivots) == len(m):
            break
    return pivots


def mat_rank(rows: Iterable[Row]) -> int:
    """Rank of a rational matrix by fraction-free integer elimination."""
    return len(_gauss_jordan([_scaled(row) for row in rows]))


def integerize_row(normal: Row, offset: Fraction) -> tuple[tuple[int, ...], int]:
    """Scale (normal, offset) by the lcm of denominators to integer data."""
    ints = _scaled([*normal, offset])
    return tuple(ints[:-1]), ints[-1]


def gcd_reduce(vec: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (keep orientation)."""
    g = math.gcd(*vec)
    return tuple(v // g for v in vec) if g > 1 else tuple(vec)


# ---------------------------------------------------------------------------
# Exact simplex
# ---------------------------------------------------------------------------

def _phase(rows: list[Sequence[int]], basis: list[int], obj: list[int],
           cols: int) -> Fraction:
    """Maximize z over the tableau `rows` by Bland's rule; return its max.

    `obj` encodes s*z - c.x = 0 with s > 0.  It is appended, cleared in the
    basic columns and then pivoted on, with columns 1..cols-1 free to
    enter, until no entry is negative; its last entry over its first is
    then the optimum.  Every constraint row keeps a positive entry in its
    basic column and a nonnegative rhs.
    """
    rows.append(obj)
    for r, b in enumerate(basis):
        _eliminate(rows, r, b)
    while True:
        obj = rows[-1]
        col = next((j for j in range(1, cols) if obj[j] < 0), None)
        if col is None:
            rows.pop()
            return Fraction(obj[-1], obj[0])
        ratios = [(Fraction(row[-1], row[col]), b, r)
                  for r, (row, b) in enumerate(zip(rows, basis)) if row[col] > 0]
        if not ratios:
            raise ValueError("LP is unbounded")
        _, _, r = min(ratios)
        _eliminate(rows, r, col)
        basis[r] = col


def lp_maximize(c: Row,
                a_ub: Sequence[Row], b_ub: Row,
                a_eq: Sequence[Row] = (), b_eq: Row = ()) -> Fraction | None:
    """Max of c.x subject to a_ub.x <= b_ub, a_eq.x == b_eq and x >= 0.

    Returns None when the system is infeasible and raises ValueError when
    the objective is unbounded.  Two-phase dense simplex with Bland's rule
    (guaranteed termination) on integer rows; every pivot is `_eliminate`.
    The tableau columns are: objective scale, x, slacks, artificials, rhs.
    """
    n, n_ub = len(c), len(a_ub)
    lhs = [*a_ub, *a_eq]
    m = len(lhs)
    art = 1 + n + n_ub
    rows: list[Sequence[int]] = []
    for i, (row, b) in enumerate(zip(lhs, [*b_ub, *b_eq])):
        ints = _scaled([0, *row, *(int(i == j) for j in range(n_ub)), b])
        if b < 0:
            ints = [-x for x in ints]
        rows.append(ints[:-1] + [int(i == j) for j in range(m)] + ints[-1:])
    basis = list(range(art, art + m))

    # phase 1: maximize -sum(artificials); below zero means infeasible
    if _phase(rows, basis, [1] + [0] * (art - 1) + [1] * m + [0], art + m):
        return None
    for r in range(m):  # drive zero-level artificials out where possible
        if basis[r] >= art:
            col = next((j for j in range(1, art) if rows[r][j] != 0), None)
            if col is not None:
                if rows[r][col] < 0:
                    rows[r] = [-x for x in rows[r]]
                _eliminate(rows, r, col)
                basis[r] = col
    # phase 2: the artificials may no longer enter
    objective = _scaled([1, *(-x for x in c)]) + [0] * (n_ub + m + 1)
    return _phase(rows, basis, objective, art)
