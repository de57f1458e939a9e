"""Exact linear algebra over rationals, plus a small exact simplex solver.

Everything in this module is tolerance-free: ranks and inverses come from
one fraction-free elimination on integer rows, and the LP routines run over
`fractions.Fraction`.  The LP solver is a dense two-phase simplex with
Bland's rule; problem sizes in this package are tiny (fewer than ~30
variables and ~60 rows), so clarity beats sparsity.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Row = Sequence[Fraction]


def _scaled(row: Row) -> list[int]:
    """A row of ints and Fractions times the lcm of its denominators."""
    scale = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row]


def _gauss_jordan(m: list[Sequence[int]]) -> list[int]:
    """Reduce integer rows in place to fraction-free reduced echelon form.

    Each row r is replaced by p[col]*r - r[col]*p for the pivot row p and
    divided by the gcd of its entries; returns the pivot columns.
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
        p = m[rank]
        for r in range(len(m)):
            f = m[r][col]
            if r != rank and f != 0:
                m[r] = gcd_reduce([p[col] * x - f * y for x, y in zip(m[r], p)])
        pivots.append(col)
        if len(pivots) == len(m):
            break
    return pivots


def mat_rank(rows: Iterable[Row]) -> int:
    """Rank of a rational matrix by fraction-free integer elimination."""
    return len(_gauss_jordan([_scaled(row) for row in rows]))


def invert_square(a: Iterable[Row]) -> list[list[Fraction]] | None:
    """Exact inverse of a square rational matrix; None if singular.

    Scaling whole rows of [A | I] to integers leaves its reduced form
    [I | A^-1] unchanged; each reduced row is then divided by its pivot.
    """
    rows = [list(row) for row in a]
    n = len(rows)
    aug = [_scaled(row + [int(i == j) for j in range(n)])
           for i, row in enumerate(rows)]
    if _gauss_jordan(aug) != list(range(n)):
        return None
    return [[Fraction(x, row[i]) for x in row[n:]] for i, row in enumerate(aug)]


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

LP_OPTIMAL = "optimal"
LP_INFEASIBLE = "infeasible"
LP_UNBOUNDED = "unbounded"


class LPResult:
    def __init__(self, status: str, objective: Fraction | None,
                 x: tuple[Fraction, ...] | None):
        self.status = status
        self.objective = objective
        self.x = x

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LPResult({self.status}, obj={self.objective})"


def lp_maximize(c: Row,
                a_ub: Sequence[Row], b_ub: Row,
                a_eq: Sequence[Row] = (), b_eq: Row = ()) -> LPResult:
    """Maximize c.x subject to a_ub.x <= b_ub and a_eq.x == b_eq, x free.

    Free variables are split as x = x+ - x-.  Two-phase dense simplex with
    Bland's rule (guaranteed termination); all arithmetic exact.
    """
    n = len(c)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for row, b in zip(a_ub, b_ub):
        rows.append([Fraction(x) for x in row] + [Fraction(0)])  # slot for slack sign
        rows[-1][-1] = Fraction(1)
        rhs.append(Fraction(b))
    n_ub = len(rows)
    # columns: x+ (n), x- (n), slacks (n_ub); equalities get artificials later
    cols = 2 * n + n_ub

    def expand(row: Row, slack_idx: int | None) -> list[Fraction]:
        out = [Fraction(0)] * cols
        for j, v in enumerate(row):
            out[j] = Fraction(v)
            out[n + j] = -Fraction(v)
        if slack_idx is not None:
            out[2 * n + slack_idx] = Fraction(1)
        return out

    tableau: list[list[Fraction]] = []
    tab_rhs: list[Fraction] = []
    for i, (row, b) in enumerate(zip(a_ub, b_ub)):
        tableau.append(expand(row, i))
        tab_rhs.append(Fraction(b))
    for row, b in zip(a_eq, b_eq):
        tableau.append(expand(row, None))
        tab_rhs.append(Fraction(b))

    m = len(tableau)
    # normalize rows to nonnegative rhs, then add artificial basis
    for i in range(m):
        if tab_rhs[i] < 0:
            tableau[i] = [-x for x in tableau[i]]
            tab_rhs[i] = -tab_rhs[i]
    total_cols = cols + m
    for i in range(m):
        tableau[i] = tableau[i] + [Fraction(int(i == j)) for j in range(m)]
    basis = [cols + i for i in range(m)]

    def pivot(row_i: int, col_j: int) -> None:
        piv = tableau[row_i][col_j]
        tableau[row_i] = [x / piv for x in tableau[row_i]]
        tab_rhs[row_i] /= piv
        for r in range(m):
            if r != row_i and tableau[r][col_j] != 0:
                f = tableau[r][col_j]
                tableau[r] = [x - f * y for x, y in zip(tableau[r], tableau[row_i])]
                tab_rhs[r] -= f * tab_rhs[row_i]
        basis[row_i] = col_j

    def run_phase(obj: list[Fraction], allowed: int) -> Fraction:
        # maximize obj.x over current tableau; returns optimal objective value
        while True:
            # reduced costs: z_j - c_j computed directly from the basis
            duals = [obj[basis[r]] for r in range(m)]
            entering = None
            for j in range(allowed):  # Bland: smallest eligible index
                if j in basis_set:
                    continue
                red = obj[j] - sum(duals[r] * tableau[r][j] for r in range(m))
                if red > 0:
                    entering = j
                    break
            if entering is None:
                return sum(duals[r] * tab_rhs[r] for r in range(m))
            leaving = None
            best = None
            for r in range(m):
                if tableau[r][entering] > 0:
                    ratio = tab_rhs[r] / tableau[r][entering]
                    if best is None or ratio < best or (
                            ratio == best and basis[r] < basis[leaving]):
                        best, leaving = ratio, r
            if leaving is None:
                raise _Unbounded
            basis_set.discard(basis[leaving])
            basis_set.add(entering)
            pivot(leaving, entering)

    class _Unbounded(Exception):
        pass

    basis_set = set(basis)
    phase1 = [Fraction(0)] * total_cols
    for j in range(cols, total_cols):
        phase1[j] = Fraction(-1)
    try:
        art_obj = run_phase(phase1, total_cols)
    except _Unbounded:  # pragma: no cover - phase 1 is always bounded
        raise AssertionError("phase 1 cannot be unbounded")
    if art_obj != 0:
        return LPResult(LP_INFEASIBLE, None, None)
    # drive artificials out of the basis where possible
    for r in range(m):
        if basis[r] >= cols:
            entering = next((j for j in range(cols) if j not in basis_set
                             and tableau[r][j] != 0), None)
            if entering is not None:
                basis_set.discard(basis[r])
                basis_set.add(entering)
                pivot(r, entering)

    phase2 = [Fraction(0)] * total_cols
    for j in range(n):
        phase2[j] = Fraction(c[j])
        phase2[n + j] = -Fraction(c[j])
    try:
        obj = run_phase(phase2, cols)
    except _Unbounded:
        return LPResult(LP_UNBOUNDED, None, None)
    x = [Fraction(0)] * total_cols
    for r in range(m):
        x[basis[r]] = tab_rhs[r]
    point = tuple(x[j] - x[n + j] for j in range(n))
    return LPResult(LP_OPTIMAL, obj, point)
