"""Exact linear algebra over rationals, plus a small exact simplex solver.

Everything in this module is tolerance-free: Gaussian elimination, ranks,
inverses and the LP routines all run over `fractions.Fraction` (or plain
Python ints where noted).  The LP solver is a dense two-phase simplex with
Bland's rule; problem sizes in this package are tiny (fewer than ~30
variables and ~60 rows), so clarity beats sparsity.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Row = Sequence[Fraction]


def _to_frac_matrix(rows: Iterable[Row]) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def _gauss_jordan(m: list[list[Fraction]]) -> list[int]:
    """Reduce m in place to reduced row echelon form; return pivot columns."""
    if not m:
        return []
    pivots: list[int] = []
    for col in range(len(m[0])):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        pivots.append(col)
        if len(pivots) == len(m):
            break
    return pivots


def mat_rank(rows: Iterable[Row]) -> int:
    """Rank of a rational matrix by fraction-exact Gaussian elimination."""
    return len(_gauss_jordan(_to_frac_matrix(rows)))


def affine_rank(points: Sequence[Row]) -> int:
    """Dimension of the affine hull of a point set (0 for a single point)."""
    if len(points) <= 1:
        return 0
    base = points[0]
    return mat_rank([[x - b for x, b in zip(p, base)] for p in points[1:]])


def invert_square(a: Iterable[Row]) -> list[list[Fraction]] | None:
    """Exact inverse of a square rational matrix; None if singular."""
    m = _to_frac_matrix(a)
    n = len(m)
    aug = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    if _gauss_jordan(aug) != list(range(n)):
        return None
    return [row[n:] for row in aug]


def integerize_row(normal: Row, offset: Fraction) -> tuple[tuple[int, ...], int]:
    """Scale (normal, offset) by the lcm of denominators to integer data."""
    fracs = [Fraction(x) for x in normal] + [Fraction(offset)]
    scale = 1
    for f in fracs:
        scale = scale * f.denominator // math.gcd(scale, f.denominator)
    ints = [int(f * scale) for f in fracs]
    return tuple(ints[:-1]), ints[-1]


def gcd_reduce(vec: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (keep orientation)."""
    g = 0
    for v in vec:
        g = math.gcd(g, abs(v))
    if g <= 1:
        return tuple(vec)
    return tuple(v // g for v in vec)


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
