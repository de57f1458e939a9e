"""Exact linear algebra over rationals, plus a small exact simplex solver.

Everything in this module is tolerance-free, and it has one elimination:
`_eliminate`, a fraction-free row step on integer rows.  Every simplex
pivot runs through it, and so does `_gauss_jordan`, which gives the rank
and, in the vertex oracles, the simplicial start of every cone.
Beside it sits one packed slack scan, `_packed_scan`, which finds every
point's violated and tight rows, and every row's tight points, from a few
big-int multiply-adds and bytes operations per row: the vertex certifier
checks the claimed points with it, and the face lattice reads the cell's
vertex-row incidences from it.
The LP solver is a dense two-phase simplex with Bland's rule.  It starts
from the slack basis wherever it can: only equality rows and rows negated
for a negative rhs get an artificial variable, and phase 1 runs only when
some row has one.  Problem sizes in this package are tiny (fewer than ~30
variables and ~60 rows), so clarity beats sparsity.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import mul, sub
from typing import Iterable, Sequence

Row = Sequence[Fraction]


class InvariantError(AssertionError):
    """An internal invariant failed; the message names the exact inputs.

    Raised, never asserted, so that it still fires under `python -O`.  It
    subclasses AssertionError, so `except AssertionError` still catches it.
    """


def common_denominator(row: Row) -> tuple[list[int], int]:
    """Integer numerators of a row of ints and Fractions over the lcm of
    its denominators, and that lcm."""
    dens = [x.denominator for x in row]
    scale = math.lcm(*dens)
    return [x.numerator * (scale // d) for x, d in zip(row, dens)], scale


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
            new = [pc * x - f * y for x, y in zip(row, p)]
            g = math.gcd(*new)
            rows[i] = [v // g for v in new] if g > 1 else new


def _gauss_jordan(m: list[Sequence[int]]) -> list[int]:
    """Reduce integer rows in place to fraction-free reduced echelon form.

    Returns the pivot columns.
    """
    if not m:
        return []
    pivots: list[int] = []
    for col in range(len(m[0])):
        rank = len(pivots)
        for piv in range(rank, len(m)):
            if m[piv][col]:
                break
        else:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        _eliminate(m, rank, col)
        pivots.append(col)
        if len(pivots) == len(m):
            break
    return pivots


def mat_rank(rows: Iterable[Row]) -> int:
    """Rank of a rational matrix by fraction-free integer elimination."""
    return len(_gauss_jordan([common_denominator(row)[0] for row in rows]))


def gcd_reduce(vec: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (keep orientation)."""
    g = math.gcd(*vec)
    return tuple([v // g for v in vec]) if g > 1 else tuple(vec)


# ---------------------------------------------------------------------------
# Packed slack scan
# ---------------------------------------------------------------------------

#: `bytes.translate` table from guard bytes (0x80 set, 0 clear) to binary digits
_GUARD_DIGITS = bytes.maketrans(b"\x00\x80", b"01")
#: rows per block of one-byte row numbers; byte 255 marks a point not tight
_BLOCK = 255


def _packed_scan(rows: Sequence[tuple[int, ...]], offs: Sequence[int],
                 points: Sequence[tuple[int, ...]], q: int,
                 ) -> tuple[list[int | None], list[Sequence[int]], list[int]]:
    """Each point's lowest violated row (None if it is feasible), each
    point's tight rows in index order, and each row's tight points as one
    mask (bit p for point p).  The points are integer numerators over one
    common denominator q.

    Each coordinate column becomes one int with a lane of w = 8 size bits
    per point, point p in bits [w p, w p + w).  A lane holds the numerator
    less the column's minimum, so it is at least 0.  Row r's slack at
    point p is s = off_r q - row_r . x_p = base_r - row_r . (x_p - minima),
    so |s| <= |base_r| + sum_c |row_r[c]| (range of column c); B is the
    largest of these bounds over the rows and of the column ranges (a
    column no row uses still fills its lanes), and size the fewest bytes
    with B < G = 2^(w - 1).  Then

        (G + base_r) * ONES - sum_c row_r[c] * column_c,

    ONES holding 1 in every lane, is exactly the int whose lane p is
    G + s, in (0, 2G): at most n multiply-adds give a row's slacks at every
    point, fewer where a row shares leading entries with the row before
    it (only that row's prefix sums are kept).  Lane p's guard bit G is
    clear exactly when p violates the row.  Its low w - 1 bits are zero
    exactly when p is tight: adding G - 1 to them sets the guard bit
    unless they are zero, and as the guard bits are masked off first, no
    lane carries into the next.

    The lanes are read with C-level bytes operations, never one bit at a
    time: the top byte of every lane, last lane first (`to_bytes` and a
    stride-`size` slice), is 0x80 where the guard bit is set and 0
    elsewhere.  Translated to binary digits, that row of bytes is the
    row's point mask.  Translated to the row's number (mod 255) where
    tight and 255 elsewhere, the rows of a block of 255 form a byte matrix
    whose column for point p, less its 255 bytes, is p's tight rows in
    that block.  A violated row is rare; `_guard_lanes` reads its points
    with `bytes.find`.
    """
    count = len(points)
    if not count:
        return [], [], [0] * len(rows)
    cols = list(zip(*points))
    minima = list(map(min, cols))
    ranges = list(map(sub, map(max, cols), minima))
    bases = [off * q - sum(map(mul, row, minima))
             for row, off in zip(rows, offs)]
    # a column no row uses (the polyhedron holds a line) bounds no slack,
    # but its lanes must still hold its range
    bound = max([*ranges, *(abs(base) + sum(map(mul, map(abs, row), ranges))
                            for row, base in zip(rows, bases))])
    size = bound.bit_length() // 8 + 1
    guard = 1 << (8 * size - 1)
    packed = [int.from_bytes(b"".join(map(int.to_bytes, map(sub, col, repeat(lo)),
                                          repeat(size), repeat("little"))),
                             "little")
              for col, lo in zip(cols, minima)]
    ones = int.from_bytes((b"\x01" + bytes(size - 1)) * count, "little")
    guards = ones * guard
    low_bits = guards - ones
    bad: list[int | None] = [None] * count
    masks: list[int] = []
    blocks: list[list[bytes]] = []
    numbers = [bytes.maketrans(b"\x00\x80", bytes((_BLOCK, r)))
               for r in range(min(len(rows), _BLOCK))]
    # chain[c] is row . columns over the first c columns of the row before:
    # a row adds only the entries after the prefix it shares with that row
    # (a cell lists its slant rows in product order, so, two by two, they
    # share all but their last entry)
    chain = [0]
    prev: Sequence[int] = ()
    for ri, (row, base) in enumerate(zip(rows, bases)):
        c = 0
        while c < len(prev) and row[c] == prev[c]:
            c += 1
        del chain[c + 1:]
        for a, col in zip(row[c:], packed[c:]):
            chain.append(chain[-1] + a * col if a else chain[-1])
        prev = row
        lanes = (guard + base) * ones - chain[-1]
        held = lanes & guards
        if held != guards:
            for p in _guard_lanes(guards ^ held, size, count):
                if bad[p] is None:
                    bad[p] = ri
        zero = held & ~((lanes & low_bits) + low_bits)
        top = zero.to_bytes(size * count, "big")[::size]
        masks.append(int(top.translate(_GUARD_DIGITS), 2))
        if ri % _BLOCK == 0:
            blocks.append([])
        blocks[-1].append(top.translate(numbers[ri % _BLOCK]))
    tight: list[Sequence[int]] = [b""] * count
    for first, block in zip(range(0, len(rows), _BLOCK), blocks):
        matrix = b"".join(block)
        at = [matrix[p::count].translate(None, b"\xff")
              for p in range(count - 1, -1, -1)]
        tight = at if not first else [
            [*old, *map(first.__add__, new)] for old, new in zip(tight, at)]
    return bad, tight, masks


def _guard_lanes(mask: int, size: int, count: int) -> list[int]:
    """The lanes, of `size` bytes each, whose guard bit is set in `mask`,
    an int with no other bit set: the top byte of such a lane is 0x80 and
    every other byte is 0."""
    data = mask.to_bytes(size * count, "little")[size - 1::size]
    out = []
    at = data.find(0x80)
    while at >= 0:
        out.append(at)
        at = data.find(0x80, at + 1)
    return out


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
    basic column and a nonnegative rhs, so the ratio test compares
    rhs/a crosswise on integers; ties go to the smaller basis index.
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
        r = None
        for i, b in enumerate(basis):
            a = rows[i][col]
            if a <= 0:
                continue
            t = rows[i][-1]
            if r is None or t * a_r < t_r * a or (t * a_r == t_r * a and b < b_r):
                r, t_r, a_r, b_r = i, t, a, b
        if r is None:
            raise ValueError("LP is unbounded")
        _eliminate(rows, r, col)
        basis[r] = col


def lp_maximize(c: Row,
                a_ub: Sequence[Row], b_ub: Row,
                a_eq: Sequence[Row] = (), b_eq: Row = ()) -> Fraction | None:
    """Max of c.x subject to a_ub.x <= b_ub, a_eq.x == b_eq and x >= 0.

    Returns None when the system is infeasible and raises ValueError when
    the objective is unbounded.  Two-phase dense simplex with Bland's rule
    (guaranteed termination from any starting basis) on integer rows; every
    pivot is `_eliminate`.  The tableau columns are: objective scale, x,
    slacks, artificials, rhs.  A <= row with rhs >= 0 starts with its slack
    basic; only equality rows and negated (rhs < 0) rows get an artificial,
    and phase 1 runs only when there is one.
    """
    n, n_ub = len(c), len(a_ub)
    rhs = [*b_ub, *b_eq]
    art = 1 + n + n_ub
    art_rows = [i for i, b in enumerate(rhs) if i >= n_ub or b < 0]
    k = len(art_rows)
    slot = {i: art + j for j, i in enumerate(art_rows)}
    basis = [slot.get(i, 1 + n + i) for i in range(len(rhs))]
    rows: list[Sequence[int]] = []
    for i, (row, b) in enumerate(zip([*a_ub, *a_eq], rhs)):
        ints, _ = common_denominator(
            [0, *row, *(int(i == j) for j in range(n_ub)), b])
        if b < 0:
            ints = [-x for x in ints]
        rows.append(ints[:-1] + [int(basis[i] == art + j) for j in range(k)]
                    + ints[-1:])

    if k:
        # phase 1: maximize -sum(artificials); below zero means infeasible
        if _phase(rows, basis, [1] + [0] * (art - 1) + [1] * k + [0], art + k):
            return None
        for r in range(len(rhs)):  # drive zero-level artificials out where possible
            if basis[r] >= art:
                col = next((j for j in range(1, art) if rows[r][j] != 0), None)
                if col is not None:
                    if rows[r][col] < 0:
                        rows[r] = [-x for x in rows[r]]
                    _eliminate(rows, r, col)
                    basis[r] = col
    # phase 2: the artificials may no longer enter
    objective, _ = common_denominator([1, *(-x for x in c)])
    return _phase(rows, basis, objective + [0] * (n_ub + k + 1), art)
