"""Independent brute-force references used to validate the fast paths.

Nothing here reuses the closed-form metric or vertex formulas from the rest
of the package: distances come from windowed enumeration of deck images,
vertex sets from an exact double-description enumeration of the
homogenised halfspace system, and certification from an exact walk of the
edge graph.  These routines are deliberately dumb and exact; they are the
ground truth the unit and acceptance tests compare against.

`brute_vertices` and `certify_vertices` share one routine, the cone
enumerator `_cone_rays`, which starts from the simplicial cone of a greedy
basis found by one fraction-free elimination (`_simplicial_cone`).  They
never check the same cell (the CLI and the benchmark send n <= 5 to the
first and n >= 6 to the second), and neither shares a formula with the
closed-form vertex families.  The tests also hold `brute_vertices` to a
plain exhaustive basis enumeration at n <= 3, and the edge count of
`certify_vertices` to the vertex pairs whose shared tight rows have rank
n - 1.

The edge walk runs on integers.  Each claimed point is its numerators
over the lcm of its denominators, and its slacks off*den - row.num are
computed once: they give feasibility, the active set and the gaps of the
ratio test.  The same basis elimination is the active-rank check.  Ratios
gap / step are compared crosswise, and an edge's endpoint
(num*step + gap*ray) / (den*step), reduced by its gcd, is looked up
directly among the claimed points; a Fraction is built only for a problem
message.  The rows an edge direction climbs, with their steps row.ray,
are kept per direction for the length of one call: a cell's edges run
along far fewer directions than there are edges.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from ._exact import (_eliminate, common_denominator, gcd_reduce,
                     integerize_row, mat_rank)

Halfspace = tuple[Sequence[Fraction], Fraction]


def _coords(point) -> tuple[Fraction, ...]:
    rep = getattr(point, "rep", point)
    return tuple(Fraction(x) for x in rep)


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


# ---------------------------------------------------------------------------
# Windowed distance / geodesic enumeration
# ---------------------------------------------------------------------------

def _axis_minima(target: Fraction, base: Fraction, flip: bool, step: int,
                 offset: int, window: int) -> tuple[Fraction, list[Fraction]]:
    """Min of (s*base + k*step + offset - target)^2 over a shift window.

    Returns the minimum and every transformed coordinate value achieving it.
    Raises if the minimum only occurs on the window boundary, which means
    the window was too small for the given inputs.
    """
    s = -base if flip else base
    lo = -window * step + offset
    hi = window * step + offset
    # (s + k - target)^2 = (num + k*den)^2 / den^2: compare integer numerators
    diff = s - target
    num, den = diff.numerator, diff.denominator
    shifts = range(lo, hi + 1, step)
    squares = [(num + k * den) ** 2 for k in shifts]
    best = min(squares)
    ks = [k for k, sq in zip(shifts, squares) if sq == best]
    if ks[0] == lo or ks[-1] == hi:
        raise ValueError("enumeration window too small for these points")
    return Fraction(best, den * den), [s + k for k in ks]


def brute_minimal_images(y, z, window: int = 3):
    """All deck images of z at minimal distance from y, by enumeration.

    Returns (squared_distance, images) with images sorted.  Both orientation
    branches are scanned over a shift window of +-window per coordinate
    (+-2*window on the last, which moves in even or odd steps).
    """
    if window < 3:
        raise ValueError("window must be at least 3")
    a = _coords(y)
    b = _coords(z)
    if len(a) != len(b) or len(a) < 2:
        raise ValueError("points must share a dimension n >= 2")
    n = len(a)
    best: Fraction | None = None
    pools: list[list[list[Fraction]]] = []
    for parity in (0, 1):
        cost = Fraction(0)
        axes: list[list[Fraction]] = []
        for i in range(n):
            if i < n - 1:
                m, hits = _axis_minima(a[i], b[i], parity == 1, 1, 0, window)
            else:
                m, hits = _axis_minima(a[i], b[i], False, 2, parity, window)
            cost += m
            axes.append(hits)
        if best is None or cost < best:
            best, pools = cost, [axes]
        elif cost == best:
            pools.append(axes)
    images = {tuple(combo) for axes in pools
              for combo in itertools.product(*axes)}
    return best, sorted(images)


def brute_distance(y, z, window: int = 3) -> Fraction:
    """Squared quotient distance by windowed enumeration of deck images."""
    return brute_minimal_images(y, z, window)[0]


def brute_geodesic_count(y, z, window: int = 3) -> int:
    """Number of distinct minimizing deck images (= shortest geodesics)."""
    return len(brute_minimal_images(y, z, window)[1])


# ---------------------------------------------------------------------------
# Vertex enumeration by homogenised double description
# ---------------------------------------------------------------------------

def _integerized(halfspaces: Sequence[Halfspace]):
    rows, offs = [], []
    for normal, offset in halfspaces:
        r, o = integerize_row(normal, offset)
        rows.append(r)
        offs.append(o)
    return rows, offs


def brute_vertices(halfspaces: Sequence[Halfspace]) -> list[tuple[Fraction, ...]]:
    """All vertices of {x : normal.x <= offset}, returned sorted.

    The system is homogenised to the cone {(x, t) : normal.x - offset*t <= 0,
    -t <= 0}; its extreme rays with t > 0 are the vertices scaled by t, and
    those with t = 0 are the recession directions.  Normals of rank below n
    give no vertex (empty, too few rows, or a line in the polytope).  The
    polytope need not be bounded or even nonempty.
    """
    rows, offs = _integerized(halfspaces)
    n = len(rows[0]) if rows else 0
    if not rows or mat_rank(rows) < n:
        return []
    cone = [row + (-off,) for row, off in zip(rows, offs)]
    cone.append((0,) * n + (-1,))
    return sorted(tuple(Fraction(v, ray[-1]) for v in ray[:-1])
                  for ray in _cone_rays(cone, n + 1) if ray[-1] > 0)


# ---------------------------------------------------------------------------
# Vertex-set certification via exact edge walking
# ---------------------------------------------------------------------------

@dataclass
class CertificationReport:
    """Outcome of certifying a claimed vertex list against halfspaces."""

    ok: bool
    vertex_count: int
    edge_count: int
    problems: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def _simplicial_cone(rows: Sequence[Sequence[int]],
                     n: int) -> tuple[list[int], list[tuple[int, ...]]]:
    """Greedy rank-n basis of integer rows and the extreme rays of its cone.

    A row joins the basis when it raises the rank of the rows chosen so
    far.  One incremental fraction-free Gauss-Jordan elimination of
    [B | I] decides this: a row, with the unit vector of its basis
    position appended, joins when it is still nonzero on the left after
    reduction by the rows already in, and then clears its pivot column
    from them.  With n rows the left block is a scaled permutation, so
    the row with pivot c holds row c of B^-1 on the right, and ray j
    (tight on every basis row but j) is the primitive multiple of minus
    column j.  Returns (basis, rays); rays is empty when the rows have
    rank below n.
    """
    basis: list[int] = []
    pivots: list[int] = []
    reduced: list[Sequence[int]] = []
    for i, row in enumerate(rows):
        k = len(basis)
        if k == n:
            break
        reduced.append([*row, *(int(j == k) for j in range(n))])
        for r, col in enumerate(pivots):
            _eliminate(reduced, r, col)
        col = next((c for c in range(n) if reduced[k][c]), None)
        if col is None:
            reduced.pop()
            continue
        _eliminate(reduced, k, col)
        basis.append(i)
        pivots.append(col)
    if len(basis) < n:
        return basis, []
    by_col = [row for _, row in sorted(zip(pivots, reduced))]
    scale = math.lcm(*(row[c] for c, row in enumerate(by_col)))
    factors = [scale // row[c] for c, row in enumerate(by_col)]
    rays = [gcd_reduce([-row[n + j] * f for row, f in zip(by_col, factors)])
            for j in range(n)]
    return basis, rays


def _cone_rays(active_rows: list[tuple[int, ...]], n: int,
               start: tuple[list[int], list[tuple[int, ...]]] | None = None,
               ) -> list[tuple[int, ...]]:
    """Extreme rays of the pointed cone {d : row.d <= 0} (rows rank n).

    Double description: start from a rank-n subset (a simplicial cone that
    contains the target) and insert the remaining rows one at a time, with
    the usual combinatorial adjacency test on zero sets.  `start` is the
    `_simplicial_cone` of the rows when the caller has it already.
    """
    basis, rays = start or _simplicial_cone(active_rows, n)
    if len(basis) != n:
        raise AssertionError(
            f"cone is not pointed: basis rows {[active_rows[i] for i in basis]}")
    zerosets = [sum(1 << basis[i] for i in range(n) if i != j)
                for j in range(n)]
    in_basis = set(basis)

    for i, row in enumerate(active_rows):
        if i in in_basis:
            continue
        bit = 1 << i
        vals = [_dot(row, r) for r in rays]
        keep = [j for j, v in enumerate(vals) if v <= 0]
        pos = [j for j, v in enumerate(vals) if v > 0]
        neg = [j for j, v in enumerate(vals) if v < 0]
        new_rays: list[tuple[int, ...]] = []
        new_zerosets: list[int] = []
        for p in pos:
            for q in neg:
                meet = zerosets[p] & zerosets[q]
                # adjacent rays of a pointed n-cone share n - 2 tight rows
                if meet.bit_count() < n - 2:
                    continue
                adjacent = all(
                    (meet & zerosets[r]) != meet
                    for r in range(len(rays)) if r not in (p, q))
                if not adjacent:
                    continue
                combo = [vals[p] * rays[q][t] - vals[q] * rays[p][t]
                         for t in range(n)]
                new_rays.append(gcd_reduce(combo))
                # both multipliers are positive, so the new ray is tight
                # exactly where both parents are, and on row i
                new_zerosets.append(meet | bit)
        rays = [rays[j] for j in keep] + new_rays
        zerosets = [zerosets[j] | (bit if vals[j] == 0 else 0)
                    for j in keep] + new_zerosets
    return rays


def certify_vertices(halfspaces: Sequence[Halfspace],
                     claimed: Iterable[Sequence[Fraction]]) -> CertificationReport:
    """Certify that `claimed` is exactly the vertex set of the polytope.

    Checks, all in exact arithmetic: every claimed point is feasible and has
    a rank-n active set; every edge leaving a claimed vertex (extreme ray of
    its supporting cone, followed to the ratio-test boundary) lands on
    another claimed vertex; and the resulting edge graph is connected.
    Since the true edge graph of a bounded polytope is connected, a clean
    report implies the claimed set is the complete vertex set.
    """
    rows, offs = _integerized(halfspaces)
    n = len(rows[0]) if rows else 0
    problems: list[str] = []
    # each point as integer numerators over the lcm of its denominators,
    # which is its lowest-terms key; Fractions are kept for messages only
    index: dict[tuple[tuple[int, ...], int], int] = {}
    points: list[tuple[Fraction, ...]] = []
    scaled: list[tuple[tuple[int, ...], int]] = []
    for p in claimed:
        t = _coords(p)
        nums, den = common_denominator(t)
        key = (tuple(nums), den)
        if key in index:
            problems.append(f"duplicate vertex {t}")
            continue
        index[key] = len(points)
        points.append(t)
        scaled.append(key)
    if not points:
        return CertificationReport(False, 0, 0, ["no vertices supplied"])

    parent = list(range(len(points)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    edges: set[tuple[int, int]] = set()
    # the report lists every point problem before the edge problems
    walk_problems: list[str] = []
    # (row, row.ray) for the rows an edge direction climbs, per direction:
    # the cell's edges run along far fewer directions than they number
    climbs: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for vi, (t, (vnum, vden)) in enumerate(zip(points, scaled)):
        slacks = [off * vden - _dot(row, vnum) for row, off in zip(rows, offs)]
        bad = next((ri for ri, s in enumerate(slacks) if s < 0), None)
        if bad is not None:
            problems.append(f"vertex {t} violates constraint {bad}")
            continue
        act = [row for row, s in zip(rows, slacks) if s == 0]
        start = _simplicial_cone(act, n)
        if len(start[0]) < n:
            problems.append(f"vertex {t} has active rank < {n}")
            continue
        for ray in _cone_rays(act, n, start):
            climb = climbs.get(ray)
            if climb is None:
                climb = climbs[ray] = [
                    (ri, step) for ri, row in enumerate(rows)
                    if (step := _dot(row, ray)) > 0]
            if not climb:
                walk_problems.append(f"unbounded edge direction at vertex {t}")
                continue
            # the edge ends at the least slack / step, compared crosswise
            ri, step = climb[0]
            gap = slacks[ri]
            for ri, s in climb:
                if slacks[ri] * step < gap * s:
                    gap, step = slacks[ri], s
            # vnum / vden + gap / (vden * step) * ray, in lowest terms
            num = [v * step + gap * d for v, d in zip(vnum, ray)]
            den = vden * step
            g = math.gcd(den, *num)
            key = (tuple(x // g for x in num), den // g)
            vj = index.get(key)
            if vj is None:
                endpoint = tuple(Fraction(x, key[1]) for x in key[0])
                walk_problems.append(
                    f"edge from {t} reaches unlisted vertex {endpoint}")
                continue
            edges.add((min(vi, vj), max(vi, vj)))
            parent[find(vi)] = find(vj)
    problems += walk_problems
    roots = {find(i) for i in range(len(points))}
    if len(roots) > 1 and not problems:
        problems.append("claimed vertex set splits into disconnected components")
    return CertificationReport(not problems, len(points), len(edges), problems)
