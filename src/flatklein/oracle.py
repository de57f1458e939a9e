"""Independent brute-force references used to validate the fast paths.

Nothing here reuses the closed-form metric or vertex formulas from the rest
of the package: distances come from windowed enumeration of deck images,
vertex sets from an exact double-description enumeration of the
homogenised halfspace system, and certification from an exact walk of the
edge graph.  These routines are deliberately dumb and exact; they are the
ground truth the unit and acceptance tests compare against.

`brute_vertices` and `certify_vertices` share one routine, the double
description loop `_double_description`, which grows a cone's extreme rays
from the simplicial cone of a greedy basis of its rows.  They never check
the same cell (the CLI and the benchmark send n <= 5 to the
first and n >= 6 to the second), and neither shares a formula with the
closed-form vertex families.  The tests also hold `brute_vertices` to a
plain exhaustive basis enumeration at n <= 3, and the edge count of
`certify_vertices` to the vertex pairs whose shared tight rows have rank
n - 1.

`brute_vertices` inserts the homogenised rows densest first (a stable
sort by nonzero count): double description is very sensitive to the
insertion order (Fukuda & Prodon, "Double description method revisited",
1996), and dense rows cut the intermediate cones down soonest.  The
simplicial start of the sorted cone is also its rank test (the cone has
rank n + 1 exactly when the normals have rank n).  The vertices are
sorted as integer numerators over the lcm of the rays' t, which orders
them as their coordinates do, and each distinct value becomes one
Fraction.

The edge walk runs on integers, in two passes.  The first checks every
point in bulk.  The claimed points go over one common denominator, and
each row's slacks over all of them are built a column at a time; the
rows are taken in sorted order, so that rows sharing a prefix (a cell's
slant rows differ in a few entries) share its partial sums.  Every
(point, row) slack has its sign tested exactly, which gives each point's
lowest violated row and its tight rows A.  One fraction-free elimination
of the transposed rows A^T (`_edge_zerosets`) is then the rank test,
picks the greedy basis B that `_simplicial_cone` would, and gives each
simplicial ray's value on every tight row; double description runs on
those values and yields the zero sets of the point's edge directions, in
`_cone_rays`' order.  The pass also records for every row the bitmask of
the verified points tight on it.  The rows tight at v and flat along an
edge direction cut out the edge [v, e], and a verified point inside that
edge would have rank n - 1.  So in the second pass the AND of those rows'
masks, less v, is {e}, or empty when the edge ends at no listed vertex.
Only then are the edge directions computed (`_cone_rays`) and the ratio
test run, with ratios slack / step compared crosswise, to name the
unlisted endpoint or the unbounded direction; a Fraction is built only
for a problem message.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, mul
from typing import Callable, Iterable, Sequence

from ._exact import (InvariantError, _eliminate, _gauss_jordan,
                     common_denominator, gcd_reduce, integerize_row)

Halfspace = tuple[Sequence[Fraction], Fraction]


def _coords(point) -> tuple[Fraction, ...]:
    rep = getattr(point, "rep", point)
    return tuple(Fraction(x) for x in rep)


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
    """Integer (normals, offsets); every normal must have the first's length."""
    rows, offs = [], []
    for i, (normal, offset) in enumerate(halfspaces):
        r, o = integerize_row(normal, offset)
        if rows and len(r) != len(rows[0]):
            raise ValueError(
                f"halfspace {i} has normal {normal} with {len(r)} "
                f"coordinates, expected {len(rows[0])}")
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
    if not rows:
        return []
    n = len(rows[0])
    cone = [row + (-off,) for row, off in zip(rows, offs)]
    cone.append((0,) * n + (-1,))
    # dense rows first: they cut the intermediate cones down soonest
    cone.sort(key=lambda row: sum(x != 0 for x in row), reverse=True)
    # the row -t <= 0 clears the offsets, so rank(cone) = rank(normals) + 1
    start = _simplicial_cone(cone, n + 1)
    if len(start[0]) <= n:
        return []
    rays = [ray for ray in _cone_rays(cone, n + 1, start)[0] if ray[-1] > 0]
    # over one denominator the integer numerators sort as the vertices do
    den = math.lcm(*(ray[-1] for ray in rays))
    keys = sorted(tuple(v * (den // ray[-1]) for v in ray[:-1]) for ray in rays)
    frac = {v: Fraction(v, den) for v in {v for key in keys for v in key}}
    return [tuple(map(frac.__getitem__, key)) for key in keys]


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


def _double_description(rays: list[tuple[int, ...]], zerosets: list[int],
                         inserts: Iterable[int], n: int,
                         values: Callable[[int, list[tuple[int, ...]]],
                                          list[int]],
                         ) -> tuple[list[tuple[int, ...]], list[int]]:
    """Insert rows into a pointed rank-n cone, one at a time.

    Double description with the usual combinatorial adjacency test on zero
    sets.  `values(i, rays)` gives row i's value on every current ray; a
    new ray is a positive combination of two old ones, so the loop works
    alike on ray coordinates (values are dot products) and on rays' values
    over a fixed row list (values are entries).  Returns the rays and
    their zero sets: bit i of a zero set is set when row i is 0 on the ray.
    """
    for i in inserts:
        bit = 1 << i
        vals = values(i, rays)
        keep = [j for j, v in enumerate(vals) if v <= 0]
        pos = [j for j, v in enumerate(vals) if v > 0]
        neg = [j for j, v in enumerate(vals) if v < 0]
        new_rays: list[tuple[int, ...]] = []
        new_zerosets: list[int] = []
        for p in pos:
            zp, vp, rp = zerosets[p], vals[p], rays[p]
            for q in neg:
                meet = zp & zerosets[q]
                # adjacent rays of a pointed n-cone share n - 2 tight rows,
                # and no third ray is tight on all of them
                if meet.bit_count() < n - 2:
                    continue
                holders = 0
                for z in zerosets:
                    if z & meet == meet:
                        holders += 1
                        if holders > 2:
                            break
                if holders > 2:
                    continue
                # both multipliers are positive, so the new ray is tight
                # exactly where both parents are, and on row i
                vq = vals[q]
                new_rays.append(gcd_reduce(
                    [vp * b - vq * a for a, b in zip(rp, rays[q])]))
                new_zerosets.append(meet | bit)
        rays = [rays[j] for j in keep] + new_rays
        zerosets = [zerosets[j] | (bit if vals[j] == 0 else 0)
                    for j in keep] + new_zerosets
    return rays, zerosets


def _cone_rays(active_rows: list[tuple[int, ...]], n: int,
               start: tuple[list[int], list[tuple[int, ...]]] | None = None,
               ) -> tuple[list[tuple[int, ...]], list[int]]:
    """Extreme rays of the pointed cone {d : row.d <= 0} (rows rank n).

    Double description: start from a rank-n subset (a simplicial cone that
    contains the target) and insert the remaining rows in order.  `start`
    is the `_simplicial_cone` of the rows when the caller has it already.
    Returns the rays and their zero sets: bit i of a ray's mask is set
    when active_rows[i].ray == 0.
    """
    basis, rays = start or _simplicial_cone(active_rows, n)
    if len(basis) != n:
        raise InvariantError(
            f"cone is not pointed: active rows {list(active_rows)} have rank "
            f"{len(basis)} < {n}; basis rows {[active_rows[i] for i in basis]}")
    zerosets = [sum(1 << basis[i] for i in range(n) if i != j)
                for j in range(n)]
    in_basis = set(basis)

    def dots(i: int, rays: list[tuple[int, ...]]) -> list[int]:
        row = active_rows[i]
        return [sum(map(mul, row, r)) for r in rays]

    return _double_description(
        rays, zerosets,
        [i for i in range(len(active_rows)) if i not in in_basis], n, dots)


def _edge_zerosets(active_rows: Sequence[tuple[int, ...]],
                   n: int) -> list[int] | None:
    """`_cone_rays(active_rows, n)[1]`, or None when the rows have rank < n.

    One fraction-free Gauss-Jordan elimination of the transposed rows A^T
    (n x m) does the work.  Its pivot columns are the greedy basis B of
    `_simplicial_cone`, and there are n of them exactly when A has rank n.
    Row k of the reduced matrix is E A^T for an invertible E, so its entry
    i is c_ik p_k, where A_i = sum_k c_ik B_k and p_k is its pivot entry.
    Simplicial ray k satisfies B_l.d = 0 for l != k and B_k.d < 0, so
    A_i.d is -c_ik times a positive number: minus the row, times the sign
    of p_k, is the ray's value on every tight row.  Double description
    then runs on these value vectors, reading entries instead of taking
    dot products, and gives the zero sets in `_cone_rays`' order.
    """
    reduced: list[Sequence[int]] = list(zip(*active_rows))
    pivots = _gauss_jordan(reduced)
    if len(pivots) < n:
        return None
    rays = [gcd_reduce([-x for x in row] if row[c] > 0 else row)
            for row, c in zip(reduced, pivots)]
    basis = sum(1 << c for c in pivots)
    zerosets = [basis ^ (1 << c) for c in pivots]
    others = [i for i in range(len(active_rows)) if not basis >> i & 1]
    return _double_description(
        rays, zerosets, others, n,
        lambda i, rays: [y[i] for y in rays])[1]


def _point(scaled: tuple[tuple[int, ...], int]) -> tuple[Fraction, ...]:
    """A point's coordinates from its integer key, for a problem message."""
    nums, den = scaled
    return tuple(Fraction(v, den) for v in nums)


def _scaled_point(p) -> tuple[tuple[int, ...], int]:
    """A claimed point as its integer numerators over the lcm of its
    denominators, which is its lowest-terms key.

    Ints and Fractions are read as they are; anything else `Fraction`
    accepts (strings, floats, an iterator of them) goes through `_coords`.
    """
    rep = getattr(p, "rep", p)
    if type(rep) is not tuple or not all(
            type(x) is Fraction or type(x) is int for x in rep):
        rep = _coords(rep)
    nums, den = common_denominator(rep)
    return tuple(nums), den


def _slack_scan(rows: Sequence[tuple[int, ...]], offs: Sequence[int],
                points: Sequence[tuple[tuple[int, ...], int]],
                ) -> list[tuple[int | None, list[int]]]:
    """Each point's lowest violated row (None if it is feasible) and its
    tight rows in index order.

    The points go over one common denominator Q, as columns X_c of
    numerators, and row r's slacks over all of them are off_r Q less the
    sum of row_r[c] X_c, built one column at a time.  The rows are taken
    in sorted order, so that a row reuses the partial sums of the longest
    prefix it shares with the row before it (a cell's slant rows differ
    only in a few entries).  The sign of every (point, row) slack is
    tested exactly.
    """
    if not points:
        return []
    q = math.lcm(*(den for _, den in points))
    cols = list(zip(*(tuple(v * (q // den) for v in nums)
                      for nums, den in points)))
    sums: list[list[int]] = [[0] * len(points)]
    prev: tuple[int, ...] = ()
    bad: list[int | None] = [None] * len(points)
    tight_on: list[list[int]] = [[]] * len(rows)
    for ri in sorted(range(len(rows)), key=rows.__getitem__):
        row = rows[ri]
        # sums[c] holds the partial sums over columns < c of this row
        shared = next((c for c, (x, y) in enumerate(zip(prev, row)) if x != y),
                      len(prev))
        del sums[shared + 1:]
        for c in range(shared, len(row)):
            entry = row[c]
            if entry:
                sums.append(list(map(add, sums[c],
                                     map(entry.__mul__, cols[c]))))
            else:
                sums.append(sums[c])
        prev = row
        dots, limit = sums[-1], offs[ri] * q
        tight_on[ri] = [p for p, dot in enumerate(dots) if dot == limit]
        if max(dots) > limit:
            for p, dot in enumerate(dots):
                if dot > limit and (bad[p] is None or ri < bad[p]):
                    bad[p] = ri
    tight: list[list[int]] = [[] for _ in points]
    for ri, on in enumerate(tight_on):
        for p in on:
            tight[p].append(ri)
    return list(zip(bad, tight))


def _edge_problem(rows: Sequence[tuple[int, ...]], offs: Sequence[int],
                  scaled: tuple[tuple[int, ...], int],
                  ray: tuple[int, ...]) -> str:
    """The problem with an edge from a claimed vertex that ends on no other.

    The ratio test, exact: the edge leaves along `ray` and stops at the
    least slack / step over the rows it climbs (step = row.ray > 0), the
    ratios compared crosswise; with no such row the edge is unbounded.
    """
    vnum, vden = scaled
    climb = [(off * vden - sum(map(mul, row, vnum)), step)
             for row, off in zip(rows, offs)
             if (step := sum(map(mul, row, ray))) > 0]
    if not climb:
        return f"unbounded edge direction at vertex {_point(scaled)}"
    gap, step = climb[0]
    for s, st in climb:
        if s * step < gap * st:
            gap, step = s, st
    # vnum / vden + gap / (vden * step) * ray
    endpoint = tuple(Fraction(v * step + gap * d, vden * step)
                     for v, d in zip(vnum, ray))
    return f"edge from {_point(scaled)} reaches unlisted vertex {endpoint}"


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
    scaled: list[tuple[tuple[int, ...], int]] = []
    seen: set[tuple[tuple[int, ...], int]] = set()
    for p in claimed:
        key = _scaled_point(p)
        if key in seen:
            problems.append(f"duplicate vertex {_point(key)}")
            continue
        seen.add(key)
        scaled.append(key)
    if not scaled:
        return CertificationReport(False, 0, 0, ["no vertices supplied"])

    # pass 1, point checks: the verified points, each with its tight rows
    # and the zero sets of its edge directions; on_row[r] is the mask of
    # the verified points tight on row r
    on_row = [0] * len(rows)
    verified: list[tuple[int, list[int], list[int]]] = []
    scan = iter(_slack_scan(rows, offs,
                            [key for key in scaled if len(key[0]) == n]))
    for vi, key in enumerate(scaled):
        vnum = key[0]
        if not rows:
            # all of R^n, which has no vertex: no row is tight anywhere
            problems.append(f"vertex {_point(key)} has active rank < {len(vnum)}")
            continue
        if len(vnum) != n:
            problems.append(f"vertex {_point(key)} has {len(vnum)} "
                            f"coordinates, expected {n}")
            continue
        bad, tight = next(scan)
        if bad is not None:
            problems.append(f"vertex {_point(key)} violates constraint {bad}")
            continue
        zerosets = _edge_zerosets([rows[ri] for ri in tight], n)
        if zerosets is None:
            problems.append(f"vertex {_point(key)} has active rank < {n}")
            continue
        verified.append((vi, tight, zerosets))
        for ri in tight:
            on_row[ri] |= 1 << vi

    parent = list(range(len(scaled)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # pass 2, the edge walk: the AND of the masks of the rows tight at v
    # and flat along an edge direction, less v, holds the edge's other end
    # alone (see the module docstring); the ratio test runs only when the
    # AND is empty
    edges: set[tuple[int, int]] = set()
    for vi, tight, zerosets in verified:
        rays = None
        for j, zs in enumerate(zerosets):
            ends = -1
            for b, ri in enumerate(tight):
                if zs >> b & 1:
                    ends &= on_row[ri]
            ends &= ~(1 << vi)
            if not ends:
                if rays is None:
                    rays = _cone_rays([rows[ri] for ri in tight], n)[0]
                problems.append(_edge_problem(rows, offs, scaled[vi], rays[j]))
                continue
            vj = ends.bit_length() - 1
            edges.add((min(vi, vj), max(vi, vj)))
            parent[find(vi)] = find(vj)
    roots = {find(i) for i in range(len(scaled))}
    if len(roots) > 1 and not problems:
        problems.append("claimed vertex set splits into disconnected components")
    return CertificationReport(not problems, len(scaled), len(edges), problems)
