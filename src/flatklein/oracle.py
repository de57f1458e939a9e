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

`brute_vertices` inserts the homogenised rows densest first (a stable
sort by nonzero count): double description is very sensitive to the
insertion order (Fukuda & Prodon, "Double description method revisited",
1996), and dense rows cut the intermediate cones down soonest.  The
simplicial start of the sorted cone is also its rank test (the cone has
rank n + 1 exactly when the normals have rank n).  The vertices are
sorted as integer numerators over the lcm of the rays' t, which orders
them as their coordinates do, and each distinct value becomes one
Fraction.

The edge walk runs on integers, in two passes.  Each claimed point is its
numerators over the lcm of its denominators, and its slacks
off*den - row.num give feasibility and the active set.  The first pass
checks every point and records for every row the bitmask of the verified
points tight on it.  A simple point (exactly n tight rows) gets a rank
test alone: its rows B are then invertible, so the cone at it is
simplicial and edge direction j is tight on every row but j.  At a
degenerate point (more tight rows) the basis elimination is the rank
test, and the cone enumeration gives each edge direction's zero set.  The
rows tight at v and flat along an edge direction cut out the edge
[v, e], and a verified point inside that edge would have rank n - 1.  So
in the second pass the AND of those rows' masks, less v, is {e}, or empty
when the edge ends at no listed vertex.  Only then are the edge
directions computed and the ratio test run, with ratios slack / step
compared crosswise, to name the unlisted endpoint or the unbounded
direction; a Fraction is built only for a problem message.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

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


def _cone_rays(active_rows: list[tuple[int, ...]], n: int,
               start: tuple[list[int], list[tuple[int, ...]]] | None = None,
               ) -> tuple[list[tuple[int, ...]], list[int]]:
    """Extreme rays of the pointed cone {d : row.d <= 0} (rows rank n).

    Double description: start from a rank-n subset (a simplicial cone that
    contains the target) and insert the remaining rows one at a time, with
    the usual combinatorial adjacency test on zero sets.  `start` is the
    `_simplicial_cone` of the rows when the caller has it already.  Returns
    the rays and their zero sets: bit i of a ray's mask is set when
    active_rows[i].ray == 0.
    """
    basis, rays = start or _simplicial_cone(active_rows, n)
    if len(basis) != n:
        raise InvariantError(
            f"cone is not pointed: active rows {list(active_rows)} have rank "
            f"{len(basis)} < {n}; basis rows {[active_rows[i] for i in basis]}")
    zerosets = [sum(1 << basis[i] for i in range(n) if i != j)
                for j in range(n)]
    in_basis = set(basis)

    for i, row in enumerate(active_rows):
        if i in in_basis:
            continue
        bit = 1 << i
        vals = [sum(map(mul, row, r)) for r in rays]
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
    # the verified points tight on row r.  At a simple point (n tight rows)
    # the rank test is all: ray j is tight on every row but j
    simple = [((1 << n) - 1) ^ (1 << j) for j in range(n)]
    on_row = [0] * len(rows)
    verified: list[tuple[int, list[int], list[int]]] = []
    for vi, key in enumerate(scaled):
        vnum, vden = key
        if not rows:
            # all of R^n, which has no vertex: no row is tight anywhere
            problems.append(f"vertex {_point(key)} has active rank < {len(vnum)}")
            continue
        if len(vnum) != n:
            problems.append(f"vertex {_point(key)} has {len(vnum)} "
                            f"coordinates, expected {n}")
            continue
        slacks = [off * vden - sum(map(mul, row, vnum))
                  for row, off in zip(rows, offs)]
        if slacks and min(slacks) < 0:
            bad = next(ri for ri, s in enumerate(slacks) if s < 0)
            problems.append(f"vertex {_point(key)} violates constraint {bad}")
            continue
        tight = [ri for ri, s in enumerate(slacks) if s == 0]
        act = [rows[ri] for ri in tight]
        if len(tight) == n:
            zerosets = simple if len(_gauss_jordan(act)) == n else None
        else:
            start = _simplicial_cone(act, n)
            zerosets = (_cone_rays(act, n, start)[1] if len(start[0]) == n
                        else None)
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
