"""Independent brute-force references used to validate the fast paths.

Nothing here reuses the closed-form metric or vertex formulas from the rest
of the package: distances come from windowed enumeration of deck images,
vertex sets from an exact double-description enumeration of the
homogenised halfspace system, and certification from an exact walk of the
edge graph.  These routines are deliberately dumb and exact; they are the
ground truth the unit and acceptance tests compare against.

`brute_vertices` and `certify_vertices` share one routine, the cone
enumerator `_cone_rays`.  They never check the same cell (the CLI and the
benchmark send n <= 5 to the first and n >= 6 to the second), and neither
shares a formula with the closed-form vertex families.  The tests also hold
`brute_vertices` to a plain exhaustive basis enumeration at n <= 3.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from ._exact import gcd_reduce, integerize_row, invert_square, mat_rank

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


def _cone_rays(active_rows: list[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    """Extreme rays of the pointed cone {d : row.d <= 0} (rows rank n).

    Double description: start from a rank-n subset (a simplicial cone that
    contains the target) and insert the remaining rows one at a time, with
    the usual combinatorial adjacency test on zero sets.
    """
    basis: list[int] = []
    for i, row in enumerate(active_rows):
        if mat_rank([active_rows[j] for j in basis] + [row]) > len(basis):
            basis.append(i)
            if len(basis) == n:
                break
    rows = [active_rows[i] for i in basis]
    if len(basis) != n:
        raise AssertionError(f"cone is not pointed: basis rows {rows}")
    inv = invert_square(rows)
    if inv is None:
        raise AssertionError(f"basis rows {rows} are singular")
    rays: list[tuple[int, ...]] = []
    zerosets: list[int] = []
    for j in range(n):
        col = [-inv[i][j] for i in range(n)]
        den = math.lcm(*(f.denominator for f in col))
        ray = gcd_reduce([int(f * den) for f in col])
        rays.append(ray)
        zerosets.append(sum(1 << basis[i] for i in range(n) if i != j))

    def dot(row: Sequence[int], d: Sequence[int]) -> int:
        return sum(r * v for r, v in zip(row, d))

    for i, row in enumerate(active_rows):
        if i in basis:
            continue
        bit = 1 << i
        vals = [dot(row, r) for r in rays]
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
    index: dict[tuple[Fraction, ...], int] = {}
    points: list[tuple[Fraction, ...]] = []
    for p in claimed:
        t = tuple(Fraction(x) for x in p)
        if t in index:
            problems.append(f"duplicate vertex {t}")
            continue
        index[t] = len(points)
        points.append(t)
    if not points:
        return CertificationReport(False, 0, 0, ["no vertices supplied"])

    scaled: list[tuple[tuple[int, ...], int]] = []
    for t in points:
        den = math.lcm(*(f.denominator for f in t))
        scaled.append((tuple(int(f * den) for f in t), den))

    active_sets: list[list[int]] = []
    for vi, ((vnum, vden), t) in enumerate(zip(scaled, points)):
        act = []
        feasible = True
        for ri, (row, off) in enumerate(zip(rows, offs)):
            lhs = sum(r * v for r, v in zip(row, vnum))
            rhs = off * vden
            if lhs > rhs:
                problems.append(f"vertex {t} violates constraint {ri}")
                feasible = False
                break
            if lhs == rhs:
                act.append(ri)
        if feasible and mat_rank([rows[i] for i in act]) < n:
            problems.append(f"vertex {t} has active rank < {n}")
            feasible = False
        active_sets.append(act if feasible else [])

    parent = list(range(len(points)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    edges: set[tuple[int, int]] = set()
    for vi, act in enumerate(active_sets):
        if not act:
            continue
        vnum, vden = scaled[vi]
        for ray in _cone_rays([rows[i] for i in act], n):
            lam: Fraction | None = None
            for row, off in zip(rows, offs):
                step = sum(r * d for r, d in zip(row, ray))
                if step > 0:
                    gap = Fraction(off * vden - sum(r * v for r, v in zip(row, vnum)),
                                   vden * step)
                    if lam is None or gap < lam:
                        lam = gap
            if lam is None:
                problems.append(f"unbounded edge direction at vertex {points[vi]}")
                continue
            endpoint = tuple(Fraction(v, vden) + lam * d
                             for v, d in zip(vnum, ray))
            vj = index.get(endpoint)
            if vj is None:
                problems.append(
                    f"edge from {points[vi]} reaches unlisted vertex {endpoint}")
                continue
            edges.add((min(vi, vj), max(vi, vj)))
            parent[find(vi)] = find(vj)
    roots = {find(i) for i in range(len(points))}
    if len(roots) > 1 and not problems:
        problems.append("claimed vertex set splits into disconnected components")
    return CertificationReport(not problems, len(points), len(edges), problems)
