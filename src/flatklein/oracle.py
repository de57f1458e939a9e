"""Independent brute-force references used to validate the fast paths.

Nothing here reuses the closed-form metric or vertex formulas from the rest
of the package: distances come from windowed enumeration of deck images,
vertex sets from an exact double-description enumeration of the
homogenised halfspace system, and certification from an exact walk of the
edge graph.  These routines are deliberately dumb and exact; they are the
ground truth the unit and acceptance tests compare against.

`brute_vertices` and `certify_vertices` share one routine, the double
description loop `_double_description`, which grows a cone's extreme rays
from the simplicial cone of a greedy basis of its rows; one
`_exact._gauss_jordan` of the transposed rows finds that start
(`_simplicial_cone`, `_edge_zerosets`).  They never check the same cell
(the CLI and the benchmark send n <= 5 to the first and n >= 6 to the
second), and neither shares a formula with the closed-form vertex
families.  The tests also hold `brute_vertices` to a plain exhaustive
basis enumeration at n <= 3, and the edge count of `certify_vertices` to
the vertex pairs whose shared tight rows have rank n - 1.

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
point in bulk with `_exact._packed_scan`, the slack kernel that also gives
the face lattice its incidences; the vertex list it checks comes from
`CutPolytope.vertices()`, which does not use it.  The claimed points go
over one common denominator, the lcm of all their denominators, in one
pass over their coordinates (`_over_one_denominator`); the numerators over
it are also each point's key for duplicates.  Each coordinate column less
its minimum becomes one int with a lane of 8k bits per point, k the fewest
bytes that hold a bound on every |slack| and every column's range below
the lane's top (guard) bit, and each row's slacks at all points come from
at most n multiply-adds of those ints.  A lane's guard bit is clear when
the point violates the row, and a zero-lane test finds the points tight on
it; this gives each point's lowest violated row and its tight rows A.
Each feasible point then gets the zero sets of its edge directions from
one fraction-free elimination of the transposed rows A^T
(`_edge_zerosets`): it is the rank test, picks the greedy basis B of
`_simplicial_cone`, and gives each simplicial ray's value on every tight
row; double description runs on those values and yields the zero sets, in
`_cone_rays`' order.  Tight-row matrices that differ by a positive scaling
of rows and a nonzero scaling of columns have the same zero sets in the
same order, so each class of them is eliminated once per call, keyed by a
scaled form shared by the class (`_cone_key`): the generic n = 6 cell at
P = (1/10, 1/5, 2/7, 1/3, 2/9, 1/3) has 40 classes among its 600
vertices.  Each row then gets the bitmask of the verified points (rank n)
tight on it.  The rows tight at v and flat along an edge direction cut out
the edge [v, e], and a point inside that edge has rank n - 1, so the AND
of those rows' masks, less v, is {e}, or empty when the edge ends at no
listed vertex (`_far_ends`).  In the second pass, only where an AND is
empty are the edge directions computed (`_cone_rays`) and the ratio test
run, with ratios slack / step compared crosswise, to name the unlisted
endpoint or the unbounded direction; a Fraction is built only for a
problem message.
A clean walk is complete without a connectivity pass: see
`certify_vertices`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import floordiv, mul
from typing import Callable, Iterable, Sequence

from ._exact import (InvariantError, _gauss_jordan, _packed_scan,
                     common_denominator, gcd_reduce)

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


# ---------------------------------------------------------------------------
# Vertex enumeration by homogenised double description
# ---------------------------------------------------------------------------

def _integerized(halfspaces: Sequence[Halfspace]):
    """Integer (normals, offsets), every row over one common denominator;
    every normal must have the first's length.

    Rays and ratio-test endpoints do not depend on the scale of a row.
    """
    width = None
    flat = []
    for i, (normal, offset) in enumerate(halfspaces):
        if width is None:
            width = len(normal)
        elif len(normal) != width:
            raise ValueError(
                f"halfspace {i} has normal {normal} with {len(normal)} "
                f"coordinates, expected {width}")
        flat += [*normal, offset]
    nums = common_denominator(flat)[0]
    step = (width or 0) + 1
    rows = [tuple(nums[k:k + step - 1]) for k in range(0, len(nums), step)]
    return rows, nums[step - 1::step]


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

    A row joins the basis when it raises the rank of the rows before it.
    One fraction-free Gauss-Jordan elimination of [A^T | I_n] decides this:
    its pivot columns below m = len(rows) are the greedy basis B.  With n
    of them, row k of the reduced matrix is [E A^T | E] with E B^T
    diagonal, so its right block is column k of B^-1 times its pivot entry.
    Ray k (tight on every basis row but k) is that block, made primitive
    and negated when the pivot entry is positive.  Returns (basis, rays);
    rays is empty when the rows have rank below n.
    """
    m = len(rows)
    reduced: list[Sequence[int]] = [
        [row[k] for row in rows] + [int(j == k) for j in range(n)]
        for k in range(n)]
    basis = [c for c in _gauss_jordan(reduced) if c < m]
    if len(basis) < n:
        return basis, []
    rays = [gcd_reduce([-x for x in row[m:]] if row[c] > 0 else row[m:])
            for row, c in zip(reduced, basis)]
    return basis, rays


def _double_description(rays: list[tuple[int, ...]], zerosets: list[int],
                         inserts: Iterable[int], n: int,
                         values: Callable[[int, list[tuple[int, ...]]],
                                          list[int]],
                         ) -> tuple[list[tuple[int, ...]], list[int]]:
    """Insert rows into a pointed rank-n cone, one at a time.

    The start is simplicial: n rays, ray k's zero set the basis rows but
    k.  Double description with the usual combinatorial adjacency test on
    zero sets.  `values(i, rays)` gives row i's value on every current
    ray; a new ray is a positive combination of two old ones, so the loop
    works alike on ray coordinates (values are dot products) and on rays'
    values over a fixed row list (values are entries).  Returns the rays
    and their zero sets: bit i of a zero set is set when row i is 0 on the
    ray.

    The first insertion skips the adjacency test, which every pair would
    pass: rays k and l of the start share the basis less rows k and l,
    n - 2 rows, and any other ray j lacks row j of that set.
    """
    # every pair of rays of the simplicial start is adjacent
    check_adjacency = False
    for i in inserts:
        bit = 1 << i
        vals = values(i, rays)
        pos: list[int] = []
        neg: list[int] = []
        kept_rays: list[tuple[int, ...]] = []
        kept_zerosets: list[int] = []
        for j, v in enumerate(vals):
            if v > 0:
                pos.append(j)
                continue
            if v:
                neg.append(j)
                kept_zerosets.append(zerosets[j])
            else:
                kept_zerosets.append(zerosets[j] | bit)
            kept_rays.append(rays[j])
        for p in pos:
            zp, vp, rp = zerosets[p], vals[p], rays[p]
            for q in neg:
                meet = zp & zerosets[q]
                # adjacent rays of a pointed n-cone share n - 2 tight rows,
                # and no third ray is tight on all of them
                if check_adjacency:
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
                ray = [vp * b - vq * a for a, b in zip(rp, rays[q])]
                g = math.gcd(*ray)
                kept_rays.append(tuple([x // g for x in ray]) if g > 1
                                 else tuple(ray))
                kept_zerosets.append(meet | bit)
        rays, zerosets = kept_rays, kept_zerosets
        check_adjacency = True
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


# a row with one nonzero entry: its column, its sign row and that negated
_UnitRow = tuple[int, tuple[int, ...], tuple[int, ...]]


def _unit_rows(rows: Sequence[tuple[int, ...]]) -> list[_UnitRow | None]:
    """For each row with exactly one nonzero entry, its column and its
    sign row (the entry replaced by its sign) and that row negated; None
    for every other row."""
    out: list[_UnitRow | None] = []
    for row in rows:
        nonzero = [c for c, a in enumerate(row) if a]
        if len(nonzero) != 1:
            out.append(None)
            continue
        c = nonzero[0]
        sign = tuple([(a > 0) - (a < 0) for a in row])
        out.append((c, sign, tuple([-a for a in sign])))
    return out


def _cone_key(rows: Sequence[tuple[int, ...]],
              units: Sequence[_UnitRow | None],
              tight: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The tight rows A scaled to a form shared by their whole class (see
    `certify_vertices`), with `units` from `_unit_rows(rows)`.

    g_c is the gcd of column c over the rows with another nonzero entry,
    signed as the first nonzero one, or 1 when there is none.  Such a row
    becomes A_i / g, and a row with one nonzero entry the sign of
    A_ic / g_c: the key is A diag(1/g) with each row scaled by a positive
    number."""
    multi = [rows[ri] for ri in tight if units[ri] is None]
    scale = [1] * len(rows[0])
    for c, col in enumerate(zip(*multi)):
        g = math.gcd(*col)
        if g:
            scale[c] = g if next(filter(None, col)) > 0 else -g
    key = []
    for ri in tight:
        unit = units[ri]
        if unit is None:
            key.append(tuple(map(floordiv, rows[ri], scale)))
        else:
            key.append(unit[1] if scale[unit[0]] > 0 else unit[2])
    return tuple(key)


def _point(scaled: tuple[tuple[int, ...], int]) -> tuple[Fraction, ...]:
    """A point's coordinates from its integer key, for a problem message."""
    nums, den = scaled
    return tuple(Fraction(v, den) for v in nums)


def _over_one_denominator(claimed: Iterable) -> tuple[
        list[tuple[int, ...]], int]:
    """Claimed points as integer numerators over one common denominator,
    the lcm of all their denominators, and that denominator.

    A point that is a tuple of ints and Fractions is read as it is; any
    other point (strings, floats, an iterator of them) goes through
    `_coords`.  With one denominator, equal points have equal numerators.
    """
    exact = {int, Fraction}
    reps = [rep if type(rep) is tuple and exact.issuperset(map(type, rep))
            else _coords(rep)
            for rep in (getattr(p, "rep", p) for p in claimed)]
    dens = {x.denominator for rep in reps for x in rep}
    q = math.lcm(*dens)
    scale = {d: q // d for d in dens}
    return [tuple([x.numerator * scale[x.denominator] for x in rep])
            for rep in reps], q


def _far_ends(on_row: Sequence[int], tight: Sequence[int],
              flats: Iterable[Sequence[int]], others: int) -> list[int]:
    """For each edge direction at a point, the AND of `others` (the mask of
    the verified points but this one) and of the masks of the tight rows
    flat along it: the listed points on that edge.

    Each flat list gives those rows as positions in `tight`.  At n = 1 a
    flat list is empty and the AND is `others` alone."""
    masks = [on_row[ri] for ri in tight]
    out = []
    for flat in flats:
        ends = others
        for k in flat:
            ends &= masks[k]
        out.append(ends)
    return out


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
    a rank-n active set, so it is a vertex and the polyhedron is pointed;
    and every edge leaving a claimed vertex (extreme ray of its supporting
    cone, followed to the ratio-test boundary) lands on another claimed
    vertex, an unbounded edge being a problem too.  A clean report thus
    lists a nonempty set of vertices closed under the edge graph, and the
    graph of a pointed polyhedron is connected, so the set is the complete
    vertex set: no separate connectivity pass is needed.

    Points whose tight rows share a `_cone_key` share one elimination.
    The key is D A G^-1, with D positive and G = diag(g) nonzero diagonal,
    so two tight-row matrices A, A' with one key satisfy A' = D' A G' for
    D' positive and G' nonzero diagonal, and d -> G'^-1 d maps
    {d : A d <= 0} onto {d : A' d <= 0}.  Every subset of rows keeps its
    rank, so the rank test and the greedy basis agree.  Ray k of the
    simplicial start maps to a positive multiple of ray k, and a ray's
    value on row i is scaled by D'_ii > 0; each ray that double description
    combines from two parents is then the image of the one it combines for
    A, times a positive number.  So every sign the loop reads agrees, the
    rays are appended in the same order, and `_edge_zerosets` returns the
    same list for both, which pass 2 pairs entry by entry with
    `_cone_rays`' rays.
    """
    rows, offs = _integerized(halfspaces)
    n = len(rows[0]) if rows else 0
    problems: list[str] = []
    points, q = _over_one_denominator(claimed)
    scaled: list[tuple[tuple[int, ...], int]] = []
    seen: set[tuple[int, ...]] = set()
    for nums in points:
        if nums in seen:
            problems.append(f"duplicate vertex {_point((nums, q))}")
            continue
        seen.add(nums)
        scaled.append((nums, q))
    if not scaled:
        return CertificationReport(False, 0, 0, ["no vertices supplied"])

    # pass 1, point checks.  notes[vi] is point vi's problem, if any
    notes: list[str | None] = [None] * len(scaled)
    scanned: list[int] = []
    for vi, key in enumerate(scaled):
        vnum = key[0]
        if not rows:
            # all of R^n, which has no vertex: no row is tight anywhere
            notes[vi] = f"vertex {_point(key)} has active rank < {len(vnum)}"
        elif len(vnum) != n:
            notes[vi] = (f"vertex {_point(key)} has {len(vnum)} "
                         f"coordinates, expected {n}")
        else:
            scanned.append(vi)
    # the rank test and the edge directions' zero sets, from one elimination
    # per class of tight-row matrices in this call (see the docstring); the
    # memo keeps each zero set as the positions of its rows in `tight`.
    # on_row[r] is the mask of the verified points tight on row r, so no
    # point of rank < n inside an edge is taken for its end
    units = _unit_rows(rows)
    memo: dict[tuple[tuple[int, ...], ...], list[list[int]] | None] = {}
    on_row = [0] * len(rows)
    verified: list[tuple[int, list[int], list[list[int]]]] = []
    scan = _packed_scan(rows, offs, [scaled[vi] for vi in scanned])
    for vi, (bad, tight) in zip(scanned, scan):
        if bad is not None:
            notes[vi] = f"vertex {_point(scaled[vi])} violates constraint {bad}"
            continue
        key = _cone_key(rows, units, tight)
        if key in memo:
            flats = memo[key]
        else:
            zerosets = _edge_zerosets([rows[ri] for ri in tight], n)
            flats = memo[key] = None if zerosets is None else [
                [k for k in range(len(tight)) if zs >> k & 1]
                for zs in zerosets]
        if flats is None:
            notes[vi] = f"vertex {_point(scaled[vi])} has active rank < {n}"
            continue
        verified.append((vi, tight, flats))
        bit = 1 << vi
        for ri in tight:
            on_row[ri] |= bit
    problems += filter(None, notes)

    # pass 2, the edge walk: the AND of the masks of the rows tight at v
    # and flat along an edge direction, less v, holds the edge's other end
    # alone (see the module docstring); the ratio test runs only when the
    # AND is empty
    vertex_mask = sum(1 << vi for vi, _, _ in verified)
    edges: set[tuple[int, int]] = set()
    for vi, tight, flats in verified:
        rays = None
        for j, end in enumerate(_far_ends(on_row, tight, flats,
                                          vertex_mask ^ (1 << vi))):
            if not end:
                if rays is None:
                    rays = _cone_rays([rows[ri] for ri in tight], n)[0]
                problems.append(_edge_problem(rows, offs, scaled[vi], rays[j]))
                continue
            vj = end.bit_length() - 1
            edges.add((vi, vj) if vi < vj else (vj, vi))
    return CertificationReport(not problems, len(scaled), len(edges), problems)
