"""Independent brute-force references used to validate the fast paths.

Nothing here reuses the closed-form metric or vertex formulas from the rest
of the package: distances come from windowed enumeration of deck images,
vertex sets from an exact double-description enumeration of the
homogenised halfspace system, and certification from an exact walk of the
edge graph.  These routines are deliberately dumb and exact; they are the
ground truth the unit and acceptance tests compare against.

Both vertex oracles read halfspaces and claimed points alike, as integer
numerators over one common denominator (`_over_one_denominator`), and
reach every cone through one routine, `_cone_rays`: one fraction-free
elimination of the transposed rows is the rank test and gives the
simplicial cone of a greedy basis, and double description (Fukuda &
Prodon, "Double description method revisited", 1996) inserts the other
rows.  The oracles never check the same cell (the CLI and the benchmark
send n <= 5 to `brute_vertices` and n >= 6 to `certify_vertices`), and
neither shares a formula with the closed-form vertex families.  The tests
also hold `brute_vertices` to a plain exhaustive basis enumeration at
n <= 3, and the edge count of `certify_vertices` to the vertex pairs whose
shared tight rows have rank n - 1.

`brute_vertices` inserts the homogenised rows densest first (a stable
sort by nonzero count): double description is very sensitive to the
insertion order, and dense rows cut the intermediate cones down soonest.
The vertices are sorted as integer numerators over the lcm of the rays'
t, which orders them as their coordinates do, and each distinct value
becomes one Fraction.

The edge walk runs on integers, in two passes, with no Python loop per
(point, row) pair.  The first checks every point in bulk with
`_exact._packed_scan`, the slack kernel that also gives the face lattice
its incidences; the vertex list it checks comes from
`CutPolytope.vertices()`, which does not use it.  The scan gives each
point's lowest violated row and its tight rows A, and each row's mask of
the points tight on it.  Each feasible point then gets the rank test and
the zero sets of its edge directions from `_cone_rays` without
coordinates, once per class of tight-row matrices that differ by a
positive scaling of rows and a nonzero scaling of columns (`_cone_keys`):
the generic n = 6 cell at P = (1/10, 1/5, 2/7, 1/3, 2/9, 1/3) has 40
classes among its 600 vertices.  The rows tight at v and flat along an
edge direction cut out the edge [v, e], and a point inside that edge has
rank n - 1, so the AND of those rows' masks over the verified points
(rank n) is {v, e}, or {v} when the edge ends at no listed vertex
(`_far_ends`, by a plan kept per class, `_and_plan`).  Each edge between
listed vertices gives such an AND at both its ends, so the edges are
counted, not stored.  In the second pass, only where an AND is {v} are
the edge directions computed (`_cone_rays` with coordinates) and the
ratio test run, with ratios slack / step compared crosswise, to name the
unlisted endpoint or the unbounded direction; a Fraction is built only
for a problem message.  A clean walk is complete without a connectivity
pass: see `certify_vertices`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import and_, eq, mul, ne
from typing import Callable, Iterable, Sequence

from ._exact import InvariantError, _gauss_jordan, _packed_scan, gcd_reduce

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

    The rows are read as claimed points are (`_over_one_denominator`), so
    an entry may be anything `Fraction` reads exactly, a float or a 'p/q'
    string too.  Rays and ratio-test endpoints do not depend on the scale
    of a row.
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
        flat.append((*normal, offset))
    nums = _over_one_denominator(flat)[0]
    return [row[:-1] for row in nums], [row[-1] for row in nums]


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
    found = _cone_rays(cone, n + 1)
    if found is None:
        return []
    rays = [ray for ray in found[0] if ray[-1] > 0]
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


def _cone_rays(active_rows: Sequence[tuple[int, ...]], n: int,
               coords: bool = True,
               ) -> tuple[list[tuple[int, ...]], list[int]] | None:
    """Extreme rays of the cone {d : row.d <= 0} and their zero sets, or
    None when the integer rows have rank below n.

    Bit i of a ray's zero set is set when active_rows[i] is 0 on the ray.
    One fraction-free Gauss-Jordan elimination of [A^T | I_n] picks the
    greedy basis B (a row joins when it raises the rank of the rows before
    it): its pivot columns below m = len(active_rows) number the rows of
    B, and the rows have rank n exactly when there are n of them.  Each
    reduced row is [A d | d] for an integer d, zero at every pivot column
    but its own, so d is ray k of the simplicial cone of B (tight on every
    basis row but B_k, negative on B_k) once made primitive, and negated
    when its pivot entry is positive.

    Double description then inserts the other rows in order, with the
    usual combinatorial adjacency test on zero sets.  The first insertion
    skips it, as every pair would pass: rays k and l of the start share
    the basis less B_k and B_l, n - 2 rows, and any other ray j lacks B_j
    of them.

    Returns each ray's coordinates d, primitive.  The loop takes a ray's
    value on a row as a dot product: carrying A d along would cost more
    where the rows far outnumber the coordinates, as in `brute_vertices`.
    With `coords` False the elimination is of A^T alone, and each ray is
    kept as its values A d on the rows, up to a positive factor: the loop
    reads a value off an entry, which is all the certifier's pass 1
    needs.  Every sign it reads is the same, so the zero sets are the
    same, in the same order.
    """
    m = len(active_rows)
    unit = range(n) if coords else ()
    reduced: list[Sequence[int]] = [
        [row[k] for row in active_rows] + [int(j == k) for j in unit]
        for k in range(n)]
    pivots = _gauss_jordan(reduced)
    if sum(c < m for c in pivots) < n:
        return None
    # the right block, or the values when there is none
    skip = m if coords else 0
    rays = [gcd_reduce([-x for x in row[skip:]] if row[c] > 0 else row[skip:])
            for row, c in zip(reduced, pivots)]
    basis = sum(1 << c for c in pivots)
    zerosets = [basis ^ (1 << c) for c in pivots]
    # every pair of rays of the simplicial start is adjacent
    check_adjacency = False
    for i in range(m):
        if basis >> i & 1:
            continue
        bit = 1 << i
        row = active_rows[i]
        vals = ([sum(map(mul, row, ray)) for ray in rays] if coords
                else [ray[i] for ray in rays])
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


def _cone_keys(rows: Sequence[tuple[int, ...]],
               ) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """A function from a point's tight rows (indices into `rows`, in row
    order) to a key shared by the class of its tight-row matrix A (see
    `certify_vertices`).

    A unit row has one nonzero entry and a multi row any other number.  s
    is the point's first tight multi row f, with 1 wherever an entry is 0,
    or all ones when the point has no tight multi row.  The key names, per
    tight row, A_i diag(1/s): a unit row by the column and the sign of its
    one entry over s_c, a multi row by its entries' ratios a / s_c.  Any
    nonzero s read off the point gives a sound key: two points with one
    key have A' = D A diag(s'/s) with D positive, which is the class the
    proof in `certify_vertices` needs.

    Each ratio, and each multi row's tuple of ratio numbers, is numbered
    once per call when a point first needs it, so the cost grows with the
    points' tight rows, not with the distinct entries of the system; the
    key is a tuple of small ints.  A point's row numbers depend on f alone,
    so each f keeps one table of them, filled as its points need them, and
    a point's key is one lookup per tight row.
    """
    width = len(rows[0]) if rows else 0
    multi = [sum(map(bool, row)) != 1 for row in rows]
    # the number of each ratio a / b; over[c, b] maps the entries a of
    # column c met so far to theirs, filled as points need them
    fractions: dict[Fraction, int] = {}
    over: dict[tuple[int, int], dict[int, int]] = {}
    # unit rows as (row, column, entry > 0)
    units = [(ri, row.index(next(filter(None, row))), max(row) > 0)
             for ri, row in enumerate(rows) if not multi[ri]]
    ids: dict[tuple[int, ...], int] = {}
    # per first tight multi row f (None: there is none): s, its ratio
    # tables and the number of each row, None for a multi row until a
    # point needs it; unit rows take numbers below 0
    tables: dict = {}

    def key(tight: Sequence[int]) -> tuple[int, ...]:
        f = next(filter(multi.__getitem__, tight), None)
        if f not in tables:
            s = [1] * width if f is None else [a or 1 for a in rows[f]]
            known: list[int | None] = [None] * len(rows)
            for ri, c, positive in units:
                known[ri] = -1 - 2 * c - (positive == (s[c] > 0))
            tables[f] = (s, [over.setdefault(cb, {}) for cb in enumerate(s)],
                         known)
        s, ratios, known = tables[f]
        out = tuple(map(known.__getitem__, tight))
        if None in out:
            for ri in tight:
                if known[ri] is None:
                    for numbers, b, a in zip(ratios, s, rows[ri]):
                        if a not in numbers:
                            numbers[a] = fractions.setdefault(Fraction(a, b),
                                                              len(fractions))
                    known[ri] = ids.setdefault(
                        tuple(map(dict.__getitem__, ratios, rows[ri])),
                        len(ids))
            out = tuple(map(known.__getitem__, tight))
        return out

    return key


def _point(scaled: tuple[tuple[int, ...], int]) -> tuple[Fraction, ...]:
    """A point's coordinates from its integer key, for a problem message."""
    nums, den = scaled
    return tuple(Fraction(v, den) for v in nums)


def _over_lcm(values: Sequence) -> tuple[list[int], int]:
    """Integer numerators of ints and Fractions over the lcm of their
    denominators, and that lcm, reading each distinct object once.

    A cell's vertex coordinates and halfspace entries repeat a few objects
    many times (an n = 6 claim has about 3 130 coordinates in 34-98
    objects), so the objects are told apart by `id`: hashing a Fraction
    costs more than converting it.  `values` keeps each object alive.
    """
    objects = dict(zip(map(id, values), values))
    q = math.lcm(*{x.denominator for x in objects.values()})
    num = {k: x.numerator * (q // x.denominator) for k, x in objects.items()}
    return list(map(num.__getitem__, map(id, values))), q


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
    nums, q = _over_lcm(list(itertools.chain(*reps)))
    ends = list(itertools.accumulate(map(len, reps)))
    return [tuple(nums[a:b]) for a, b in zip([0, *ends], ends)], q


#: points per `_far_ends` call: its prefix and suffix ANDs hold about
#: 2t + 2 masks per point, and a mask has one bit per scanned point
_AND_SLICE = 128


# for each edge direction of a class: where its rows' prefix AND stops and
# its suffix AND starts (counted from the end), and the (edge, position)
# pairs of its flat rows between the two
_AndPlan = tuple[list[int], list[int], list[tuple[int, int]]]


def _and_plan(zerosets: Sequence[int], t: int) -> _AndPlan:
    """How `_far_ends` ANDs, at the points of a class, the masks of the
    tight rows flat along each edge direction.

    Bit k of an edge's zero set is set when the edge is flat on tight row
    k.  The rows it leaves span [a, b), so its AND is the AND of masks
    [0, a), of masks [b, t) and of its flat rows inside (a, b).  Every
    edge shares the prefix and suffix ANDs; at a simple vertex each edge
    leaves one row and needs nothing more.
    """
    lo, hi, inner = [], [], []
    for j, zs in enumerate(zerosets):
        leaves = ~zs & ((1 << t) - 1)
        a = (leaves & -leaves).bit_length() - 1 if leaves else t
        b = leaves.bit_length() if leaves else t
        lo.append(a)
        hi.append(t - b)
        inner += [(j, k) for k in range(a + 1, b) if zs >> k & 1]
    return lo, hi, inner


def _far_ends(on_row: Sequence[int], tights: Sequence[Sequence[int]],
              plan: _AndPlan, verified: int) -> list[list[int]]:
    """For each edge direction of a class, and at each of its points
    (`tights`, their tight rows), the AND of `verified` (the mask of the
    verified points) and of the masks of the tight rows flat along it, by
    the class's `_and_plan`: the listed points on that edge, the point
    itself included.  At n = 1 no row is flat and the AND is `verified`.

    The points go through each step together: a column holds one tight
    row's mask per point, and each AND is one `map` over a column.
    """
    lo, hi, inner = plan
    cols = [list(map(on_row.__getitem__, col)) for col in zip(*tights)]
    prefix = [[verified] * len(tights)]
    for col in cols:
        prefix.append(list(map(and_, prefix[-1], col)))
    suffix = prefix[:1]
    for col in reversed(cols):
        suffix.append(list(map(and_, suffix[-1], col)))
    out = [list(map(and_, prefix[a], suffix[b])) for a, b in zip(lo, hi)]
    for j, k in inner:
        out[j] = list(map(and_, out[j], cols[k]))
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

    Points whose tight rows share a key of `_cone_keys` share one
    elimination.  The key is D A S^-1, with D positive and S = diag(s)
    nonzero diagonal, so two tight-row matrices A, A' with one key satisfy
    A' = D' A S' for D' positive and S' nonzero diagonal, and d -> S'^-1 d
    maps {d : A d <= 0} onto {d : A' d <= 0}.  Every subset of rows keeps
    its rank, so the rank test and the greedy basis agree.  Ray k of the
    simplicial start maps to a positive multiple of ray k, and a ray's
    value on row i is scaled by D'_ii > 0; each ray that double description
    combines from two parents is then the image of the one it combines for
    A, times a positive number.  So every sign the loop reads agrees, the
    rays are appended in the same order, and `_cone_rays` returns the same
    zero sets for both, with or without coordinates, which pass 2 pairs
    entry by entry with the rays.
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
    # per class of tight-row matrices in this call (see the docstring).
    # memo[key] is None when the class's rank is below n; else it is the
    # batch of every class with its tight-row count and zero sets: their
    # `_and_plan` and their verified points.  Masks are over the scanned
    # points, bit s for scanned[s]
    cone_key = _cone_keys(rows)
    memo: dict[tuple[int, ...], tuple[_AndPlan, list[int]] | None] = {}
    batches: dict[tuple[int, ...], tuple[_AndPlan, list[int]]] = {}
    vertex_mask = 0
    bad, tights, row_masks = _packed_scan(rows, offs,
                                          [scaled[vi][0] for vi in scanned], q)
    for s, (vi, fault, tight) in enumerate(zip(scanned, bad, tights)):
        if fault is not None:
            notes[vi] = f"vertex {_point(scaled[vi])} violates constraint {fault}"
            continue
        key = cone_key(tight)
        if key not in memo:
            cone = _cone_rays(list(map(rows.__getitem__, tight)), n,
                              coords=False)
            memo[key] = None if cone is None else batches.setdefault(
                (len(tight), *cone[1]), (_and_plan(cone[1], len(tight)), []))
        batch = memo[key]
        if batch is None:
            notes[vi] = f"vertex {_point(scaled[vi])} has active rank < {n}"
            continue
        batch[1].append(s)
        vertex_mask |= 1 << s
    problems += filter(None, notes)

    # pass 2, the edge walk: on_row[r] is the mask of the verified points
    # tight on row r, so no point of rank < n inside an edge is taken for
    # its end.  The AND of the masks of the rows tight at v and flat along
    # an edge direction holds v and the edge's other end alone (see the
    # module docstring).  An edge between two verified points is found
    # once from each end, so there are half as many edges as such ANDs;
    # the ratio test runs only where the AND holds v alone, in the order
    # of the points and their edges
    on_row = [mask & vertex_mask for mask in row_masks]
    ends_found = 0
    stuck: list[tuple[int, int]] = []
    for plan, batch in batches.values():
        # `_far_ends` holds about 2t + 2 masks per point: a slice at a time
        for at in range(0, len(batch), _AND_SLICE):
            members = batch[at:at + _AND_SLICE]
            alone = list(map((1).__lshift__, members))
            for j, ends in enumerate(_far_ends(
                    on_row, [tights[s] for s in members], plan, vertex_mask)):
                ends_found += sum(map(ne, ends, alone))
                if any(map(eq, ends, alone)):
                    stuck += [(s, j) for s, end, v in zip(members, ends, alone)
                              if end == v]
    rays: dict[int, list[tuple[int, ...]]] = {}
    for s, j in sorted(stuck):
        if s not in rays:
            act = list(map(rows.__getitem__, tights[s]))
            cone = _cone_rays(act, n)
            if cone is None:
                raise InvariantError(
                    f"verified vertex {_point(scaled[scanned[s]])} has tight "
                    f"rows {act} of rank < {n}")
            rays[s] = cone[0]
        problems.append(_edge_problem(rows, offs, scaled[scanned[s]], rays[s][j]))
    return CertificationReport(not problems, len(scaled), ends_found // 2,
                               problems)
