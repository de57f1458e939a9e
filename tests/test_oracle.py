"""Brute-force reference implementations: enumeration, certification."""

import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import flatklein
from flatklein import KleinPoint, cut_polytope, project
from flatklein import oracle
from flatklein._exact import _packed_scan, common_denominator
from flatklein.oracle import (
    _cone_keys,
    _cone_rays,
    _integerized,
    brute_distance,
    brute_minimal_images,
    brute_vertices,
    certify_vertices,
)


def _cube(n):
    out = []
    for i in range(n):
        e = [F(0)] * n
        e[i] = F(1)
        out.append((tuple(e), F(1)))
        out.append((tuple(-c for c in e), F(0)))
    return out


def _cell_pairs(base):
    return [(nrm, off) for _, nrm, off in cut_polytope(base).halfspaces()]


# ---------------------------------------------------------------------------
# windowed distance enumeration
# ---------------------------------------------------------------------------

def test_minimal_images_basic():
    d2, images = brute_minimal_images((F(0), F(0)), (F(1, 2), F(0)))
    assert d2 == F(1, 4)
    assert images == [(F(-1, 2), F(0)), (F(1, 2), F(0))]


def test_distance_of_equivalent_points_is_zero():
    assert brute_distance((F(1, 4), F(0)), (F(3, 4), F(1))) == 0


def test_geodesic_counts():
    src = (F(1, 4), F(0))
    assert len(brute_minimal_images((F(1, 8), F(1, 3)), (F(1, 3), F(1, 5)))[1]) == 1
    assert len(brute_minimal_images(src, (F(1, 4), F(5, 8)))[1]) == 3
    # wall midpoint: the two wall lifts tie
    assert len(brute_minimal_images(src, (F(3, 4), F(0)))[1]) == 2


def test_window_validation():
    with pytest.raises(ValueError):
        brute_minimal_images((F(0), F(0)), (F(0), F(0)), window=2)
    with pytest.raises(ValueError):
        brute_minimal_images((F(0), F(0)), (F(0), F(0), F(0)))


def test_window_boundary_detected():
    # minimizer sits exactly on the edge of the shift window
    with pytest.raises(ValueError):
        brute_minimal_images((F(0), F(0)), (F(0), F(6)))
    assert brute_distance((F(0), F(0)), (F(0), F(6)), window=5) == 0


# ---------------------------------------------------------------------------
# exhaustive vertex enumeration
# ---------------------------------------------------------------------------

def test_cube_corners():
    for n in (2, 3, 4):
        got = brute_vertices(_cube(n))
        assert len(got) == 2 ** n
        assert all(set(v) <= {F(0), F(1)} for v in got)


def test_hexagon_vertices_from_oracle():
    got = brute_vertices(_cell_pairs((F(1, 4), F(0))))
    assert got == sorted([
        (F(1, 4), F(5, 8)), (F(1, 4), F(-5, 8)),
        (F(3, 4), F(3, 8)), (F(3, 4), F(-3, 8)),
        (F(-1, 4), F(3, 8)), (F(-1, 4), F(-3, 8)),
    ])


def test_degenerate_inputs():
    assert brute_vertices([]) == []
    # fewer halfspaces than dimensions: no basis can exist
    assert brute_vertices(_cube(3)[:2]) == []


def test_certify_refuses_every_point_without_halfspaces():
    # R^n with no halfspace has no vertex, whatever the points' dimension
    report = certify_vertices([], [(0, 0)])
    assert (report.ok, report.vertex_count, report.edge_count) == (False, 1, 0)
    assert report.problems == [
        "vertex (Fraction(0, 1), Fraction(0, 1)) has active rank < 2"]
    report = certify_vertices([], [(0, 0, 0), (1, F(1, 2))])
    assert not report.ok
    assert report.problems == [
        "vertex (Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)) has active "
        "rank < 3",
        "vertex (Fraction(1, 1), Fraction(1, 2)) has active rank < 2"]


def test_redundant_parallel_rows_keep_cube_corners():
    # C(60, 5) ~ 5.5e6 bases for a basis search; double description drops
    # each redundant row after one pass over the current rays
    hs = _cube(5)
    for k in range(2, 52):
        hs.append(((F(1), F(0), F(0), F(0), F(0)), F(k)))
    assert brute_vertices(hs) == sorted(itertools.product((F(0), F(1)), repeat=5))


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def _basis_vertices(halfspaces):
    """Reference for n <= 3: Cramer's rule on every n-subset of the rows."""
    rows = [(tuple(F(c) for c in nrm), F(off)) for nrm, off in halfspaces]
    n = len(rows[0][0])
    found = set()
    for sel in itertools.combinations(rows, n):
        det = _det([nrm for nrm, _ in sel])
        if det == 0:
            continue
        x = tuple(_det([nrm[:j] + (off,) + nrm[j + 1:] for nrm, off in sel]) / det
                  for j in range(n))
        if all(sum(c * v for c, v in zip(nrm, x)) <= off for nrm, off in rows):
            found.add(x)
    return sorted(found)


def _seeded_bases(rng, n, count):
    # horizontal coordinates hit the prism values 0 and 1/2 and the
    # reflected half (1/2, 1) as well as the fundamental chamber
    def coord():
        return rng.choice((F(0), F(1, 2), F(rng.randrange(1, 12), 12)))
    return [tuple(coord() for _ in range(n - 1)) + (F(rng.randrange(0, 7), 7),)
            for _ in range(count)]


def _generic_bases(rng, n, count):
    # no horizontal coordinate at 0 or 1/2: simple and degenerate vertices
    # come about evenly
    return [tuple(F(rng.choice((1, 2, 3, 4, 5, 7, 8, 9, 10, 11)), 12)
                  for _ in range(n - 1)) + (F(rng.randrange(0, 7), 7),)
            for _ in range(count)]


def test_vertices_match_basis_enumeration():
    rng = random.Random(7)
    systems = [_cube(2), _cube(3), _cell_pairs((F(1, 4), F(0)))]
    systems += [_cell_pairs(b) for n in (2, 3) for b in _seeded_bases(rng, n, 15)]
    # x <= 0 and x >= 1
    infeasible = [((F(1), F(0)), F(0)), ((F(-1), F(0)), F(-1)),
                  ((F(0), F(1)), F(1)), ((F(0), F(-1)), F(0))]
    # x, y, z >= 0 and x + y + z >= 1: unbounded, but pointed
    pointed = _cube(3)[1::2] + [((F(-1), F(-1), F(-1)), F(-1))]
    # the unit square in x, y with z free
    line = [((F(c[0]), F(c[1]), F(0)), off) for c, off in _cube(2)]
    # the lone point 0: only the row -t <= 0 keeps its cone pointed
    point = [(nrm, F(0)) for nrm, _ in _cube(2)]
    for hs in systems + [infeasible, pointed, line, point]:
        assert brute_vertices(hs) == _basis_vertices(hs), hs
    assert brute_vertices(infeasible) == brute_vertices(line) == []
    assert brute_vertices(point) == [(F(0), F(0))]
    assert brute_vertices(pointed) == sorted(
        tuple(F(int(i == j)) for j in range(3)) for i in range(3))


def test_import_leaves_numpy_unloaded():
    src = str(Path(flatklein.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import flatklein; "
         "print('numpy' in sys.modules)", src],
        capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def _edge_zerosets(act, n):
    """The certifier's pass 1 on a tight-row matrix: its edge directions'
    zero sets, or None when its rank is below n."""
    cone = _cone_rays(act, n, coords=False)
    return None if cone is None else cone[1]


# pass 2 of the certifier asks `_cone_rays` for coordinates at verified
# points alone, so None there is an internal fault.  The tests below make
# it answer None: the walk from (0, 0), tight on three rows of the wedge,
# reaches the unlisted (1, 0) and (0, 1), so pass 2 runs
_WEDGE = [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0), ((-1, -1), 0)]


def test_cone_ray_checks_survive_optimisation():
    # -O strips asserts, not raises
    src = str(Path(flatklein.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-O", "-c",
         "import sys; sys.path.insert(0, sys.argv[1])\n"
         "from flatklein import oracle\n"
         "real = oracle._cone_rays\n"
         "oracle._cone_rays = lambda act, n, coords=True: (\n"
         "    None if coords else real(act, n, coords))\n"
         f"try:\n    oracle.certify_vertices({_WEDGE}, [(0, 0)])\n"
         "except AssertionError as exc:\n    print(exc)", src],
        capture_output=True, text=True, check=True)
    assert "has tight rows [(-1, 0), (0, -1), (-1, -1)] of rank < 2" in out.stdout


def test_cone_not_pointed_names_every_active_row(monkeypatch):
    # the message names the point and all three of its tight rows
    real = oracle._cone_rays
    monkeypatch.setattr(oracle, "_cone_rays", lambda act, n, coords=True: (
        None if coords else real(act, n, coords)))
    with pytest.raises(flatklein.InvariantError) as info:
        certify_vertices(_WEDGE, [(0, 0)])
    assert str(info.value) == (
        "verified vertex (Fraction(0, 1), Fraction(0, 1)) has tight rows "
        "[(-1, 0), (0, -1), (-1, -1)] of rank < 2")


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def test_certify_accepts_true_vertex_set():
    pairs = _cell_pairs((F(1, 4), F(1, 4), F(0)))
    claimed = brute_vertices(pairs)
    report = certify_vertices(pairs, claimed)
    assert report
    assert report.ok
    assert report.vertex_count == 18
    assert report.edge_count > 0
    assert report.problems == []


def test_certify_flags_missing_vertex():
    pairs = _cell_pairs((F(1, 4), F(1, 4), F(0)))
    claimed = brute_vertices(pairs)
    report = certify_vertices(pairs, claimed[1:])
    assert not report.ok
    assert any("unlisted" in msg for msg in report.problems)


def test_certify_flags_duplicates_and_infeasible():
    pairs = _cell_pairs((F(1, 4), F(0)))
    claimed = brute_vertices(pairs)
    dup = certify_vertices(pairs, claimed + [claimed[0]])
    assert any("duplicate" in msg for msg in dup.problems)

    fake = certify_vertices(pairs, claimed + [(F(5), F(5))])
    assert not fake.ok
    assert any("violates" in msg for msg in fake.problems)

    empty = certify_vertices(pairs, [])
    assert not empty.ok


def test_certify_flags_non_vertex_point():
    pairs = _cell_pairs((F(1, 4), F(0)))
    claimed = brute_vertices(pairs)
    # interior point: feasible, but not enough tight constraints
    report = certify_vertices(pairs, claimed + [(F(1, 4), F(0))])
    assert not report.ok
    assert any("rank" in msg for msg in report.problems)


def test_certify_accepts_klein_point_inputs():
    # convenience: certification sees coordinates through .rep as well
    pairs = _cell_pairs((F(1, 4), F(0)))
    d2, images = brute_minimal_images(project((F(1, 4), F(0))),
                                      project((F(1, 4), F(5, 8))))
    assert d2 == F(25, 64)
    assert len(images) == 3
    # the box [0, 1/2]^2 has its vertices in [0, 1)^2
    box = [(nrm, off / 2) for nrm, off in _cube(2)]
    corners = [KleinPoint(v) for v in brute_vertices(box)]
    report = certify_vertices(box, corners)
    assert report.ok, report.problems
    assert (report.vertex_count, report.edge_count) == (4, 4)
    assert not certify_vertices(box, corners[1:]).ok


def test_certify_simple_point_needs_full_rank():
    # x <= 1 given twice: (1, 1/2) is tight on exactly n = 2 rows, of rank 1
    square = _cube(2) + _cube(2)[:1]
    corners = list(itertools.product((0, 1), repeat=2))
    report = certify_vertices(square, corners + [(1, F(1, 2))])
    assert (report.ok, report.vertex_count, report.edge_count) == (False, 5, 4)
    assert report.problems == [
        "vertex (Fraction(1, 1), Fraction(1, 2)) has active rank < 2"]
    # in one dimension too: 0 <= 0 is tight at 0 and at 1 alike, one tight
    # row of rank 0, so neither point is a vertex
    report = certify_vertices([((F(0),), F(0))], [(0,), (1,)])
    assert report.problems == ["vertex (Fraction(0, 1),) has active rank < 1",
                               "vertex (Fraction(1, 1),) has active rank < 1"]


def test_certify_interval_and_half_line():
    # in one dimension an edge direction's zero set is empty: its far end
    # is any other verified point
    interval = [((1,), 1), ((-1,), 0)]
    report = certify_vertices(interval, [(0,)])
    assert (report.ok, report.vertex_count, report.edge_count) == (False, 1, 0)
    assert report.problems == [
        "edge from (Fraction(0, 1),) reaches unlisted vertex (Fraction(1, 1),)"]
    report = certify_vertices(interval, [(0,), (1,)])
    assert (report.ok, report.vertex_count, report.edge_count) == (True, 2, 1)
    report = certify_vertices([((-1,), 0)], [(0,)])
    assert (report.ok, report.vertex_count, report.edge_count) == (False, 1, 0)
    assert report.problems == [
        "unbounded edge direction at vertex (Fraction(0, 1),)"]


def test_certify_refuses_points_on_a_line():
    # a column no row uses spans far more than any slack, yet the points
    # are reported, not dropped: 0 <= 0 at 0 and 300, and the unit square
    # in x, y with z free at two corners 1000 apart in z
    report = certify_vertices([((F(0),), F(0))], [(0,), (300,)])
    assert (report.ok, report.vertex_count, report.edge_count) == (False, 2, 0)
    assert report.problems == [
        "vertex (Fraction(0, 1),) has active rank < 1",
        "vertex (Fraction(300, 1),) has active rank < 1"]
    line = [((F(c[0]), F(c[1]), F(0)), off) for c, off in _cube(2)]
    report = certify_vertices(line, [(0, 0, 0), (0, 0, 1000), (2, 0, -5000)])
    assert (report.ok, report.vertex_count, report.edge_count) == (False, 3, 0)
    assert report.problems == [
        "vertex (Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)) has active "
        "rank < 3",
        "vertex (Fraction(0, 1), Fraction(0, 1), Fraction(1000, 1)) has "
        "active rank < 3",
        "vertex (Fraction(2, 1), Fraction(0, 1), Fraction(-5000, 1)) violates "
        "constraint 0"]


def test_certify_flags_points_of_the_wrong_dimension():
    square = _cube(2)
    report = certify_vertices(square, [(0, 0), (0, 0, 0)])
    assert not report.ok
    assert report.problems[0] == (
        "vertex (Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)) has 3 "
        "coordinates, expected 2")
    # (0,) is not read as (0, 0), and the problem keeps its place in pass 1
    corners = [(0, 0), (1, 0), (0,), (1, 1), (0, 1)]
    report = certify_vertices(square, corners)
    assert (report.ok, report.vertex_count, report.edge_count) == (False, 5, 4)
    assert report.problems == [
        "vertex (Fraction(0, 1),) has 1 coordinates, expected 2"]


def test_ragged_normals_are_refused():
    ragged = _cube(2) + [((F(1),), F(1))]
    for oracle in (brute_vertices,
                   lambda hs: certify_vertices(hs, [(0, 0), (1, 1)])):
        with pytest.raises(ValueError,
                           match=r"halfspace 4 has normal \(Fraction\(1, 1\),\) "
                                 r"with 1 coordinates, expected 2"):
            oracle(ragged)


def test_halfspaces_read_exactly_in_other_forms():
    # floats and strings in a halfspace are read as exactly as in a point
    box = [(nrm, off / 2) for nrm, off in _cube(2)]
    corners = brute_vertices(box)
    for form in (float, str):
        hs = [(tuple(map(form, nrm)), form(off)) for nrm, off in box]
        assert brute_vertices(hs) == corners, form
        report = certify_vertices(hs, corners)
        assert (report.ok, report.vertex_count, report.edge_count) == (
            True, 4, 4), form


def test_certify_finds_duplicates_in_other_forms():
    box = [(nrm, off / 2) for nrm, off in _cube(2)]
    corners = brute_vertices(box)  # (0, 0), (0, 1/2), (1/2, 0), (1/2, 1/2)
    for extra, text in (
            ([(0, 0), (F(0), F(0))], "(Fraction(0, 1), Fraction(0, 1))"),
            ([KleinPoint((F(1, 2), 0)), (F(1, 2), 0)],
             "(Fraction(1, 2), Fraction(0, 1))"),
            ([("0", "1/2"), (0.0, 0.5)], "(Fraction(0, 1), Fraction(1, 2))")):
        claim = [KleinPoint(v) for v in corners] + extra
        report = certify_vertices(box, claim)
        assert (report.ok, report.vertex_count, report.edge_count) == (
            False, 4, 4), extra
        assert report.problems == [f"duplicate vertex {text}"] * 2, extra


def _fraction_rank(rows):
    """Rank by plain Gaussian elimination over Fractions."""
    rows = [[F(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _adjacent_pairs(halfspaces, verts):
    """Vertex pairs whose shared tight rows have rank n - 1 (the edges)."""
    n = len(verts[0])
    tight = [{i for i, (nrm, off) in enumerate(halfspaces)
              if sum(a * x for a, x in zip(nrm, v)) == off} for v in verts]
    return [(a, b) for a, b in itertools.combinations(range(len(verts)), 2)
            if _fraction_rank([halfspaces[i][0] for i in tight[a] & tight[b]])
            == n - 1]


def test_edge_walk_matches_adjacent_vertex_pairs():
    rng = random.Random(41)
    for n in (2, 3, 4):
        for base in _seeded_bases(rng, n, 15):
            pairs = _cell_pairs(base)
            verts = brute_vertices(pairs)
            adjacent = _adjacent_pairs(pairs, verts)
            report = certify_vertices(pairs, verts)
            assert report.ok, (base, report.problems)
            assert report.edge_count == len(adjacent), base
    # drop one vertex of the last n = 4 cell: every neighbour walks into it
    k = len(verts) // 2
    degree = sum(k in pair for pair in adjacent)
    report = certify_vertices(pairs, verts[:k] + verts[k + 1:])
    unlisted = [msg for msg in report.problems if "unlisted" in msg]
    assert not report.ok
    assert len(unlisted) == degree > 0
    assert all(msg.endswith(f"unlisted vertex {verts[k]}") for msg in unlisted)
    assert report.edge_count == len(adjacent) - degree


def test_cone_rays_are_primitive_with_exact_zerosets():
    rng = random.Random(505)
    squares = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        rows = [tuple(rng.randint(-6, 6) for _ in range(n))
                for _ in range(rng.randint(1, n + 3))]
        if rng.random() < 0.3:  # a zero row
            rows.insert(rng.randrange(len(rows) + 1), (0,) * n)
        if len(rows) > 1 and rng.random() < 0.3:  # a dependent row
            a, b = rng.sample(rows, 2)
            rows.insert(rng.randrange(len(rows) + 1),
                        tuple(2 * x - 3 * y for x, y in zip(a, b)))
        got = _cone_rays(rows, n)
        bare = _cone_rays(rows, n, coords=False)
        if _fraction_rank(rows) < n:
            assert got is None and bare is None, rows
            continue
        squares += 1
        rays, zerosets = got
        assert bare[1] == zerosets, rows
        for ray, zs in zip(rays, zerosets, strict=True):
            assert math.gcd(*ray) == 1, rows
            dots = [sum(a * d for a, d in zip(row, ray)) for row in rows]
            assert max(dots) <= 0, rows
            assert zs == sum(1 << i for i, v in enumerate(dots) if v == 0), rows
    assert squares >= 100


def _tight_sets(cell):
    """Every vertex's tight rows of the cell's integer rows, in row order."""
    rows = cell.integer_rows()
    out = []
    for v in cell.vertices():
        nums, den = common_denominator(v.coords)
        out.append([nrm for _, nrm, off in rows
                    if sum(a * x for a, x in zip(nrm, nums)) == off * den])
    return out


def _check_zerosets(act, n):
    got = _edge_zerosets(act, n)
    if _fraction_rank(act) < n:
        assert got is None and _cone_rays(act, n) is None, act
    else:
        assert got == _cone_rays(act, n)[1], act


def test_edge_zerosets_match_cone_rays_on_cell_tight_sets():
    # prism coordinates (0, 1/2) and a last coordinate of 0 are drawn too
    rng = random.Random(1601)
    sizes = set()
    for n, count in ((3, 12), (4, 8), (5, 3), (6, 1)):
        bases = _seeded_bases(rng, n, count)
        generic = tuple(F(k, 12) for k in (1, 5, 7, 2, 11)[:n - 1])
        bases.append(generic + (F(0),))
        for base in bases:
            for act in _tight_sets(cut_polytope(base)):
                sizes.add(len(act) - n)
                _check_zerosets(act, n)
                # one row fewer: rank n or below, both must come out right
                k = rng.randrange(len(act))
                _check_zerosets(act[:k] + act[k + 1:], n)
    assert 0 in sizes and max(sizes) >= 4, sizes


_HAND_MADE_CONES = [
    [(1, 0), (1, 0), (0, 1)],                 # a duplicate row
    [(1, 0), (2, 0), (0, 1), (0, 3)],         # positively parallel rows
    [(0, 0), (1, 0), (0, 0), (0, 1)],         # zero rows
    [(1, 0), (0, 0)],                         # rank 1 < 2
    [(1, 0), (-1, 0), (0, 1), (0, -1)],       # the cone {0}: no ray
    [(1, 1, 0), (1, -1, 0), (-1, 1, 0), (-1, -1, 0), (0, 0, 0)],
    [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (-2, 0, 0), (1, 1, 1), (0, 0, 0)],
]


def test_edge_zerosets_on_hand_made_cones():
    for act in _HAND_MADE_CONES:
        _check_zerosets(act, len(act[0]))
    assert _edge_zerosets([(1, 0), (0, 0)], 2) is None
    assert _edge_zerosets([(1, 0), (-1, 0), (0, 1), (0, -1)], 2) == []
    rng = random.Random(1602)
    for _ in range(300):
        n = rng.randint(1, 5)
        act = [tuple(rng.randint(-4, 4) for _ in range(n))
               for _ in range(rng.randint(1, n + 4))]
        for _ in range(rng.randint(0, 2)):
            row = rng.choice(act)
            k = rng.choice((0, 1, 2, 3))  # a zero, duplicate or parallel row
            act.insert(rng.randrange(len(act) + 1), tuple(k * x for x in row))
        _check_zerosets(act, n)


def _dependency(act):
    """The one linear dependency of n + 1 rows of rank n, over Fractions."""
    m = len(act)
    cols = [[F(row[c]) for row in act] for c in range(len(act[0]))]
    pivots = []
    for j in range(m):
        r = len(pivots)
        piv = next((i for i in range(r, len(cols)) if cols[i][j]), None)
        if piv is None:
            continue
        cols[r], cols[piv] = cols[piv], cols[r]
        cols[r] = [x / cols[r][j] for x in cols[r]]
        for i in range(len(cols)):
            if i != r and cols[i][j]:
                f = cols[i][j]
                cols[i] = [x - f * y for x, y in zip(cols[i], cols[r])]
        pivots.append(j)
    free = next(j for j in range(m) if j not in pivots)
    lam = [F(0)] * m
    lam[free] = F(1)
    for r, j in enumerate(pivots):
        lam[j] = -cols[r][free]
    return lam


def test_corank_one_zerosets_from_the_dependency():
    # n + 1 tight rows of rank n with dependency lam: the edges are tight on
    # every row but i where lam_i = 0, and on every row but i, j where
    # lam_i > 0 > lam_j; no double description in this reference
    rng = random.Random(1603)
    points = 0
    for n, count in ((4, 3), (5, 2), (6, 1)):
        for base in _generic_bases(rng, n, count):
            for act in _tight_sets(cut_polytope(base)):
                if len(act) != n + 1 or _fraction_rank(act) < n:
                    continue
                lam = _dependency(act)
                assert any(lam) and not any(
                    sum(l * row[c] for l, row in zip(lam, act))
                    for c in range(n)), act
                full = (1 << (n + 1)) - 1
                want = [full ^ (1 << i) for i in range(n + 1) if lam[i] == 0]
                want += [full ^ (1 << i) ^ (1 << j)
                         for i, j in itertools.combinations(range(n + 1), 2)
                         if lam[i] * lam[j] < 0]
                assert sorted(_edge_zerosets(act, n)) == sorted(want), act
                points += 1
    assert points >= 100, points


def _bareiss_det(m):
    """Determinant of a square integer matrix by Bareiss elimination, in
    which every division is exact."""
    m = [list(row) for row in m]
    sign, prev = 1, 1
    for k in range(len(m)):
        piv = next((i for i in range(k, len(m)) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv], sign = m[piv], m[k], -sign
        p = m[k]
        for i in range(k + 1, len(m)):
            f = m[i][k]
            m[i] = [0] * (k + 1) + [(x * p[k] - f * y) // prev for x, y in
                                    zip(m[i][k + 1:], p[k + 1:])]
        prev = p[k]
    return sign * prev


def _zerosets_from_lines(act, n):
    """The edge zero sets of {d : act d <= 0}, rank n, with no double
    description: every n - 1 rows of rank n - 1 fix a line, and a direction
    on it at which every row is <= 0 is an extreme ray."""
    found = set()
    for sub in itertools.combinations(act, n - 1):
        # the line is spanned by the signed maximal minors of these rows,
        # which all vanish exactly when their rank is below n - 1
        d = [(-1) ** c * _bareiss_det([row[:c] + row[c + 1:] for row in sub])
             for c in range(n)]
        if not any(d):
            continue
        for sign in (1, -1):
            vals = [sign * sum(a * x for a, x in zip(row, d)) for row in act]
            if all(v <= 0 for v in vals):
                found.add(sum(1 << i for i, v in enumerate(vals) if v == 0))
    return sorted(found)


def test_edge_zerosets_match_lines_of_n_minus_one_rows():
    # m >= n + 2 tight rows as well, which only double description covered
    def check(act, n):
        got = _edge_zerosets(act, n)
        if _fraction_rank(act) < n:
            assert got is None, act
        else:
            assert len(set(got)) == len(got), act
            assert sorted(got) == _zerosets_from_lines(act, n), act
        return len(act) - n

    rng = random.Random(2403)
    extra = set()
    for n, count in ((3, 6), (4, 3), (5, 1)):
        for base in _seeded_bases(rng, n, count) + _generic_bases(rng, n, count):
            for act in _tight_sets(cut_polytope(base)):
                extra.add(check(act, n))
    assert max(extra) >= 4, extra
    tens = [act for base in _generic_bases(rng, 6, 1)
            for act in _tight_sets(cut_polytope(base)) if len(act) == 10]
    assert len(tens) >= 4
    for act in tens[:4]:
        check(act, 6)
    for act in _HAND_MADE_CONES:
        check(act, len(act[0]))
    for _ in range(200):
        n = rng.randint(2, 4)
        act = [tuple(rng.randint(-3, 3) for _ in range(n))
               for _ in range(rng.randint(1, n + 4))]
        check(act, n)


def _keys(*acts):
    """The certifier's class key of each tight-row matrix, all from one
    `_cone_keys` call, as the ids in its keys are numbered per call."""
    rows = list(dict.fromkeys(row for act in acts for row in act))
    index = {row: i for i, row in enumerate(rows)}
    key = _cone_keys(rows)
    return [key([index[row] for row in act]) for act in acts]


def test_cone_key_classes_share_zerosets_in_order():
    # certify_vertices eliminates the first tight set of each key and hands
    # its zero sets, in order, to every other tight set with that key
    rng = random.Random(2501)
    points = {"generic": 0, "prism": 0}
    classes = 0
    for n in range(3, 8):
        generic = _generic_bases(rng, n, 1)[0]
        prism = (rng.choice((F(0), F(1, 2))),) + generic[1:]
        for kind, base in (("generic", generic), ("prism", prism)):
            groups = {}
            acts = [act for act in _tight_sets(cut_polytope(base))
                    if len(act) > n]
            for key, act in zip(_keys(*acts), acts):
                groups.setdefault(key, []).append(act)
            for first, *rest in groups.values():
                want = _edge_zerosets(first, n)
                assert want, first
                for act in rest:
                    assert _edge_zerosets(act, n) == want, (first, act)
            points[kind] += sum(map(len, groups.values()))
            classes += len(groups)
    assert min(points.values()) > 100, points
    assert 4 * classes < sum(points.values()), (classes, points)
    # random systems whose first multi row (two or more nonzero entries) is
    # 0 in a column that a later multi row uses: each comes with copies of
    # one class, A' = D A S with D positive on the unit rows and 1 on the
    # others and S nonzero where the first multi row is, 1 elsewhere; and
    # with a decoy, a copy with one row negated or one entry in that column
    # moved, whose cone may differ
    acts = []
    for _ in range(150):
        n = rng.randint(3, 5)
        zero = rng.randrange(n)
        first = [rng.choice((-2, -1, 1, 3)) for _ in range(n)]
        first[zero] = 0
        later = [rng.randint(-2, 2) for _ in range(n)]
        later[zero] = rng.choice((-1, 1, 2))
        later[zero - 1] = rng.choice((-2, 1))
        act = [tuple(first)]
        for row in [later] + [[rng.randint(-2, 2) for _ in range(n)]
                              for _ in range(rng.randint(n - 1, n + 2))]:
            if rng.random() < 0.4:  # a unit row
                row = [0] * n
                row[rng.randrange(n)] = rng.choice((-1, 2))
            act.insert(rng.randint(1, len(act)), tuple(row))
        acts.append(act)
        for _ in range(3):
            cols = [rng.choice((-3, -1, 1, 2)) if a else 1 for a in first]
            copy = []
            for row in act:
                d = rng.randint(1, 3) if sum(map(bool, row)) == 1 else 1
                copy.append(tuple(d * a * c for a, c in zip(row, cols)))
            acts.append(copy)
        decoy = [list(row) for row in act]
        k = rng.randrange(1, len(act))
        if rng.random() < 0.5:
            decoy[k] = [-a for a in decoy[k]]
        else:
            decoy[k][zero] += rng.choice((-1, 1))
        acts.append([tuple(row) for row in decoy])
    groups = {}
    for n in (3, 4, 5):
        sized = [act for act in acts if len(act[0]) == n]
        for key, act in zip(_keys(*sized), sized):
            groups.setdefault((n, key), []).append(act)
    shared = 0
    for first, *rest in groups.values():
        want = _edge_zerosets(first, len(first[0]))
        for act in rest:
            assert _edge_zerosets(act, len(act[0])) == want, (first, act)
        shared += bool(rest and want)
    assert shared >= 100, shared


def test_cone_key_of_scaled_and_of_different_cones():
    # columns: the first negated, the second times 3; rows: the ones with
    # two or more nonzero entries times 2, the coordinate bounds times 5
    act = [(-1, 1, -2), (1, -1, -2), (-1, 0, 0), (0, 0, -1), (2, 1, -3),
           (0, -1, 0)]
    scaled = [(2, 6, -4), (-2, -6, -4), (5, 0, 0), (0, 0, -5), (-4, 6, -6),
              (0, -15, 0)]
    assert len(set(_keys(act, scaled))) == 1
    assert _edge_zerosets(act, 3) == _edge_zerosets(scaled, 3)
    assert len(_edge_zerosets(act, 3)) == 4
    # the same sign pattern: y >= 2x, y >= 3x, y <= -x has edges on rows 0
    # and 2, and y >= 2x, 2y >= 3x, y <= -x on rows 1 and 2
    act = [(2, -1), (3, -1), (1, 1)]
    other = [(2, -1), (3, -2), (1, 1)]
    assert sorted(_edge_zerosets(act, 2)) == [0b001, 0b100]
    assert sorted(_edge_zerosets(other, 2)) == [0b010, 0b100]
    assert len(set(_keys(act, other))) == 2


def test_cone_keys_on_many_distinct_entries(monkeypatch):
    # the polygon above the tangents 2k x - y <= k^2 of y = x^2 at
    # k = -N..N and below y <= N^2: column 0 holds 2N + 1 distinct entries.
    # Its vertices are (k + 1/2, k^2 + k) for k = -N..N-1 and (+-N, N^2)
    N = 300
    pairs = [((F(2 * k), F(-1)), F(k * k)) for k in range(-N, N + 1)]
    pairs.append(((F(0), F(1)), F(N * N)))
    verts = [(F(2 * k + 1, 2), F(k * k + k)) for k in range(-N, N)]
    verts += [(F(-N), F(N * N)), (F(N), F(N * N))]
    report = certify_vertices(pairs, verts)
    assert (report.ok, report.vertex_count, report.edge_count) == (
        True, 2 * N + 2, 2 * N + 2)
    gone = (F(1, 2), F(0))
    report = certify_vertices(pairs, [v for v in verts if v != gone])
    assert report.vertex_count == 2 * N + 1
    assert len(report.problems) == 2
    assert all(msg.endswith(f"unlisted vertex {gone}")
               for msg in report.problems)
    # a ratio is made only when a point needs it: at most one per entry of
    # each point's tight rows, not one per pair of entries of a column
    made = []

    def counted(*args):
        made.append(args)
        return F(*args)

    rows, offs = _integerized(pairs)
    points, q = _one_denominator(verts)
    bad, tights, _ = _packed_scan(rows, offs, points, q)
    assert bad == [None] * len(verts)
    monkeypatch.setattr(oracle, "Fraction", counted)
    key = _cone_keys(rows)
    assert not made
    keys = [key(tight) for tight in tights]
    assert 0 < len(made) <= 2 * sum(map(len, tights))
    assert len(set(keys)) > N


def test_certify_large_chamber_with_dominant_coordinate():
    # n=7 chamber where one (a_k - 1/4)^2 exceeds half the total: the cell
    # carries middle and truncating vertices for two nested subsets at once.
    base = (F(9, 20), F(7, 20), F(1, 4), F(1, 4), F(1, 4), F(1, 4), F(1, 3))
    cell = cut_polytope(base)
    pairs = [(nrm, off) for _, nrm, off in cell.halfspaces()]
    report = certify_vertices(pairs, [v.coords for v in cell.vertices()])
    assert report.ok, report.problems
    assert report.vertex_count == 1800


def test_brute_vertices_ignores_row_order_and_repeats():
    # the rows are sorted dense first inside; the output is sorted anyway
    rng = random.Random(83)
    for n in (2, 3, 4):
        for base in _seeded_bases(rng, n, 8):
            pairs = _cell_pairs(base)
            want = brute_vertices(pairs)
            shuffled = pairs + rng.sample(pairs, len(pairs) // 3)
            rng.shuffle(shuffled)
            assert brute_vertices(shuffled) == want, base


class _Walks:
    """The plain Fraction walk from each point, over one list of
    halfspaces: a test that checks several claims of the same points
    computes each point's slacks, active rank and edge ends once."""

    def __init__(self, halfspaces):
        self.rows = [(tuple(F(c) for c in nrm), F(off))
                     for nrm, off in halfspaces]
        self.n = len(self.rows[0][0])
        self.slacks, self.outcomes, self.steps = {}, {}, {}

    def slack(self, t):
        if t not in self.slacks:
            self.slacks[t] = [off - sum(a * x for a, x in zip(nrm, t))
                              for nrm, off in self.rows]
        return self.slacks[t]

    def outcome(self, t):
        """The lowest violated row, "rank" when the active rank is below
        n, or the end of each edge (None when it is unbounded)."""
        if t not in self.outcomes:
            self.outcomes[t] = self._walk(t)
        return self.outcomes[t]

    def _walk(self, t):
        rows, n, slack = self.rows, self.n, self.slack(t)
        bad = next((i for i, s in enumerate(slack) if s < 0), None)
        if bad is not None:
            return bad
        act = [tuple(common_denominator([*nrm, off])[0][:-1])
               for (nrm, off), s in zip(rows, slack) if s == 0]
        if _fraction_rank(act) < n:
            return "rank"
        ends = []
        for ray in _cone_rays(act, n)[0]:
            if ray not in self.steps:
                self.steps[ray] = [sum(a * d for a, d in zip(nrm, ray))
                                   for nrm, _ in rows]
            ratios = [s / step for s, step in zip(slack, self.steps[ray])
                      if step > 0]
            if not ratios:
                ends.append(None)
                continue
            least = min(ratios)
            ends.append(tuple(x + least * d for x, d in zip(t, ray)))
        return ends


def _ratio_walk_report(halfspaces, claimed, walks=None):
    """certify_vertices' report from a plain Fraction ratio test per edge.

    Every edge from a verified point is followed to the least slack / step
    over the rows it climbs, and the endpoint is looked up among the
    claimed points.  The edge directions are the oracle's own cone rays.
    `walks`, a `_Walks` over the same halfspaces, shares the walk from
    each point between calls.
    """
    walks = walks or _Walks(halfspaces)
    n = walks.n
    problems, points, index = [], [], {}
    for p in claimed:
        t = tuple(F(x) for x in p)
        if t in index:
            problems.append(f"duplicate vertex {t}")
            continue
        index[t] = len(points)
        points.append(t)
    walk, edges = [], set()
    for vi, t in enumerate(points):
        outcome = walks.outcome(t)
        if outcome == "rank":
            problems.append(f"vertex {t} has active rank < {n}")
            continue
        if isinstance(outcome, int):
            problems.append(f"vertex {t} violates constraint {outcome}")
            continue
        for end in outcome:
            if end is None:
                walk.append(f"unbounded edge direction at vertex {t}")
                continue
            if end not in index:
                walk.append(f"edge from {t} reaches unlisted vertex {end}")
                continue
            edges.add(tuple(sorted((vi, index[end]))))
    problems += walk
    adjacent = {}
    for a, b in edges:
        adjacent.setdefault(a, []).append(b)
        adjacent.setdefault(b, []).append(a)
    reach, todo = {0}, [0]
    while todo:
        for j in adjacent.get(todo.pop(), ()):
            if j not in reach:
                reach.add(j)
                todo.append(j)
    if len(reach) < len(points) and not problems:
        problems.append("claimed vertex set splits into disconnected components")
    return not problems, len(points), len(edges), problems


def _same_report(pairs, claim, walks=None):
    report = certify_vertices(pairs, claim)
    got = (report.ok, report.vertex_count, report.edge_count, report.problems)
    assert got == _ratio_walk_report(pairs, claim, walks), claim
    return report.problems


def _tight_counts(halfspaces, verts, walks=None):
    walks = walks or _Walks(halfspaces)
    return [walks.slack(tuple(F(x) for x in v)).count(0) for v in verts]


def test_mask_endpoints_match_fraction_ratio_walk():
    rng = random.Random(977)
    simple = degenerate = 0
    for n, count in ((3, 6), (4, 4), (5, 2)):
        for base in _seeded_bases(rng, n, count):
            pairs = _cell_pairs(base)
            verts = brute_vertices(pairs)
            walks = _Walks(pairs)
            tight = _tight_counts(pairs, verts, walks)
            simple += tight.count(n)
            degenerate += sum(t > n for t in tight)
            k = rng.randrange(len(verts))
            j = next(j for j in range(len(verts))
                     if _adjacent_pairs(pairs, [verts[k], verts[j]]))
            mid = tuple((x + y) / 2 for x, y in zip(verts[k], verts[j]))
            shifted = tuple(x + F(1, 97) for x in verts[k])
            assert _same_report(pairs, verts, walks) == []
            missing = _same_report(pairs, verts[:k] + verts[k + 1:], walks)
            assert any("unlisted" in msg for msg in missing)
            assert f"vertex {mid} has active rank < {n}" in _same_report(
                pairs, verts + [mid], walks)
            assert f"duplicate vertex {verts[k]}" in _same_report(
                pairs, verts + [verts[k]], walks)
            moved = _same_report(pairs, verts[:k] + [shifted] + verts[k + 1:],
                                 walks)
            assert any(f"unlisted vertex {verts[k]}" in msg for msg in moved)
    # simple points (n tight rows) and degenerate ones (more) are both held
    # here
    assert simple and degenerate, (simple, degenerate)
    # x, y, z >= 0 and x + y + z >= 1: every vertex has an unbounded edge
    pointed = _cube(3)[1::2] + [((F(-1), F(-1), F(-1)), F(-1))]
    problems = _same_report(pointed, brute_vertices(pointed))
    assert problems and all(msg.startswith("unbounded") for msg in problems)


def test_mask_endpoints_match_fraction_ratio_walk_generic_n6(monkeypatch):
    # the certifier's own range; a generic cell mixes simple and degenerate
    # vertices about evenly
    rng = random.Random(985)
    base = tuple(rng.choice([F(k, 12) for k in range(1, 12) if k != 6])
                 for _ in range(5)) + (F(rng.randrange(0, 7), 7),)
    cell = cut_polytope(base)
    pairs = _cell_pairs(base)
    verts = [v.coords for v in cell.vertices()]
    # the plain walk from each point is shared by the claims below
    walks = _Walks(pairs)
    tight = _tight_counts(pairs, verts, walks)
    assert tight.count(6) > 100 and max(tight) > 6, base
    calls = []
    real = oracle._cone_rays

    def counted(act, n, coords=True):
        if not coords:
            calls.append(act)
        return real(act, n, coords)

    monkeypatch.setattr(oracle, "_cone_rays", counted)
    assert _same_report(pairs, verts, walks) == []
    # every vertex, simple (n tight rows) or not, is eliminated once per
    # key of its tight rows, and the keys are far fewer than the vertices
    rows, offs = _integerized(pairs)
    acts = []
    for v in verts:
        nums, den = common_denominator(v)
        acts.append([row for row, off in zip(rows, offs)
                     if sum(a * x for a, x in zip(row, nums)) == off * den])
    keys = _keys(*acts, *calls)
    called = keys[len(acts):]
    assert len(set(called)) == len(called)
    assert set(called) == set(keys[:len(acts)])
    assert 10 * len(calls) < len(verts), (len(calls), len(verts))
    k = rng.randrange(len(verts))
    missing = _same_report(pairs, verts[:k] + verts[k + 1:], walks)
    assert missing and all(msg.endswith(f"unlisted vertex {verts[k]}")
                           for msg in missing)
    # a point of rank < n inside the edge from a simple vertex to a listed
    # neighbour, listed last, would be that edge's far end if the masks
    # held every feasible point; a second neighbour is left unlisted
    s = tight.index(6)
    gone, kept = itertools.islice(
        (j for j in range(len(verts))
         if j != s and _adjacent_pairs(pairs, [verts[s], verts[j]])), 2)
    mid = tuple((x + y) / 2 for x, y in zip(verts[s], verts[kept]))
    problems = _same_report(pairs, [v for i, v in enumerate(verts)
                                    if i != gone] + [mid], walks)
    assert f"vertex {mid} has active rank < 6" in problems
    assert any(msg.endswith(f"unlisted vertex {verts[gone]}")
               for msg in problems)


def test_random_small_systems_match_fraction_ratio_walk():
    # systems that are no cell: integer rows in [-2, 2], often unbounded,
    # with parallel, repeated and zero rows, at n = 1..4
    rng = random.Random(2701)
    systems = 0
    seen = {"clean": 0}
    while systems < 300:
        n = rng.randint(1, 4)
        pairs = [(tuple(F(rng.randint(-2, 2)) for _ in range(n)),
                  F(rng.randint(-2, 2)))
                 for _ in range(rng.randint(n, n + 4))]
        verts = brute_vertices(pairs)
        if not verts:
            continue
        systems += 1
        off_grid = tuple(F(rng.randint(-200, 200), 97) for _ in range(n))
        for claim in (verts, verts[1:], verts + [off_grid],
                      verts[::-1] + verts[-1:]):
            if not claim:
                continue
            problems = _same_report(pairs, claim)
            seen["clean"] += not problems
            for word in ("duplicate", "violates", "rank", "unlisted",
                         "unbounded"):
                seen[word] = seen.get(word, 0) + any(
                    word in msg for msg in problems)
    assert min(seen.values()) >= 30, seen


def _fresh(values):
    """The same numbers as new Fraction objects, none shared."""
    return tuple(F(x.numerator, x.denominator) for x in values)


def test_reports_do_not_depend_on_coordinate_objects():
    # vertices() hands out one Fraction object per coordinate value, and
    # the certifier converts each distinct object once: claims and
    # halfspaces rebuilt from fresh objects must give the same reports
    rng = random.Random(2801)
    generic = _generic_bases(rng, 6, 1)[0]
    prism = (F(1, 2),) + _generic_bases(rng, 7, 1)[0][1:]
    for base in (generic, prism):
        cell = cut_polytope(base)
        shared = [v.coords for v in cell.vertices()]
        assert len({id(x) for v in shared for x in v}) < len(shared), base
        pairs = _cell_pairs(base)
        fresh_pairs = [(_fresh(nrm), _fresh((off,))[0]) for nrm, off in pairs]
        k, j = rng.sample(range(len(shared)), 2)
        mutated = shared[:k] + shared[k + 1:] + [shared[j]]
        for claim, ok in ((shared, True), (mutated, False)):
            fresh = [_fresh(v) for v in claim]
            reports = [certify_vertices(hs, c) for hs in (pairs, fresh_pairs)
                       for c in (claim, fresh)]
            got = {(r.ok, r.vertex_count, r.edge_count, tuple(r.problems))
                   for r in reports}
            assert len(got) == 1, (base, got)
            report = reports[0]
            assert report.ok == ok, (base, report.problems[:2])
            if not ok:
                text = "\n".join(report.problems)
                assert "duplicate vertex" in text and "unlisted" in text


def _violated(halfspaces, point):
    return [i for i, (nrm, off) in enumerate(halfspaces)
            if sum(a * x for a, x in zip(nrm, point)) > off]


def test_bulk_pass_edge_cases_match_ratio_walk():
    rng = random.Random(1604)
    for base in _generic_bases(rng, 3, 2) + _generic_bases(rng, 4, 1):
        pairs = _cell_pairs(base)
        verts = brute_vertices(pairs)
        n = len(base)
        # outside several rows at once: the lowest of them is named
        far = tuple(x + 2 for x in verts[-1])
        bad = _violated(pairs, far)
        assert len(bad) >= 2, base
        problems = _same_report(pairs, verts + [far])
        assert problems == [f"vertex {far} violates constraint {bad[0]}"]
        # the most degenerate vertex alone: all its edges reach unlisted
        # vertices, in the order of its edge directions
        tight = _tight_counts(pairs, verts)
        lone = verts[tight.index(max(tight))]
        assert len(_same_report(pairs, [lone])) > n, base
        # ints and Fractions of several denominators in one claim
        mixed = [tuple(int(x) if x.denominator == 1 and i % 2 else x
                       for x in v) for i, v in enumerate(verts)]
        odd = [tuple(x + F(1, 97) for x in verts[0]), (0,) * n,
               tuple(F(k, 5) if k % 2 else k // 4 for k in range(n))]
        _same_report(pairs, mixed[:3] + odd + mixed[3:])
        # a point of the wrong length among good ones keeps its place in
        # pass 1, between the points before and after it
        mid = tuple((x + y) / 2 for x, y in zip(verts[0], verts[-1]))
        claim = verts[:2] + [far] + verts[2:5] + verts[5:] + [mid]
        want = list(_ratio_walk_report(pairs, claim))
        report = certify_vertices(pairs, verts[:2] + [far] + verts[2:5]
                                  + [verts[0][:-1]] + verts[5:] + [mid])
        want[0], want[1] = False, want[1] + 1
        want[3] = want[3][:1] + [
            f"vertex {verts[0][:-1]} has {n - 1} coordinates, expected {n}"
        ] + want[3][1:]
        assert (report.ok, report.vertex_count, report.edge_count,
                report.problems) == tuple(want), base
    # ints and Fractions on a cube and a box of half-integer corners
    cube = list(itertools.product((0, F(1)), (F(0), 1), (0, 1)))
    _same_report(_cube(3), cube)
    box = [(nrm, off / 2) for nrm, off in _cube(2)]
    _same_report(box, [(0, 0), (F(1, 2), 0), (0, F(2, 4)), (F(1, 2), F(1, 2)),
                       (F(1, 3), 0), (F(1, 4), F(1, 6))])


def test_bulk_pass_mid_edge_point_n6():
    # a point in the middle of an edge has rank n - 1 = 5, and a point far
    # outside violates many rows at once; one prism coordinate keeps the
    # cell at 324 vertices, a fifth of them degenerate
    rng = random.Random(1605)
    base = (F(1, 2), F(5, 12), F(1, 12), F(7, 12), F(1, 3), F(2, 7))
    cell = cut_polytope(base)
    pairs = _cell_pairs(base)
    verts = [v.coords for v in cell.vertices()]
    k = rng.randrange(len(verts))
    j = next(j for j in range(len(verts))
             if _adjacent_pairs(pairs, [verts[k], verts[j]]))
    mid = tuple((x + y) / 2 for x, y in zip(verts[k], verts[j]))
    far = tuple(x - 3 for x in verts[j])
    assert len(_violated(pairs, far)) >= 2
    problems = _same_report(pairs, verts[:k] + [mid] + verts[k:] + [far])
    assert problems == [f"vertex {mid} has active rank < 6",
                        f"vertex {far} violates constraint "
                        f"{_violated(pairs, far)[0]}"]



def _plain_scan(rows, offs, points, q):
    """`_packed_scan` from one exact slack per (point, row)."""
    bad, tight = [], []
    for nums in points:
        slack = [off * q - sum(a * x for a, x in zip(row, nums))
                 for row, off in zip(rows, offs)]
        bad.append(next((r for r, s in enumerate(slack) if s < 0), None))
        tight.append([r for r, s in enumerate(slack) if s == 0])
    masks = [sum(1 << p for p, on in enumerate(tight) if r in on)
             for r in range(len(rows))]
    return bad, tight, masks


def _scan(rows, offs, points, q):
    """`_packed_scan`, each point's tight rows as a list."""
    bad, tight, masks = _packed_scan(rows, offs, points, q)
    return bad, [list(on) for on in tight], masks


def _one_denominator(points):
    """Points of ints and Fractions as integer numerators over the lcm of
    all their denominators, and that lcm."""
    points = list(points)
    q = math.lcm(*(F(x).denominator for p in points for x in p))
    return [tuple(int(x * q) for x in p) for p in points], q


def test_packed_scan_matches_plain_slacks():
    # lane p - 1 sits just below lane p: each vertex comes right after a
    # point that violates one of its tight rows and again right after one
    # strictly inside that row, so a carry out of either lane would show.
    # Bit p of row r's mask must be set exactly where the slack is zero
    rng = random.Random(2301)
    big = 2 ** 61 - 1
    below = 0
    for n in range(2, 8):
        for base in _seeded_bases(rng, n, 3 if n < 6 else 1):
            # shifting the cell by c keeps every tight set and makes
            # coordinates negative, over denominators up to 2^61 - 1
            c = [F(-rng.randrange(1, 5), rng.choice((1, 3, big)))
                 for _ in range(n)]
            pairs = [(nrm, off + sum(a * x for a, x in zip(nrm, c)))
                     for nrm, off in _cell_pairs(base)]
            rows, offs = _integerized(pairs)
            verts = [tuple(x + y for x, y in zip(v.coords, c))
                     for v in cut_polytope(base).vertices()]
            claim = []
            for v in rng.sample(verts, min(len(verts), 30)):
                r = rng.choice(_plain_scan(rows, offs, *_one_denominator([v]))[1][0])
                t = F(1, rng.choice((7, big)))
                claim += [tuple(x + t * a for x, a in zip(v, rows[r])), v,
                          tuple(x - t * a for x, a in zip(v, rows[r])), v]
            points, q = _one_denominator(claim)
            want = _plain_scan(rows, offs, points, q)
            assert _scan(rows, offs, points, q) == want, base
            below += sum(bad is not None for bad in want[0][::4])
            assert (_scan(rows, offs, points[1:2], q)
                    == _plain_scan(rows, offs, points[1:2], q)), base
            rng.shuffle(points)
            assert (_scan(rows, offs, points, q)
                    == _plain_scan(rows, offs, points, q)), base
    assert below >= 40, below
    # rows over 2^61 - 1 as well, and no point at all
    box = [(nrm, off / big) for nrm, off in _cube(3)]
    rows, offs = _integerized(box)
    points, q = _one_denominator(itertools.product(
        (0, F(1, big), F(-1, big), F(1, 2 * big)), repeat=3))
    assert _scan(rows, offs, points, q) == _plain_scan(rows, offs, points, q)
    assert _scan(rows, offs, [], 1) == ([], [], [0] * len(rows))
    # a free column: its range, 2^20 here, is far above every slack bound,
    # and no row's mask may depend on it
    line = [((F(c[0]), F(c[1]), F(0)), off) for c, off in _cube(2)]
    rows, offs = _integerized(line)
    points, q = _one_denominator(itertools.product(
        (0, 1, 2, -1), (0, F(1, 2)), (0, 2 ** 20, -7)))
    want = _plain_scan(rows, offs, points, q)
    assert _scan(rows, offs, points, q) == want
    # points 3k, 3k + 1 and 3k + 2 differ in the free column alone
    assert any(want[2]) and all(
        (mask >> p & 1) == (mask >> p + 1 & 1) == (mask >> p + 2 & 1)
        for mask in want[2] for p in range(0, len(points), 3))
    # more rows than one block of one-byte row numbers (255), repeated
    # rows among them, every point tight on rows of both blocks
    rows = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(600)]
    points = [tuple(rng.randint(-6, 6) for _ in range(3)) for _ in range(40)]
    offs = [sum(a * x for a, x in zip(row, nums)) // 2
            for row, nums in zip(rows, itertools.cycle(points))]
    want = _plain_scan(rows, offs, points, 2)
    assert all(on[0] < 255 < on[-1] for on in want[1])
    assert _scan(rows, offs, points, 2) == want
    # slacks of every bit length, each row's bound met: x <= 0 has slacks
    # 0 to -h and -x <= h slacks h to 2h
    for h in itertools.chain.from_iterable((2 ** k - 1, 2 ** k)
                                           for k in range(70)):
        rows, offs = [(1,), (-1,)], [0, h]
        points = [(x,) for x in (h, 0, h // 2, h, 0)]
        assert (_scan(rows, offs, points, 1)
                == _plain_scan(rows, offs, points, 1)), h


def _fraction_sorted_vertices(halfspaces):
    """brute_vertices as it sorted before: each vertex a tuple of Fractions.

    The rows go in as given (the oracle sorts them densest first); the
    extreme rays, and so the sorted vertices, do not depend on that order.
    """
    rows = [(tuple(ints[:-1]), ints[-1])
            for ints, _ in (common_denominator([*nrm, off])
                            for nrm, off in halfspaces)]
    n = len(rows[0][0]) if rows else 0
    if not rows or _fraction_rank([row for row, _ in rows]) < n:
        return []
    cone = [row + (-off,) for row, off in rows] + [(0,) * n + (-1,)]
    return sorted(tuple(F(v, ray[-1]) for v in ray[:-1])
                  for ray in _cone_rays(cone, n + 1)[0] if ray[-1] > 0)


def test_brute_vertices_sort_as_fractions():
    rng = random.Random(991)
    systems = [_cell_pairs(base) for n, count in ((2, 8), (3, 6), (4, 4), (5, 2))
               for base in _seeded_bases(rng, n, count)]
    # x, y, z >= 0 and x + y + z >= 1: the three recession rays are dropped
    pointed = _cube(3)[1::2] + [((F(-1), F(-1), F(-1)), F(-1))]
    # a triangle whose vertices need different denominators
    triangle = [((F(-1), F(0)), F(0)), ((F(0), F(-1)), F(0)),
                ((F(3), F(5)), F(1))]
    low_rank = _cube(3)[:4]  # no bound on z: normals of rank 2
    systems += [pointed, triangle, low_rank, []]
    for hs in systems:
        got, want = brute_vertices(hs), _fraction_sorted_vertices(hs)
        assert got == want, hs
        assert all(type(v) is tuple and all(type(x) is F for x in v)
                   for v in got), hs
    assert brute_vertices(low_rank) == brute_vertices([]) == []
    assert brute_vertices(triangle) == [
        (F(0), F(0)), (F(0), F(1, 5)), (F(1, 3), F(0))]
    assert len(brute_vertices(pointed)) == 3
