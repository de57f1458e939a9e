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
from flatklein._exact import integerize_row
from flatklein.oracle import (
    _cone_rays,
    _simplicial_cone,
    brute_distance,
    brute_geodesic_count,
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
    assert brute_geodesic_count((F(1, 8), F(1, 3)), (F(1, 3), F(1, 5))) == 1
    assert brute_geodesic_count(src, (F(1, 4), F(5, 8))) == 3
    # wall midpoint: the two wall lifts tie
    assert brute_geodesic_count(src, (F(3, 4), F(0))) == 2


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


def test_cone_ray_checks_survive_optimisation():
    # a line {(0, t)} is no pointed cone; -O strips asserts, not raises
    src = str(Path(flatklein.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-O", "-c",
         "import sys; sys.path.insert(0, sys.argv[1])\n"
         "from flatklein.oracle import _cone_rays\n"
         "try:\n    _cone_rays([(1, 0), (-1, 0)], 2)\n"
         "except AssertionError as exc:\n    print(exc)", src],
        capture_output=True, text=True, check=True)
    assert "basis rows [(1, 0)]" in out.stdout


def test_cone_not_pointed_names_every_active_row():
    # the basis holds only the first row; the message names all three
    with pytest.raises(flatklein.InvariantError) as info:
        _cone_rays([(1, 0), (2, 0), (-1, 0)], 2)
    assert str(info.value) == (
        "cone is not pointed: active rows [(1, 0), (2, 0), (-1, 0)] have "
        "rank 1 < 2; basis rows [(1, 0)]")


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


def test_simplicial_cone_rays_are_negated_inverse_columns():
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
        greedy = []
        for i, row in enumerate(rows):
            picked = [rows[j] for j in greedy]
            if len(greedy) < n and _fraction_rank(picked + [row]) > len(greedy):
                greedy.append(i)
        basis, rays = _simplicial_cone(rows, n)
        assert basis == greedy, rows
        if len(basis) < n:
            assert rays == [], rows
            continue
        squares += 1
        for j, ray in enumerate(rays):
            assert math.gcd(*ray) == 1, rows
            dots = [sum(a * d for a, d in zip(rows[i], ray)) for i in basis]
            assert dots[j] < 0 and not any(dots[:j] + dots[j + 1:]), rows
    assert squares >= 100


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


def _ratio_walk_report(halfspaces, claimed):
    """certify_vertices' report from a plain Fraction ratio test per edge.

    Every edge from a verified point is followed to the least slack / step
    over the rows it climbs, and the endpoint is looked up among the
    claimed points.  The edge directions are the oracle's own cone rays.
    """
    rows = [(tuple(F(c) for c in nrm), F(off)) for nrm, off in halfspaces]
    n = len(rows[0][0])
    problems, points, index = [], [], {}
    for p in claimed:
        t = tuple(F(x) for x in p)
        if t in index:
            problems.append(f"duplicate vertex {t}")
            continue
        index[t] = len(points)
        points.append(t)
    walk, edges, steps = [], set(), {}
    for vi, t in enumerate(points):
        slack = [off - sum(a * x for a, x in zip(nrm, t)) for nrm, off in rows]
        bad = next((i for i, s in enumerate(slack) if s < 0), None)
        if bad is not None:
            problems.append(f"vertex {t} violates constraint {bad}")
            continue
        act = [integerize_row(nrm, off)[0]
               for (nrm, off), s in zip(rows, slack) if s == 0]
        if _fraction_rank(act) < n:
            problems.append(f"vertex {t} has active rank < {n}")
            continue
        for ray in _cone_rays(act, n)[0]:
            if ray not in steps:
                steps[ray] = [sum(a * d for a, d in zip(nrm, ray)) for nrm, _ in rows]
            ratios = [s / step for s, step in zip(slack, steps[ray]) if step > 0]
            if not ratios:
                walk.append(f"unbounded edge direction at vertex {t}")
                continue
            end = tuple(x + min(ratios) * d for x, d in zip(t, ray))
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


def _same_report(pairs, claim):
    report = certify_vertices(pairs, claim)
    got = (report.ok, report.vertex_count, report.edge_count, report.problems)
    assert got == _ratio_walk_report(pairs, claim), claim
    return report.problems


def _tight_counts(halfspaces, verts):
    return [sum(sum(a * x for a, x in zip(nrm, v)) == off
                for nrm, off in halfspaces) for v in verts]


def test_mask_endpoints_match_fraction_ratio_walk():
    rng = random.Random(977)
    simple = degenerate = 0
    for n, count in ((3, 6), (4, 4), (5, 2)):
        for base in _seeded_bases(rng, n, count):
            pairs = _cell_pairs(base)
            verts = brute_vertices(pairs)
            tight = _tight_counts(pairs, verts)
            simple += tight.count(n)
            degenerate += sum(t > n for t in tight)
            k = rng.randrange(len(verts))
            j = next(j for j in range(len(verts))
                     if _adjacent_pairs(pairs, [verts[k], verts[j]]))
            mid = tuple((x + y) / 2 for x, y in zip(verts[k], verts[j]))
            shifted = tuple(x + F(1, 97) for x in verts[k])
            assert _same_report(pairs, verts) == []
            missing = _same_report(pairs, verts[:k] + verts[k + 1:])
            assert any("unlisted" in msg for msg in missing)
            assert f"vertex {mid} has active rank < {n}" in _same_report(
                pairs, verts + [mid])
            assert f"duplicate vertex {verts[k]}" in _same_report(
                pairs, verts + [verts[k]])
            moved = _same_report(pairs, verts[:k] + [shifted] + verts[k + 1:])
            assert any(f"unlisted vertex {verts[k]}" in msg for msg in moved)
    # the certifier takes simple points (n tight rows) by a rank test alone
    # and runs double description at the others: both paths are held here
    assert simple and degenerate, (simple, degenerate)
    # x, y, z >= 0 and x + y + z >= 1: every vertex has an unbounded edge
    pointed = _cube(3)[1::2] + [((F(-1), F(-1), F(-1)), F(-1))]
    problems = _same_report(pointed, brute_vertices(pointed))
    assert problems and all(msg.startswith("unbounded") for msg in problems)


def test_mask_endpoints_match_fraction_ratio_walk_generic_n6():
    # the certifier's own range; a generic cell mixes simple and degenerate
    # vertices about evenly
    rng = random.Random(985)
    base = tuple(rng.choice([F(k, 12) for k in range(1, 12) if k != 6])
                 for _ in range(5)) + (F(rng.randrange(0, 7), 7),)
    cell = cut_polytope(base)
    pairs = _cell_pairs(base)
    verts = [v.coords for v in cell.vertices()]
    tight = _tight_counts(pairs, verts)
    assert 6 in tight and max(tight) > 6, base
    assert _same_report(pairs, verts) == []
    k = rng.randrange(len(verts))
    missing = _same_report(pairs, verts[:k] + verts[k + 1:])
    assert missing and all(msg.endswith(f"unlisted vertex {verts[k]}")
                           for msg in missing)


def _fraction_sorted_vertices(halfspaces):
    """brute_vertices as it sorted before: each vertex a tuple of Fractions.

    The rows go in as given (the oracle sorts them densest first); the
    extreme rays, and so the sorted vertices, do not depend on that order.
    """
    rows = [integerize_row(nrm, off) for nrm, off in halfspaces]
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
