"""Brute-force reference implementations: enumeration, certification."""

import itertools
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import flatklein
from flatklein import cut_polytope, project
from flatklein.oracle import (
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


@pytest.mark.slow
def test_certify_large_chamber_with_dominant_coordinate():
    # n=7 chamber where one (a_k - 1/4)^2 exceeds half the total: the cell
    # carries middle and truncating vertices for two nested subsets at once.
    base = (F(9, 20), F(7, 20), F(1, 4), F(1, 4), F(1, 4), F(1, 4), F(1, 3))
    cell = cut_polytope(base)
    pairs = [(nrm, off) for _, nrm, off in cell.halfspaces()]
    report = certify_vertices(pairs, [v.coords for v in cell.vertices()])
    assert report.ok, report.problems
    assert report.vertex_count == 1800
