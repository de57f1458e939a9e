"""Geodesic selection: representative faces, partition indices, determinism."""

import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flatklein
from flatklein import (
    PlanResult,
    classify,
    cut_polytope,
    minimal_lifts,
    partition_index,
    plan,
    project,
    representatives,
    squared_distance,
)
from flatklein.cut_polytope import _cached_cell
from flatklein.stratification import _dimension

HEX_BASE = (F(1, 4), F(0))

coord = st.fractions(min_value=0, max_value=F(39, 40), max_denominator=40)


def _pt(n):
    return st.tuples(*([coord] * n))


def test_hexagon_representatives():
    reps = representatives(HEX_BASE)
    assert {d: len(keys) for d, keys in reps.items()} == {0: 2, 1: 3, 2: 1}
    assert reps[2] == {()}


def test_wall_and_slant_facets_halved_n3():
    base = (F(1, 4), F(1, 4), F(0))
    reps = representatives(base)
    n_facets = sum(1 for f in cut_polytope(base).face_lattice() if f.dim == 2)
    assert len(reps[2]) == n_facets // 2


def test_plan_to_self_is_interior():
    y = project((F(1, 3), F(1, 3)))
    res = plan(y, y)
    assert res.face_key == ()
    assert res.face_dim == 2
    assert res.stratum_dim == 2
    assert res.index == 4
    assert res.lift == (F(1, 3), F(1, 3))


def test_plan_to_vertex_class():
    y = project(HEX_BASE)
    z = project((F(1, 4), F(5, 8)))
    assert len(minimal_lifts(y.rep, z)) == 3
    res = plan(y, z)
    assert res.face_dim == 0
    # source stratum: a_1 free, last coordinate pinned at 0
    assert res.stratum_dim == 1
    assert res.index == 1
    assert res.lift in {(F(-1, 4), F(-3, 8)), (F(1, 4), F(5, 8)),
                        (F(3, 4), F(-3, 8))}


def test_plan_from_prism_stratum():
    y = project((F(1, 2), F(1, 2)))
    z = project((F(5, 8), F(3, 5)))
    res = plan(y, z)
    assert (res.stratum_dim, res.face_dim, res.index) == (1, 2, 3)


def test_index_zero_pair():
    y = project((F(0), F(0)))
    z = project((F(1, 2), F(1, 2)))
    assert len(minimal_lifts(y.rep, z)) == 4
    res = plan(y, z)
    assert (res.stratum_dim, res.face_dim, res.index) == (0, 0, 0)


def test_representatives_constant_on_stratum():
    assert representatives((F(1, 4), F(0))) == representatives((F(1, 3), F(0)))


def test_plan_is_deterministic_and_cache_independent():
    y = project((F(1, 4), F(1, 8), F(0)))
    z = project((F(3, 4), F(5, 8), F(1, 2)))
    first = plan(y, z)
    _cached_cell.cache_clear()
    _dimension.cache_clear()
    assert plan(y, z) == first


def _reference_plan(y, z):
    """The per-stratum table selection: the face lattice gives every face's
    dimension, the face classes give one representative key per class, and
    exactly one minimal lift must hit a representative face."""
    cell = cut_polytope(y)
    dim_by_key = {f.active: f.dim for f in cell.face_lattice()}
    reps = representatives(y)
    rep_keys = set().union(*reps.values())
    assert len(rep_keys) == len(cell.face_equivalences())
    hits = []
    for q in minimal_lifts(y.rep, z):
        key = tuple(sorted(d.key() for d in cell.active_descriptors(q)))
        if key in rep_keys:
            hits.append((q, key))
    assert len(hits) == 1, (y, z, hits)
    q, key = hits[0]
    stratum_dim = classify(y.rep).dim
    face_dim = dim_by_key[key]
    return PlanResult(stratum_dim + face_dim, stratum_dim, face_dim, key, q)


def _seeded_coord(rng):
    if rng.random() < 0.3:
        return rng.choice((F(0), F(1, 2), F(1, 4), F(3, 4)))
    den = rng.choice((7, 9, 11, 12, 13, 20))
    return F(rng.randrange(den), den)


def test_plan_matches_table_selection_on_seeded_pairs():
    rng = random.Random(606)
    prism = reflected = 0
    for n, count in ((2, 150), (3, 100), (4, 40), (5, 8)):
        for _ in range(count):
            y = project(tuple(_seeded_coord(rng) for _ in range(n)))
            z = project(tuple(_seeded_coord(rng) for _ in range(n)))
            cell = cut_polytope(y)
            prism += bool(cell.prism)
            reflected += bool(cell.reflected)
            assert plan(y, z) == _reference_plan(y, z), (y, z)
    assert prism and reflected


def test_plan_matches_table_selection_on_face_barycenters():
    rng = random.Random(616)
    targets = 0
    for n, cells in ((2, 6), (3, 6), (4, 2)):
        for _ in range(cells):
            y = project(tuple(_seeded_coord(rng) for _ in range(n)))
            cell = cut_polytope(y)
            verts = cell.vertices()
            for face in cell.face_lattice():
                pts = [verts[i].coords for i in face.vertex_ids]
                avg = tuple(sum(col, F(0)) / len(pts) for col in zip(*pts))
                z = project(avg)
                assert plan(y, z) == _reference_plan(y, z), (y, z)
                targets += 1
    assert targets > 500


def test_shared_face_key_check_survives_optimisation():
    # two minimal lifts on one face is a bug; -O strips asserts
    src = str(Path(flatklein.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-O", "-c",
         "import sys; sys.path.insert(0, sys.argv[1])\n"
         "from flatklein import planner\n"
         "lifts = planner.minimal_lifts\n"
         "planner.minimal_lifts = lambda p, z: 2 * lifts(p, z)\n"
         "try:\n    planner.plan(('1/4', '0'), ('1/4', '5/8'))\n"
         "except AssertionError as exc:\n    print(exc)", src],
        capture_output=True, text=True, check=True)
    assert "source (1/4, 0), target (1/4, 5/8)" in out.stdout


def test_plan_samples():
    y = project((F(1, 8), F(1, 8)))
    z = project((F(1, 4), F(1, 2)))
    res = plan(y, z, samples=5)
    assert len(res.samples) == 5
    assert res.samples[0] == y
    assert res.samples[-1] == z
    with pytest.raises(ValueError):
        plan(y, z, samples=1)


def test_plan_json():
    res = plan(project(HEX_BASE), project((F(1, 4), F(5, 8))), samples=3)
    data = res.to_json()
    assert set(data) == {"index", "stratum_dim", "face_dim", "face_key",
                         "lift", "samples"}
    assert data["index"] == 1
    assert len(data["samples"]) == 3
    assert all(isinstance(c, str) for c in data["lift"])


@settings(max_examples=60, deadline=None)
@given(_pt(2), _pt(2))
def test_plan_length_exact_n2(a, b):
    y, z = project(a), project(b)
    res = plan(y, z)
    gap = sum((p - q) ** 2 for p, q in zip(y.rep, res.lift))
    assert gap == squared_distance(y, z)
    assert 0 <= res.index <= 4
    assert res.index == res.stratum_dim + res.face_dim
    assert partition_index(y, z) == res.index


@settings(max_examples=30, deadline=None)
@given(_pt(3), _pt(3))
def test_plan_length_exact_n3(a, b):
    y, z = project(a), project(b)
    res = plan(y, z)
    gap = sum((p - q) ** 2 for p, q in zip(y.rep, res.lift))
    assert gap == squared_distance(y, z)
    assert 0 <= res.index <= 6


def test_lone_lift_is_tight_on_no_row():
    # `plan` skips the cell when a target has one minimal lift: every row
    # is a bisector of P and a deck image, so a lift on a row has a rival
    rng = random.Random(626)
    lone = tied = 0
    for n, count in ((2, 300), (3, 300), (4, 200), (5, 120), (6, 80)):
        for _ in range(count):
            y = project(tuple(_seeded_coord(rng) for _ in range(n)))
            z = project(tuple(_seeded_coord(rng) for _ in range(n)))
            cell = cut_polytope(y)
            lifts = minimal_lifts(y.rep, z)
            if len(lifts) == 1:
                assert cell.active_descriptors(lifts[0]) == frozenset(), (y, z)
                lone += 1
            else:
                assert all(cell.active_descriptors(q) for q in lifts), (y, z)
                tied += 1
    assert lone and tied >= 50, (lone, tied)


def test_plan_builds_a_cell_only_on_the_cut_locus():
    _cached_cell.cache_clear()
    res = plan((F(1, 10), F(1, 5), F(2, 7)), (F(3, 7), F(1, 2), F(1, 8)))
    assert res.face_key == ()
    assert _cached_cell.cache_info().currsize == 0
    res = plan((F(1, 4), F(0)), (F(1, 4), F(5, 8)))
    assert res.face_key == ("s+0", "s+1")
    assert _cached_cell.cache_info().currsize == 1
    # two lifts are a tie too: the pair sits on a wall of the hexagon
    res = plan((F(1, 4), F(0)), (F(3, 4), F(0)))
    assert (res.face_key, res.face_dim, res.index) == (("w0+",), 1, 2)
