"""Geodesic selection: representative faces, partition indices, determinism."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatklein import (
    minimal_lifts,
    partition_index,
    plan,
    project,
    representatives,
    squared_distance,
)
from flatklein import planner as planner_mod

HEX_BASE = (F(1, 4), F(0))

coord = st.fractions(min_value=0, max_value=F(39, 40), max_denominator=40)


def _pt(n):
    return st.tuples(*([coord] * n))


def test_hexagon_representatives():
    reps = representatives(HEX_BASE)
    assert {d: len(keys) for d, keys in reps.items()} == {0: 2, 1: 3, 2: 1}
    assert reps[2] == {()}


def test_wall_and_slant_facets_halved_n3():
    from flatklein import cut_polytope

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
    planner_mod._TABLES.clear()
    assert plan(y, z) == first


def test_tables_are_a_bounded_lru(monkeypatch):
    builds = []
    build = planner_mod.representatives
    monkeypatch.setattr(planner_mod, "representatives",
                        lambda p: builds.append(p) or build(p))
    monkeypatch.setattr(planner_mod, "_TABLES_MAX", 2)
    planner_mod._TABLES.clear()
    z = project((F(1, 7), F(2, 5)))
    # three strata: a_1 free with a_2 = 0, a prism point, a generic point
    first, second, third = (project(p) for p in
                            (HEX_BASE, (F(1, 2), F(1, 2)), (F(1, 3), F(1, 3))))
    results = [plan(y, z) for y in (first, second, first, third)]
    assert len(builds) == 3 and len(planner_mod._TABLES) == 2
    # `first` was used after `second`, so `second` was evicted
    assert plan(first, z) == results[0]
    assert len(builds) == 3
    assert plan(second, z) == results[1]
    assert len(builds) == 4 and len(planner_mod._TABLES) == 2


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
