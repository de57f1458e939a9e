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
    DeckElement,
    KleinPoint,
    PlanResult,
    apply_deck,
    canonicalize,
    catalog,
    classify,
    cut_polytope,
    geodesic_path,
    minimal_lifts,
    plan,
    planner,
    project,
    rat,
    representatives,
    squared_distance,
    stratification,
)
from flatklein._exact import InvariantError, common_denominator, mat_rank
from flatklein.klein_space import _lifts
from flatklein.oracle import brute_distance, brute_minimal_images
from flatklein.stratification import (INTERVAL, POINT, PRISM, DomainDescriptor,
                                      _cone_dimension, _stratum_of, _unforced)

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
    _cone_dimension.cache_clear()
    _unforced.cache_clear()
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
        key = tuple(sorted(cell.active_descriptors(q)))
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
         "rows = planner._tight_rows\n"
         "planner._tight_rows = lambda *args: 2 * list(rows(*args))\n"
         "try:\n    planner.plan(('1/4', '0'), ('1/4', '5/8'))\n"
         "except AssertionError as exc:\n    print(exc)", src],
        capture_output=True, text=True, check=True)
    assert "source (1/4, 0), target (1/4, 5/8)" in out.stdout


def test_lifts_sharing_a_face_key_are_refused(monkeypatch):
    # (1/4, 0) -> (1/4, 5/8) has three minimal lifts; with every lift
    # reported tight on nothing they share the key ()
    assert len(minimal_lifts(HEX_BASE, project((F(1, 4), F(5, 8))))) == 3
    rows = planner._tight_rows
    monkeypatch.setattr(planner, "_tight_rows",
                        lambda *args: ((q, []) for q, _ in rows(*args)))
    with pytest.raises(InvariantError, match=(
            r"^minimal lifts must lie on distinct faces: source \(1/4, 0\), "
            r"target \(1/4, 5/8\), 3 lifts, keys \[\(\)\]$")):
        plan(HEX_BASE, (F(1, 4), F(5, 8)))


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
    assert plan(y, z).index == res.index


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


def _cell_reference(y, z):
    """`plan`'s (face key, face dim, lift) read off the source's cell: the
    rows tight at each minimal lift by their slacks, and the chosen face's
    dimension as n less the rank of its tight rows' normals."""
    cell = cut_polytope(y)
    lifts = minimal_lifts(y.rep, z)
    by_key = {}
    for q in lifts:
        tight = cell.active_descriptors(q)
        by_key[tuple(sorted(tight))] = (q, tight)
    assert len(by_key) == len(lifts), (y, z)
    key = min(by_key)
    q, tight = by_key[key]
    dim = cell.n - mat_rank(normal for k, normal, _ in cell.integer_rows()
                            if k in tight)
    return key, dim, q


def test_highly_tied_targets_match_the_cell():
    # 2^n minimal lifts meet at one vertex: a scan over pairs of lifts
    # would cost 4^n
    for n in range(2, 13):
        y = project((F(0),) * (n - 1) + (F(1, 3),))
        z = project((F(1, 2),) * (n - 1) + (F(5, 6),))
        assert len(minimal_lifts(y.rep, z)) == 2 ** n
        res = plan(y, z)
        assert (res.face_key, res.face_dim, res.lift) == _cell_reference(y, z)
        walls = sorted(f"w{i}+" for i in range(n - 1))
        assert res.face_key == ("s+" + "0" * (n - 1), *walls), n
        assert (res.face_dim, res.index) == (0, 1), n


def test_face_barycenter_and_vertex_targets_match_the_cell():
    rng = random.Random(636)
    tied = 0
    for n, cells, per_cell in ((2, 6, 12), (3, 6, 12), (4, 4, 12), (5, 3, 10),
                               (6, 2, 8), (7, 1, 8), (8, 2, 4), (9, 1, 4),
                               (10, 1, 3)):
        for _ in range(cells):
            y = project(tuple(_seeded_coord(rng) for _ in range(n)))
            cell = cut_polytope(y)
            verts = [v.coords for v in cell.vertices()]
            groups = [[v] for v in rng.sample(verts, min(per_cell, len(verts)))]
            if n <= 7:
                faces = cell.face_lattice()
                groups += [[verts[i] for i in f.vertex_ids]
                           for f in rng.sample(faces, min(per_cell, len(faces)))]
            for g in groups:
                z = project(tuple(sum(col, F(0)) / len(g) for col in zip(*g)))
                res = plan(y, z)
                want = _cell_reference(y, z)
                assert (res.face_key, res.face_dim, res.lift) == want, (y, z)
                tied += len(minimal_lifts(y.rep, z)) > 1
    assert tied >= 200, tied


def test_plan_builds_no_cell(monkeypatch):
    # the tight rows come from the lifts alone, on and off the cut locus
    base = (F(1, 10), F(1, 5), F(2, 7), F(1, 3), F(2, 9), F(1, 3))
    vertex = cut_polytope(base).vertices()[100].coords
    built = []
    init = flatklein.CutPolytope.__init__

    def counting_init(self, p):
        built.append(p)
        init(self, p)

    monkeypatch.setattr(flatklein.CutPolytope, "__init__", counting_init)
    res = plan((F(1, 10), F(1, 5), F(2, 7)), (F(3, 7), F(1, 2), F(1, 8)))
    assert res.face_key == ()
    res = plan((F(1, 4), F(0)), (F(1, 4), F(5, 8)))
    assert res.face_key == ("s+0", "s+1")
    # two lifts are a tie too: the pair sits on a wall of the hexagon
    res = plan((F(1, 4), F(0)), (F(3, 4), F(0)))
    assert (res.face_key, res.face_dim, res.index) == (("w0+",), 1, 2)
    res = plan(base, project(vertex))
    assert res.face_dim == 0 and len(res.face_key) >= 6
    assert built == []


def _split_coord(rng, dens):
    """A prism, point or quarter value, or k/d with d from dens."""
    if rng.random() < 0.35:
        return rng.choice((F(0), F(1, 2), F(1, 4), F(3, 4)))
    d = rng.choice(dens)
    return F(rng.randrange(d), d)


def test_plan_shares_one_denominator_with_classify_and_lifts():
    # the source over 7 or 9, the target over 13 or 20: the pair's common
    # denominator is not the source's, and prism tests must use the shared
    # one.  Targets are seeded, one half-step across a wall (two lifts) or
    # at a face barycenter of the source's cell
    rng = random.Random(6868)
    tied = prisms = points = 0
    for n in range(2, 9):
        for k in range(60 if n <= 4 else 15):
            y = project(tuple(_split_coord(rng, (7, 9)) for _ in range(n)))
            if k % 3 == 0:
                z = project(tuple(_split_coord(rng, (13, 20)) for _ in range(n)))
                targets = [z]
            elif k % 3 == 1:
                i = rng.randrange(n - 1)
                targets = [project(y.rep[:i] + (y.rep[i] + F(1, 2),) + y.rep[i + 1:])]
            else:
                cell = cut_polytope(y)
                verts = [v.coords for v in cell.vertices()]
                if n <= 4:
                    faces = cell.face_lattice()
                    groups = [[verts[i] for i in f.vertex_ids]
                              for f in rng.sample(faces, min(6, len(faces)))]
                else:
                    groups = [[v] for v in rng.sample(verts, 3)]
                targets = [project(tuple(sum(col, F(0)) / len(g) for col in zip(*g)))
                           for g in groups]
            want = classify(y.rep)
            prisms += PRISM in want.domain.kinds
            points += want.domain.kinds[-1] == POINT
            for z in targets:
                nums, den = common_denominator(y.rep + z.rep)
                assert _stratum_of(nums[:n], den) == (
                    want.domain.kinds, want.alpha.signs, want.dim), (y, z)
                lifts = minimal_lifts(y.rep, z)
                assert _lifts(nums[:n], nums[n:], den, z.rep) == lifts, (y, z)
                res = plan(y, z)
                assert res.stratum_dim == want.dim, (y, z)
                assert res.lift in lifts, (y, z)
                # a coordinate that lands on the target's is the target's
                # own Fraction
                for q in lifts + [res.lift]:
                    assert all(c is w for c, w in zip(q, z.rep) if c == w), (y, z)
                tied += len(lifts) > 1
    assert tied >= 300 and prisms >= 100 and points >= 20, (tied, prisms, points)


def test_plan_builds_no_sign_vector(monkeypatch):
    # plan reads its stratum dimension off the zero entries of the K table
    # by bitmask: no subset order and no sign vector, at every catalog(2..7)
    # witness, to the next witness of its catalog and to itself
    strata = {n: catalog(n) for n in range(2, 8)}
    pairs = [(s, t.witness) for found in strata.values()
             for s, t in zip(found, found[1:] + found[:1])]
    pairs += [(s, s.witness) for found in strata.values() for s in found]
    want = [plan(s.witness, z) for s, z in pairs]

    def refuse(*args):
        raise AssertionError("plan built the subset order or the sign vector")

    for name in ("_subsets", "_subset_masks", "_k_signs"):
        monkeypatch.setattr(stratification, name, refuse)
    _cone_dimension.cache_clear()
    _unforced.cache_clear()
    try:
        got = [plan(s.witness, z) for s, z in pairs]
    finally:
        _cone_dimension.cache_clear()
        _unforced.cache_clear()
    assert len(got) == 2 * 382
    assert got == want
    assert [res.stratum_dim for res in got] == [s.dim for s, _ in pairs]


def test_cut_locus_plans_at_n14_keep_no_cell():
    # an n = 14 cell holds about 8 MB of rows; six distinct ones kept
    # after their plans raised the peak by about 40 MB
    src = str(Path(flatklein.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c",
         "import resource, sys; sys.path.insert(0, sys.argv[1])\n"
         "from fractions import Fraction as F\n"
         "from flatklein import plan\n"
         "def peak():\n"
         "    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
         "for k in range(6):\n"
         "    p = tuple(F(i, 29 + 2 * k) for i in range(1, 14)) + (F(1, 3),)\n"
         "    assert plan(p, (p[0] + F(1, 2),) + p[1:]).face_key == ('w0+',)\n"
         "    if k == 0:\n"
         "        first = peak()\n"
         "print(peak() - first)", src],
        capture_output=True, text=True, check=True)
    # ru_maxrss is in KiB on Linux
    assert int(out.stdout) < 8 * 1024, out.stdout


def _fraction_kinds(rep):
    """The domain pattern by Fraction comparison, as the definition reads."""
    head = [PRISM if c in (F(0), F(1, 2)) else INTERVAL for c in rep[:-1]]
    return tuple(head) + (POINT if rep[-1] == 0 else INTERVAL,)


def _cover_form(rng, x):
    """x as Fractions, ints where integral, or strings."""
    pick = rng.random()
    if pick < 0.2:
        return tuple(str(c) for c in x)
    if pick < 0.4:
        return tuple(int(c) if c.denominator == 1 else c for c in x)
    return x


def test_per_pair_path_matches_references_on_seeded_pairs():
    # generic and special coordinates, shifted off [0,1) by up to 3 either
    # way, given as Fractions, ints, strings or (for plan) KleinPoints
    rng = random.Random(6464)
    forms = set()
    for k in range(1400):
        n = 2 + k % 7
        x, w = (tuple(_seeded_coord(rng) + rng.choice((0, 0, -3, -1, 1, 3))
                      for _ in range(n)) for _ in range(2))
        xi, wi = _cover_form(rng, x), _cover_form(rng, w)
        forms |= {type(c) for c in xi + wi}
        y, z = project(xi), project(wi)
        assert y == canonicalize(x)[0] and z == canonicalize(w)[0], (x, w)
        assert brute_distance(x, y.rep, window=8) == 0, x
        assert DomainDescriptor.of_point(y.rep).kinds == _fraction_kinds(y.rep)
        assert classify(y.rep).domain.kinds == _fraction_kinds(y.rep)
        d2, images = brute_minimal_images(y.rep, z)
        assert minimal_lifts(y.rep, z) == images, (x, w)
        assert squared_distance(y, z) == d2
        assert minimal_lifts(xi, z) == brute_minimal_images(x, z, window=8)[1]
        if n <= 5:
            assert plan(xi, wi) == plan(KleinPoint(y.rep), z), (x, w)
    assert forms == {F, int, str}


def test_per_pair_errors_keep_type_and_message():
    z2, z3 = project((0, 0)), project((0, 0, 0))
    for call in (lambda: project((F(1, 2),)), lambda: canonicalize(("1/3",)),
                 lambda: classify((0,)), lambda: minimal_lifts((0,), z2),
                 lambda: plan((0,), (0, 0))):
        with pytest.raises(ValueError,
                           match=r"^points must have dimension at least 2$"):
            call()
    g2, g3 = DeckElement.identity(2), DeckElement.identity(3)
    # the size limit is checked before the dimensions are compared
    with pytest.raises(ValueError, match=(
            r"^classify and plan are limited to n <= 18: the point at "
            r"n = 19 has up to 2\^18 = 262144 sign subsets$")):
        plan((F(1, 3),) * 19, (F(1, 3),) * 20)
    for call in (lambda: minimal_lifts((0, 0, 0), z2),
                 lambda: squared_distance(z2, z3),
                 lambda: plan((0, 0), (0, 0, 0)),
                 lambda: g2.compose(g3), lambda: apply_deck(g3, (0, 0)),
                 lambda: geodesic_path((0, 0), (0, 0, 0), 2)):
        with pytest.raises(ValueError, match=r"^dimension mismatch$"):
            call()
    with pytest.raises(TypeError, match=r"^not an exact rational: 1\.5$"):
        rat(1.5)
    for p in ((F(5, 4), 0), ("1/2", "-1/3"), (0, 1), (F(1, 3), F(1, 2), 2)):
        for call in (classify, DomainDescriptor.of_point):
            with pytest.raises(ValueError, match=r"^expected a canonical point$"):
                call(p)
