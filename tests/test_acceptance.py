"""Acceptance suite: fourteen end-to-end checks, exact arithmetic, timed caps.

Each test prints one PASS line (with elapsed time) on success; a failure
anywhere shows up as an ordinary pytest failure for that criterion.  All
comparisons are exact rational equality — no tolerances anywhere.
"""

import itertools
import random
import time
from fractions import Fraction as F

from flatklein import (
    catalog,
    classify,
    cut_polytope,
    delta,
    k_value,
    minimal_lifts,
    plan,
    project,
    squared_distance,
)
from flatklein.oracle import (
    brute_distance,
    brute_minimal_images,
    brute_vertices,
    certify_vertices,
)
from flatklein.stratification import _cone_dimension, _unforced

DENS = (7, 9, 11, 12, 13, 20)


def _report(num: int, title: str, start: float, cap: float | None = None):
    elapsed = time.perf_counter() - start
    line = f"criterion {num:2d} PASS ({title}) in {elapsed:.2f} s"
    if cap is not None:
        line += f" [cap {cap:g} s]"
        assert elapsed < cap, f"criterion {num} over time cap: {elapsed:.2f} s"
    print(line)


def _rat(rng, lo=F(0), hi=F(1)) -> F:
    den = rng.choice(DENS)
    span = hi - lo
    return lo + F(rng.randrange(0, den), den) * span


def _interval_rat(rng) -> F:
    # horizontal interval coordinate: inside (0,1), never 0 or 1/2
    while True:
        v = _rat(rng)
        if v != 0 and v != F(1, 2):
            return v


def _pairs(cell):
    return [(nrm, off) for _, nrm, off in cell.halfspaces()]


def _standard_points(a, a_last):
    """Every standard vertex from the closed-form recipe (labeled subsets)."""
    m = len(a)
    pts = set()
    for size in range(m + 1):
        for s in itertools.combinations(range(m), size):
            ks = k_value(s, a)
            if not 0 <= ks <= 1:
                continue
            for labels in itertools.product((0, 1), repeat=size):
                eps = dict(zip(s, labels))
                x = [a[i] - F(1, 2) + eps[i] if i in s else F(1, 2) - a[i]
                     for i in range(m)]
                pts.add(tuple(x) + (a_last + ks,))
                pts.add(tuple(x) + (a_last - ks,))
    return pts


def test_criterion_01_hexagon_formulas():
    start = time.perf_counter()
    rng = random.Random(101)
    for _ in range(100):
        den = rng.choice(DENS)
        a1 = F(rng.randrange(1, den), 2 * den)          # (0, 1/2)
        a2 = F(rng.randrange(1, den), den)              # (0, 1)
        d = delta(a1)
        expected = {
            (F(1, 2) - a1, a2 + F(1, 2) + d),
            (F(1, 2) - a1, a2 - F(1, 2) - d),
            (a1 + F(1, 2), a2 + F(1, 2) - d),
            (a1 + F(1, 2), a2 - F(1, 2) + d),
            (a1 - F(1, 2), a2 + F(1, 2) - d),
            (a1 - F(1, 2), a2 - F(1, 2) + d),
        }
        got = {v.coords for v in cut_polytope((a1, a2)).vertices()}
        assert got == expected, (a1, a2)
    _report(1, "hexagon closed forms, 100 draws", start, cap=1.0)


def test_criterion_02_n3_description():
    start = time.perf_counter()
    rng = random.Random(202)
    for _ in range(50):
        a = (F(rng.randrange(1, 14), 28), F(rng.randrange(1, 14), 28),
             _rat(rng))
        cell = cut_polytope(a)
        verts = {v.coords for v in cell.vertices()}
        assert verts == _standard_points(a[:2], a[2])
        assert len(verts) == 18
        apex_h = F(1, 2) + delta(a[0]) + delta(a[1])
        for sgn in (1, -1):
            apex = (F(1, 2) - a[0], F(1, 2) - a[1], a[2] + sgn * apex_h)
            assert apex in verts, apex
        assert sorted(verts) == brute_vertices(_pairs(cell))
    _report(2, "n=3 cells: formulas + oracle, 50 draws", start, cap=5.0)


def test_criterion_03_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(303)
    for n in (2, 3, 4, 5):
        for _ in range(50):
            base = tuple(_rat(rng) for _ in range(n))
            cell = cut_polytope(base)
            assert sorted(v.coords for v in cell.vertices()) == \
                brute_vertices(_pairs(cell)), base
    _report(3, "vertex sets equal exhaustive oracle, 4x50 draws", start,
            cap=120.0)


def test_criterion_04_n6_censuses():
    start = time.perf_counter()

    def certified(base):
        cell = cut_polytope(base)
        verts = cell.vertices()
        report = certify_vertices(_pairs(cell), [v.coords for v in verts])
        assert report.ok, report.problems[:3]
        return verts

    generic = certified((F(1, 10),) * 6)
    assert len(generic) == 486
    assert all(v.kind.startswith("Standard") for v in generic)

    mixed = certified((F(3, 10),) * 6)
    kinds = {}
    for v in mixed:
        kinds[v.kind] = kinds.get(v.kind, 0) + 1
    assert len(mixed) == 600
    assert kinds["StandardPlus"] + kinds["StandardMinus"] == 420
    assert kinds["Middle"] == 160
    assert kinds["TruncPlus"] + kinds["TruncMinus"] == 20

    # sum of squared offsets pinned exactly at the degenerate value 1/16
    boundary = certified((F(3, 8), F(3, 8), F(3, 8), F(3, 8), F(1, 4), F(1, 10)))
    assert len(boundary) == 454
    merged = [v for v in boundary if v.merged]
    assert merged and all(len(v.support.members) == 5 for v in merged)
    _report(4, "n=6 censuses 486/600/454, pivot-certified", start, cap=120.0)


def test_criterion_05_k_identities():
    start = time.perf_counter()
    rng = random.Random(505)
    for _ in range(10_000):
        n = rng.randrange(2, 8)
        a = tuple(_interval_rat(rng) for _ in range(n - 1))
        idx = range(n - 1)
        s = tuple(i for i in idx if rng.random() < 0.5)
        comp = tuple(i for i in idx if i not in s)
        assert k_value(s, a) + k_value(comp, a) == 1
        if comp:
            grown = tuple(sorted(s + (rng.choice(comp),)))
            assert k_value(grown, a) < k_value(s, a)
    _report(5, "K(S)+K(comp)=1 and strict monotonicity, 10^4 draws", start,
            cap=10.0)


def test_criterion_06_distance_oracle():
    start = time.perf_counter()
    rng = random.Random(606)
    for n in range(2, 8):
        for _ in range(10_000):
            y = project(tuple(_rat(rng) for _ in range(n)))
            z = project(tuple(_rat(rng) for _ in range(n)))
            assert squared_distance(y, z) == brute_distance(y, z), (y, z)
    _report(6, "closed-form distance equals enumeration, 6x10^4 pairs", start,
            cap=60.0)


def test_criterion_07_cut_locus():
    start = time.perf_counter()
    rng = random.Random(707)
    for n in (2, 3, 4):
        for _ in range(1_000):
            y = tuple(_rat(rng) for _ in range(n))
            z = tuple(_rat(rng) for _ in range(n))
            cell = cut_polytope(project(y))
            lift = minimal_lifts(y, project(z))[0]
            on_boundary = bool(cell.active_descriptors(lift))
            count = len(brute_minimal_images(y, z)[1])
            assert (count >= 2) == on_boundary, (y, z, count)
    _report(7, "multiple geodesics iff lift on cell boundary, 3x10^3", start,
            cap=60.0)


def test_criterion_08_equivalence_completeness():
    start = time.perf_counter()
    rng = random.Random(808)
    for n in (2, 3, 4):
        base = tuple(_rat(rng) for _ in range(n))
        cell = cut_polytope(base)
        verts = cell.vertices()
        cls_of = {}
        for ci, cls in enumerate(cell.vertex_equivalences()):
            for i in cls:
                cls_of[i] = ci
        for i, j in itertools.combinations(range(len(verts)), 2):
            same = project(verts[i].coords) == project(verts[j].coords)
            assert same == (cls_of[i] == cls_of[j]), (base, i, j)

    # middle/truncating partners share the pivot; pivot coordinates sum to
    # the pivot's label
    cell = cut_polytope((F(3, 10),) * 6)
    verts = cell.vertices()
    checked = 0
    for cls in cell.vertex_equivalences():
        members = [verts[i] for i in cls]
        mids = [v for v in members if v.kind == "Middle"]
        truncs = [v for v in members if v.kind.startswith("Trunc")]
        for m, t in itertools.product(mids, truncs):
            assert m.pivot == t.pivot
            eps = t.support.label_of(t.pivot)
            assert m.coords[m.pivot] + t.coords[t.pivot] == eps
            checked += 1
    assert checked > 0
    _report(8, "deck-equivalence classes complete + mixed pairing", start)


def test_criterion_09_catalogs():
    start = time.perf_counter()
    five = [s for s in catalog(5) if s.domain.kinds == ("interval",) * 5]
    assert sorted(s.dim for s in five) == [1, 5]
    assert next(s for s in five if s.dim == 1).witness[:4] == (F(1, 4),) * 4

    six = [s for s in catalog(6) if s.domain.kinds == ("interval",) * 6]
    full = (0, 1, 2, 3, 4)
    assert sorted((s.alpha.sign_of(full), s.dim) for s in six) == \
        [(-1, 6), (0, 5), (1, 6)]

    seven = [s for s in catalog(7) if s.domain.kinds == ("interval",) * 7]
    top = tuple(range(6))
    hist = {}
    for s in seven:
        tau = s.alpha.sign_of(top)
        level5 = [sg for sub, sg in s.alpha.items() if len(sub) == 5]
        if tau >= 0:
            key = "a" if tau == 1 else "b"
        elif level5.count(-1) == 1:
            key = "f"
        elif level5.count(0) == 0:
            key = "c"
        elif level5.count(0) == 6:
            key = "center"
        else:
            key = "d" if level5.count(0) == 1 else "e"
        hist.setdefault(key, []).append(s.dim)
    assert {k: len(v) for k, v in hist.items()} == {
        "a": 1, "b": 1, "c": 1, "d": 6, "e": 15, "f": 6, "center": 1}
    assert {k: set(v) for k, v in hist.items()} == {
        "a": {7}, "b": {6}, "c": {7}, "d": {6}, "e": {2}, "f": {7},
        "center": {1}}
    _report(9, "catalogs n=5/6/7 reproduce the splits", start, cap=30.0)


def test_criterion_10_boundary_laws():
    start = time.perf_counter()

    # (i) a_1 -> 0: dimension drops at the prism limit, K-limit law holds
    steps = [F(1, 4 * 2 ** j) for j in range(5)]
    for t in steps:
        s = classify((t, F(1, 3), F(1, 3)))
        assert s.dim == 3
        gap = k_value((0,), (t, F(1, 3))) - k_value((), (F(1, 3),))
        assert gap == -delta(t)  # -> 0 along the sequence
    assert classify((F(0), F(1, 3), F(1, 3))).dim == 2

    # (ii) a_1 -> 1/2: same drop at the other prism value
    for t in steps:
        assert classify((F(1, 2) - t, F(1, 3))).dim == 2
    assert classify((F(1, 2), F(1, 3))).dim == 1

    # (iii) K(full) -> 0+ and 0-: standard pair merges / middles collapse
    def base6(eps):
        return (F(3, 8) + eps, F(3, 8), F(3, 8), F(3, 8), F(1, 4), F(1, 3))

    merged_target = (F(-1, 8), F(-1, 8), F(-1, 8), F(-1, 8), F(-1, 4), F(1, 3))
    prev = None
    for j in range(5):
        eps = F(1, 10 * 4 ** j)
        k = eps / 2 + 2 * eps * eps
        coords = {v.coords for v in cut_polytope(base6(eps)).vertices()}
        plus = (F(-1, 8) + eps,) + merged_target[1:-1] + (F(1, 3) + k,)
        minus = (F(-1, 8) + eps,) + merged_target[1:-1] + (F(1, 3) - k,)
        assert plus in coords and minus in coords
        gap = 2 * k
        assert prev is None or gap < prev
        prev = gap
    merged = [v for v in cut_polytope(base6(F(0))).vertices()
              if v.coords == merged_target]
    assert len(merged) == 1 and merged[0].merged

    prev = None
    for j in range(5):
        eps = -F(1, 20 * 4 ** j)
        k = eps / 2 + 2 * eps * eps
        coords = {v.coords for v in cut_polytope(base6(eps)).vertices()}
        middle = (F(-1, 8) + eps, F(-1, 8), F(-1, 8), F(-1, 8),
                  F(-1, 4) - 2 * k, F(1, 3))
        assert middle in coords
        gap = sum((p - q) ** 2 for p, q in zip(middle, merged_target))
        assert prev is None or gap < prev
        prev = gap

    # (iv) K(S u {k}) -> 1: truncating and standard vertices merge
    prev = None
    for j in range(5):
        h = F(1, 10 * 2 ** j)
        base = (F(1, 4), F(1, 4), F(1, 4), F(1, 4), F(1, 2) - h, F(1, 3))
        coords = {v.coords for v in cut_polytope(base).vertices()}
        trunc = (F(1, 4), F(1, 4), F(1, 4), F(1, 4), F(0), F(4, 3))
        standard = (F(1, 4), F(1, 4), F(1, 4), F(1, 4), -h,
                    F(1, 3) + 1 - h + 2 * h * h)
        assert trunc in coords and standard in coords
        gap = sum((p - q) ** 2 for p, q in zip(trunc, standard))
        assert prev is None or gap < prev
        prev = gap
    limit = {v.coords
             for v in cut_polytope((F(1, 4),) * 4 + (F(1, 2), F(1, 3))).vertices()}
    assert (F(1, 4), F(1, 4), F(1, 4), F(1, 4), F(0), F(4, 3)) in limit
    _report(10, "dimension drops and vertex merges at stratum boundaries",
            start)


def test_criterion_11_planner_partition():
    start = time.perf_counter()

    # every index value is achieved by a constructed pair
    achieved = {}
    cases_n2 = [
        ((F(0), F(0)), (F(1, 2), F(1, 2)), 0),
        ((F(1, 4), F(0)), (F(1, 4), F(5, 8)), 1),
        ((F(1, 4), F(0)), (F(3, 4), F(0)), 2),
        ((F(1, 2), F(1, 2)), (F(5, 8), F(3, 5)), 3),
        ((F(1, 3), F(1, 3)), (F(1, 3), F(1, 3)), 4),
    ]
    for y, z, want in cases_n2:
        assert plan(project(y), project(z)).index == want, (y, z)
        achieved.setdefault(2, set()).add(want)
    assert achieved[2] == set(range(5))

    box = (F(0), F(0), F(0))
    gen = (F(1, 4), F(1, 3), F(1, 5))
    cell = cut_polytope(gen)
    faces = cell.face_lattice()
    verts = cell.vertices()
    for j in range(4):
        face = min((f for f in faces if f.dim == j), key=lambda f: f.active)
        pts = [verts[i].coords for i in face.vertex_ids] or [gen]
        avg = tuple(sum(col, F(0)) / len(pts) for col in zip(*pts))
        assert plan(project(gen), project(avg)).index == 3 + j
        achieved.setdefault(3, set()).add(3 + j)
    for z, want in (((F(1, 2), F(1, 2), F(1, 2)), 0),
                    ((F(1, 2), F(1, 2), F(0)), 1),
                    ((F(1, 2), F(0), F(0)), 2),
                    ((F(0), F(0), F(0)), 3)):
        assert plan(project(box), project(z)).index == want, z
        achieved[3].add(want)
    assert achieved[3] == set(range(7))

    # random sweep: exactly one cell per pair, exact path length
    rng = random.Random(1111)
    kept = []
    for n in (2, 3):
        for _ in range(10_000):
            y = project(tuple(_rat(rng) for _ in range(n)))
            z = project(tuple(_rat(rng) for _ in range(n)))
            res = plan(y, z)
            assert 0 <= res.index <= 2 * n
            gap = sum((p - q) ** 2 for p, q in zip(y.rep, res.lift))
            assert gap == squared_distance(y, z)
            if len(kept) < 200:
                kept.append((y, z, res))

    # seed-independence: replay in shuffled order on a fresh cache
    _cone_dimension.cache_clear()
    _unforced.cache_clear()
    replay = random.Random(2222)
    shuffled = kept[:]
    replay.shuffle(shuffled)
    for y, z, res in shuffled:
        assert plan(y, z) == res
    _report(11, "partition indices, exact lengths, determinism", start,
            cap=120.0)


def test_criterion_12_planner_continuity():
    start = time.perf_counter()

    def halving(scale, count=5):
        return [scale / 2 ** j for j in range(count)]

    sequences = 0

    # target slides along a segment inside a fixed cell (interior face)
    for y, q0, q1 in [
        ((F(1, 3), F(1, 3)), (F(1, 3), F(1, 3)), (F(3, 8), F(1, 2))),
        ((F(1, 4), F(1, 8)), (F(1, 4), F(1, 8)), (F(1, 8), F(3, 8))),
        ((F(1, 4), F(1, 3), F(1, 5)), (F(1, 4), F(1, 3), F(1, 5)),
         (F(3, 8), F(1, 4), F(1, 2))),
        ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)), (F(5, 8), F(3, 5))),
    ]:
        src = project(y)
        prev_gap, prev_key = None, None
        for t in halving(F(1, 2)):
            q = tuple(a + t * (b - a) for a, b in zip(q0, q1))
            res = plan(src, project(q))
            assert res.lift == q  # interior lift is the point itself
            gap = sum((a - b) ** 2 for a, b in zip(q, q0))
            assert prev_gap is None or gap < prev_gap
            assert prev_key is None or res.face_key == prev_key
            prev_gap, prev_key = gap, res.face_key
        sequences += 1

    # next-to-last coordinate slides toward 1/2 with the last pinned at 0,
    # the pair staying inside one stratum/cell
    for n in (2, 3):
        prev_gap = None
        lifts = []
        for t in halving(F(1, 8)):
            y = (F(2, 5),) * (n - 2) + (F(1, 2) - t, F(0))
            src = project(y)
            res = plan(src, src)
            assert res.face_key == ()
            lifts.append(res.lift)
        limit = (F(2, 5),) * (n - 2) + (F(1, 2), F(0))
        for a, b in zip(lifts, lifts[1:]):
            ga = sum((c - l) ** 2 for c, l in zip(a, limit))
            gb = sum((c - l) ** 2 for c, l in zip(b, limit))
            assert gb < ga
        sequences += 1

    # vertex-class target: V-plus of a slowly varying hexagon
    prev_gap = None
    v_limit = (F(1, 4), F(5, 8))
    for t in halving(F(1, 16)):
        a1 = F(1, 4) + t
        src = project((a1, F(0)))
        v_plus = (F(1, 2) - a1, F(1, 2) + delta(a1))
        res = plan(src, project(v_plus))
        assert res.face_dim == 0
        gap = sum((c - l) ** 2 for c, l in zip(res.lift, v_limit))
        assert prev_gap is None or gap < prev_gap
        prev_gap = gap
    sequences += 1

    # wall-edge target with the base point sliding in one stratum
    prev_gap = None
    for t in halving(F(1, 16)):
        a1 = F(1, 4) + t
        src = project((a1, F(0)))
        res = plan(src, project((a1 + F(1, 2), F(0))))
        assert res.face_dim == 1
        gap = sum((c - l) ** 2
                  for c, l in zip(res.lift, (F(3, 4), F(0))))
        assert prev_gap is None or gap < prev_gap
        prev_gap = gap
    sequences += 1

    # same slide at n=4, other coordinates held near 1/2
    prev_gap = None
    limit4 = (F(2, 5), F(3, 7), F(1, 2), F(0))
    for t in halving(F(1, 8)):
        base = (F(2, 5), F(3, 7), F(1, 2) - t, F(0))
        res = plan(project(base), project(base))
        assert res.face_key == ()
        gap = sum((c - l) ** 2 for c, l in zip(res.lift, limit4))
        assert prev_gap is None or gap < prev_gap
        prev_gap = gap
    sequences += 1

    # interior targets converging to a third point (distinct from source)
    prev_gap = None
    for t in halving(F(1, 4)):
        z = (F(1, 8) + t, F(7, 8) - t, F(1, 2))
        res = plan(project((F(1, 4), F(3, 4), F(1, 2))), project(z))
        gap = sum((c - l) ** 2 for c, l in zip(res.lift, (F(1, 8), F(7, 8),
                                                          F(1, 2))))
        assert prev_gap is None or gap < prev_gap
        prev_gap = gap
    sequences += 1

    assert sequences == 10
    _report(12, "chosen lifts converge along in-cell sequences", start)


def test_criterion_13_planner_n4_to_n6():
    start = time.perf_counter()
    rng = random.Random(1313)
    kept = []
    for n, count in ((4, 300), (5, 100), (6, 30)):
        for i in range(count):
            y = project(tuple(_rat(rng) for _ in range(n)))
            z = project(tuple(_rat(rng) for _ in range(n)))
            res = plan(y, z)
            assert 0 <= res.index <= 2 * n
            gap = sum((p - q) ** 2 for p, q in zip(y.rep, res.lift))
            assert gap == squared_distance(y, z)
            assert res.lift in brute_minimal_images(y, z)[1]
            if i % 5 == 0:
                kept.append((y, z, res))

    # the same choices on fresh caches, in shuffled order
    _cone_dimension.cache_clear()
    _unforced.cache_clear()
    random.Random(3131).shuffle(kept)
    for y, z, res in kept:
        assert plan(y, z) == res
    _report(13, "planner at n=4/5/6: indices, exact lengths, oracle lifts, "
                "determinism", start, cap=60.0)


def test_criterion_14_planner_n7_n8():
    start = time.perf_counter()
    rng = random.Random(1414)
    kept = []
    for n, count in ((7, 60), (8, 20), (9, 20), (10, 20)):
        for _ in range(count):
            y = project(tuple(_rat(rng) for _ in range(n)))
            z = project(tuple(_rat(rng) for _ in range(n)))
            res = plan(y, z)
            assert 0 <= res.index <= 2 * n
            gap = sum((p - q) ** 2 for p, q in zip(y.rep, res.lift))
            assert gap == squared_distance(y, z)
            assert res.lift in brute_minimal_images(y, z)[1]
            kept.append((y, z, res))

    # a generic source planned to itself reaches the top index 2n
    for y in ((F(1, 10), F(1, 5), F(2, 7), F(1, 3), F(2, 9), F(3, 11), F(1, 3)),
              (F(1, 10), F(1, 5), F(2, 7), F(1, 3), F(2, 9), F(3, 11), F(1, 7),
               F(1, 3)),
              (F(1, 10), F(1, 5), F(2, 7), F(1, 3), F(2, 9), F(3, 11), F(1, 7),
               F(2, 13), F(3, 7), F(1, 3))):
        assert plan(project(y), project(y)).index == 2 * len(y)

    # the same choices on fresh caches, in shuffled order
    _cone_dimension.cache_clear()
    _unforced.cache_clear()
    random.Random(4141).shuffle(kept)
    for y, z, res in kept:
        assert plan(y, z) == res
    _report(14, "planner at n=7..10: indices, exact lengths, oracle lifts, "
                "determinism", start, cap=60.0)
