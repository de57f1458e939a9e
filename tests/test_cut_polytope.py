"""Cells of closest lifts: half-spaces, vertex families, faces, pairings."""

import dataclasses
import gc
import itertools
import math
import operator
import random
import sys
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatklein import (CutPolytope, InvariantError, catalog, cut_polytope, delta,
                       k_value, minimal_lifts, project, representatives)
from flatklein._exact import (_packed_scan, common_denominator, gcd_reduce,
                              mat_rank)
from flatklein.cut_polytope import (Face, LabeledSet, _barycenter_key, _chamber,
                                    _gain8, _k_table)
from flatklein.klein_space import DeckElement, apply_deck, canonicalize, neighbor_set
from flatklein.oracle import brute_minimal_images, brute_vertices

HEX_BASE = (F(1, 4), F(0))

# apex pair (1/4, +-5/8) and four wall corners (a_1 +- 1/2, +-3/8)
HEX_VERTICES = {
    (F(1, 4), F(5, 8)), (F(1, 4), F(-5, 8)),
    (F(3, 4), F(3, 8)), (F(3, 4), F(-3, 8)),
    (F(-1, 4), F(3, 8)), (F(-1, 4), F(-3, 8)),
}

chamber_coord = st.fractions(min_value=F(1, 40), max_value=F(19, 40),
                             max_denominator=40)
open_coord = st.fractions(min_value=0, max_value=F(39, 40),
                          max_denominator=40).filter(lambda c: c != F(1, 2))


def _pairs(cell):
    return [(nrm, off) for _, nrm, off in cell.halfspaces()]


def _reduced(p):
    """The Fraction view of `_chamber`: (reduced point, reflected, prism).
    Its gains must be `_gain8` of each reduced interval coordinate."""
    nums, den = common_denominator(p)
    reflected, prism, gains = _chamber(nums, den)
    assert gains == [_gain8(x, den) for i, x in enumerate(nums[:-1])
                     if i not in prism]
    return tuple(F(x, den) for x in nums), reflected, prism


# ---------------------------------------------------------------------------
# scalar helpers
# ---------------------------------------------------------------------------

def test_delta_values():
    assert delta(F(1, 4)) == F(1, 8)
    assert delta(F(3, 10)) == F(3, 25)
    assert delta(F(3, 4)) == F(1, 8)
    assert delta(F(1, 2)) == 0  # both branches vanish at 1/2
    for bad in (F(0), F(1), F(-1, 3)):
        with pytest.raises(ValueError):
            delta(bad)


@given(st.fractions(min_value=F(1, 50), max_value=F(49, 50),
                    max_denominator=60))
def test_delta_range_and_fold(a):
    assert 0 <= delta(a) <= F(1, 8)
    assert (delta(a) == 0) == (a == F(1, 2))
    assert delta(a) == delta(1 - a)


def test_k_value_examples():
    a6 = (F(3, 10),) * 5
    assert k_value((0, 1, 2, 3, 4), a6) == F(-1, 10)
    assert k_value((), (F(1, 4),)) == F(5, 8)


def test_k_value_ignores_labels():
    a = (F(1, 5), F(3, 10), F(2, 5))
    plain = k_value((0, 2), a)
    for eps in itertools.product((0, 1), repeat=2):
        assert k_value(LabeledSet((0, 2), eps), a) == plain


def test_labeled_set_checks():
    assert LabeledSet((0, 2), (1, 0)).label_of(2) == 0
    with pytest.raises(ValueError,
                       match=r"^index 1 is not a member: members = \(0, 2\)$"):
        LabeledSet((0, 2), (1, 0)).label_of(1)
    for members, labels, match in (
            ((0, 0), (0, 1), "strictly increasing"),
            ((2, 0), (0, 1), "strictly increasing"),
            ((0, 1), (0,), "align"),
            ((0, 1), (0, 2), "0/1")):
        with pytest.raises(ValueError, match=match):
            LabeledSet(members, labels)


def _fraction_delta(a):
    return a - 2 * a * a if a <= F(1, 2) else F(1, 8) - 2 * (a - F(3, 4)) ** 2


def test_k_table_matches_fraction_k():
    # every entry of the shared table, by bitmask, against
    # K(S) = 1/2 + sum of deltas - 2 * (deltas over S) on Fractions
    rng = random.Random(6060)
    for k in range(60):
        a = [F(rng.randrange(1, d), d) for d in
             (rng.choice((5, 7, 9, 12, 13, 20)) for _ in range(k % 7))]
        a = [x for x in a if x != F(1, 2)]
        den = math.lcm(*(x.denominator for x in a))
        table = _k_table([_gain8(x.numerator * (den // x.denominator), den)
                          for x in a], den * den)
        assert len(table) == 2 ** len(a)
        total = sum(map(_fraction_delta, a))
        for mask, value in enumerate(table):
            ref = F(1, 2) + total - 2 * sum(
                _fraction_delta(x) for j, x in enumerate(a) if mask >> j & 1)
            assert F(value, 8 * den * den) == ref, (a, mask)


def test_delta_and_k_value_match_fraction_formulas():
    # the integer forms against the defining Fraction formulas, on seeded
    # coordinates over mixed denominators (and one large prime)
    rng = random.Random(5050)
    dens = (3, 4, 5, 7, 12, 20, 97, 2**61 - 1)
    for _ in range(2000):
        m = rng.randint(1, 6)
        a = []
        while len(a) < m:
            den = rng.choice(dens)
            v = F(rng.randrange(1, den), den)
            if v != F(1, 2):
                a.append(v)
        for v in a:
            assert delta(v) == _fraction_delta(v), v
        s = [i for i in range(m) if rng.random() < 0.5]
        gains = [_fraction_delta(v) for v in a]
        ref = F(1, 2) + sum(gains) - 2 * sum(gains[i] for i in s)
        forms = (a, [str(v) for v in a])
        for form in forms:
            assert k_value(s, form) == ref, (s, a)
    assert delta("1/2") == 0 and delta("3/4") == F(1, 8)
    for bad in (0, 1, F(5, 4), "-1/3"):
        with pytest.raises(ValueError, match=r"^delta is defined on \(0, 1\)$"):
            delta(bad)
    for bad in ((F(1, 2),), (F(1, 3), 0), (F(1, 3), F(7, 5))):
        with pytest.raises(ValueError, match=r"active coordinates in \(0,1\)"):
            k_value((0,), bad)
    with pytest.raises(ValueError, match="subset indexes outside"):
        k_value((1,), (F(1, 3),))
    for subset in ((0, 0), [1, 0, 1]):
        with pytest.raises(ValueError, match=r"^repeated index in \(\d(, \d)+\)$"):
            k_value(subset, (F(1, 5), F(3, 10)))


@given(st.lists(chamber_coord, min_size=1, max_size=5), st.data())
def test_k_complement_identity_and_monotonicity(a, data):
    a = tuple(a)
    idx = range(len(a))
    s = tuple(sorted(data.draw(st.sets(st.sampled_from(idx)))))
    comp = tuple(i for i in idx if i not in s)
    assert k_value(s, a) + k_value(comp, a) == 1
    if comp:
        bigger = tuple(sorted(s + comp[:1]))
        assert k_value(bigger, a) < k_value(s, a)


@given(chamber_coord, st.integers(min_value=0, max_value=1))
def test_slant_coefficient_fact_table(a, eps):
    def lhs(x):
        return (2 * a - eps) * (x - F(eps, 2))

    assert lhs(F(1, 2) - a) == delta(a)
    assert lhs(a - F(1, 2) + eps) == -delta(a)
    if eps == 0:
        assert lhs(a + F(1, 2)) == -delta(a) + 2 * a
    else:
        assert lhs(a - F(1, 2)) == -delta(a) + 1 - 2 * a


# ---------------------------------------------------------------------------
# half-spaces and chamber reduction
# ---------------------------------------------------------------------------

def test_halfspace_counts():
    assert len(cut_polytope(HEX_BASE).halfspaces()) == 8
    # one prism coordinate at n=3: 4 walls + 2*2 slants + 2 caps
    assert len(cut_polytope((F(1, 2), F(1, 4), F(0))).halfspaces()) == 10
    assert len(cut_polytope((F(1, 5), F(1, 4), F(0))).halfspaces()) == 14


def test_prism_slants_drop_coordinate():
    cell = cut_polytope((F(1, 2), F(1, 4), F(0)))
    for key, normal, _ in cell.halfspaces():
        if key.startswith("s"):
            assert normal[0] == 0


@given(st.lists(open_coord, min_size=2, max_size=4))
def test_base_point_strictly_interior(coords):
    p = project(tuple(coords))
    cell = cut_polytope(p)
    for _, normal, offset in cell.halfspaces():
        assert sum(nc * pc for nc, pc in zip(normal, p.rep)) < offset


def _integer_halfspace(normal, offset):
    return gcd_reduce(common_denominator([*normal, offset])[0])


def test_halfspaces_are_bisectors_with_neighbor_set():
    # neighbor_set and realize share no formula: x is at least as close to
    # p as to q iff 2(q - p).x <= |q|^2 - |p|^2
    rng = random.Random(606)
    prisms = 0
    for k in range(400):
        n = 2 + k % 4
        p = tuple(F(rng.randrange(d), d)
                  for d in (rng.choice((2, 4, 5, 6, 7, 9, 12)) for _ in range(n)))
        prisms += any(c in (0, F(1, 2)) for c in p[:-1])
        p_sq = sum(c * c for c in p)
        bisectors = {_integer_halfspace([2 * (b - a) for a, b in zip(p, q)],
                                        sum(c * c for c in q) - p_sq)
                     for q in neighbor_set(p)}
        cell = {_integer_halfspace(normal, off)
                for _, normal, off in cut_polytope(p).halfspaces()}
        assert bisectors == cell, p
    assert prisms >= 100


def _fraction_halfspaces(cell):
    """Each row's inequality built on Fractions from its key, one at a time:
    `w<i>+-`, `c+-`, or `s+-` and one bit per horizontal coordinate."""
    out = []
    a = _reduced(cell.point.rep)[0]
    for key, _, _ in cell.integer_rows():
        normal = [F(0)] * cell.n
        if key[0] == "w":
            i, sign = int(key[1:-1]), 1 if key[-1] == "+" else -1
            normal[i] = F(sign)
            offset = sign * a[i] + F(1, 2)
        elif key[0] == "c":
            sign = 1 if key[1] == "+" else -1
            normal[-1] = F(sign)
            offset = sign * a[-1] + 1
        else:
            # sign*(x_n - a_n) <= 1/2 + sum c_i (x_i - bit_i/2)
            sign, bits = 1 if key[1] == "+" else -1, [int(b) for b in key[2:]]
            assert key[0] == "s" and len(bits) == cell.n - 1, key
            assert not any(bits[i] for i in cell.prism), key
            normal[-1] = F(sign)
            offset = sign * a[-1] + F(1, 2)
            for i in cell.active:
                c = 2 * a[i] - bits[i]
                normal[i] = -c
                offset -= c * bits[i] / 2
        for i in cell.reflected:
            offset -= normal[i]
            normal[i] = -normal[i]
        out.append((key, tuple(normal), offset))
    return out


def test_integer_rows_match_fraction_halfspaces():
    rng = random.Random(1717)
    prisms = reflected = 0
    for k in range(420):
        n = 2 + k % 5
        p = tuple(rng.choice((F(0), F(1, 2))) if rng.random() < 0.2
                  else F(rng.randrange(d), d)
                  for d in (rng.choice((3, 4, 5, 7, 9, 12, 20)) for _ in range(n)))
        cell = cut_polytope(p)
        prisms += bool(cell.prism)
        reflected += bool(cell.reflected)
        reference = _fraction_halfspaces(cell)
        got = cell.halfspaces()
        assert got == reference, p
        assert all(type(c) is F for _, normal, off in got for c in (*normal, off))
        if n > 4:
            continue
        # membership and tight sets against Fraction dot products
        points = [v.coords for v in cell.vertices()[:4]]
        points += [tuple(c + F(rng.randrange(-6, 7), 8) for c in p) for _ in range(3)]
        for x in points:
            slack = [off - sum(w * c for w, c in zip(normal, x))
                     for _, normal, off in reference]
            assert cell.contains(x) == (min(slack) >= 0)
            if min(slack) >= 0:
                assert cell.active_descriptors(x) == frozenset(
                    d for (d, _, _), s in zip(reference, slack) if s == 0)
    assert prisms >= 100 and reflected >= 200


def test_chamber_reduce():
    red, refl, prism = _reduced((F(1, 4), F(1, 3), F(0)))
    assert (red, refl, prism) == ((F(1, 4), F(1, 3), F(0)), (), ())

    red, refl, prism = _reduced((F(3, 4), F(0)))
    assert red == (F(1, 4), F(0)) and refl == (0,) and prism == ()

    red, refl, prism = _reduced((F(3, 4), F(1, 2), F(0)))
    assert red == (F(1, 4), F(1, 2), F(0))
    assert refl == (0,) and prism == (1,)

    for p in ((F(1), F(0)), (F(-1, 3), F(1, 3)), (F(1, 4), F(5, 4), F(0))):
        with pytest.raises(ValueError, match=r"^expected a canonical point$"):
            _reduced(p)
    # only the head is folded; the last coordinate is passed through
    assert _reduced((F(3, 4), F(5, 4))) == ((F(1, 4), F(5, 4)), (0,), ())
    for p in ((F(5, 4), F(0)), (F(1, 4), F(3, 2))):
        with pytest.raises(ValueError,
                           match=r"^base point must be canonical \(in \[0,1\)\^n\)$"):
            CutPolytope(p)


def test_reflected_chamber_matches_oracle():
    cell = cut_polytope((F(3, 4), F(1, 2), F(2, 7)))
    assert sorted(v.coords for v in cell.vertices()) == \
        brute_vertices(_pairs(cell))


# ---------------------------------------------------------------------------
# vertices
# ---------------------------------------------------------------------------

def test_hexagon_vertices():
    cell = cut_polytope(HEX_BASE)
    assert {v.coords for v in cell.vertices()} == HEX_VERTICES


@given(chamber_coord, st.fractions(min_value=0, max_value=F(9, 10),
                                   max_denominator=30))
def test_hexagon_closed_forms(a1, a2):
    d = delta(a1)
    expected = {(F(1, 2) - a1, a2 + F(1, 2) + d), (F(1, 2) - a1, a2 - F(1, 2) - d),
                (a1 + F(1, 2), a2 + F(1, 2) - d), (a1 + F(1, 2), a2 - F(1, 2) + d),
                (a1 - F(1, 2), a2 + F(1, 2) - d), (a1 - F(1, 2), a2 - F(1, 2) + d)}
    got = {v.coords for v in cut_polytope((a1, a2)).vertices()}
    assert got == expected


def test_generic_census_is_two_times_three_pow():
    for n, base in ((3, (F(1, 5), F(3, 10), F(1, 7))),
                    (4, (F(1, 5), F(3, 10), F(2, 5), F(1, 7)))):
        cell = cut_polytope(base)
        verts = cell.vertices()
        assert len(verts) == 2 * 3 ** (n - 1)
        assert all(v.kind.startswith("Standard") for v in verts)


def test_merge_census_n5():
    # four coordinates at 1/4 drive K(full set) to exactly zero
    cell = cut_polytope((F(1, 4),) * 4 + (F(2, 7),))
    verts = cell.vertices()
    assert len(verts) == 146
    assert sum(1 for v in verts if v.merged) == 16
    assert sorted(v.coords for v in verts) == brute_vertices(_pairs(cell))


def test_no_middle_vertices_below_n6():
    for base in ((F(1, 4), F(1, 4), F(11, 30)),
                 (F(1, 4), F(1, 4), F(1, 4), F(1, 4), F(1, 7))):
        kinds = {v.kind for v in cut_polytope(base).vertices()}
        assert "Middle" not in kinds


def test_middle_vertex_coordinates_n6():
    cell = cut_polytope((F(3, 10),) * 5 + (F(0),))
    target = (F(-1, 30), F(-1, 5), F(-1, 5), F(-1, 5), F(-1, 5), F(0))
    mids = [v for v in cell.vertices() if v.coords == target]
    assert len(mids) == 1 and mids[0].kind == "Middle"
    assert mids[0].pivot == 0


def test_census_split_n6():
    by_kind = {}
    for v in cut_polytope((F(3, 10),) * 5 + (F(0),)).vertices():
        by_kind.setdefault(v.kind, []).append(v)
    assert len(by_kind["StandardPlus"]) + len(by_kind["StandardMinus"]) == 420
    assert len(by_kind["Middle"]) == 160
    assert len(by_kind["TruncPlus"]) == len(by_kind["TruncMinus"]) == 10


def test_truncating_matches_segment_interpolation():
    """Truncating vertices are the cap intersections of standard-vertex edges."""
    base = (F(1, 4), F(1, 4), F(1, 4), F(1, 4), F(2, 5), F(1, 7))
    cell = cut_polytope(base)
    a = base[:-1]
    trunc = [v for v in cell.vertices() if v.kind == "TruncPlus"]
    assert trunc
    for v in trunc:
        k = v.pivot
        eps = v.support.label_of(k)
        ks = k_value(v.support, a)
        x_k = a[k] - F(1, 2) + eps \
            + (1 - 2 * a[k] - eps) / (2 * delta(a[k])) * (1 - ks)
        assert v.coords[k] == x_k
        assert v.coords[-1] == base[-1] + 1


def _fraction_vertex_families(cell):
    """The closed-form vertex families on Fractions, the reference for
    the integer kernel of `vertices()`.

    (kind, members, labels, pivot, coords, merged) per vertex, sorted by
    coordinates.
    """
    half = F(1, 2)
    act = cell.active
    reduced = _reduced(cell.point.rep)[0]
    a = {i: reduced[i] for i in act}
    dl = {i: delta(a[i]) for i in act}
    total = sum(dl.values(), start=F(0))
    a_n = reduced[cell.n - 1]
    raw = []
    for r in range(len(act) + 1):
        for mem in itertools.combinations(act, r):
            k_s = half + total - 2 * sum((dl[i] for i in mem), start=F(0))
            outside = {i: half - a[i] for i in act if i not in mem}
            if 0 <= k_s <= 1:
                for labels in itertools.product((0, 1), repeat=r):
                    base = dict(outside)
                    for i, e in zip(mem, labels):
                        base[i] = a[i] - half + e
                    if k_s == 0:
                        base[cell.n - 1] = a_n
                        raw.append(("StandardPlus", mem, labels, None, 0, base))
                    else:
                        up, dn = dict(base), dict(base)
                        up[cell.n - 1] = a_n + k_s
                        dn[cell.n - 1] = a_n - k_s
                        raw.append(("StandardPlus", mem, labels, None, 1, up))
                        raw.append(("StandardMinus", mem, labels, None, -1, dn))
            for k in mem:
                c_k = k_s + 2 * dl[k]  # K of the set without / with the pivot
                if k_s < 0 < c_k:
                    for labels in itertools.product((0, 1), repeat=r):
                        e_k = labels[mem.index(k)]
                        base = dict(outside)
                        for i, e in zip(mem, labels):
                            base[i] = a[i] - half + e
                        base[k] = a[k] - half + e_k - k_s / (2 * a[k] - e_k)
                        base[cell.n - 1] = a_n
                        raw.append(("Middle", mem, labels, k, 0, base))
                if k_s < 1 < c_k:
                    for labels in itertools.product((0, 1), repeat=r):
                        e_k = labels[mem.index(k)]
                        base = dict(outside)
                        for i, e in zip(mem, labels):
                            base[i] = a[i] - half + e
                        base[k] = (a[k] - half + e_k
                                   + (1 - k_s) / (2 * a[k] - e_k))
                        for kind, s in (("TruncPlus", 1), ("TruncMinus", -1)):
                            co = dict(base)
                            co[cell.n - 1] = a_n + s
                            raw.append((kind, mem, labels, k, s, co))
    built = []
    rep = cell.point.rep
    for kind, mem, labels, pivot, sign, coords in raw:
        for bits in itertools.product((0, 1), repeat=len(cell.prism)):
            full = list(rep)
            for i, v in coords.items():
                full[i] = 1 - v if i in cell.reflected else v
            for j, b in zip(cell.prism, bits):
                full[j] = rep[j] - half + b
            built.append((kind, mem, labels, pivot, tuple(full),
                          kind == "StandardPlus" and sign == 0))
    built.sort(key=lambda v: v[4])
    return built


def _family_bases(rng):
    # four or six active values at 1/4 or 3/4 (delta = 1/8) drive some K(S)
    # to exactly 0, and 3/10 gives Middle vertices; 0 and 1/2 are prism
    # values, and those above 1/2 reflect
    quarters = (F(1, 4), F(3, 4))
    pool = (*quarters, F(3, 10), F(7, 10), F(0), F(1, 2))

    def coord(mode):
        if mode < 0.2:
            return rng.choice(quarters)
        if mode < 0.7:
            return rng.choice(pool)
        den = rng.choice((7, 9, 11, 12, 13, 20))
        return F(rng.randrange(den), den)
    counts = {2: 60, 3: 60, 4: 60, 5: 60, 6: 45, 7: 15}
    bases = []
    for n, count in counts.items():
        for _ in range(count):
            mode = rng.random()
            bases.append(tuple(coord(mode) for _ in range(n - 1))
                         + (F(rng.randrange(7), 7),))
    return bases


def test_integer_vertex_kernel_matches_fraction_families():
    seen = set()
    bases = _family_bases(random.Random(2719))
    assert len(bases) >= 300
    for base in bases:
        cell = CutPolytope(project(base))
        got = [(v.kind, v.support.members, v.support.labels, v.pivot,
                v.coords, v.merged) for v in cell.vertices()]
        assert got == _fraction_vertex_families(cell), base
        seen |= {v[0] for v in got}
        seen |= {"merged"} if any(v[5] for v in got) else set()
        seen |= {"prism"} if cell.prism else set()
        seen |= {"reflected"} if cell.reflected else set()
    assert seen >= {"merged", "Middle", "TruncPlus", "TruncMinus", "prism",
                    "reflected"}


def test_vertex_collision_raises_invariant_error():
    # listing the prism coordinate twice gives every vertex two copies
    cell = CutPolytope(project((F(0), F(1, 3), F(2, 7))))
    cell.prism = (0, 0)
    with pytest.raises(InvariantError) as exc:
        cell.vertices()
    assert isinstance(exc.value, AssertionError)
    assert str(exc.value).startswith(
        "vertex coordinates collide in the cell at P = 0,1/3,2/7: ")


def test_cell_records_are_slotted():
    v = cut_polytope(HEX_BASE).vertices()[0]
    for record in (v, v.support, cut_polytope(HEX_BASE).face_lattice()[0]):
        assert not hasattr(record, "__dict__")
    # the lattice sets its records' slots directly: they are the records
    # that `Face` itself builds, and as frozen
    for face in cut_polytope(HEX_BASE).face_lattice():
        twin = Face(face.dim, face.active, face.vertex_ids)
        assert (face == twin, hash(face), repr(face)) == (True, hash(twin), repr(twin))
        with pytest.raises(dataclasses.FrozenInstanceError):
            face.dim = 0


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def test_contains_examples():
    cell = cut_polytope(HEX_BASE)
    assert cell.contains(HEX_BASE)
    assert cell.contains((F(1, 4), F(5, 8)))
    assert not cell.contains((F(1, 4), F(7, 10)))


def test_active_descriptors_tight_set_and_outside_point():
    cell = cut_polytope(HEX_BASE)
    assert cell.active_descriptors(HEX_BASE) == frozenset()
    apex = cell.active_descriptors((F(1, 4), F(5, 8)))
    assert sorted(apex) == ["s+0", "s+1"]
    with pytest.raises(ValueError, match="outside the cell"):
        cell.active_descriptors((F(1, 4), F(7, 10)))


def test_points_of_the_wrong_length_are_refused():
    cell = cut_polytope((F(1, 4), F(1, 3), F(0)))
    assert cell.contains((F(1, 4), F(1, 3), F(0)))
    for x in ((0, 0), (0, 0, 0, 5), (F(1, 4), F(1, 3))):
        with pytest.raises(ValueError, match=r"^dimension mismatch$"):
            cell.contains(x)
        with pytest.raises(ValueError, match=r"^dimension mismatch$"):
            cell.active_descriptors(x)


@settings(max_examples=50)
@given(st.tuples(open_coord, open_coord),
       st.tuples(st.fractions(min_value=-1, max_value=2, max_denominator=12),
                 st.fractions(min_value=-2, max_value=2, max_denominator=12)))
def test_contains_iff_minimal_lift(base, x):
    p = project(base)
    cell = cut_polytope(p)
    is_lift = tuple(x) in minimal_lifts(p.rep, project(x))
    assert cell.contains(x) == is_lift


# ---------------------------------------------------------------------------
# face lattice
# ---------------------------------------------------------------------------

def test_hexagon_lattice():
    faces = cut_polytope(HEX_BASE).face_lattice()
    by_dim = {}
    for f in faces:
        by_dim.setdefault(f.dim, []).append(f)
    assert [len(by_dim[d]) for d in (0, 1, 2)] == [6, 6, 1]
    assert by_dim[2][0].active == ()
    assert len(by_dim[2][0].vertex_ids) == 6


def test_lattice_n3():
    cell = cut_polytope((F(1, 4), F(1, 4), F(0)))
    verts = cell.vertices()
    assert len(verts) == 18
    faces = cell.face_lattice()
    counts = {}
    for f in faces:
        counts[f.dim] = counts.get(f.dim, 0) + 1
    assert counts[0] == len(verts)
    # Euler relation for the boundary complex of a 3-polytope, plus interior
    assert counts[0] - counts[1] + counts[2] - counts[3] == 1


def test_lattice_closure_property():
    cell = cut_polytope((F(1, 5), F(2, 5), F(1, 7)))
    faces = cell.face_lattice()
    for f in faces:
        if f.dim == 0:
            continue
        members = set(f.vertex_ids)
        sub = [g for g in faces
               if g.dim == f.dim - 1 and set(g.vertex_ids) <= members]
        assert sub, f"face of dim {f.dim} has no facet inside it"


# ---------------------------------------------------------------------------
# equivalences
# ---------------------------------------------------------------------------

def _hex_labels(cell):
    a1, a2 = cell.point.rep
    out = {}
    for i, v in enumerate(cell.vertices()):
        if abs(v.coords[0] - a1) < F(1, 2):
            out["V+" if v.coords[1] > a2 else "V-"] = i
        else:
            s1 = "+" if v.coords[0] > a1 else "-"
            s2 = "+" if v.coords[1] > a2 else "-"
            out[f"C{s1}{s2}"] = i
    return out


def test_hexagon_vertex_classes():
    cell = cut_polytope(HEX_BASE)
    ids = _hex_labels(cell)
    classes = [set(c) for c in cell.vertex_equivalences()]
    assert {ids["V+"], ids["C--"], ids["C+-"]} in classes
    assert {ids["V-"], ids["C-+"], ids["C++"]} in classes
    assert len(classes) == 2


def test_hexagon_edge_classes():
    cell = cut_polytope(HEX_BASE)
    ids = _hex_labels(cell)
    faces = cell.face_lattice()
    edge_of = {}
    for i, f in enumerate(faces):
        if f.dim == 1:
            edge_of[frozenset(f.vertex_ids)] = i

    def edge(u, w):
        return edge_of[frozenset((ids[u], ids[w]))]

    classes = [set(c) for c in cell.face_equivalences()]
    assert {edge("V+", "C-+"), edge("C--", "V-")} in classes
    assert {edge("V+", "C++"), edge("C+-", "V-")} in classes
    assert {edge("C-+", "C--"), edge("C++", "C+-")} in classes


def test_equivalences_match_exhaustive_pairs_n3():
    cell = cut_polytope((F(1, 4), F(1, 4), F(0)))
    verts = cell.vertices()
    classes = cell.vertex_equivalences()
    cls_of = {}
    for ci, cls in enumerate(classes):
        for i in cls:
            cls_of[i] = ci
    for i, j in itertools.combinations(range(len(verts)), 2):
        same = project(verts[i].coords) == project(verts[j].coords)
        assert same == (cls_of[i] == cls_of[j])


def test_prism_wall_facets_paired():
    cell = cut_polytope((F(1, 2), F(1, 4), F(0)))
    verts = cell.vertices()
    assert len(verts) == 12
    assert {v.coords[0] for v in verts} == {F(0), F(1)}
    faces = cell.face_lattice()
    walls = {}
    for i, f in enumerate(faces):
        if f.dim == 2:
            x1s = {verts[j].coords[0] for j in f.vertex_ids}
            if len(x1s) == 1:
                walls[x1s.pop()] = i
    classes = [set(c) for c in cell.face_equivalences()]
    assert {walls[F(0)], walls[F(1)]} in classes


def test_top_face_is_its_own_class():
    cell = cut_polytope((F(1, 5), F(2, 5), F(1, 7)))
    faces = cell.face_lattice()
    top = [i for i, f in enumerate(faces) if f.dim == cell.n]
    assert len(top) == 1
    assert [top[0]] in cell.face_equivalences()


def test_middle_truncating_pairing_n6():
    """Equivalent middle/truncating vertices share the pivot and their
    pivot coordinates sum to the pivot label."""
    cell = cut_polytope((F(3, 10),) * 5 + (F(0),))
    verts = cell.vertices()
    classes = cell.vertex_equivalences()
    seen = 0
    for cls in classes:
        kinds = {verts[i].kind for i in cls}
        if "Middle" not in kinds:
            continue
        assert kinds <= {"Middle", "TruncPlus", "TruncMinus"}
        mids = [verts[i] for i in cls if verts[i].kind == "Middle"]
        truncs = [verts[i] for i in cls if verts[i].kind != "Middle"]
        for m, t in itertools.product(mids, truncs):
            assert m.pivot == t.pivot
            eps = t.support.label_of(t.pivot)
            assert m.coords[m.pivot] + t.coords[t.pivot] == eps
            seen += 1
    assert seen > 0


def _reference_vertex_classes(cell):
    """Vertex classes keyed on `project` of each vertex's Fractions."""
    groups = {}
    for i, v in enumerate(cell.vertices()):
        groups.setdefault(project(v.coords), []).append(i)
    return sorted(groups.values())


def _reference_barycenter_classes(cell):
    """Face classes keyed on `project` of each face's barycenter, a Fraction
    over the vertex numerators.  Every member after its class's first is
    checked to be the first face's image under the deck map that carries
    the first barycenter to its own (x_n moves by an integer k, and
    x_i -> (-1)^k x_i + s_i)."""
    faces = cell.face_lattice()
    nums, den = cell._vertex_nums, cell._vertex_den
    groups = {}
    for fid, f in enumerate(faces):
        total = list(map(sum, zip(*map(nums.__getitem__, f.vertex_ids))))
        rep = project([F(t, den * len(f.vertex_ids)) for t in total]).rep
        # integer pairs hash and compare far faster than Fractions
        key = (f.dim, *[(c.numerator, c.denominator) for c in rep])
        groups.setdefault(key, []).append((fid, total))
    for members in groups.values():
        first, base = members[0]
        verts = [nums[i] for i in faces[first].vertex_ids]
        mq = den * len(verts)
        for fid, total in members[1:]:
            k, rest = divmod(total[-1] - base[-1], mq)
            sign = -1 if k % 2 else 1
            steps = [divmod(t - sign * b, mq) for t, b in zip(total[:-1], base)]
            assert rest == 0 and not any(r for _, r in steps), (first, fid)
            g = DeckElement(k % 2, tuple(s for s, _ in steps), k)
            shift = [s * den for s in g.shift] + [g.last_shift * den]
            if g.parity:
                image = sorted((*map(operator.sub, shift, v[:-1]), v[-1] + shift[-1])
                               for v in verts)
            else:
                image = sorted(tuple(map(operator.add, shift, v)) for v in verts)
            assert image == [nums[i] for i in faces[fid].vertex_ids], (first, fid)
    return sorted([fid for fid, _ in members] for members in groups.values())


def _seeded_class_cells(rng, counts):
    # 30% of the coordinates at 0, 1/4, 1/2 or 3/4: prism values, values
    # that drive K(S) to 0, and their reflections
    special = (F(0), F(1, 4), F(1, 2), F(3, 4))

    def coord():
        if rng.random() < 0.3:
            return rng.choice(special)
        den = rng.choice((5, 7, 9, 10, 11, 12, 13, 20))
        return F(rng.randrange(den), den)
    return [tuple(coord() for _ in range(n))
            for n, count in counts.items() for _ in range(count)]


def test_deck_image_is_the_canonical_deck_map():
    # the key is the canonical image of the Fraction barycenter, written
    # over mq; a third of the barycenters get an integer head coordinate
    rng = random.Random(3130)
    integer_heads = 0
    for _ in range(600):
        n, q, m = rng.randint(2, 5), rng.randint(1, 12), rng.randint(1, 4)
        pts = [tuple(rng.randint(-3 * q, 3 * q) for _ in range(n)) for _ in range(m)]
        if rng.random() < 0.3:
            pts.append(tuple(-sum(col) + m * q * rng.randint(-2, 2)
                             for col in zip(*pts)))
        mq = q * len(pts)
        bary = [F(sum(col), mq) for col in zip(*pts)]
        integer_heads += any(b.denominator == 1 for b in bary[:-1])
        point, _ = canonicalize(bary)
        want = (mq, *(c * mq for c in point.rep))
        assert all(x.denominator == 1 for x in want), (pts, q)
        assert _barycenter_key(map(sum, zip(*pts)), mq) == want, (pts, q)
    assert integer_heads >= 100


def _assert_classes_match_references(cells):
    seen = set()
    for p in cells:
        # each class list is the first thing asked of a fresh cell: both
        # read vertex numerators that only exist once the vertices are built
        vertex_classes = CutPolytope(project(p)).vertex_equivalences()
        cell = CutPolytope(project(p))
        assert cell.face_equivalences() == _reference_barycenter_classes(cell), p
        assert vertex_classes == _reference_vertex_classes(cell), p
        verts = cell.vertices()
        seen |= {v.kind for v in verts}
        seen |= {"merged"} if any(v.merged for v in verts) else set()
        seen |= {"prism"} if cell.prism else set()
        seen |= {"reflected"} if cell.reflected else set()
    return seen


def test_classes_match_fraction_barycenters_on_seeded_cells():
    cells = _seeded_class_cells(random.Random(3131),
                                {2: 30, 3: 30, 4: 20, 5: 8, 6: 3})
    assert _assert_classes_match_references(cells) >= {
        "prism", "reflected", "Middle", "TruncPlus"}


def test_classes_match_fraction_barycenters_at_catalog_witnesses():
    cells = [s.witness for n in range(2, 7) for s in catalog(n)]
    assert _assert_classes_match_references(cells) >= {
        "prism", "merged", "Middle", "TruncPlus"}


def test_vertex_classes_match_project_n7_n8():
    cells = _seeded_class_cells(random.Random(3132), {7: 2, 8: 1})
    cells.append((F(1, 10), F(1, 5), F(2, 7), F(1, 3), F(2, 9), F(1, 3), F(3, 7)))
    for p in cells:
        cell = CutPolytope(project(p))
        assert cell.vertex_equivalences() == _reference_vertex_classes(cell), p


# ---------------------------------------------------------------------------
# independent references: Fraction ranks and a pairwise deck search
# ---------------------------------------------------------------------------

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


def _integer_rank(rows):
    """Rank of integer rows by plain fraction-free forward elimination."""
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for r in range(rank + 1, len(rows)):
            if f := rows[r][col]:
                rows[r] = [p[col] * x - f * y for x, y in zip(rows[r], p)]
        rank += 1
    return rank


def _affine_dim(points):
    """Affine dimension of exact points (ints or Fractions): the rank of
    their differences from the first, each scaled to integers."""
    base = points[0]
    rows = []
    for p in points[1:]:
        diff = [x - b for x, b in zip(p, base)]
        scale = math.lcm(*(x.denominator for x in diff))
        rows.append([int(x * scale) for x in diff])
    return _integer_rank(rows)


def _deck_maps(u, w):
    """Deck elements g with g(u) = w: at most one per parity."""
    for parity in (0, 1):
        sign = -1 if parity else 1
        shift = [wi - sign * ui for ui, wi in zip(u[:-1], w[:-1])]
        t = w[-1] - u[-1]
        if any(s.denominator != 1 for s in shift) or t.denominator != 1:
            continue
        if (int(t) - parity) % 2:
            continue
        g = DeckElement(parity, tuple(int(s) for s in shift), int(t))
        # the cell lies within 1 of its base point in every coordinate
        assert all(abs(v) <= 2 for v in g.shift) and abs(g.last_shift) <= 3
        yield g


def _faces_match(va, vb):
    """Some deck map sends the vertex list va onto the vertex set vb."""
    return any(all(apply_deck(g, c) in vb for c in va)
               for target in vb for g in _deck_maps(va[0], target))


def _reference_face_classes(cell):
    verts = cell.vertices()
    classes = []  # (dim, vertex set of the first member, member ids)
    for i, f in enumerate(cell.face_lattice()):
        va = [verts[j].coords for j in f.vertex_ids]
        for dim, vb, members in classes:
            if dim == f.dim and len(vb) == len(va) and _faces_match(va, vb):
                members.append(i)
                break
        else:
            classes.append((f.dim, set(va), [i]))
    return sorted(members for _, _, members in classes)


def _reference_cells():
    rng = random.Random(404)
    dens = (4, 6, 7, 9, 10, 12)
    cells = [HEX_BASE]
    for n in (2, 3):
        for _ in range(12):
            cells.append(tuple(F(rng.randrange(d), d)
                               for d in (rng.choice(dens) for _ in range(n))))
    cells += [(F(1, 5), F(3, 10), F(2, 5), F(1, 7)),
              (F(3, 4), F(1, 2), F(1, 3), F(0)),
              (F(1, 4), F(1, 4), F(7, 9), F(2, 7))]
    return cells


def _reference_lattice(cell):
    """The face lattice as the intersections of rank-tested facets.

    A row's vertex set is a facet when the normals tight on all of it have
    rank 1.  The faces are the cell and every nonempty intersection of
    facets, each of dimension n minus the rank of the normals tight on all
    of its vertices.  Returns (dim, active, vertex_ids) per face in
    `face_lattice` order, and the nonempty row vertex sets that are not
    facets.
    """
    rows = cell.halfspaces()
    tight_at = [frozenset(j for j, (_, nrm, off) in enumerate(rows)
                          if sum(a * x for a, x in zip(nrm, v.coords)) == off)
                for v in cell.vertices()]

    def on_all(face):
        return frozenset.intersection(*(tight_at[i] for i in face))

    def dim(face):
        return cell.n - _fraction_rank([rows[j][1] for j in on_all(face)])

    row_sets = {frozenset(i for i, t in enumerate(tight_at) if j in t)
                for j in range(len(rows))} - {frozenset()}
    facets = {s for s in row_sets if dim(s) == cell.n - 1}
    faces = {frozenset(range(len(tight_at)))}
    frontier = faces
    while frontier:
        frontier = {g & f for g in frontier for f in facets} - faces - {frozenset()}
        faces |= frontier
    out = [(dim(s), tuple(sorted(rows[j][0] for j in on_all(s))),
            tuple(sorted(s))) for s in faces]
    return sorted(out, key=lambda f: (f[0], f[2])), row_sets - facets


def _seeded_n5_cells(rng):
    """A generic, a prism and a reflected cell at n = 5."""
    def head(reflected=False):  # in (0, 1/2), or reflected into (1/2, 1)
        d = rng.choice((7, 9, 11, 13))
        a = F(rng.randrange(1, (d + 1) // 2), d)
        return 1 - a if reflected else a

    def last():
        d = rng.choice((7, 9, 11, 13))
        return F(rng.randrange(d), d)
    return [(head(), head(), head(), head(), last()),
            (head(), F(1, 2), head(), F(0), last()),
            (head(True), head(), head(True), head(), last())]


def test_face_lattice_matches_facet_intersections():
    cells = _reference_cells()
    cells += [s.witness for n in (2, 3, 4) for s in catalog(n)]
    # each cap is tight at a single vertex of this cell
    cells.append((F(1, 4), F(1, 4), F(1, 4), F(1, 4), F(1, 3)))
    cells += _seeded_n5_cells(random.Random(2605))
    non_facet_rows = 0
    for p in cells:
        cell = CutPolytope(project(p))
        expected, non_facets = _reference_lattice(cell)
        non_facet_rows += len(non_facets)
        got = [(f.dim, f.active, f.vertex_ids) for f in cell.face_lattice()]
        assert got == expected, p
    # some row is tight on a face below a facet, so rows and facets differ
    assert non_facet_rows > 0


def test_face_dims_match_affine_rank():
    cells = _reference_cells()
    # the seeded draws include prism and reflected coordinates
    assert any(F(1, 2) in p[:-1] or 0 in p[:-1] for p in cells if len(p) < 4)
    assert any(c > F(1, 2) for p in cells if len(p) < 4 for c in p[:-1])
    for p in cells:
        cell = cut_polytope(p)
        verts = cell.vertices()
        for f in cell.face_lattice():
            assert f.dim == _affine_dim([verts[i].coords for i in f.vertex_ids]), p


def test_face_vertex_counts_bound_affine_dims():
    # the premise of face_lattice's rule below dimension 4, on dimensions
    # read off the vertex coordinates (not Face.dim): a face of dimension
    # at most 1 has at most 2 vertices, and one of dimension k at least
    # k + 1.  A 2-face can hold 4 or more, which is why the rule stops at 3
    cells = [s.witness for n in range(2, 6) for s in catalog(n)]
    cells += _reference_cells()
    cells += random.Random(2611).sample([s.witness for s in catalog(6)], 8)
    wide = 0
    for p in cells:
        cell = cut_polytope(p)
        cell.vertices()
        nums = cell._vertex_nums  # the coordinates over one denominator
        for f in cell.face_lattice():
            count = len(f.vertex_ids)
            dim = _affine_dim([nums[i] for i in f.vertex_ids])
            assert count >= dim + 1, (p, f.vertex_ids)
            assert dim >= 2 or count <= 2, (p, f.vertex_ids)
            wide += cell.n >= 4 and dim == 2 and count >= 4
    assert wide > 0


def test_lattice_incidences_match_integer_dot_products():
    # the rows tight at each vertex, from the packed slack scan that the
    # lattice and the certifier share, against plain integer slacks; the
    # vertex faces must list the same rows
    cells = _seeded_class_cells(random.Random(2613),
                                {2: 6, 3: 6, 4: 4, 5: 3, 6: 2, 7: 1})
    assert any(c in (0, F(1, 2)) for p in cells for c in p[:-1])
    assert any(c > F(1, 2) for p in cells for c in p[:-1])
    cells.append((F(1, 10), F(1, 5), F(2, 7), F(1, 3), F(2, 9), F(1, 3), F(1, 3)))
    for p in cells:
        cell = cut_polytope(p)
        cell.vertices()
        nums, q = cell._vertex_nums, cell._vertex_den
        rows = sorted(cell.integer_rows())
        want = [[j for j, (_, normal, off) in enumerate(rows)
                 if sum(map(operator.mul, normal, v)) == off * q]
                for v in nums]
        assert all(sum(map(operator.mul, normal, v)) <= off * q
                   for v in nums for _, normal, off in rows), p
        bad, got, masks = _packed_scan([normal for _, normal, _ in rows],
                                       [off for _, _, off in rows], nums, q)
        assert bad == [None] * len(nums), p
        assert [list(tight) for tight in got] == want, p
        assert masks == [sum(1 << i for i, tight in enumerate(want) if j in tight)
                         for j in range(len(rows))], p
        if cell.n <= 6:
            assert [f.active for f in cell.face_lattice() if f.dim == 0] == [
                tuple(rows[j][0] for j in tight) for tight in want], p


def test_face_classes_match_pairwise_deck_search():
    cells = _reference_cells() + [s.witness for n in (2, 3, 4) for s in catalog(n)]
    for p in cells:
        cell = cut_polytope(p)
        assert cell.face_equivalences() == _reference_face_classes(cell), p


def test_face_class_size_is_geodesic_multiplicity():
    # the members of a face class are the faces of R(P) that hold a minimal
    # lift of one quotient point: from P, the barycenter of the class's
    # first face has one minimal lift per member
    cells = _reference_cells() + [s.witness for n in range(2, 6) for s in catalog(n)]
    sizes = set()
    for p in cells:
        cell = cut_polytope(p)
        verts, faces = cell.vertices(), cell.face_lattice()
        for cls in cell.face_equivalences():
            ids = faces[cls[0]].vertex_ids
            b = tuple(sum(col) / len(ids) for col in zip(*(verts[i].coords for i in ids)))
            lifts = minimal_lifts(cell.point.rep, project(b))
            count = len(brute_minimal_images(cell.point.rep, b)[1])
            assert len(lifts) == count == len(cls), (p, cls)
            sizes.add(len(cls))
    assert {1, 2, 3, 4, 32} <= sizes


def test_euler_relation_on_face_lattices():
    # sum of (-1)^dim over the faces, the cell included, is 1
    cells = [s.witness for n in range(2, 6) for s in catalog(n)]
    cells += random.Random(3133).sample([s.witness for s in catalog(6)], 8)
    for p in cells:
        faces = cut_polytope(p).face_lattice()
        assert sum((-1) ** f.dim for f in faces) == 1, p


def _gf2_rank(rows):
    """Rank over GF(2) of rows given as int bitmasks."""
    pivots = {}  # leading bit -> row
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)


def _quotient_betti_mod2(cell):
    """The mod-2 Betti numbers of the cell complex that the face classes
    make of the quotient: one cell per class, and the boundary entry from
    class c to class c' is the number of facets of a member of c that lie
    in c', mod 2.  A deck map carries a face's facets onto its image's,
    class by class, so every member of a class must give the same row."""
    faces, classes = cell.face_lattice(), cell.face_equivalences()
    cls_of = {fid: c for c, members in enumerate(classes) for fid in members}
    masks = [sum(1 << i for i in f.vertex_ids) for f in faces]
    # a facet of G holds its own lowest vertex, which is a vertex of G
    by_low = {}
    for fid, f in enumerate(faces):
        by_low.setdefault((f.dim, f.vertex_ids[0]), []).append(fid)
    count = [0] * (cell.n + 2)
    boundary = [[] for _ in range(cell.n + 2)]  # the rows of d_k
    for members in classes:
        k = faces[members[0]].dim
        count[k] += 1
        rows = set()
        for g in members:
            row = 0
            for v in faces[g].vertex_ids:
                for fid in by_low.get((k - 1, v), ()):
                    if masks[fid] & masks[g] == masks[fid]:
                        row ^= 1 << cls_of[fid]
            rows.add(row)
        assert len(rows) == 1, (cell.point.rep, members)
        boundary[k].append(rows.pop())
    rank = [_gf2_rank(rows) for rows in boundary]
    return [count[k] - rank[k] - rank[k + 1] for k in range(cell.n + 1)]


def test_quotient_mod2_betti_numbers_are_binomial():
    # K_n is the mapping torus of x -> -x on T^(n-1), which is the identity
    # on mod-2 homology, so b_k = C(n-1, k) + C(n-1, k-1) = C(n, k); a face
    # put in the wrong class breaks these more often than it breaks the
    # Euler characteristic.  Swapping one member between two classes of one
    # dimension keeps them at every witness; the check that every member
    # gives its class's boundary row catches that swap at n >= 3
    cells = 0
    for n in range(2, 6):
        for s in catalog(n):
            betti = _quotient_betti_mod2(cut_polytope(s.witness))
            assert betti == [math.comb(n, k) for k in range(n + 1)], (s.witness, betti)
            cells += 1
    assert cells == 62


def test_face_census_n5():
    cell = cut_polytope((F(1, 10), F(1, 5), F(2, 7), F(1, 3), F(1, 3)))
    faces = cell.face_lattice()
    assert len(faces) == 1331
    assert len(cell.face_equivalences()) == 272
    assert sum((-1) ** f.dim for f in faces) == 1  # Euler, top face included


def test_rank_matches_fraction_elimination():
    rng = random.Random(505)
    cases = [[[F(1, 2)]], [[F(0)]], [[F(2, 3), F(1, 2)], [F(-1, 5), F(3)]]]
    for _ in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(cols)]
             for _ in range(rows)]
        if rng.random() < 0.3:  # a zero row
            m.insert(rng.randrange(rows + 1), [F(0)] * cols)
        if rows > 1 and rng.random() < 0.3:  # a dependent row
            a, b = rng.sample(m, 2)
            m.append([F(1, 3) * x - F(5, 2) * y for x, y in zip(a, b)])
        cases.append(m)
    assert any(x.denominator > 1 for m in cases for row in m for x in row)
    for m in cases:
        assert mat_rank(m) == _fraction_rank(m), m


# ---------------------------------------------------------------------------
# sharing
# ---------------------------------------------------------------------------

def test_cells_are_shared_only_while_held():
    p = (F(1, 10), F(1, 5), F(2, 7))
    cell = cut_polytope(p)
    assert cut_polytope(p) is cell
    assert cut_polytope(canonicalize((F(11, 10), F(1, 5), F(2, 7)))[0]) is cell
    dropped = weakref.ref(cell)
    del cell
    assert dropped() is None


def test_face_work_on_dropped_cells_is_freed():
    # three generic n = 7 cells with face work, each dropped after use.  A
    # cache that kept them held about 464 000 more allocated blocks (about
    # 22 MB) a cell.  The count is of live pymalloc blocks, after a full
    # collection has emptied the free lists; tracemalloc would make each
    # lattice about seven times slower
    gc.collect()
    start = sys.getallocatedblocks()
    for x in (F(1, 3), F(3, 7), F(1, 5)):
        cell = cut_polytope((F(1, 10), F(1, 5), F(2, 7), F(1, 3), F(2, 9),
                             F(1, 3), x))
        assert len(cell.face_equivalences()) > 5000
        del cell
        gc.collect()
        grown = sys.getallocatedblocks() - start
        assert grown < 1000, grown


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_face_work_refused_above_n7():
    p = (F(1, 10), F(1, 5), F(2, 7), F(1, 3), F(2, 9), F(1, 3), F(3, 7), F(1, 5))
    cell = cut_polytope(p)
    for work in (cell.face_lattice, cell.face_equivalences, cell.to_json,
                 lambda: representatives(p)):
        with pytest.raises(ValueError, match=r"n <= 7: .* n = 8 has about 4374 vertices"):
            work()
    assert cell._vertices is None  # refused before any vertex was built
    assert len(cell.vertices()) == 5712


def test_json_shape():
    data = cut_polytope(HEX_BASE).to_json()
    assert data["n"] == 2
    assert data["P"] == ["1/4", "0"]
    assert len(data["vertices"]) == 6
    kinds = {v["kind"] for v in data["vertices"]}
    assert kinds == {"StandardPlus", "StandardMinus"}
    assert {f["dim"] for f in data["faces"]} == {0, 1, 2}
    assert sorted(len(c) for c in data["equiv"]["vertices"]) == [3, 3]
