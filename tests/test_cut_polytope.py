"""Cells of closest lifts: half-spaces, vertex families, faces, pairings."""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatklein import (cut_polytope, delta, equivalent, k_value, minimal_lifts, project,
                       representatives)
from flatklein._exact import gcd_reduce, integerize_row, mat_rank
from flatklein.cut_polytope import Cap, LabeledSet, Wall, chamber_reduce
from flatklein.klein_space import DeckElement, apply_deck, neighbor_set
from flatklein.oracle import brute_vertices

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
    for d, normal, _ in cell.halfspaces():
        if d.key().startswith("s"):
            assert normal[0] == 0


@given(st.lists(open_coord, min_size=2, max_size=4))
def test_base_point_strictly_interior(coords):
    p = project(tuple(coords))
    cell = cut_polytope(p)
    for _, normal, offset in cell.halfspaces():
        assert sum(nc * pc for nc, pc in zip(normal, p.rep)) < offset


def _integer_halfspace(normal, offset):
    ints, off = integerize_row(normal, offset)
    return gcd_reduce((*ints, off))


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
    """Each descriptor's inequality built on Fractions, one at a time."""
    out = []
    a = cell.reduced
    for d in cell.descriptors():
        normal = [F(0)] * cell.n
        if isinstance(d, Wall):
            normal[d.index] = F(d.sign)
            offset = d.sign * a[d.index] + F(1, 2)
        elif isinstance(d, Cap):
            normal[-1] = F(d.sign)
            offset = d.sign * a[-1] + 1
        else:
            # sign*(x_n - a_n) <= 1/2 + sum c_i (x_i - bit_i/2)
            normal[-1] = F(d.sign)
            offset = d.sign * a[-1] + F(1, 2)
            for i in cell.active:
                c = 2 * a[i] - d.delta_bits[i]
                normal[i] = -c
                offset -= c * d.delta_bits[i] / 2
        for i in cell.reflected:
            offset -= normal[i]
            normal[i] = -normal[i]
        out.append((d, tuple(normal), offset))
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
    red, refl, prism = chamber_reduce((F(1, 4), F(1, 3), F(0)))
    assert (red, refl, prism) == ((F(1, 4), F(1, 3), F(0)), (), ())

    red, refl, prism = chamber_reduce((F(3, 4), F(0)))
    assert red == (F(1, 4), F(0)) and refl == (0,) and prism == ()

    red, refl, prism = chamber_reduce((F(3, 4), F(1, 2), F(0)))
    assert red == (F(1, 4), F(1, 2), F(0))
    assert refl == (0,) and prism == (1,)


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
    assert sorted(d.key() for d in apex) == ["s+0", "s+1"]
    with pytest.raises(ValueError, match="outside the cell"):
        cell.active_descriptors((F(1, 4), F(7, 10)))


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
        same = equivalent(verts[i].coords, verts[j].coords)
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


def _affine_dim(points):
    base = points[0]
    return _fraction_rank([[x - b for x, b in zip(p, base)] for p in points[1:]])


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


def test_face_classes_match_pairwise_deck_search():
    for p in _reference_cells():
        cell = cut_polytope(p)
        assert cell.face_equivalences() == _reference_face_classes(cell), p


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
