"""Metric core: deck action, canonical forms, distance, minimal lifts."""

import math
import random
from collections import Counter
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatklein import (
    DeckElement,
    KleinPoint,
    apply_deck,
    canonicalize,
    geodesic_path,
    klein_space,
    minimal_lifts,
    neighbor_set,
    project,
    squared_distance,
)
from flatklein._exact import common_denominator
from flatklein.klein_space import LIFTS_MAX, _tied_branches
from flatklein.oracle import brute_distance, brute_minimal_images

coords = st.fractions(min_value=-3, max_value=3, max_denominator=16)


def pts(n, lo=2, hi=4):
    dims = st.integers(min_value=lo, max_value=hi) if n is None else st.just(n)
    return dims.flatmap(lambda k: st.tuples(*[coords] * k))


small_deck = st.tuples(
    st.integers(min_value=0, max_value=1),
    st.tuples(*[st.integers(min_value=-2, max_value=2)] * 2),
    st.integers(min_value=-2, max_value=2),
).map(lambda t: DeckElement(t[0], t[1], 2 * t[2] + t[0]))


# ---------------------------------------------------------------------------
# deck group
# ---------------------------------------------------------------------------

def test_glide_action():
    glide = DeckElement(1, (1,), 1)
    assert apply_deck(glide, (F(1, 3), F(2, 7))) == (F(2, 3), F(2, 7) + 1)
    # the glide squares to a pure vertical translation by 2
    twice = glide.compose(glide)
    assert twice == DeckElement(0, (0,), 2)
    assert apply_deck(twice, (F(1, 3), F(2, 7))) == (F(1, 3), F(2, 7) + 2)


def test_identity_action():
    x = (F(1, 5), F(3, 5), F(7, 9))
    assert apply_deck(DeckElement.identity(3), x) == x


def test_deck_parity_constraint():
    with pytest.raises(ValueError):
        DeckElement(1, (0,), 0)
    with pytest.raises(ValueError):
        DeckElement(0, (1,), 3)
    with pytest.raises(ValueError, match="^parity must be 0 or 1$"):
        DeckElement(2, (0,), 0)
    with pytest.raises(ValueError, match="^shift must be a tuple of ints$"):
        DeckElement(0, (F(1, 2),), 0)


@given(small_deck, small_deck, pts(3))
def test_deck_composition_matches_sequenced_action(g, h, x):
    assert apply_deck(g.compose(h), x) == apply_deck(g, apply_deck(h, x))


@given(small_deck, pts(3))
def test_deck_inverse(g, x):
    assert apply_deck(g.inverse(), apply_deck(g, x)) == x
    assert g.compose(g.inverse()) == DeckElement.identity(3)


# ---------------------------------------------------------------------------
# canonicalization and equivalence
# ---------------------------------------------------------------------------

def test_canonicalize_examples():
    y, g = canonicalize((F(3, 10), F(2, 5)))
    assert y.rep == (F(3, 10), F(2, 5))
    assert g == DeckElement.identity(2)

    y, g = canonicalize((F(5, 4), F(-1, 2)))
    assert y.rep == (F(3, 4), F(1, 2))
    assert apply_deck(g, (F(5, 4), F(-1, 2))) == y.rep

    y, g = canonicalize((F(0), F(2)))
    assert y.rep == (F(0), F(0))
    assert g == DeckElement(0, (0,), -2)


@given(pts(None))
def test_canonicalize_roundtrip_and_idempotence(x):
    y, g = canonicalize(x)
    assert apply_deck(g, x) == y.rep
    assert all(0 <= c < 1 for c in y.rep)
    again, g2 = canonicalize(y.rep)
    assert again == y and g2 == DeckElement.identity(len(x))


def _three_step_canonicalize(x):
    """The reduction step by step: even translation, glide, then mod 1."""
    n = len(x)
    g = DeckElement(0, (0,) * (n - 1), -2 * math.floor(x[-1] / 2))
    cur = apply_deck(g, x)
    if cur[-1] >= 1:
        unglide = DeckElement(1, (1,) * (n - 1), -1)
        g = unglide.compose(g)
        cur = apply_deck(unglide, cur)
    wrap = DeckElement(0, tuple(-math.floor(c) for c in cur[:-1]), 0)
    return apply_deck(wrap, cur), wrap.compose(g)


def test_canonicalize_matches_three_step_recipe():
    rng = random.Random(808)
    for _ in range(2000):
        n = rng.randint(2, 7)
        den = rng.choice((1, 2, 3, 4, 6, 12))
        x = tuple(F(rng.randrange(-60 * den, 60 * den), den) for _ in range(n))
        y, g = canonicalize(x)
        assert (y.rep, g) == _three_step_canonicalize(x), x


def test_klein_point_validation():
    assert KleinPoint((F(0), F(99, 100), 0)).n == 3
    for rep in ((F(1), F(0)), (F(-1, 3), F(1, 2)), (F(1, 2), F(7, 7)), (F(0), 1)):
        with pytest.raises(ValueError, match=r"\[0,1\)"):
            KleinPoint(rep)
    for rep in ((F(1, 4),), ()):
        with pytest.raises(ValueError,
                           match=r"^points must have dimension at least 2$"):
            KleinPoint(rep)


def test_klein_point_refuses_inexact_coordinates():
    # the coordinate that is no rational is named, as `rat` names it
    for rep, text in (((0.5, 0.25), r"0\.5"), (("1/2", "1/3"), "'1/2'"),
                      ((F(1, 2), 0.75), r"0\.75")):
        with pytest.raises(TypeError, match=rf"^not an exact rational: {text}$"):
            KleinPoint(rep)


def test_klein_point_error_names_its_first_bad_coordinate():
    # coordinates are checked in order: an out-of-range one before an
    # inexact one raises ValueError, an inexact one first raises TypeError
    with pytest.raises(ValueError, match=r"\[0,1\)"):
        KleinPoint((F(3, 2), 0.5))
    with pytest.raises(TypeError, match=r"^not an exact rational: 0\.5$"):
        KleinPoint((0.5, F(3, 2)))


def test_project_returns_a_klein_point_unchanged():
    y = KleinPoint((F(1, 4), F(0)))
    assert project(y) is y
    assert project((F(5, 4), F(2))) == y


def test_equivalent_examples():
    assert project((F(1, 4), F(0))) == project((F(3, 4), F(1)))
    assert project((F(1, 4), F(0))) != project((F(3, 4), F(0)))
    assert project((F(1, 4), F(0))) == project((F(1, 4), F(0)))


@given(pts(None), st.data())
def test_equivalent_iff_same_canonical_point(x, data):
    y = data.draw(pts(len(x), lo=len(x), hi=len(x)))
    assert (project(x) == project(y)) == (canonicalize(x)[0] == canonicalize(y)[0])


@given(small_deck, pts(3))
def test_deck_images_are_equivalent(g, x):
    assert project(x) == project(apply_deck(g, x))


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------

def test_distance_examples():
    assert squared_distance(project((F(0), F(0))), project((F(1, 2), F(1)))) \
        == F(1, 4)
    # apex of the hexagon cell at a = (1/4, 0) sits at distance 5/8
    assert squared_distance(project((F(1, 4), F(0))),
                            project((F(1, 4), F(5, 8)))) == F(25, 64)
    z = project((F(1, 5), F(3, 7), F(1, 2)))
    assert squared_distance(z, z) == 0


@given(pts(None))
def test_distance_symmetric(x):
    n = len(x)
    y = project(x)
    z = project(tuple(reversed(x))) if n else y
    assert squared_distance(y, z) == squared_distance(z, y)


@settings(max_examples=60)
@given(pts(None), st.data())
def test_distance_matches_windowed_enumeration(x, data):
    y = project(x)
    z = project(data.draw(pts(len(x), lo=len(x), hi=len(x))))
    assert squared_distance(y, z) == brute_distance(y, z)


@settings(max_examples=40)
@given(pts(3), st.data())
def test_triangle_inequality_exact(x, data):
    """sqrt(A) <= sqrt(B) + sqrt(C) iff A-B-C <= 0 or (A-B-C)^2 <= 4BC."""
    u = project(x)
    v = project(data.draw(pts(3)))
    w = project(data.draw(pts(3)))
    a = squared_distance(u, w)
    b = squared_distance(u, v)
    c = squared_distance(v, w)
    gap = a - b - c
    assert gap <= 0 or gap * gap <= 4 * b * c


# ---------------------------------------------------------------------------
# minimal lifts / neighbor set / paths
# ---------------------------------------------------------------------------

def test_minimal_lifts_hexagon_apex():
    src = (F(1, 4), F(0))
    lifts = minimal_lifts(src, project((F(1, 4), F(5, 8))))
    assert lifts == [(F(-1, 4), F(-3, 8)), (F(1, 4), F(5, 8)),
                     (F(3, 4), F(-3, 8))]
    d2 = F(25, 64)
    for q in lifts:
        assert sum((a - b) ** 2 for a, b in zip(src, q)) == d2


def test_minimal_lifts_generic_targets():
    src = (F(1, 4), F(0))
    assert minimal_lifts(src, project((F(1, 4), F(1, 4)))) == \
        [(F(1, 4), F(1, 4))]
    assert minimal_lifts(src, project(src)) == [src]


def _vertex_pair(n):
    """P = (0, ..., 0, 1/3) and Q = (1/2, ..., 1/2, 5/6): 2^n minimal lifts."""
    return ((F(0),) * (n - 1) + (F(1, 3),),
            project((F(1, 2),) * (n - 1) + (F(5, 6),)))


def test_minimal_lifts_refuses_more_than_lifts_max(monkeypatch):
    assert LIFTS_MAX == 2 ** 16
    y, z = _vertex_pair(16)
    lifts = minimal_lifts(y, z)
    assert len(lifts) == 2 ** 16 and len(set(lifts)) == 2 ** 16

    def refuse(*args):
        raise AssertionError("a lift was built")

    # the count comes from the option counts, before any lift is built
    monkeypatch.setattr(klein_space, "product", refuse)
    y, z = _vertex_pair(17)
    with pytest.raises(ValueError, match=(
            r"^minimal_lifts is limited to 65536 lifts: this pair has "
            r"131072 minimal lifts$")):
        minimal_lifts(y, z)


@settings(max_examples=60)
@given(pts(None), st.data())
def test_minimal_lifts_match_enumerated_images(x, data):
    z = project(data.draw(pts(len(x), lo=len(x), hi=len(x))))
    y, _ = canonicalize(x)
    d2, images = brute_minimal_images(y.rep, z)
    assert minimal_lifts(y.rep, z) == list(images)
    assert squared_distance(y, z) == d2


def test_metric_kernel_matches_enumeration():
    # the integer kernel against the windowed oracle: points in [-60, 60)
    # over small denominators (many ties) and one large prime
    rng = random.Random(4242)
    dens = (1, 2, 4, 7, 12, 20, 2**61 - 1)
    lift_counts = Counter()
    branches = set()
    for k in range(700):
        n = 2 + k % 5
        den = dens[k % len(dens)]
        x, w = (tuple(F(rng.randrange(-60 * den, 60 * den), den) for _ in range(n))
                for _ in range(2))
        y, g = canonicalize(x)
        assert all(0 <= c < 1 for c in y.rep) and apply_deck(g, x) == y.rep
        assert brute_distance(x, y.rep, window=62) == 0, x
        z = project(w)
        d2, images = brute_minimal_images(y, z)
        assert squared_distance(y, z) == d2 == squared_distance(z, y), (x, w)
        lifts = minimal_lifts(y.rep, z)
        assert lifts == images, (x, w)
        assert minimal_lifts(x, z) == brute_minimal_images(x, z, window=62)[1]
        lift_counts[len(lifts)] += 1
        # a lift's branch is the parity of its vertical shift
        branches |= {(q[-1] - z.rep[-1]) % 2 for q in lifts}
    assert lift_counts[2] and any(c >= 4 for c in lift_counts), lift_counts
    assert branches == {0, 1}


def test_parity_branches_never_share_a_lift():
    # why `_lifts` needs no set to drop duplicates: where both parity
    # branches tie, on the last axis (numerators over D) branch 0's lifts
    # are b_n mod 2D and branch 1's b_n + D, so their products are disjoint.
    # Denominators 1, 2 and 4 give half-integer and 0 coordinates and ties
    rng = random.Random(3303)
    tied_at = Counter()
    for k in range(2100):
        n = 2 + k % 7
        den = (1, 2, 4)[k % 3]
        x = tuple(F(rng.randrange(-2 * den, 2 * den), den) for _ in range(n))
        z = project(tuple(F(rng.randrange(den), den) for _ in range(n)))
        nums, big_d = common_denominator(x + z.rep)
        tied = _tied_branches(nums[:n], nums[n:], big_d)
        if len(tied) == 1:
            continue
        (_, even), (_, odd) = tied
        lifts = [set(product(*even)), set(product(*odd))]
        assert not lifts[0] & lifts[1], (x, z)
        last = nums[-1]
        assert {q[-1] % (2 * big_d) for q in lifts[0]} == {last % (2 * big_d)}
        assert {q[-1] % (2 * big_d) for q in lifts[1]} == \
            {(last + big_d) % (2 * big_d)}
        assert len(minimal_lifts(x, z)) == len(lifts[0]) + len(lifts[1])
        tied_at[n] += 1
    assert set(tied_at) == set(range(2, 9)), tied_at


def test_neighbor_set_counts():
    assert len(neighbor_set((F(1, 4), F(1, 3)))) == 8
    assert len(neighbor_set((F(1, 2), F(1, 3)))) == 6
    assert len(neighbor_set((F(1, 4), F(1, 4), F(0)))) == 14
    assert len(neighbor_set((F(1), F(7, 2)))) == 6  # 1 and any last value
    for p in ((F(-1, 4), F(1, 3)), (F(1, 4), F(5, 4), F(0))):
        with pytest.raises(ValueError, match=r"must lie in \[0,1\]$"):
            neighbor_set(p)


def test_neighbor_set_contents_n2():
    a2 = F(1, 3)
    got = set(neighbor_set((F(1, 4), a2)))
    expected = {
        (F(5, 4), a2), (F(-3, 4), a2),
        (F(1, 4), a2 + 2), (F(1, 4), a2 - 2),
        (F(-1, 4), a2 + 1), (F(-1, 4), a2 - 1),
        (F(3, 4), a2 + 1), (F(3, 4), a2 - 1),
    }
    assert got == expected


@given(st.integers(min_value=2, max_value=4).flatmap(lambda k: st.tuples(
    *[st.fractions(min_value=0, max_value=1, max_denominator=16)] * k)))
def test_neighbor_set_distinct_and_never_p(x):
    pts_out = neighbor_set(x)
    assert len(set(pts_out)) == len(pts_out)
    assert tuple(x) not in pts_out


def test_geodesic_path_sampling():
    path = geodesic_path((F(1, 4), F(0)), (F(1, 4), F(5, 8)), 3)
    assert [p.rep for p in path] == [
        (F(1, 4), F(0)), (F(1, 4), F(5, 16)), (F(1, 4), F(5, 8))]

    ends = geodesic_path((F(1, 4), F(0)), (F(-1, 4), F(-3, 8)), 2)
    assert ends[0] == project((F(1, 4), F(0)))
    assert ends[-1] == project((F(1, 4), F(5, 8)))


def test_geodesic_path_rejects_non_minimal_segment():
    with pytest.raises(ValueError):
        geodesic_path((F(1, 4), F(0)), (F(1, 4), F(7, 4)), 3)
    with pytest.raises(ValueError):
        geodesic_path((F(1, 4), F(0)), (F(1, 4), F(5, 8)), 1)
