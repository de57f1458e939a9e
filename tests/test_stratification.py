"""Sign-vector strata: classification, dimensions, catalogs."""

import itertools
import random
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import flatklein
from flatklein import (
    DomainDescriptor,
    SignVector,
    catalog,
    classify,
)
from flatklein import stratification
from flatklein._exact import InvariantError, common_denominator
from flatklein.oracle import brute_vertices
from flatklein.stratification import (
    INTERVAL,
    POINT,
    PRISM,
    _cone_dimension,
    _nonempty,
    _strata_for_size,
    _stratum_dim,
    _stratum_of,
    _unforced,
)

canon_coord = st.fractions(min_value=0, max_value=F(39, 40), max_denominator=40)


def _full_interval(strata, n):
    want = (INTERVAL,) * n
    return [s for s in strata if s.domain.kinds == want]


# ---------------------------------------------------------------------------
# descriptors and sign vectors
# ---------------------------------------------------------------------------

def test_domain_descriptor_of_point():
    d = DomainDescriptor.of_point((F(1, 4), F(1, 2), F(0), F(1, 3)))
    assert d.kinds == (INTERVAL, PRISM, PRISM, INTERVAL)
    assert d.active == (0,)
    assert d.prism == (1, 2)

    assert DomainDescriptor.of_point((F(1, 4), F(0))).kinds == (INTERVAL, POINT)


def test_domain_descriptor_validation():
    with pytest.raises(ValueError):
        DomainDescriptor((INTERVAL,))
    with pytest.raises(ValueError):
        DomainDescriptor(("weird", INTERVAL))
    with pytest.raises(ValueError):
        DomainDescriptor((INTERVAL, PRISM))  # prism is not a last-coordinate kind
    with pytest.raises(ValueError):
        DomainDescriptor.of_point((F(5, 4), F(0)))


def test_sign_vector_validation():
    SignVector((0, 2), (1, 1, 1, -1))
    with pytest.raises(ValueError):
        SignVector((0, 2), (1, 1, 1))
    with pytest.raises(ValueError):
        SignVector((0,), (1, 2))


def test_sign_vector_lookup():
    sv = SignVector((1, 3), (1, 1, 0, -1))
    assert sv.sign_of(()) == 1
    assert sv.sign_of((3,)) == 0
    assert sv.sign_of((3, 1)) == -1
    assert dict(sv.items())[(1,)] == 1
    with pytest.raises(ValueError,
                       match=r"^index 2 is not active: active = \(1, 3\)$"):
        sv.sign_of((2,))
    with pytest.raises(ValueError):
        sv.sign_of((3, 3))


def test_sign_of_agrees_with_items_in_any_order():
    rng = random.Random(31)
    for k in range(7):
        active = tuple(sorted(rng.sample(range(9), k)))
        sv = SignVector(active, tuple(rng.choice((-1, 0, 1)) for _ in range(2 ** k)))
        items = sv.items()
        assert [sub for sub, _ in items] == [
            sub for r in range(k + 1) for sub in itertools.combinations(active, r)]
        for sub, sign in items:
            assert sv.sign_of(rng.sample(sub, len(sub))) == sign


def test_infeasible_pattern_is_empty():
    # four active coordinates: K(full) = sum of squares, never negative
    assert not _nonempty(4, (1,) * 15 + (-1,))


def test_nonpositive_sign_on_non_degenerable_subset_is_empty():
    # below |S| = 5 (or 4 with nothing outside S), K_S is bounded away
    # from 0, so a sign 0 or -1 there is refused before any LP
    for active, slot, sign in (((0, 1), 0, 0), ((0, 1), 3, -1),
                               ((0, 1, 2), 1, -1), ((0, 1, 2), 7, 0)):
        signs = [1] * 2 ** len(active)
        signs[slot] = sign
        assert not _nonempty(len(active), tuple(signs))


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_generic_point_full_dim():
    s = classify((F(2, 5),) * 6 + (F(1, 3),))
    assert all(sign == 1 for _, sign in s.alpha.items())
    assert s.dim == 7
    assert not s.coincidence


def test_classify_center_n7():
    s = classify((F(1, 4),) * 6 + (F(1, 3),))
    for sub, sign in s.alpha.items():
        size = len(sub)
        assert sign == (1 if size <= 4 else (0 if size == 5 else -1))
    assert s.dim == 1
    assert s.coincidence


def test_classify_uniform_3_10_n6():
    s = classify((F(3, 10),) * 5 + (F(1, 3),))
    full = (0, 1, 2, 3, 4)
    assert s.alpha.sign_of(full) == -1
    assert all(sign == 1 for sub, sign in s.alpha.items() if sub != full)
    assert s.dim == 6


def test_classify_prism_coordinates_excluded():
    s = classify((F(1, 2), F(3, 10), F(0), F(1, 5)))
    assert s.domain.kinds == (PRISM, INTERVAL, PRISM, INTERVAL)
    assert s.alpha.active == (1,)


def test_same_stratum_examples():
    def stratum(p):
        s = classify(p)
        return s.domain, s.alpha
    p = (F(3, 10),) * 5 + (F(1, 3),)
    assert stratum(p) == stratum(p)
    assert stratum(p) == stratum((F(7, 20),) * 5 + (F(1, 3),))
    assert stratum(p) != stratum((F(1, 10),) * 5 + (F(1, 3),))


@given(st.lists(canon_coord, min_size=2, max_size=6))
def test_classify_sign_monotone(coords):
    s = classify(tuple(coords))
    sign = dict(s.alpha.items())
    for sub, val in sign.items():
        for drop in sub:
            smaller = tuple(i for i in sub if i != drop)
            assert val <= sign[smaller]
            if val == 0:
                assert sign[smaller] > 0


@given(st.lists(canon_coord, min_size=2, max_size=5), st.data())
def test_classify_reflection_invariant(coords, data):
    idx = data.draw(st.integers(min_value=0, max_value=len(coords) - 2))
    flipped = list(coords)
    flipped[idx] = (1 - flipped[idx]) % 1
    a = classify(tuple(coords))
    b = classify(tuple(flipped))
    assert (a.domain, a.alpha, a.dim) == (b.domain, b.alpha, b.dim)


# ---------------------------------------------------------------------------
# catalogs
# ---------------------------------------------------------------------------

def test_catalog_rejects_out_of_range():
    for n in (1, 8):
        with pytest.raises(ValueError):
            catalog(n)


def test_catalog_small_n_one_stratum_per_domain():
    for n in (2, 3, 4):
        strata = catalog(n)
        assert len(strata) == 2 ** n
        assert len({s.domain.kinds for s in strata}) == 2 ** n
        for s in strata:
            assert all(sign == 1 for _, sign in s.alpha.items())


def test_catalog_n2_dims():
    dims = {s.domain.kinds: s.dim for s in catalog(2)}
    assert dims == {
        (INTERVAL, INTERVAL): 2,
        (INTERVAL, POINT): 1,
        (PRISM, INTERVAL): 1,
        (PRISM, POINT): 0,
    }


def test_catalog_n5_interval_split():
    strata = _full_interval(catalog(5), 5)
    assert sorted(s.dim for s in strata) == [1, 5]
    degenerate = next(s for s in strata if s.dim == 1)
    # the K(full)=0 locus is exactly the grid point b=0, i.e. all a_i = 1/4
    assert degenerate.alpha.sign_of((0, 1, 2, 3)) == 0
    assert degenerate.witness[:4] == (F(1, 4),) * 4


def test_catalog_n6_interval_split():
    strata = _full_interval(catalog(6), 6)
    full = (0, 1, 2, 3, 4)
    dims = sorted((s.alpha.sign_of(full), s.dim) for s in strata)
    assert dims == [(-1, 6), (0, 5), (1, 6)]


def _type_of(stratum):
    active = stratum.alpha.active
    full = active
    sign = dict(stratum.alpha.items())
    tau = sign[full]
    if tau == 1:
        return "a"
    if tau == 0:
        return "b"
    level5 = [sign[sub] for sub in sign if len(sub) == 5]
    zeros, negs = level5.count(0), level5.count(-1)
    if negs == 1:
        return "f"
    if zeros == 0:
        return "c"
    if zeros == 1:
        return "d"
    if zeros == 2:
        return "e"
    assert zeros == 6
    return "center"


def test_catalog_n7_interval_types():
    strata = _full_interval(catalog(7), 7)
    assert len(strata) == 31
    counts, dims = {}, {}
    for s in strata:
        t = _type_of(s)
        counts[t] = counts.get(t, 0) + 1
        dims.setdefault(t, set()).add(s.dim)
    assert counts == {"a": 1, "b": 1, "c": 1, "d": 6, "e": 15, "f": 6,
                      "center": 1}
    assert dims == {"a": {7}, "b": {6}, "c": {7}, "d": {6}, "e": {2},
                    "f": {7}, "center": {1}}
    flagged = [s for s in strata if s.coincidence]
    assert len(flagged) == 1 and _type_of(flagged[0]) == "center"


def test_catalog_n7_total():
    assert len(catalog(7)) == 242


def test_catalog_witnesses_realize_their_strata():
    # `catalog` classifies one witness per pattern and builds the rest: each
    # stratum must be the one `classify` gives at its witness, the witness
    # and the coincidence flag included
    for n in range(2, 8):
        for s in catalog(n):
            assert classify(s.witness) == s


def _fraction_signs(p):
    """Sign of K_S for every subset S, on Fractions and term by term."""
    active = [i for i, c in enumerate(p[:-1]) if c not in (0, F(1, 2))]
    b = [min(p[i], 1 - p[i]) - F(1, 4) for i in active]
    m = len(b)
    signs = []
    for r in range(m + 1):
        for sub in itertools.combinations(range(m), r):
            k = (F(m + 4 - 2 * r, 16) + sum(b[j] ** 2 for j in sub)
                 - sum(b[j] ** 2 for j in range(m) if j not in sub))
            signs.append((k > 0) - (k < 0))
    return tuple(active), tuple(signs)


def test_classify_signs_match_fraction_slacks():
    rng = random.Random(909)
    points = [s.witness for s in catalog(7)]
    for k in range(400):
        n = 2 + k % 8
        # coordinates near 1/4 or 3/4 make the large subsets degenerate
        p = tuple(rng.choice((F(0), F(1, 2))) if rng.random() < 0.15
                  else rng.choice((F(1, 4), F(3, 4))) + F(rng.randrange(-4, 5), 80)
                  if rng.random() < 0.5
                  else F(rng.randrange(d), d)
                  for d in (rng.choice((5, 7, 9, 12, 13, 20)) for _ in range(n - 1)))
        points.append(p + (F(rng.randrange(7), 7),))
    for k in range(16):
        # every head near 1/4 or 3/4: at N = 7, 8 the large subsets go
        # negative, and b = 0 makes |S| = N/2 + 2 vanish
        n = 8 + k % 2
        spread = k % 3
        points.append(tuple(rng.choice((F(1, 4), F(3, 4)))
                            + F(rng.randint(-spread, spread), 80)
                            for _ in range(n - 1)) + (F(1, 3),))
    seen = set()
    for p in points:
        stratum = classify(p)
        assert (stratum.alpha.active, stratum.alpha.signs) == _fraction_signs(p), p
        seen |= {(len(p), sign) for sign in stratum.alpha.signs}
    # zero patterns at N = 6 (the n = 7 catalog witnesses), negative signs
    # at n = 8, 9 and zeros at n = 9
    assert {(7, 0), (8, -1), (9, -1), (9, 0)} <= seen


def test_catalog_witness_check_survives_optimisation():
    # a candidate pattern the witness table misses must be empty; the tau-LP
    # checks that, and -O strips asserts
    src = str(Path(flatklein.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-O", "-c",
         "import sys; sys.path.insert(0, sys.argv[1])\n"
         "from fractions import Fraction\n"
         "from flatklein import stratification\n"
         "stratification._witness_b = lambda n, signs: (Fraction(0),) * n\n"
         "try:\n    stratification.catalog(5)\n"
         "except AssertionError as exc:\n    print(exc)", src],
        capture_output=True, text=True, check=True)
    assert out.stdout == ("witness table misses a feasible pattern: signs "
                          f"{(1,) * 16} over 4 active coordinates\n")


@pytest.fixture
def fresh_strata_caches():
    # the tests below poison `_strata_for_size`; no other test may read what
    # it cached
    _strata_for_size.cache_clear()
    yield
    _strata_for_size.cache_clear()


def test_witness_table_miss_raises_in_process(monkeypatch, fresh_strata_caches):
    # the center witness realizes none of the tau > 0 patterns at N = 4,
    # and the first candidate, all signs positive, is feasible
    monkeypatch.setattr(stratification, "_witness_b",
                        lambda n, choice: (F(0),) * n)
    with pytest.raises(InvariantError, match=(
            r"^witness table misses a feasible pattern: signs "
            + re.escape(str((1,) * 16)) + r" over 4 active coordinates$")):
        _strata_for_size(4)


def test_catalog_refuses_a_witness_of_another_stratum(monkeypatch):
    # one interval coordinate comes first at n = 2: its signs are (1, 1)
    monkeypatch.setattr(stratification, "_strata_for_size",
                        lambda k: [((1, 0), (F(1, 4),))])
    with pytest.raises(InvariantError, match=(
            r"^witness fails to realize its sign pattern: \(1, 0\)$")):
        catalog(2)


def test_catalog_refuses_a_witness_of_another_last_kind(monkeypatch):
    # the stratum core reads the right signs but the other last kind: the
    # check compares kinds as well as signs
    real_stratum_of = stratification._stratum_of

    def other_last_kind(nums, den):
        kinds, signs, dim = real_stratum_of(nums, den)
        last = POINT if kinds[-1] == INTERVAL else INTERVAL
        return (*kinds[:-1], last), signs, dim

    monkeypatch.setattr(stratification, "_stratum_of", other_last_kind)
    with pytest.raises(InvariantError, match=(
            r"^witness fails to realize its sign pattern: \(1, 1\)$")):
        catalog(2)


def test_catalog_classifies_each_pattern_once(monkeypatch, fresh_strata_caches):
    # a cold catalog(7) runs the stratum core on one witness per active
    # size, last kind and pattern: 2 * (1 + 1 + 1 + 1 + 2 + 3 + 31) = 80
    # for its 242 strata; the size-6 walk prunes every prefix that breaks
    # the monotone rule (731 candidates keep it) or `_six_open`, so
    # `_witness_b` sees only the 31 patterns it realizes
    classified, candidates = [], []
    real_stratum_of, real_witness_b = stratification._stratum_of, stratification._witness_b

    def counting_stratum_of(nums, den):
        classified.append((tuple(nums), den))
        return real_stratum_of(nums, den)

    def counting_witness_b(n_active, deg_signs):
        candidates.append((n_active, deg_signs))
        return real_witness_b(n_active, deg_signs)

    monkeypatch.setattr(stratification, "_stratum_of", counting_stratum_of)
    monkeypatch.setattr(stratification, "_witness_b", counting_witness_b)
    assert len(catalog(7)) == 242
    assert len(classified) == 80
    assert len(set(classified)) == 80
    candidates.clear()
    _strata_for_size.cache_clear()
    assert len(_strata_for_size(6)) == 31
    assert len(candidates) == 31
    # the six subsets of size 5 come first, the full set last
    for n_active, deg_signs in candidates:
        *sigma, tau = deg_signs
        assert n_active == 6 and len(sigma) == 6
        assert tau == -1 or set(sigma) == {1}, deg_signs


def test_six_open_is_the_witness_table_rule():
    # at N = 6 with tau < 0, `_witness_b` rules out exactly the level signs
    # that no kept pattern has, and `_six_open` keeps exactly the prefixes
    # of kept patterns, so the walk's pruning drops no feasible pattern
    kept = {signs[-7:-1] for signs, _ in _strata_for_size(6)}
    assert len(kept) == 29
    for sigma in itertools.product((1, 0, -1), repeat=6):
        assert (stratification._witness_b(6, sigma + (-1,)) is None) == (sigma not in kept)
        for j in range(7):
            assert stratification._six_open(sigma[:j]) == any(
                k[:j] == sigma[:j] for k in kept), sigma[:j]


def test_witness_table_stops_at_six_active_coordinates():
    with pytest.raises(ValueError,
                       match=r"^witness table covers active sizes up to 6$"):
        stratification._witness_b(7, {})


# ---------------------------------------------------------------------------
# dimension and emptiness: a second way, and the LP count
# ---------------------------------------------------------------------------

def _subsets(n):
    return [sub for r in range(n + 1) for sub in itertools.combinations(range(n), r)]


def _fraction_rank(rows):
    m = [list(row) for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def _vertex_dimension(n, signs):
    """Dimension of {u : sign K_S = signs[S], 0 <= u < 1/16} from the
    vertices of its closure, or None when it is empty; no LP.

    The closure relaxes every sign to non-strict and u < 1/16 to <=.  A
    nonempty region is dense in it, so the vertex barycenter (a point of
    the closure's relative interior) meets every strict condition exactly
    when the region is nonempty, and the dimension is the vertices' affine
    rank.
    """
    closed, strict = [], []
    for sub, sign in zip(_subsets(n), signs):
        const = F(n + 4 - 2 * len(sub), 16)
        coeffs = [F(1) if j in sub else F(-1) for j in range(n)]
        ge = ([-c for c in coeffs], const)   # K_S >= 0
        le = (coeffs, -const)                # K_S <= 0
        closed += [h for h, keep in ((ge, sign >= 0), (le, sign <= 0)) if keep]
        if sign:
            strict.append(ge if sign > 0 else le)
    for j in range(n):
        e = [F(int(i == j)) for i in range(n)]
        closed += [([-x for x in e], F(0)), (e, F(1, 16))]
        strict.append((e, F(1, 16)))
    verts = brute_vertices(closed)
    if not verts:
        return None
    bary = [sum(v[j] for v in verts) / len(verts) for j in range(n)]
    if any(sum(a * b for a, b in zip(normal, bary)) >= off for normal, off in strict):
        return None
    return _fraction_rank([[a - b for a, b in zip(v, verts[0])] for v in verts[1:]])


def test_dimension_matches_vertex_enumeration():
    # every sign choice on the subsets that can reach K_S = 0 on the box
    # that passes the monotone rule, including those `_witness_b` rules out:
    # the emptiness LP against the LP-free vertex oracle
    empty = nonempty = 0
    for n in (4, 5, 6):
        subs = _subsets(n)
        deg = [s for s in subs if len(s) >= 5 or len(s) == 4 == n]
        feasible = []
        for assignment in itertools.product((1, 0, -1), repeat=len(deg)):
            sign = dict(zip(deg, assignment))
            if any(set(a) < set(b) and (sign[b] > sign[a] or sign[a] == sign[b] == 0)
                   for a in deg for b in deg):
                continue
            signs = tuple(sign.get(s, 1) for s in subs)
            dim = _vertex_dimension(n, signs)
            assert _nonempty(n, signs) == (dim is not None), (n, signs)
            empty += dim is None
            nonempty += dim is not None
            if dim is not None:
                feasible.append(signs)
        # the catalog's case analysis keeps exactly the nonempty patterns,
        # in product order: the order of `catalog` and `strata --catalog`
        assert [signs for signs, _ in _strata_for_size(n)] == feasible, n
    assert (empty, nonempty) == (701, 36)
    assert [len(_strata_for_size(n)) for n in range(7)] == [1, 1, 1, 1, 2, 3, 31]
    for n in range(7):
        for signs, *_ in _strata_for_size(n):
            assert _nonempty(n, signs), (n, signs)


_SPECIAL = (F(0), F(1, 2), F(1, 4), F(3, 4), F(1, 8), F(3, 8))


def _seeded_points(count, seed):
    """Points at n = 2..9 that mix 0, 1/2, b = 0 (1/4, 3/4), b = +-1/8,
    values near 1/4 or 3/4 and generic values; every third point takes
    only the special values, which is where K_S and b_i vanish together."""
    rng = random.Random(seed)

    def coord(special_only):
        if special_only or rng.random() < 0.5:
            return rng.choice(_SPECIAL)
        if rng.random() < 0.5:
            return rng.choice((F(1, 4), F(3, 4))) + F(rng.randrange(-3, 4), 40)
        return F(rng.randrange(1, 13), 13)

    return [tuple(coord(k % 3 == 0) for _ in range(1 + k % 8))
            + (rng.choice((F(0), F(1, 3), F(4, 7))),) for k in range(count)]


def test_point_dimension_matches_both_oracles():
    # the local cone at a real point (classify) against the LP-free vertex
    # count, per distinct (active count, signs); the emptiness LP must find
    # each of these realized patterns nonempty
    points = [s.witness for n in range(2, 8) for s in catalog(n)]
    points += _seeded_points(3000, 1717)
    dims, both = {}, 0
    for p in points:
        s = classify(p)
        n_active = len(s.alpha.active)
        dim_u = s.dim - (s.domain.kinds[-1] == INTERVAL)
        assert dims.setdefault((n_active, s.alpha.signs), dim_u) == dim_u, p
        both += 0 in s.alpha.signs and F(1, 4) in (
            min(p[i], 1 - p[i]) for i in s.alpha.active)
    # K_S = 0 and b_i = 0 together: the n = 7 catalog witnesses with zeros
    # and seeded points up to n = 9
    assert both >= 50, both
    assert {n for n, signs in dims if 0 in signs} >= {4, 5, 6, 7, 8}
    for (n_active, signs), dim_u in dims.items():
        assert _nonempty(n_active, signs), (n_active, signs)
        assert _vertex_dimension(n_active, signs) == dim_u, (n_active, signs)


def test_stratum_dim_matches_stratum_of_at_catalog_witnesses():
    witnesses = [s.witness for n in range(2, 8) for s in catalog(n)]
    assert len(witnesses) == 382
    for p in witnesses:
        want = _stratum_of(*common_denominator(p))[2]
        assert _stratum_dim(*common_denominator(p)) == want, p


def _zero_prone_point(rng, n):
    """A canonical point at n with interval values that can zero a K_S: the
    active values of a realized N = 4..6 pattern with a zero sign, then
    pairs of b = 0 (1/4 or 3/4), each value reflected at random, the rest
    prisms, in a random order.  Adding b = 0 twice keeps a zero: K of S
    plus one of them is the old K_S."""
    heads = []
    sizes = [k for k in (4, 5, 6) if k <= n - 1]
    if sizes:
        size = rng.choice(sizes)
        heads += rng.choice([a for signs, a in _strata_for_size(size) if 0 in signs])
    while len(heads) + 2 <= n - 1 and rng.random() < 0.85:
        heads += [F(1, 4), F(1, 4)]
    heads = [1 - a if rng.random() < 0.5 else a for a in heads]
    heads += [rng.choice((F(0), F(1, 2))) for _ in range(n - 1 - len(heads))]
    rng.shuffle(heads)
    return tuple(heads) + (rng.choice((F(0), F(1, 3))),)


def test_stratum_dim_matches_stratum_of_on_seeded_points():
    # points built to have zero K_S, and generic points with and without
    # prisms, up to the limit n = 18
    rng = random.Random(3618)
    zeros, prisms, widest = set(), 0, 0
    for n in range(2, 19):
        for k in range(12 if n <= 12 else 3):
            if k % 3:
                share = 0.3 if k % 3 == 1 else 0
                p = tuple(rng.choice((F(0), F(1, 2))) if rng.random() < share
                          else F(rng.randrange(1, 17), 17) for _ in range(n - 1))
                p += (rng.choice((F(0), F(2, 5))),)
            else:
                p = _zero_prone_point(rng, n)
            kinds, signs, dim = _stratum_of(*common_denominator(p))
            assert _stratum_dim(*common_denominator(p)) == dim, p
            prisms += PRISM in kinds
            widest = max(widest, kinds[:-1].count(INTERVAL))
            if 0 in signs:
                zeros.add(n)
    assert zeros >= set(range(5, 19)), sorted(zeros)
    assert prisms >= 50 and widest == 17, (prisms, widest)


def test_classify_solves_no_lp_without_a_zero_slack(monkeypatch):
    def refuse(*args):
        raise AssertionError("classify solved an LP")

    monkeypatch.setattr(stratification, "lp_maximize", refuse)
    _cone_dimension.cache_clear()
    _unforced.cache_clear()
    rng = random.Random(1919)
    for n in range(2, 13):
        p = tuple(F(rng.randrange(1, 13), 13) for _ in range(n - 1)) + (F(1, 3),)
        s = classify(p)
        assert 0 not in s.alpha.signs and s.dim == n, p
    # b = 0 with no zero K_S; K(full) = 0 with no b = 0 (rank 1); the
    # center at N = 6, where the six zero rows have full rank
    for p, dim in (((F(1, 4),) * 3 + (F(1, 3),), 4),
                   ((F(7, 20),) * 4 + (F(2, 5), F(1, 3)), 5),
                   ((F(1, 4),) * 6 + (F(0),), 0)):
        assert classify(p).dim == dim, p


def test_catalog_solves_each_lp_once(monkeypatch):
    seen = []
    solve = stratification.lp_maximize

    def recorder(c, a_ub, b_ub, a_eq=(), b_eq=()):
        seen.append((tuple(c), tuple(map(tuple, a_ub)), tuple(b_ub),
                     tuple(map(tuple, a_eq)), tuple(b_eq)))
        return solve(c, a_ub, b_ub, a_eq, b_eq)

    checked = []

    def checking_nonempty(n_active, signs):
        checked.append((n_active, signs))
        return _nonempty(n_active, signs)

    monkeypatch.setattr(stratification, "lp_maximize", recorder)
    monkeypatch.setattr(stratification, "_nonempty", checking_nonempty)
    _cone_dimension.cache_clear()
    _unforced.cache_clear()
    _strata_for_size.cache_clear()
    try:
        assert len(catalog(7)) == 242
        assert seen
        assert len(set(seen)) == len(seen), f"{len(seen) - len(set(seen))} repeated LPs"
        # a cold walk over every active size solves one emptiness LP: the
        # N = 4 candidate with K(full) < 0, which the center witness fails
        # and the LP refuses
        _strata_for_size.cache_clear()
        seen.clear()
        checked.clear()
        for n in range(7):
            _strata_for_size(n)
        assert checked == [(4, (1,) * 15 + (-1,))]
        assert len(seen) == 1
    finally:
        _cone_dimension.cache_clear()
        _unforced.cache_clear()
        _strata_for_size.cache_clear()


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_classify_refuses_n_above_the_limit(monkeypatch):
    assert stratification.CLASSIFY_N_MAX == 18
    # at the limit a point is classified; with every head a prism it is cheap
    s = classify((F(0),) * 17 + (F(1, 3),))
    assert s.alpha.signs == (1,) and s.dim == 1

    def refuse(*args):
        raise AssertionError("the sign table was built")

    monkeypatch.setattr(stratification, "_k_table", refuse)
    for p in ((F(1, 3),) * 19, (F(0),) * 19, (F(5, 4),) * 19):
        with pytest.raises(ValueError, match=(
                r"^classify and plan are limited to n <= 18: the point at "
                r"n = 19 has up to 2\^18 = 262144 sign subsets$")):
            classify(p)


def test_stratum_json():
    s = classify((F(1, 4),) * 6 + (F(1, 3),))
    data = s.to_json()
    assert data["domain"] == [INTERVAL] * 7
    assert data["dim"] == 1
    assert data["witness"] == ["1/4"] * 6 + ["1/3"]
    assert data["coincidence"] is True
    assert {"S": [], "sign": 1} in data["alpha"]
    assert {"S": [0, 1, 2, 3, 4], "sign": 0} in data["alpha"]

    generic = classify((F(1, 3), F(1, 3)))
    assert "coincidence" not in generic.to_json()
