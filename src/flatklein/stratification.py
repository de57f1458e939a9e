"""Partition of base points by the sign pattern of the wall slacks K(S).

For a canonical point the horizontal coordinates split into "prism" values
({0, 1/2}) and "interval" values; each interval coordinate contributes
b_i = a_i - 1/4 (after folding into (0,1/2)), and the scaled slack of a
subset S of interval coordinates is

    K_S = (N + 4 - 2|S|)/16 + sum_{i in S} b_i^2 - sum_{i not in S} b_i^2,

which is K(S)/2 for the cell slack K(S): its signs come from the cells'
table `_k_table`, on the point folded by `_chamber`.

Points with the same domain pattern and the same full sign vector form a
stratum; the cell combinatorics (which vertices exist, how faces match up)
is constant on each stratum.

Stratum dimension is a real-variety dimension, counted in the squared
coordinates u_i = b_i^2.  There every constraint is linear and the box is
0 <= u_i < 1/16, so a stratum's u-region is convex and has the dimension
of its cone of feasible directions at any of its points.  At a point u*
of the stratum every nonzero K_S and every u_i < 1/16 is strict, so near
u* the region is {E u = e, u_Z >= 0}: E holds the rows with K_S(u*) = 0
and Z = {i : u*_i = 0}.  With no zero K_S the dimension is N; otherwise
it is N - rank(E with e_i for each i in Z that the cone {E d = 0,
d_Z >= 0} forces to d_i = 0), all the forced i found by one small LP.
Rank counting over E alone is wrong: a two-equation pattern at N = 6
forces four further coordinates to 0, and the true dimension is 2, not 5.
The dimension is read at the point this way, off the zero entries of
`_k_table` by bitmask, cached per set of zero entries and zero set.  The
dimension counts u-space; a stratum whose last coordinate is an interval
adds 1.

Two cores read a point: `_stratum_of` gives the kinds, the 2^N signs in
`_subsets` order and the dimension, for `classify` and `catalog`;
`_stratum_dim` gives the dimension alone, for `plan`, and builds neither
the kinds nor the sign vector.  Signs and dimension depend only on the
active values and their order, so `catalog` runs `_stratum_of` on one
witness per active size, last kind and sign pattern, and builds every
stratum of that pattern from it.  A catalog candidate whose witness fails
to realize it goes to `_nonempty`, one tau-LP that must find it empty.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from ._exact import InvariantError, common_denominator, lp_maximize, mat_rank
from .cut_polytope import _chamber, _k_table
from .klein_space import LiftPoint, Rational, as_point, format_rat

__all__ = ["DomainDescriptor", "SignVector", "Stratum", "catalog", "classify"]

#: Largest dimension that `classify` and `plan` accept: the K table (and
#: `classify`'s sign vector) has up to 2^(n-1) entries, and each two more
#: coordinates cost about 4x in time and memory.
CLASSIFY_N_MAX = 18

INTERVAL = "interval"
PRISM = "prism"
POINT = "point"

_SIXTEENTH = Fraction(1, 16)


@dataclass(frozen=True)
class DomainDescriptor:
    """Per-coordinate domain pattern: interval/prism, and interval/point last."""

    kinds: tuple[str, ...]

    def __post_init__(self):
        if len(self.kinds) < 2:
            raise ValueError("need n >= 2 coordinates")
        for k in self.kinds[:-1]:
            if k not in (INTERVAL, PRISM):
                raise ValueError(f"bad horizontal kind {k!r}")
        if self.kinds[-1] not in (INTERVAL, POINT):
            raise ValueError(f"bad vertical kind {self.kinds[-1]!r}")

    @property
    def active(self) -> tuple[int, ...]:
        return tuple(i for i, k in enumerate(self.kinds[:-1]) if k == INTERVAL)

    @property
    def prism(self) -> tuple[int, ...]:
        return tuple(i for i, k in enumerate(self.kinds[:-1]) if k == PRISM)

    @classmethod
    def of_point(cls, p: Sequence[Rational]) -> "DomainDescriptor":
        return cls(_fold(*common_denominator(as_point(p)))[0])


def _fold(nums: list[int], den: int) -> tuple[tuple[str, ...], list[int], int]:
    """The domain pattern of a canonical point, numerators over any common
    denominator D (reduced in place), the gains 8 D^2 delta_i of its
    interval coordinates and D^2, from `_chamber` (scaling D scales each
    gain and D^2 alike); the last coordinate must be in [0, 1) too, and is
    a point iff it is 0."""
    _, prism, gains = _chamber(nums, den)
    if not 0 <= nums[-1] < den:
        raise ValueError("expected a canonical point")
    head = [PRISM if i in prism else INTERVAL for i in range(len(nums) - 1)]
    return (*head, INTERVAL if nums[-1] else POINT), gains, den * den


@lru_cache(maxsize=16)
def _subsets(k: int) -> tuple[tuple[int, ...], ...]:
    """Every subset of range(k), by size and then lexicographically.

    This is the order of `SignVector.signs`; a subset's members are
    positions in the active index tuple.
    """
    return tuple(sub for r in range(k + 1)
                 for sub in itertools.combinations(range(k), r))


@lru_cache(maxsize=16)
def _subset_masks(k: int) -> tuple[int, ...]:
    """The bitmask of each subset in `_subsets(k)`."""
    return tuple(sum(1 << j for j in sub) for sub in _subsets(k))


@dataclass(frozen=True)
class SignVector:
    """Sign of K_S for every subset S of the active index set."""

    active: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        if len(self.signs) != 2 ** len(self.active):
            raise ValueError("one sign per subset required")
        if not {-1, 0, 1}.issuperset(self.signs):
            raise ValueError("signs are -1/0/+1")

    def sign_of(self, subset) -> int:
        for i in subset:
            if i not in self.active:
                raise ValueError(f"index {i} is not active: active = {self.active}")
        bits = [1 << self.active.index(i) for i in subset]
        if len(set(bits)) != len(bits):
            raise ValueError(f"repeated index in {tuple(subset)}")
        return self.signs[_subset_masks(len(self.active)).index(sum(bits))]

    def items(self):
        act = self.active
        return [(tuple(act[j] for j in sub), sign)
                for sub, sign in zip(_subsets(len(act)), self.signs)]


@dataclass(frozen=True)
class Stratum:
    domain: DomainDescriptor
    alpha: SignVector
    dim: int
    witness: LiftPoint
    coincidence: bool = False

    def to_json(self) -> dict:
        data = {
            "domain": list(self.domain.kinds),
            "alpha": [{"S": list(s), "sign": sign} for s, sign in self.alpha.items()],
            "dim": self.dim,
            "witness": [format_rat(c) for c in self.witness],
        }
        if self.coincidence:
            data["coincidence"] = True
        return data


def _k_row(n_active: int, subset_positions: frozenset[int]):
    """K_S as (constant, coefficient vector) over u-space positions."""
    const = Fraction(n_active + 4 - 2 * len(subset_positions), 16)
    coeffs = [Fraction(1) if j in subset_positions else Fraction(-1)
              for j in range(n_active)]
    return const, coeffs


def _degenerable(n_active: int, size: int) -> bool:
    # K_S has a fixed positive lower bound on the open box unless |S| >= 5,
    # or |S| = 4 with no coordinates left outside S.
    return size >= 5 or (size == 4 and size == n_active)


def _is_coincidence(n_active: int, signs: tuple[int, ...]) -> bool:
    # the six subsets of size 5 come just before the full set in `_subsets(6)`
    return n_active == 6 and not any(signs[-7:-1])


def _nonempty(n_active: int, signs: tuple[int, ...]) -> bool:
    """Whether some u in the box 0 <= u_i < 1/16 has these signs of K_S:
    a K_S off the degenerable subsets is positive on the whole box, and
    the others go to one LP that asks for a uniform slack tau > 0."""
    eq_rows, eq_rhs = [], []
    ub_rows, ub_rhs = [], []
    for sub, sign in zip(_subsets(n_active), signs):
        if not _degenerable(n_active, len(sub)):
            if sign != 1:
                return False
            continue
        const, coeffs = _k_row(n_active, frozenset(sub))
        if sign == 0:
            eq_rows.append(coeffs)
            eq_rhs.append(-const)
        elif sign == 1:
            ub_rows.append([-c for c in coeffs] + [Fraction(1)])
            ub_rhs.append(const)
        else:
            ub_rows.append(coeffs + [Fraction(1)])
            ub_rhs.append(-const)
    if not (eq_rows or ub_rows):
        return True
    # feasibility with uniform slack tau > 0 (u_i < 1/16 made strict too);
    # u >= 0 and tau >= 0 are the LP's own bounds
    for j in range(n_active):
        row = [Fraction(0)] * (n_active + 1)
        row[j] = Fraction(1)
        row[-1] = Fraction(1)
        ub_rows.append(row)
        ub_rhs.append(_SIXTEENTH)
    tau = lp_maximize(
        [Fraction(0)] * n_active + [Fraction(1)],
        ub_rows, ub_rhs,
        [r + [Fraction(0)] for r in eq_rows], eq_rhs)
    return tau is not None and tau > 0


def _k_signs(table: list[int]) -> tuple[int, ...]:
    """The sign of K_S = K(S)/2 for every subset S, in `_subsets` order,
    from a `_k_table` over 2^N bitmasks."""
    return tuple([(t > 0) - (t < 0) for t in map(
        table.__getitem__, _subset_masks(len(table).bit_length() - 1))])


def _table_dimension(table: list[int], gains: Sequence[int], sq: int) -> int:
    """u-space dimension of the pattern's region, read at a point of it off
    its `_k_table` (gains D^2 - 16 D^2 b_i^2 over sq = D^2): N, with no LP,
    when no entry is 0, else the cone of the zero entries' bitmasks."""
    if 0 not in table:
        return len(gains)
    return _cone_dimension(len(gains),
                           tuple([mask for mask, t in enumerate(table) if not t]),
                           sum(1 << i for i, g in enumerate(gains) if g == sq))


@lru_cache(maxsize=4096)
def _cone_dimension(n_active: int, eq_masks: tuple[int, ...], zeros: int) -> int:
    """Dimension of the cone {E d = 0, d_Z >= 0}: E holds the K_S rows of
    the subsets with bitmasks `eq_masks` (the zero entries) and Z the bits
    of `zeros` (the vanishing coordinates); see the module docstring."""
    eq = [[1 if mask >> j & 1 else -1 for j in range(n_active)] for mask in eq_masks]
    rank = mat_rank(eq)
    zero = [i for i in range(n_active) if zeros >> i & 1]
    if rank == n_active or not zero:
        return n_active - rank
    # the LP's columns: d_Z, then each free d_j as the difference of two
    free = [j for j in range(n_active) if not zeros >> j & 1]
    unforced = _unforced(tuple(
        tuple([row[j] for j in zero] + [s * row[j] for j in free for s in (1, -1)])
        for row in eq), len(zero))
    forced = [[int(i == j) for j in range(n_active)]
              for k, i in enumerate(zero) if not unforced >> k & 1]
    return n_active - mat_rank(eq + forced)


@lru_cache(maxsize=1024)
def _unforced(a_eq: tuple[tuple[int, ...], ...], m: int) -> int:
    """The bits k < m for which some x >= 0 with a_eq x = 0 has x_k > 0,
    from one LP (after Freund, Roundy & Todd, 1985).

    Maximize sum_k 2^k t_k over 0 <= t_k <= 1, t_k <= x_k.  The solutions
    are closed under addition, so one x reaches x_k >= 1 at every such k
    at once, while t_k = 0 wherever x_k is forced to 0: the optimum is
    exactly the bitmask.  Cached per LP, since permuted patterns repeat it.
    """
    width = len(a_eq[0])
    a_ub = [[-(j == k) for j in range(width)] + [int(j == k) for j in range(m)]
            for k in range(m)]
    a_ub += [[0] * width + [int(j == k) for j in range(m)] for k in range(m)]
    cost = [0] * width + [1 << k for k in range(m)]
    return int(lp_maximize(cost, a_ub, [0] * m + [1] * m,
                           [[*row, *[0] * m] for row in a_eq], [0] * len(a_eq)))


def _check_size(n: int) -> None:
    """Refuse a point above n = CLASSIFY_N_MAX with a ValueError."""
    if n > CLASSIFY_N_MAX:
        raise ValueError(
            f"classify and plan are limited to n <= {CLASSIFY_N_MAX}: the "
            f"point at n = {n} has up to 2^{n - 1} = {2 ** (n - 1)} sign subsets")


def _stratum_of(nums: list[int], den: int) -> tuple[tuple[str, ...], tuple[int, ...], int]:
    """(kinds, signs, dimension) of the stratum of a canonical point, given
    by its numerators over any common denominator D (see `_fold`).

    Refused with a ValueError above n = CLASSIFY_N_MAX.
    """
    _check_size(len(nums))
    kinds, gains, sq = _fold(nums, den)
    table = _k_table(gains, sq)
    return (kinds, _k_signs(table),
            _table_dimension(table, gains, sq) + (kinds[-1] == INTERVAL))


def _stratum_dim(nums: list[int], den: int) -> int:
    """The dimension of `_stratum_of`, with the same checks in the same
    order, read off the K table alone: no kinds and no sign vector.

    Refused with a ValueError above n = CLASSIFY_N_MAX.
    """
    _check_size(len(nums))
    _, _, gains = _chamber(nums, den)
    if not 0 <= nums[-1] < den:
        raise ValueError("expected a canonical point")
    sq = den * den
    return _table_dimension(_k_table(gains, sq), gains, sq) + (nums[-1] != 0)


def classify(p: Sequence[Rational]) -> Stratum:
    """The stratum of a canonical point (exact signs, exact dimension).

    Refused with a ValueError above n = CLASSIFY_N_MAX.
    """
    pt = as_point(p)
    kinds, signs, dim = _stratum_of(*common_denominator(pt))
    domain = DomainDescriptor(kinds)
    return Stratum(domain, SignVector(domain.active, signs), dim, pt,
                   _is_coincidence(len(domain.active), signs))


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

def _six_open(sigma: tuple[int, ...]) -> bool:
    """Whether some point at N = 6 has co-singleton level signs that start
    with `sigma` (in `_subsets` order: the size-5 subset that leaves out m
    at position 5 - m).

    With Z = sum u_i, the top level is Z - 1/8 and the co-singleton levels
    are Z - 2 u_m.  A zero at level 5 pins u_m = Z/2, so two zeros exhaust
    the budget (all other u vanish), three or more force Z = 0 and so all
    six, and a negative level (u_m > Z/2) cannot coexist with any zero or
    another negative.  tau >= 0 needs Z >= 1/8, while u_m < 1/16 keeps
    every co-singleton level strictly positive there, which the monotone
    rule already demands.
    """
    zeros, negs = sigma.count(0), sigma.count(-1)
    return negs <= 1 and not (negs and zeros) and (zeros <= 2 or 1 not in sigma)


def _witness_b(n_active: int, deg_signs: tuple[int, ...]) -> tuple[Fraction, ...] | None:
    """A rational b-vector realizing a sign pattern (N <= 6), or None for a
    size-6 pattern that no point has (see `_six_open`).  `deg_signs` holds
    the signs of the degenerable subsets in `_subsets` order (at N = 6 the
    six subsets of size 5, then the full set); every other K_S is positive.
    """
    F = Fraction
    if n_active <= 3:
        return (F(0),) * n_active
    if n_active > 6:
        raise ValueError("witness table covers active sizes up to 6")
    tau = deg_signs[-1]
    if n_active == 4:
        return (F(1, 5), F(0), F(0), F(0)) if tau == 1 else (F(0),) * 4
    if n_active == 5:
        if tau == 1:
            return (F(1, 5), F(1, 5), F(0), F(0), F(0))
        if tau == 0:
            return (F(1, 5), F(3, 20), F(0), F(0), F(0))
        return (F(1, 10),) * 5
    if tau == 1:
        return (F(1, 5),) * 6
    if tau == 0:
        return (F(1, 5), F(1, 5), F(1, 5), F(1, 20), F(1, 20), F(0))
    sigma = deg_signs[:6]
    if not _six_open(sigma):
        return None
    zeros, negs = sigma.count(0), sigma.count(-1)
    if zeros == 6:
        return (F(0),) * 6  # fully degenerate center
    # the m of each level Z - 2 u_m that is not positive (level j leaves
    # out m = 5 - j)
    low = [5 - j for j, s in enumerate(sigma) if s != 1]
    if negs:
        (k,) = low
        return tuple(F(1, 5) if m == k else F(1, 20) for m in range(6))
    if zeros == 1:
        (k,) = low
        rest = [m for m in range(6) if m != k]
        vals = {k: F(1, 5), rest[0]: F(3, 25), rest[1]: F(4, 25)}
        return tuple(vals.get(m, F(0)) for m in range(6))
    if zeros == 2:
        return tuple(F(1, 10) if m in low else F(0) for m in range(6))
    return (F(1, 10),) * 6  # plain tau < 0, all sigma positive


@lru_cache(maxsize=16)
def _strata_for_size(n_active: int):
    """All feasible sign patterns over subsets of range(n_active), each as
    (signs, a) with a_i = 1/4 + b_i for a witness b-vector that realizes it,
    in `itertools.product((1, 0, -1))` order over the degenerable subsets.

    The walk assigns those signs one subset at a time and drops a prefix
    as soon as it breaks the monotone rule or, at N = 6, `_six_open`, so
    `_witness_b` sees only the candidates that keep both.  A candidate that
    `_witness_b` rules out (None) is skipped; every other candidate whose
    witness fails must be empty: `_nonempty` checks that the witness table
    misses none.
    """
    subsets = _subsets(n_active)
    # degenerability goes by size alone, so the degenerable subsets are the
    # tail of `subsets`, each after its proper subsets
    deg = [sub for sub in subsets if _degenerable(n_active, len(sub))]
    # monotone rule: S a proper subset of S' forces sign(S') <= sign(S), not
    # both 0, so S' may be 0 or +1 only when every such S is +1
    candidates = [()]
    for j, big in enumerate(deg):
        below = [i for i in range(j) if set(deg[i]) < set(big)]
        candidates = [c + (s,) for c in candidates
                      for s in ((1, 0, -1) if all(c[i] == 1 for i in below) else (-1,))
                      if n_active != 6 or _six_open((c + (s,))[:6])]
    out = []
    for deg_signs in candidates:
        b = _witness_b(n_active, deg_signs)
        if b is None:
            continue
        signs = (1,) * (len(subsets) - len(deg)) + deg_signs
        a = tuple(Fraction(1, 4) + x for x in b)
        _, gains, sq = _fold(*common_denominator(a + (Fraction(0),)))
        if _k_signs(_k_table(gains, sq)) == signs:
            out.append((signs, a))
        elif _nonempty(n_active, signs):
            raise InvariantError(
                f"witness table misses a feasible pattern: signs {signs} "
                f"over {n_active} active coordinates")
    return out


def catalog(n: int) -> list[Stratum]:
    """All nonempty strata for dimension n (2 <= n <= 7), one per domain and
    sign pattern, at the witness a_i = 1/4 + b_i with prisms 0.

    A stratum's signs and u-space dimension depend only on its active values
    and their order, not on where the prisms sit, so the stratum core
    `_stratum_of` reads one witness per active size, last kind and pattern
    (80 at n = 7, for 242 strata) and checks that it realizes its kinds and
    signs; every stratum of that pattern takes the dimension from it and
    the coincidence flag from `_is_coincidence`.
    """
    if not 2 <= n <= 7:
        raise ValueError("catalog supports 2 <= n <= 7")
    known: dict[tuple, tuple[int, bool]] = {}
    out: list[Stratum] = []
    for horiz in itertools.product((INTERVAL, PRISM), repeat=n - 1):
        active = tuple(i for i, kind in enumerate(horiz) if kind == INTERVAL)
        for last in (INTERVAL, POINT):
            domain = DomainDescriptor(horiz + (last,))
            for signs, a in _strata_for_size(len(active)):
                witness = [Fraction(0)] * n
                for i, x in zip(active, a):
                    witness[i] = x
                if last == INTERVAL:
                    witness[-1] = Fraction(1, 3)
                key = len(active), last, signs
                if key not in known:
                    kinds, got, dim = _stratum_of(*common_denominator(witness))
                    if (kinds, got) != (domain.kinds, signs):
                        raise InvariantError(
                            f"witness fails to realize its sign pattern: {signs}")
                    known[key] = dim, _is_coincidence(len(active), signs)
                dim, coincidence = known[key]
                out.append(Stratum(domain, SignVector(active, signs), dim,
                                   tuple(witness), coincidence))
    return out
