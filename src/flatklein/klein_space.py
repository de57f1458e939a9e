"""Exact geometry of the flat n-dimensional Klein bottle.

The space is the quotient of R^n (n >= 2) by the group generated by the unit
translations in the first n-1 coordinates together with the glide

    (x_1, ..., x_{n-1}, x_n)  |->  (1 - x_1, ..., 1 - x_{n-1}, x_n + 1).

Every group element acts as x_i -> (-1)^s x_i + v_i on the first n-1
coordinates and x_n -> x_n + t on the last, where s is a parity bit, v is an
integer vector and t is an integer with t == s (mod 2).

All arithmetic here is exact and touches no floats.  Points come in and go
out as tuples of `fractions.Fraction`; inside, the metric works on integer
numerators over one common denominator (the lcm of the input denominators)
and builds a `Fraction` only for a value it returns.  A pair is read once:
one pass over its axes gives both parity branches (`_branches`), and the
minimal lifts are sorted by their integer keys (`_lifts`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod
from typing import Sequence, Union

from ._exact import common_denominator

#: A point of the universal cover R^n, always a tuple of Fractions.
LiftPoint = tuple[Fraction, ...]

Rational = Union[Fraction, int, str]

HALF = Fraction(1, 2)
ONE = Fraction(1)

#: Most minimal lifts that `minimal_lifts` lists: a vertex pair at n has
#: 2^n of them, and `flatklein geodesics --format json` at the 2^16 of
#: n = 16 writes 14.9 MB.
LIFTS_MAX = 2 ** 16


def rat(value: Rational) -> Fraction:
    """Parse a rational scalar; accepts Fraction, int, or a 'p/q' string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"not an exact rational: {value!r}")


def format_rat(x: Fraction) -> str:
    """Render a rational as 'p/q', or as an integer when q = 1."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def as_point(coords: Sequence[Rational]) -> LiftPoint:
    """Coerce a coordinate sequence to an exact LiftPoint."""
    pt = tuple(map(rat, coords))
    if len(pt) < 2:
        raise ValueError("points must have dimension at least 2")
    return pt


@dataclass(frozen=True)
class DeckElement:
    """A deck transformation (parity, shift, last_shift).

    Acts by x_i -> (-1)^parity * x_i + shift[i] for i < n and
    x_n -> x_n + last_shift.  The constraint last_shift == parity (mod 2)
    is exactly the relation imposed by the glide generator.
    """

    parity: int
    shift: tuple[int, ...]
    last_shift: int

    def __post_init__(self) -> None:
        if self.parity not in (0, 1):
            raise ValueError("parity must be 0 or 1")
        if any(not isinstance(v, int) for v in self.shift):
            raise ValueError("shift must be a tuple of ints")
        if (self.last_shift - self.parity) % 2 != 0:
            raise ValueError("last_shift must have the same parity as the parity bit")

    @property
    def n(self) -> int:
        return len(self.shift) + 1

    @staticmethod
    def identity(n: int) -> "DeckElement":
        return DeckElement(0, (0,) * (n - 1), 0)

    def compose(self, inner: "DeckElement") -> "DeckElement":
        """Return self o inner (apply `inner` first)."""
        if self.n != inner.n:
            raise ValueError("dimension mismatch")
        sign = -1 if self.parity else 1
        shift = tuple(s + sign * v for s, v in zip(self.shift, inner.shift))
        return DeckElement((self.parity + inner.parity) % 2, shift,
                           self.last_shift + inner.last_shift)

    def inverse(self) -> "DeckElement":
        sign = -1 if self.parity else 1
        return DeckElement(self.parity, tuple(-sign * v for v in self.shift),
                           -self.last_shift)


def apply_deck(g: DeckElement, x: Sequence[Rational]) -> LiftPoint:
    """Apply a deck transformation to a point of the universal cover."""
    pt = as_point(x)
    if len(pt) != g.n:
        raise ValueError("dimension mismatch")
    sign = -1 if g.parity else 1
    head = tuple(sign * c + v for c, v in zip(pt, g.shift))
    return head + (pt[-1] + g.last_shift,)


@dataclass(frozen=True)
class KleinPoint:
    """A point of the quotient, stored by its representative in [0,1)^n."""

    rep: LiftPoint

    def __post_init__(self) -> None:
        if len(self.rep) < 2:
            raise ValueError("points must have dimension at least 2")
        # 0 <= p/q < 1 on the integers of each rational (q > 0), in order:
        # the first bad coordinate decides the error
        for c in self.rep:
            try:
                num, den = c.numerator, c.denominator
            except AttributeError:
                raise TypeError(f"not an exact rational: {c!r}") from None
            if not 0 <= num < den:
                raise ValueError("representative must lie in [0,1)^n")

    @property
    def n(self) -> int:
        return len(self.rep)


def _representative(pt: LiftPoint) -> tuple[LiftPoint, int]:
    """The representative in [0,1)^n of a cover point, and k = floor(x_n).

    The fixed three-step recipe (bring the last coordinate into [0,2) with
    an even translation, apply the inverse glide once if it still is >= 1,
    then reduce the remaining coordinates mod 1) in closed form: the glide
    runs iff k is odd, and each head coordinate h = x_i (1 - x_i if it ran)
    ends at h - floor(h).  Each coordinate p/d is read once: its head ends
    at (-1)^k p mod d over d, prime to d, so in lowest terms, and is kept
    as it is when that changes nothing.
    """
    last = pt[-1]
    k, r = divmod(last.numerator, den := last.denominator)
    sign = -1 if k % 2 else 1
    head = []
    for c in pt[:-1]:
        p, d = c.numerator, c.denominator
        h = sign * p % d
        head.append(c if h == p else Fraction(h, d))
    head.append(Fraction(r, den) if k else last)
    return tuple(head), k


def canonicalize(x: Sequence[Rational]) -> tuple[KleinPoint, DeckElement]:
    """Reduce a cover point into the fundamental domain [0,1)^n.

    Returns (point, g) with apply_deck(g, x) == point.rep: g has parity
    k mod 2, last shift -k and head shifts parity - floor(h), with k and h
    as in `_representative`.
    """
    pt = as_point(x)
    rep, k = _representative(pt)
    parity = k % 2
    shift = tuple(parity - (c.denominator - c.numerator if parity
                            else c.numerator) // c.denominator
                  for c in pt[:-1])
    return KleinPoint(rep), DeckElement(parity, shift, -k)


def project(x: Union[KleinPoint, Sequence[Rational]]) -> KleinPoint:
    """The quotient map: forget which lift a cover point was.  A
    KleinPoint is a quotient point already and comes back unchanged."""
    if isinstance(x, KleinPoint):
        return x
    return KleinPoint(_representative(as_point(x))[0])


def _branches(a: Sequence[int], b: Sequence[int],
              den: int) -> list[tuple[int, list[tuple[int, ...]]]]:
    """Per parity, (cost, axes) for the lifts of b nearest to a, all
    numerators over den.  The parity's image of b is (-1)^parity b_i on the
    head and b_n + parity*den last; axis i keeps the one or two multiples of
    its step (den, or 2*den last) nearest to the gap, as axes[i], and cost
    is den^2 times the squared distance.  One pass over the axes serves both
    parities: a head axis takes its even gap (a_i - b_i) mod den and its odd
    gap (a_i + b_i) mod den in one step, the last axis its gaps to b_n and
    b_n + den mod 2*den; a gap d below a and u = step - d above it keep
    a - d, a + u or both."""
    even: list[tuple[int, ...]] = []
    odd: list[tuple[int, ...]] = []
    even_cost = odd_cost = 0
    for ai, bi in zip(a[:-1], b[:-1]):
        d = (ai - bi) % den
        u = den - d
        even.append((ai - d,) if d < u else (ai + u,) if u < d
                    else (ai - d, ai + u))
        even_cost += d * d if d <= u else u * u
        d = (ai + bi) % den
        u = den - d
        odd.append((ai - d,) if d < u else (ai + u,) if u < d
                   else (ai - d, ai + u))
        odd_cost += d * d if d <= u else u * u
    an, step = a[-1], 2 * den
    d = (an - b[-1]) % step
    u = step - d
    even.append((an - d,) if d < u else (an + u,) if u < d else (an - d, an + u))
    even_cost += d * d if d <= u else u * u
    d = (an - b[-1] - den) % step
    u = step - d
    odd.append((an - d,) if d < u else (an + u,) if u < d else (an - d, an + u))
    odd_cost += d * d if d <= u else u * u
    return [(even_cost, even), (odd_cost, odd)]


def squared_distance(y: KleinPoint, z: KleinPoint) -> Fraction:
    """Exact squared quotient distance between two points: the cheaper
    parity branch of `_branches` (per axis, z_i - y_i or z_i + y_i to the
    integers, and z_n - y_n to the even or odd integers)."""
    if y.n != z.n:
        raise ValueError("dimension mismatch")
    nums, den = common_denominator(y.rep + z.rep)
    (even, _), (odd, _) = _branches(nums[:y.n], nums[y.n:], den)
    return Fraction(min(even, odd), den * den)


def minimal_lifts(p: Sequence[Rational], z: KleinPoint) -> list[LiftPoint]:
    """All lifts of z at minimal Euclidean distance from the cover point p.

    Each parity branch of `_branches` that attains the minimum gives the
    Cartesian product of its per-axis argmin sets.  No lift comes from both
    branches: on the last axis, numerators over the common denominator D,
    branch 0's lifts are congruent to b_n and branch 1's to b_n + D modulo
    2D.  The lifts are sorted lexicographically.

    Refused with a ValueError when there are more than LIFTS_MAX of them,
    before any is built.
    """
    pt = as_point(p)
    n = len(pt)
    if n != z.n:
        raise ValueError("dimension mismatch")
    nums, den = common_denominator(pt + z.rep)
    return _lifts(nums[:n], nums[n:], den, z.rep)


def _tied_branches(a: Sequence[int], b: Sequence[int],
                   den: int) -> list[tuple[int, list[tuple[int, ...]]]]:
    """(parity, axes) of each branch of `_branches` at the minimal cost:
    the minimal lifts are the union of their axes' Cartesian products."""
    (even, even_axes), (odd, odd_axes) = _branches(a, b, den)
    if even != odd:
        return [(0, even_axes)] if even < odd else [(1, odd_axes)]
    return [(0, even_axes), (1, odd_axes)]


def _lifts(a: Sequence[int], b: Sequence[int], den: int,
           target: LiftPoint) -> list[LiftPoint]:
    """`minimal_lifts` of b from a, both integer numerators over den, where
    b is the target point `target`: each tied branch zips its axes' product
    with the same product over one `Fraction` per axis option, sorted by
    the integer keys.  An option equal to b_i is the target's own
    coordinate, already in lowest terms.  No two keys are equal
    (`minimal_lifts`), so one lift or 2^n take the same path.  The count,
    the sum over the tied branches of their option counts' products, is
    checked against LIFTS_MAX first; it is taken only where it can pass
    the limit, since each of the two branches holds at most 2^n lifts."""
    tied = _tied_branches(a, b, den)
    if (2 << len(a) > LIFTS_MAX
            and (count := sum(prod(map(len, axes)) for _, axes in tied)) > LIFTS_MAX):
        raise ValueError(f"minimal_lifts is limited to {LIFTS_MAX} lifts: "
                         f"this pair has {count} minimal lifts")
    pairs: list[tuple[tuple[int, ...], LiftPoint]] = []
    for _, axes in tied:
        pairs += zip(product(*axes),
                     product(*[[c if v == bi else Fraction(v, den) for v in opts]
                               for opts, bi, c in zip(axes, b, target)]))
    return [lift for _, lift in sorted(pairs)]


def neighbor_set(p: Sequence[Rational]) -> list[LiftPoint]:
    """The finite set of cover points whose bisectors with p carve out R(p).

    Defined for p in the closed cube [0,1]^{n-1} x R (the last coordinate is
    unconstrained).  Contains p +/- e_i for i < n, p +/- 2e_n, and the glide
    images (y_1, ..., y_{n-1}, x_n +/- 1) where y_i ranges over a one- or
    two-element set depending on which side of 1/2 the coordinate x_i lies.
    """
    pt = as_point(p)
    n = len(pt)
    if any(not (0 <= c <= 1) for c in pt[:-1]):
        raise ValueError("first n-1 coordinates must lie in [0,1]")
    out: list[LiftPoint] = []
    for i in range(n - 1):
        for s in (1, -1):
            out.append(pt[:i] + (pt[i] + s,) + pt[i + 1:])
    for s in (2, -2):
        out.append(pt[:-1] + (pt[-1] + s,))
    choices: list[list[Fraction]] = []
    for c in pt[:-1]:
        if c in (0, HALF, ONE):
            choices.append([c])
        elif c < HALF:
            choices.append([-c, 1 - c])
        else:
            choices.append([1 - c, 2 - c])
    for s in (1, -1):
        for head in product(*choices):
            out.append(tuple(head) + (pt[-1] + s,))
    return out


def geodesic_path(p: Sequence[Rational], q: Sequence[Rational],
                  samples: int) -> list[KleinPoint]:
    """Project the segment p->q into the quotient at `samples` uniform times.

    The segment must realize the quotient distance (q minimal among lifts as
    seen from p); otherwise the projected segment is not a geodesic and a
    ValueError is raised.  samples >= 2 so both endpoints appear.
    """
    a, b = as_point(p), as_point(q)
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    if samples < 2:
        raise ValueError("need at least two samples")
    seg_sq = sum((bi - ai) ** 2 for ai, bi in zip(a, b))
    if seg_sq != squared_distance(project(a), project(b)):
        raise ValueError("segment is not minimal: endpoint is not a closest lift")
    step = Fraction(1, samples - 1)
    return [project(tuple(ai + k * step * (bi - ai) for ai, bi in zip(a, b)))
            for k in range(samples)]
