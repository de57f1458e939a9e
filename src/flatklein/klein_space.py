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
and builds a `Fraction` only for a value it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence, Union

from ._exact import common_denominator

#: A point of the universal cover R^n, always a tuple of Fractions.
LiftPoint = tuple[Fraction, ...]

Rational = Union[Fraction, int, str]

HALF = Fraction(1, 2)
ONE = Fraction(1)


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
        # 0 <= p/q < 1 on the integers of each rational (q > 0)
        try:
            outside = any(not 0 <= c.numerator < c.denominator
                          for c in self.rep)
        except AttributeError:
            bad = next(c for c in self.rep if not hasattr(c, "numerator"))
            raise TypeError(f"not an exact rational: {bad!r}") from None
        if outside:
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
    ends at h - floor(h).  On the integers of p/d: -p mod d and p mod d are
    prime to d, so the result stays in lowest terms.
    """
    last = pt[-1]
    num, den = last.numerator, last.denominator
    k = num // den
    if k % 2:
        head = [Fraction(-c.numerator % c.denominator, c.denominator)
                for c in pt[:-1]]
    else:
        head = [c if 0 <= c.numerator < c.denominator
                else Fraction(c.numerator % c.denominator, c.denominator)
                for c in pt[:-1]]
    head.append(Fraction(num - k * den, den) if k else last)
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
    is den^2 times the squared distance."""
    steps = [den] * (len(a) - 1) + [2 * den]
    branches = []
    for images in (b, [-bi for bi in b[:-1]] + [b[-1] + den]):
        axes = []
        cost = 0
        for ai, bi, step in zip(a, images, steps):
            r = (ai - bi) % step
            lo = ai - r
            if 2 * r < step:
                axes.append((lo,))
                cost += r * r
            elif 2 * r > step:
                axes.append((lo + step,))
                cost += (step - r) ** 2
            else:
                axes.append((lo, lo + step))
                cost += r * r
        branches.append((cost, axes))
    return branches


def squared_distance(y: KleinPoint, z: KleinPoint) -> Fraction:
    """Exact squared quotient distance between two points: the cheaper
    parity branch of `_branches` (per axis, z_i - y_i or z_i + y_i to the
    integers, and z_n - y_n to the even or odd integers)."""
    if y.n != z.n:
        raise ValueError("dimension mismatch")
    nums, den = common_denominator(y.rep + z.rep)
    best = min(cost for cost, _ in _branches(nums[:y.n], nums[y.n:], den))
    return Fraction(best, den * den)


def minimal_lifts(p: Sequence[Rational], z: KleinPoint) -> list[LiftPoint]:
    """All lifts of z at minimal Euclidean distance from the cover point p.

    Each parity branch of `_branches` that attains the minimum gives the
    Cartesian product of its per-axis argmin sets; a lift both branches
    give (only at half-integer coordinates) appears once.  The lifts are
    sorted lexicographically, and each distinct coordinate becomes one
    `Fraction`.
    """
    pt = as_point(p)
    n = len(pt)
    if n != z.n:
        raise ValueError("dimension mismatch")
    nums, den = common_denominator(pt + z.rep)
    return _lifts(nums[:n], nums[n:], den)


def _lifts(a: Sequence[int], b: Sequence[int], den: int) -> list[LiftPoint]:
    """`minimal_lifts` of b from a, both integer numerators over den."""
    branches = _branches(a, b, den)
    best = min(cost for cost, _ in branches)
    keys = sorted({q for cost, axes in branches if cost == best
                   for q in product(*axes)})
    frac = {v: Fraction(v, den) for v in {v for q in keys for v in q}}
    return [tuple(map(frac.__getitem__, q)) for q in keys]


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
