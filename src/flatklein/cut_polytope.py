"""Dirichlet cells of the flat Klein quotient, as explicit rational polytopes.

For a canonical base point P the cell R(P) — all points at least as close to
P as to any other point of its orbit — is a bounded intersection of
half-spaces: two walls per horizontal coordinate, two caps in the vertical
coordinate, and a family of slanted bisectors indexed by 0/1 vectors over
the "active" coordinates (those with a_i not in {0, 1/2}).  This module
builds that description symbolically, enumerates the vertices in closed
form (standard / middle / truncating families), assembles the face lattice
with exact rank computations, and computes which vertices and faces are
identified with each other in the quotient.

Coordinate indices are 0-based everywhere, including emitted JSON.
Half-space descriptors are expressed in the reduced chamber (every active
a_i folded into (0, 1/2)); realized inequalities are transported back
through the reflections, which conjugate the deck group to itself.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

from ._exact import common_denominator, mat_rank
from .klein_space import (
    HALF,
    DeckElement,
    KleinPoint,
    LiftPoint,
    Rational,
    as_point,
    canonicalize,
    format_rat,
    project,
    rat,
)

__all__ = [
    "Cap", "CutPolytope", "LabeledSet", "Slant", "Vertex", "Wall",
    "chamber_reduce", "contains", "cut_polytope", "delta", "face_equivalences",
    "face_lattice", "halfspaces", "k_value", "vertex_equivalences", "vertices",
]

STANDARD_PLUS = "StandardPlus"
STANDARD_MINUS = "StandardMinus"
MIDDLE = "Middle"
TRUNC_PLUS = "TruncPlus"
TRUNC_MINUS = "TruncMinus"

#: Largest dimension for which face work (lattice, classes, JSON) runs: the
#: cell at n has about 2*3^(n-1) vertices, and the n = 7 lattice already
#: takes seconds.
FACE_N_MAX = 7


def delta(a: Rational) -> Fraction:
    """The height gain of the slant over coordinate value a.

    Piecewise quadratic, positive on (0,1) except for the prism value 1/2,
    maximal (1/8) at a = 1/4 and a = 3/4.
    """
    a = rat(a)
    if not 0 < a < 1:
        raise ValueError("delta is defined on (0, 1)")
    if a <= HALF:
        return a - 2 * a * a
    return Fraction(1, 8) - 2 * (a - Fraction(3, 4)) ** 2


@dataclass(frozen=True)
class LabeledSet:
    """A subset of horizontal coordinate indices with 0/1 labels on it."""

    members: tuple[int, ...]
    labels: tuple[int, ...]

    def __post_init__(self):
        if tuple(sorted(self.members)) != self.members:
            raise ValueError("members must be sorted")
        if len(self.labels) != len(self.members):
            raise ValueError("labels must align with members")
        if any(e not in (0, 1) for e in self.labels):
            raise ValueError("labels are 0/1")

    def label_of(self, i: int) -> int:
        return self.labels[self.members.index(i)]


def k_value(subset: Union[LabeledSet, Iterable[int]],
            a: Sequence[Rational]) -> Fraction:
    """The slack K(S) = 1/2 - sum of slant gains over S plus over complement.

    `a` lists the active horizontal coordinate values (prism coordinates are
    excluded by the caller); `subset` indexes into it.  Depends only on the
    underlying set, never on labels.
    """
    vals = [rat(x) for x in a]
    if any(not 0 < v < 1 or v == HALF for v in vals):
        raise ValueError("k_value needs active coordinates in (0,1) \\ {1/2}")
    members = subset.members if isinstance(subset, LabeledSet) else tuple(subset)
    mem = set(members)
    if not mem <= set(range(len(vals))):
        raise ValueError("subset indexes outside the coordinate list")
    total = sum((delta(v) for v in vals), start=Fraction(0))
    inside = sum((delta(vals[i]) for i in mem), start=Fraction(0))
    return HALF + total - 2 * inside


def chamber_reduce(p: Sequence[Rational]):
    """Fold all horizontal coordinates into [0, 1/2].

    Returns (reduced point, reflected index tuple, prism index tuple).
    Reflected coordinates (a_i in (1/2,1)) are replaced by 1 - a_i; the
    reflection x_i -> 1 - x_i conjugates the deck group to itself, so every
    equivalence statement transports.  Prism coordinates are those with
    a_i in {0, 1/2}.
    """
    pt = as_point(p)
    reduced = list(pt)
    reflected = []
    prism = []
    for i, c in enumerate(pt[:-1]):
        if not 0 <= c < 1:
            raise ValueError("expected a canonical point")
        if c in (0, HALF):
            prism.append(i)
        elif c > HALF:
            reflected.append(i)
            reduced[i] = 1 - c
    return tuple(reduced), tuple(reflected), tuple(prism)


# ---------------------------------------------------------------------------
# Half-space descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Wall:
    """x_i <= a_i + 1/2 (sign +1) or x_i >= a_i - 1/2 (-1), reduced chamber."""

    index: int
    sign: int

    def key(self) -> str:
        return f"w{self.index}{'+' if self.sign > 0 else '-'}"


@dataclass(frozen=True)
class Slant:
    """Bisector with a glide image one level up (+1) or down (-1).

    `delta_bits` has one entry per horizontal coordinate; entries at prism
    coordinates are fixed to 0 and contribute no term.
    """

    sign: int
    delta_bits: tuple[int, ...]

    def key(self) -> str:
        return f"s{'+' if self.sign > 0 else '-'}{''.join(map(str, self.delta_bits))}"


@dataclass(frozen=True)
class Cap:
    """x_n <= a_n + 1 (sign +1) or x_n >= a_n - 1 (-1)."""

    sign: int

    def key(self) -> str:
        return f"c{'+' if self.sign > 0 else '-'}"


Descriptor = Union[Wall, Slant, Cap]


@dataclass(frozen=True)
class Vertex:
    kind: str
    support: LabeledSet
    pivot: int | None
    coords: LiftPoint
    merged: bool = False


@dataclass(frozen=True)
class Face:
    dim: int
    active: tuple[str, ...]
    vertex_ids: tuple[int, ...]


class CutPolytope:
    """Immutable cell data for one canonical base point."""

    def __init__(self, p: Union[KleinPoint, Sequence[Rational]]):
        point = p if isinstance(p, KleinPoint) else project(as_point(p))
        if not isinstance(p, KleinPoint) and point.rep != as_point(p):
            raise ValueError("base point must be canonical (in [0,1)^n)")
        self.point = point
        self.n = point.n
        self.reduced, self.reflected, self.prism = chamber_reduce(point.rep)
        self.active = tuple(i for i in range(self.n - 1) if i not in self.prism)
        # the reduced point as integer numerators over one denominator
        self._nums, self._den = common_denominator(self.reduced)
        self._rows: list[tuple[Descriptor, tuple[int, ...], int]] | None = None
        self._halfspaces: list[tuple[Descriptor, LiftPoint, Fraction]] | None = None
        self._vertices: list[Vertex] | None = None
        self._faces: list[Face] | None = None
        self._vertex_classes: list[list[int]] | None = None
        self._face_classes: list[list[int]] | None = None

    # -- half-spaces --------------------------------------------------------

    def descriptors(self) -> list[Descriptor]:
        out: list[Descriptor] = []
        for i in range(self.n - 1):
            out.append(Wall(i, 1))
            out.append(Wall(i, -1))
        out.append(Cap(1))
        out.append(Cap(-1))
        for sign in (1, -1):
            for bits in itertools.product((0, 1), repeat=len(self.active)):
                full = [0] * (self.n - 1)
                for i, b in zip(self.active, bits):
                    full[i] = b
                out.append(Slant(sign, tuple(full)))
        return out

    def integer_rows(self) -> list[tuple[Descriptor, tuple[int, ...], int]]:
        """Every half-space as integer data (descriptor, normal, offset).

        Built once per cell in closed form from the numerators A_i of the
        reduced point over their common denominator D, with the inequality
        normal.x <= offset scaled by 2D: a wall has normal +-2D e_i and
        offset +-2A_i + D, a cap +-2D e_n and +-2A_n + 2D, and a slant
        +-2D e_n plus 2(bit_i D - 2A_i) e_i over the active coordinates,
        with offset +-2A_n + D less 2A_i - D for every set bit.  A
        reflected coordinate then flips its normal entry, moving the old
        entry into the offset (x_i -> 1 - x_i).
        """
        if self._rows is None:
            n = self.n
            a, den = self._nums, self._den
            rows = []
            for d in self.descriptors():
                normal = [0] * n
                if isinstance(d, Wall):
                    normal[d.index] = 2 * d.sign * den
                    offset = 2 * d.sign * a[d.index] + den
                elif isinstance(d, Cap):
                    normal[-1] = 2 * d.sign * den
                    offset = 2 * d.sign * a[-1] + 2 * den
                else:
                    normal[-1] = 2 * d.sign * den
                    offset = 2 * d.sign * a[-1] + den
                    for i in self.active:
                        bit = d.delta_bits[i]
                        normal[i] = 2 * (bit * den - 2 * a[i])
                        if bit:
                            offset -= 2 * a[i] - den
                for i in self.reflected:
                    offset -= normal[i]
                    normal[i] = -normal[i]
                rows.append((d, tuple(normal), offset))
            self._rows = rows
        return self._rows

    def halfspaces(self) -> list[tuple[Descriptor, LiftPoint, Fraction]]:
        """`integer_rows` as exact rationals: normal.x <= offset."""
        if self._halfspaces is None:
            rows = self.integer_rows()
            # one Fraction per distinct entry: rows share most of them
            values = {v for _, normal, off in rows for v in (*normal, off)}
            frac = {v: Fraction(v, 2 * self._den) for v in values}
            self._halfspaces = [(d, tuple(frac[v] for v in normal), frac[off])
                                for d, normal, off in rows]
        return self._halfspaces

    def _slacks(self, x: Sequence[Rational]) -> list[tuple[Descriptor, int]]:
        """(descriptor, offset - normal.x) per half-space, scaled to ints."""
        pt, den = common_denominator(as_point(x))
        return [(d, off * den - sum(map(operator.mul, normal, pt)))
                for d, normal, off in self.integer_rows()]

    def contains(self, x: Sequence[Rational]) -> bool:
        return all(slack >= 0 for _, slack in self._slacks(x))

    def active_descriptors(self, x: Sequence[Rational]) -> frozenset[Descriptor]:
        tight = []
        for d, slack in self._slacks(x):
            if slack < 0:
                raise ValueError("point is outside the cell")
            if slack == 0:
                tight.append(d)
        return frozenset(tight)

    # -- vertices -----------------------------------------------------------

    def _reduced_vertex_data(self):
        """Vertices of the active-coordinate cell, reduced chamber.

        Yields (kind, members, labels, pivot, sign, coords) where members
        holds original active indices and coords is a dict {index: value}
        plus the vertical value under key n-1.
        """
        act = self.active
        a = {i: self.reduced[i] for i in act}
        dl = {i: delta(a[i]) for i in act}
        total = sum(dl.values(), start=Fraction(0))
        a_n = self.reduced[self.n - 1]
        out = []
        for r in range(len(act) + 1):
            for mem in itertools.combinations(act, r):
                k_s = HALF + total - 2 * sum((dl[i] for i in mem), start=Fraction(0))
                outside = {i: HALF - a[i] for i in act if i not in mem}
                if 0 <= k_s <= 1:
                    for labels in itertools.product((0, 1), repeat=r):
                        base = dict(outside)
                        for i, e in zip(mem, labels):
                            base[i] = a[i] - HALF + e
                        if k_s == 0:
                            base[self.n - 1] = a_n
                            out.append((STANDARD_PLUS, mem, labels, None, 0, base))
                        else:
                            up, dn = dict(base), dict(base)
                            up[self.n - 1] = a_n + k_s
                            dn[self.n - 1] = a_n - k_s
                            out.append((STANDARD_PLUS, mem, labels, None, 1, up))
                            out.append((STANDARD_MINUS, mem, labels, None, -1, dn))
                for k in mem:
                    c_k = k_s + 2 * dl[k]  # K of the set without / with the pivot
                    if k_s < 0 < c_k:
                        for labels in itertools.product((0, 1), repeat=r):
                            e_k = labels[mem.index(k)]
                            base = dict(outside)
                            for i, e in zip(mem, labels):
                                base[i] = a[i] - HALF + e
                            base[k] = a[k] - HALF + e_k - k_s / (2 * a[k] - e_k)
                            base[self.n - 1] = a_n
                            out.append((MIDDLE, mem, labels, k, 0, base))
                    if k_s < 1 < c_k:
                        for labels in itertools.product((0, 1), repeat=r):
                            e_k = labels[mem.index(k)]
                            base = dict(outside)
                            for i, e in zip(mem, labels):
                                base[i] = a[i] - HALF + e
                            base[k] = (a[k] - HALF + e_k
                                       + (1 - k_s) / (2 * a[k] - e_k))
                            for kind, s in ((TRUNC_PLUS, 1), (TRUNC_MINUS, -1)):
                                co = dict(base)
                                co[self.n - 1] = a_n + s
                                out.append((kind, mem, labels, k, s, co))
        return out

    def vertices(self) -> list[Vertex]:
        """All vertices, classified; sorted by coordinates."""
        if self._vertices is not None:
            return self._vertices
        raw = self._reduced_vertex_data()
        built: list[Vertex] = []
        prism_choices = list(itertools.product((0, 1), repeat=len(self.prism)))
        for kind, mem, labels, pivot, sign, coords in raw:
            merged = kind == STANDARD_PLUS and sign == 0
            for bits in prism_choices:
                full = list(self.point.rep)
                for i, v in coords.items():
                    full[i] = 1 - v if i in self.reflected else v
                for j, b in zip(self.prism, bits):
                    full[j] = self.point.rep[j] - HALF + b
                built.append(Vertex(kind, LabeledSet(mem, labels), pivot,
                                    tuple(full), merged))
        built.sort(key=lambda v: v.coords)
        if len({v.coords for v in built}) != len(built):
            raise AssertionError("vertex coordinates collide")
        self._vertices = built
        return built

    # -- face lattice -------------------------------------------------------

    def _vertex_numerators(self) -> tuple[list[tuple[int, ...]], int]:
        """Vertex coordinates as integer numerators over one common denominator."""
        n = self.n
        flat, den = common_denominator([c for v in self.vertices() for c in v.coords])
        return [tuple(flat[i:i + n]) for i in range(0, len(flat), n)], den

    def face_lattice(self) -> list[Face]:
        """All faces (dimension 0..n), bottom-up, exact ranks.

        Faces are the nonempty intersections of facets, with vertex-facet
        incidences held as int bitmasks (as in Kaibel & Pfetsch, 2002).  A
        face's dimension is n minus the rank of the normals tight on all of
        its vertices.  Refused with a ValueError above n = FACE_N_MAX.
        """
        if self._faces is not None:
            return self._faces
        if self.n > FACE_N_MAX:
            raise ValueError(
                f"face lattice and face classes are limited to n <= {FACE_N_MAX}: "
                f"the cell at n = {self.n} has about {2 * 3 ** (self.n - 1)} vertices")
        nums, den = self._vertex_numerators()
        n = self.n
        keys = [d.key() for d, _, _ in self.integer_rows()]
        rows = [(normal, off) for _, normal, off in self.integer_rows()]
        # at[i]: mask of the descriptors tight at vertex i
        at = [sum(1 << j for j, (row, rhs) in enumerate(rows)
                  if sum(w * c for w, c in zip(row, v)) == rhs * den)
              for v in nums]
        ranks: dict[int, int] = {}

        def dim_and_tight(s: int) -> tuple[int, int]:
            on = -1
            for i in _bits(s):
                on &= at[i]
            if on not in ranks:
                ranks[on] = mat_rank([rows[j][0] for j in _bits(on)])
            return n - ranks[on], on

        tight = [sum(1 << i for i, a in enumerate(at) if a >> j & 1)
                 for j in range(len(rows))]
        facets = [t for t in tight if t and dim_and_tight(t)[0] == n - 1]
        top = (1 << len(nums)) - 1
        sets = {top}
        frontier = [top]
        while frontier:
            nxt = []
            for g in frontier:
                for f in facets:
                    meet = g & f
                    if meet and meet not in sets:
                        sets.add(meet)
                        nxt.append(meet)
            frontier = nxt
        faces = []
        for s in sets:
            dim, on = dim_and_tight(s)
            active = tuple(sorted(keys[j] for j in _bits(on)))
            faces.append(Face(dim, active, tuple(_bits(s))))
        faces.sort(key=lambda f: (f.dim, f.vertex_ids))
        self._faces = faces
        return faces

    # -- quotient identifications -------------------------------------------

    def vertex_equivalences(self) -> list[list[int]]:
        """Partition of vertex ids by their image in the quotient."""
        if self._vertex_classes is not None:
            return self._vertex_classes
        groups: dict[KleinPoint, list[int]] = {}
        for i, v in enumerate(self.vertices()):
            groups.setdefault(project(v.coords), []).append(i)
        classes = sorted(groups.values())
        self._vertex_classes = classes
        return classes

    def face_equivalences(self) -> list[list[int]]:
        """Partition of face ids under the deck action (dimension-preserving).

        The deck group acts freely, so g_b^-1 g_a, with g_f from
        canonicalize(barycenter of f), is the only deck map that can carry
        face a onto face b; faces are grouped by (dim, projected barycenter).
        """
        if self._face_classes is not None:
            return self._face_classes
        faces = self.face_lattice()
        nums, den = self._vertex_numerators()
        groups: dict[tuple[int, KleinPoint], list[tuple[int, DeckElement]]] = {}
        for fid, f in enumerate(faces):
            total = [sum(col) for col in zip(*(nums[i] for i in f.vertex_ids))]
            point, g = canonicalize(
                [Fraction(t, den * len(f.vertex_ids)) for t in total])
            groups.setdefault((f.dim, point), []).append((fid, g))
        for members in groups.values():
            first, g_first = members[0]
            for fid, g in members[1:]:
                h = g.inverse().compose(g_first)
                sign = -1 if h.parity else 1
                image = sorted(
                    tuple(sign * c + s * den for c, s in zip(v, h.shift))
                    + (v[-1] + h.last_shift * den,)
                    for v in (nums[i] for i in faces[first].vertex_ids))
                if image != [nums[i] for i in faces[fid].vertex_ids]:
                    base = ",".join(format_rat(c) for c in self.point.rep)
                    raise AssertionError(
                        f"faces {first} and {fid} of the cell at P = {base} have "
                        "deck-equivalent barycenters but are not deck images")
        classes = sorted([fid for fid, _ in members] for members in groups.values())
        self._face_classes = classes
        return classes

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        faces = self.face_lattice()
        verts = self.vertices()
        return {
            "n": self.n,
            "P": [format_rat(c) for c in self.point.rep],
            "vertices": [
                {
                    "kind": v.kind,
                    "S": list(v.support.members),
                    "eps": list(v.support.labels),
                    "k": v.pivot,
                    "coords": [format_rat(c) for c in v.coords],
                    **({"merged": True} if v.merged else {}),
                }
                for v in verts
            ],
            "faces": [
                {"dim": f.dim, "active": list(f.active), "vertices": list(f.vertex_ids)}
                for f in faces
            ],
            "equiv": {
                "vertices": self.vertex_equivalences(),
                "faces": self.face_equivalences(),
            },
        }


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# a cell's memory grows like its 2*3^(n-1) vertices (about 0.4 MB at n = 6
# once they are built), so the cache holds few cells
@lru_cache(maxsize=32)
def _cached_cell(rep: LiftPoint) -> CutPolytope:
    # rep is canonical already: wrapping it skips the cell's own projection
    return CutPolytope(KleinPoint(rep))


def cut_polytope(p: Union[KleinPoint, Sequence[Rational]]) -> CutPolytope:
    """Shared-cache constructor (cells are immutable)."""
    point = p if isinstance(p, KleinPoint) else project(as_point(p))
    return _cached_cell(point.rep)


def halfspaces(p) -> list[tuple[Descriptor, LiftPoint, Fraction]]:
    return cut_polytope(p).halfspaces()


def vertices(p) -> list[Vertex]:
    return cut_polytope(p).vertices()


def contains(p, x: Sequence[Rational]) -> bool:
    return cut_polytope(p).contains(x)


def face_lattice(p) -> list[Face]:
    return cut_polytope(p).face_lattice()


def vertex_equivalences(p) -> list[list[int]]:
    return cut_polytope(p).vertex_equivalences()


def face_equivalences(p) -> list[list[int]]:
    return cut_polytope(p).face_equivalences()
