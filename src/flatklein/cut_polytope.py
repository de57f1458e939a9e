"""Dirichlet cells of the flat Klein quotient, as explicit rational polytopes.

For a canonical base point P the cell R(P) — all points at least as close to
P as to any other point of its orbit — is a bounded intersection of
half-spaces: two walls per horizontal coordinate, two caps in the vertical
coordinate, and a family of slanted bisectors indexed by 0/1 vectors over
the "active" coordinates (those with a_i not in {0, 1/2}).  This module
builds that description symbolically, enumerates the vertices in closed
form (standard / middle / truncating families), grades the face lattice
from the vertex-row incidences, and computes which vertices and faces are
identified with each other in the quotient: two faces are exactly when
their barycenters are, as a face is the smallest one that holds its
barycenter.

Inside, the half-spaces and the vertex families run on the integer
numerators of the reduced point over their common denominator D.  The
chamber fold `_chamber` and the all-subsets K(S) table `_k_table` also
serve `stratification`: the signs of K(S) fix both a point's stratum and
its cell's type.  Every
vertex coordinate is an integer over one denominator per cell, so the
vertices are sorted and checked for collisions as integer tuples, and a
Fraction is built once per distinct coordinate value.

Coordinate indices are 0-based everywhere, including emitted JSON.
Each half-space is named by its row key (`w3+`, `c-`, `s+0101`), which is
read in the reduced chamber (every active a_i folded into (0, 1/2));
realized inequalities are transported back through the reflections, which
conjugate the deck group to itself.
"""

from __future__ import annotations

import itertools
import math
import operator
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from ._exact import InvariantError, _packed_scan, common_denominator
from .klein_space import (
    KleinPoint,
    LiftPoint,
    Rational,
    as_point,
    format_rat,
    project,
    rat,
)

__all__ = ["CutPolytope", "LabeledSet", "Vertex", "cut_polytope", "delta", "k_value"]

STANDARD_PLUS = "StandardPlus"
STANDARD_MINUS = "StandardMinus"
MIDDLE = "Middle"
TRUNC_PLUS = "TruncPlus"
TRUNC_MINUS = "TruncMinus"

#: Largest dimension for which face work (lattice, classes, JSON) runs: the
#: cell at n has about 2*3^(n-1) vertices, and the generic n = 7 cell's
#: lattice of 38 939 faces takes 0.63-0.72 s on a 2-core host.
FACE_N_MAX = 7


def _gain8(p: int, d: int) -> int:
    """8 d^2 delta(p/d): 8 d^2 (a - 2a^2) up to a = 1/2, else
    8 d^2 (1/8 - 2 (a - 3/4)^2), on the integers p and d of a = p/d."""
    return 8 * p * (d - 2 * p) if 2 * p <= d else d * d - (4 * p - 3 * d) ** 2


def delta(a: Rational) -> Fraction:
    """The height gain of the slant over coordinate value a.

    Piecewise quadratic, positive on (0,1) except for the prism value 1/2,
    maximal (1/8) at a = 1/4 and a = 3/4.
    """
    a = rat(a)
    p, d = a.numerator, a.denominator
    if not 0 < p < d:
        raise ValueError("delta is defined on (0, 1)")
    return Fraction(_gain8(p, d), 8 * d * d)


@dataclass(frozen=True, slots=True)
class LabeledSet:
    """A subset of horizontal coordinate indices with 0/1 labels on it."""

    members: tuple[int, ...]
    labels: tuple[int, ...]

    def __post_init__(self):
        members = self.members
        if any(map(operator.ge, members, members[1:])):
            raise ValueError("members must be strictly increasing")
        if len(self.labels) != len(members):
            raise ValueError("labels must align with members")
        if not all(map((0, 1).__contains__, self.labels)):
            raise ValueError("labels are 0/1")

    def label_of(self, i: int) -> int:
        if i not in self.members:
            raise ValueError(f"index {i} is not a member: members = {self.members}")
        return self.labels[self.members.index(i)]


def k_value(subset: Union[LabeledSet, Iterable[int]],
            a: Sequence[Rational]) -> Fraction:
    """The slack K(S) = 1/2 - sum of slant gains over S plus over complement.

    `a` lists the active horizontal coordinate values (prism coordinates are
    excluded by the caller); `subset` indexes into it.  Depends only on the
    underlying set, never on labels.
    """
    vals = [rat(x) for x in a]
    # 0 < p/q < 1 and p/q != 1/2 in lowest terms: 0 < p < q and q != 2
    if any(not 0 < v.numerator < v.denominator or v.denominator == 2
           for v in vals):
        raise ValueError("k_value needs active coordinates in (0,1) \\ {1/2}")
    members = subset.members if isinstance(subset, LabeledSet) else tuple(subset)
    mem = set(members)
    if not mem <= set(range(len(vals))):
        raise ValueError("subset indexes outside the coordinate list")
    if len(mem) != len(members):
        raise ValueError(f"repeated index in {members}")
    # over 8 D^2: 8 D^2 K = 4 D^2 + sum of gains - 2 * (gains over S)
    nums, den = common_denominator(vals)
    gains = [_gain8(p, den) for p in nums]
    total = 4 * den * den + sum(gains) - 2 * sum(gains[i] for i in mem)
    return Fraction(total, 8 * den * den)


def _chamber(nums: list[int], den: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(reflected indices, prism indices) of a point's numerators over any
    common denominator D, which it reduces in place.  A head numerator A
    must have 0 <= A < D; it is a prism (0 or 1/2) iff A = 0 or 2A = D,
    and reflected iff 2A > D, when it becomes D - A."""
    reflected, prism = [], []
    for i, x in enumerate(nums[:-1]):
        if not 0 <= x < den:
            raise ValueError("expected a canonical point")
        if not x or 2 * x == den:
            prism.append(i)
        elif 2 * x > den:
            reflected.append(i)
            nums[i] = den - x
    return tuple(reflected), tuple(prism)


def _k_table(gains: Sequence[int], sq: int) -> list[int]:
    """8 D^2 K(S) for every subset S of the coordinates with slant gains
    `gains` (`_gain8` over D, sq = D^2), indexed by bitmask, built by
    doubling: 8 D^2 K(S) = 4 D^2 + sum of gains - 2 * (gains over S)."""
    table = [4 * sq + sum(gains)]
    for g in gains:
        table += [t - 2 * g for t in table]
    return table


@dataclass(frozen=True, slots=True)
class Vertex:
    kind: str
    support: LabeledSet
    pivot: int | None
    coords: LiftPoint
    merged: bool = False


@dataclass(frozen=True, slots=True)
class Face:
    dim: int
    active: tuple[str, ...]
    vertex_ids: tuple[int, ...]


_set_dim, _set_active, _set_vertex_ids = (
    Face.__dict__[name].__set__ for name in ("dim", "active", "vertex_ids"))


def _face(dim: int, active: tuple[str, ...], vertex_ids: tuple[int, ...]) -> Face:
    """`Face(dim, active, vertex_ids)`, its slots set directly: the frozen
    dataclass's `__init__` sets each field through `object.__setattr__`,
    which makes a face record cost about twice as much (1.3 against
    0.7 us a face on a 2-core host), a fixed cost on each of the lattice's
    faces."""
    face = object.__new__(Face)
    _set_dim(face, dim)
    _set_active(face, active)
    _set_vertex_ids(face, vertex_ids)
    return face


class CutPolytope:
    """Immutable cell data for one canonical base point."""

    def __init__(self, p: Union[KleinPoint, Sequence[Rational]]):
        point = project(p)  # a KleinPoint comes back as itself
        if point is not p and point.rep != as_point(p):
            raise ValueError("base point must be canonical (in [0,1)^n)")
        self.point = point
        self.n = point.n
        # the reduced point as integer numerators over one denominator
        self._nums, self._den = common_denominator(point.rep)
        self.reflected, self.prism = _chamber(self._nums, self._den)
        self.active = tuple(i for i in range(self.n - 1) if i not in self.prism)
        self._rows: list[tuple[str, tuple[int, ...], int]] | None = None
        self._halfspaces: list[tuple[str, LiftPoint, Fraction]] | None = None
        self._vertices: list[Vertex] | None = None
        self._vertex_nums: list[tuple[int, ...]] = []  # over _vertex_den
        self._vertex_den = 1
        self._faces: list[Face] | None = None
        self._vertex_classes: list[list[int]] | None = None
        self._face_classes: list[list[int]] | None = None

    # -- half-spaces --------------------------------------------------------

    def integer_rows(self) -> list[tuple[str, tuple[int, ...], int]]:
        """Every half-space as integer data (row key, normal, offset).

        Built once per cell in closed form from the numerators A_i of the
        reduced point over their common denominator D, with the inequality
        normal.x <= offset scaled by 2D: a wall has normal +-2D e_i and
        offset +-2A_i + D, a cap +-2D e_n and +-2A_n + 2D, and a slant
        +-2D e_n plus 2(bit_i D - 2A_i) e_i over the active coordinates,
        with offset +-2A_n + D less 2A_i - D for every set bit.  A
        reflected coordinate then flips its normal entry, moving the old
        entry into the offset (x_i -> 1 - x_i).  Rows come walls first,
        then caps, then slants.  The row key names the row in the reduced
        chamber: `w<i>+` / `w<i>-` for x_i <= a_i + 1/2 / x_i >= a_i - 1/2,
        `c+` / `c-` for x_n <= a_n + 1 / x_n >= a_n - 1, and `s+` / `s-`
        (the glide image one level up or down) followed by one bit per
        horizontal coordinate, 0 at a prism.
        """
        if self._rows is None:
            n, a, den = self.n, self._nums, self._den
            signs = ((1, "+"), (-1, "-"))
            rows = []
            for i in range(n - 1):
                for sign, mark in signs:
                    normal = [0] * n
                    normal[i] = 2 * sign * den
                    rows.append((f"w{i}{mark}", normal, 2 * sign * a[i] + den))
            for sign, mark in signs:
                normal = [0] * n
                normal[-1] = 2 * sign * den
                rows.append((f"c{mark}", normal, 2 * sign * a[-1] + 2 * den))
            for sign, mark in signs:
                for bits in itertools.product((0, 1), repeat=len(self.active)):
                    normal = [0] * n
                    normal[-1] = 2 * sign * den
                    offset = 2 * sign * a[-1] + den
                    label = ["0"] * (n - 1)
                    for i, bit in zip(self.active, bits):
                        normal[i] = 2 * (bit * den - 2 * a[i])
                        if bit:
                            label[i] = "1"
                            offset -= 2 * a[i] - den
                    rows.append((f"s{mark}{''.join(label)}", normal, offset))
            for r, (key, normal, offset) in enumerate(rows):
                for i in self.reflected:
                    offset -= normal[i]
                    normal[i] = -normal[i]
                rows[r] = (key, tuple(normal), offset)
            self._rows = rows
        return self._rows

    def halfspaces(self) -> list[tuple[str, LiftPoint, Fraction]]:
        """`integer_rows` as exact rationals: normal.x <= offset."""
        if self._halfspaces is None:
            rows = self.integer_rows()
            # one Fraction per distinct entry: rows share most of them
            values = {v for _, normal, off in rows for v in (*normal, off)}
            frac = {v: Fraction(v, 2 * self._den) for v in values}
            self._halfspaces = [(key, tuple(map(frac.__getitem__, normal)),
                                 frac[off]) for key, normal, off in rows]
        return self._halfspaces

    def _slacks(self, x: Sequence[Rational]) -> list[tuple[str, int]]:
        """(row key, offset - normal.x) per half-space, scaled to ints."""
        pt, den = common_denominator(as_point(x))
        if len(pt) != self.n:
            raise ValueError("dimension mismatch")
        return [(key, off * den - sum(map(operator.mul, normal, pt)))
                for key, normal, off in self.integer_rows()]

    def contains(self, x: Sequence[Rational]) -> bool:
        return all(slack >= 0 for _, slack in self._slacks(x))

    def active_descriptors(self, x: Sequence[Rational]) -> frozenset[str]:
        """The keys of the rows tight at a point of the cell."""
        tight = []
        for key, slack in self._slacks(x):
            if slack < 0:
                raise ValueError("point is outside the cell")
            if slack == 0:
                tight.append(key)
        return frozenset(tight)

    # -- vertices -----------------------------------------------------------

    def vertices(self) -> list[Vertex]:
        """All vertices, classified; sorted by coordinates.

        The closed-form families run on the numerators A_i of the reduced
        point over D, as `integer_rows` does, with 2D^2 K(S) a quarter of
        `_k_table` (every gain is a multiple of 8).  For a set S (labels
        e_i on it) the reduced coordinates are
        a_i - 1/2 + e_i on S and 1/2 - a_i off it; the vertical one is
        a_n +- K(S) (merged when K(S) = 0) when 0 <= K(S) <= 1.  A pivot k
        of S with K(S) < 0 < K(S - k) moves x_k by -K(S) / (2a_k - e_k)
        (Middle, at height a_n); with K(S) < 1 < K(S - k) it moves x_k by
        (1 - K(S)) / (2a_k - e_k) at height a_n +- 1 (Trunc).  Every
        coordinate is an integer over one denominator
        Q = lcm(2D^2, 2D|2A_k - e D|), so the sort and the collision check
        compare integer tuples, each distinct value becomes a Fraction once,
        and the face work reads the numerators over Q kept on the cell.
        The head values off S, on S with each label, and the pivot's move
        per unit of K are taken out of the reduced chamber once per cell,
        not per vertex, and each vertex's coordinates are one `map` over the
        Fractions.
        """
        if self._vertices is not None:
            return self._vertices
        n, den, a = self.n, self._den, self._nums
        act, last, sq = self.active, n - 1, den * den
        k2 = [t >> 2 for t in _k_table([_gain8(a[i], den) for i in act], sq)]
        q = math.lcm(2 * sq, *(2 * den * abs(2 * a[k] - e * den)
                               for k in act for e in (0, 1)))
        # Q over 2D and over 2D^2 (one unit of 2D^2 K)
        per_2d, per_k = q // (2 * den), q // (2 * sq)
        refl = set(self.reflected)

        def real(i: int, x: int) -> int:  # back out of the reduced chamber
            return q - x if i in refl else x

        # head numerators over Q, off S and on S with label e, and the
        # pivot's move per unit of 2D^2 K, Q / (2D (2A_k - e D)), each
        # already out of the reduced chamber
        base = [0] * n
        for i in act:
            base[i] = real(i, (den - 2 * a[i]) * per_2d)
        on = {(i, e): real(i, (2 * a[i] - den + 2 * e * den) * per_2d)
              for i in act for e in (0, 1)}
        step = {(k, e): (-1 if k in refl else 1)
                * (q // (2 * den * (2 * a[k] - e * den)))
                for k in act for e in (0, 1)}
        height = 2 * den * a[last] * per_k
        # numerators over Q (prism axes still 0) and (kind, support, pivot,
        # merged) of each vertex
        coords: list[list[int]] = []
        info: list[tuple[str, LabeledSet, int | None, bool]] = []
        for mask, ks in enumerate(k2):
            pos = _bits(mask)
            mem = tuple(act[j] for j in pos)
            # (kind, pivot, the pivot's shift in units of K, height)
            families = []
            if 0 <= ks <= 2 * sq:  # one merged StandardPlus when K(S) = 0
                families.append((STANDARD_PLUS, None, 0, height + ks * per_k))
                if ks:
                    families.append((STANDARD_MINUS, None, 0, height - ks * per_k))
            for j in pos:
                k, ck = act[j], k2[mask ^ 1 << j]  # ck = 2D^2 K(S - k)
                if ks < 0 < ck:
                    families.append((MIDDLE, k, -ks, height))
                if ks < 2 * sq < ck:
                    families.append((TRUNC_PLUS, k, 2 * sq - ks, height + q))
                    families.append((TRUNC_MINUS, k, 2 * sq - ks, height - q))
            if not families:
                continue
            for labels in itertools.product((0, 1), repeat=len(mem)):
                support = LabeledSet(mem, labels)
                on_s = base[:]
                for i, e in zip(mem, labels):
                    on_s[i] = on[i, e]
                for kind, k, shift, z in families:
                    co = on_s[:]
                    if k is not None:
                        e_k = labels[mem.index(k)]
                        co[k] = on[k, e_k] + shift * step[k, e_k]
                    co[last] = z
                    coords.append(co)
                    info.append((kind, support, k, k is None and not ks))
        # prism coordinates take a_j - 1/2 + b for both bits b
        prism = [(j, a[j] * (q // den) - q // 2) for j in self.prism]
        keyed: list[tuple[tuple[int, ...], int]] = []
        for idx, co in enumerate(coords):
            for bits in itertools.product((0, q), repeat=len(prism)):
                for (j, x), b in zip(prism, bits):
                    co[j] = x + b
                keyed.append((tuple(co), idx))
        keyed.sort()
        nums = [co for co, _ in keyed]
        # the first of two equal neighbours, if any
        clash = next(itertools.compress(nums, map(operator.eq, nums, nums[1:])),
                     None)
        if clash is not None:
            base_p = ",".join(format_rat(c) for c in self.point.rep)
            raise InvariantError(
                f"vertex coordinates collide in the cell at P = {base_p}: "
                + ",".join(format_rat(Fraction(x, q)) for x in clash))
        frac = {x: Fraction(x, q) for x in set(itertools.chain(*nums))}
        built = []
        for co, idx in keyed:
            kind, support, pivot, merged = info[idx]
            built.append(Vertex(kind, support, pivot,
                                tuple(map(frac.__getitem__, co)), merged))
        self._vertices = built
        self._vertex_nums = nums
        self._vertex_den = q
        return built

    # -- face lattice -------------------------------------------------------

    def face_lattice(self) -> list[Face]:
        """All faces (dimension 0..n), graded top-down from the incidences.

        Vertex-row incidences are int bitmasks (Kaibel & Pfetsch, 2002),
        with the rows in key order, so that the rows tight on all of a face
        come off their mask already sorted.  They come from the packed
        slack scan `_exact._packed_scan` over the vertex numerators, the
        kernel that also checks the certifier's points.  The faces a face
        G covers are the maximal meets of G with the rows tight at some
        vertex of G but not at all of them: any other row meets G in
        nothing or in all of G.  So the cell is level n and a face's
        dimension is its level.

        Below dimension 4 no maximality test is needed.  A face of
        dimension k has at least k + 1 vertices, and one of dimension at
        most 1 has at most 2.  So the facets of a face G of dimension
        d <= 3 are exactly its meets with at least d vertices: at d = 3 the
        other meets are edges and vertices (at most 2 vertices), at d = 2
        vertices (1).  At d = 4 a meet that is a 2-face can hold 4 or more
        vertices, so the test stays there.  Every vertex is a face and an
        edge covers its two vertices, so edges need no meets and a vertex
        face reads its row keys straight off the scan's tight rows at it.
        Each grade is sorted once, and the `Face` records are built from
        it in one pass.
        Refused with a ValueError above n = FACE_N_MAX.
        """
        if self._faces is not None:
            return self._faces
        if self.n > FACE_N_MAX:
            raise ValueError(
                f"face lattice and face classes are limited to n <= {FACE_N_MAX}: "
                f"the cell at n = {self.n} has about {2 * 3 ** (self.n - 1)} vertices")
        self.vertices()
        nums, q = self._vertex_nums, self._vertex_den
        rows = sorted(self.integer_rows())
        keys = [key for key, _, _ in rows]
        # at[i]: mask of the rows tight at vertex i; tight[j]: mask of the
        # vertices at which row j is tight
        _, on_at, tight = _packed_scan([normal for _, normal, _ in rows],
                                       [off for _, _, off in rows], nums, q)
        at = [sum(map((1).__lshift__, on)) for on in on_at]
        # per dimension from 1 up, each face as (vertex ids, mask of its
        # tight rows); the faces are built once each grade is complete
        graded: list[list[tuple[tuple[int, ...], int]]] = [
            [] for _ in range(self.n + 1)]
        level = {(1 << len(nums)) - 1}
        for dim in range(self.n, 1, -1):
            below: set[int] = set()
            for g in level:
                ids, on, touch = tuple(_bits(g)), -1, 0
                for i in ids:
                    on &= at[i]
                    touch |= at[i]
                graded[dim].append((ids, on))
                # a row tight at some vertex of g but not at all of them
                # meets g in a nonempty proper face
                meets = {g & tight[j] for j in _bits(touch & ~on)}
                if dim > 3:
                    below.update(_maximal(meets))
                else:  # the facets are the meets with dim or more vertices
                    below.update(m for m in meets if m.bit_count() >= dim)
            level = below
        for g in level:  # the edges
            lo, hi = (g & -g).bit_length() - 1, g.bit_length() - 1
            graded[1].append(((lo, hi), at[lo] & at[hi]))
        key_of = keys.__getitem__
        # a vertex reads its keys off its own tight rows, in index order
        faces = [_face(0, tuple(map(key_of, on)), (i,)) for i, on in enumerate(on_at)]
        for dim in range(1, self.n + 1):
            faces += [_face(dim, tuple(map(key_of, _bits(on))), ids)
                      for ids, on in sorted(graded[dim])]
        self._faces = faces
        return faces

    # -- quotient identifications -------------------------------------------

    def vertex_equivalences(self) -> list[list[int]]:
        """Partition of vertex ids by their image in the quotient."""
        if self._vertex_classes is None:
            self._vertex_classes = self._classes(
                [(i,) for i in range(len(self.vertices()))])
        return self._vertex_classes

    def face_equivalences(self) -> list[list[int]]:
        """Partition of face ids under the deck action (dimension-preserving)."""
        if self._face_classes is None:
            self._face_classes = self._classes(
                [f.vertex_ids for f in self.face_lattice()])
        return self._face_classes

    def _classes(self, id_sets: list[tuple[int, ...]]) -> list[list[int]]:
        """Partition of the positions of `id_sets` (vertex sets of faces,
        single vertices included) by `_barycenter_key`, the canonical image
        of each set's barycenter b.

        Faces G and G' are in one class iff G' = gG for a deck map g, and
        that holds iff g b(G) = b(G').  A deck map is affine, so the first
        gives the second.  Conversely, let N(x) be the orbit points of P
        nearest to x; for y in R(P), the smallest face of R(P) that holds y
        is {z : N(z) contains N(y)}.  If g b(G) = b(G'), then P and gP both
        lie in N(b(G')), so that set is the same for R(P) and for
        R(gP) = gR(P): it is G' and it is gG.
        """
        point, q = self._vertex_nums.__getitem__, self._vertex_den
        groups: dict[tuple[int, ...], list[int]] = {}
        for pos, ids in enumerate(id_sets):
            # the column totals of the set's points, with no list of them
            total = map(sum, zip(*map(point, ids)))
            groups.setdefault(_barycenter_key(total, len(ids) * q),
                              []).append(pos)
        return sorted(groups.values())

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


def _maximal(masks: set[int]) -> list[int]:
    """The inclusion-maximal masks among `masks`."""
    out: list[int] = []
    for m in sorted(masks, key=int.bit_count, reverse=True):
        for k in out:
            if m & k == m:
                break
        else:
            out.append(m)
    return out


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _barycenter_key(total: Iterable[int], mq: int) -> tuple[int, ...]:
    """The canonical image of the barycenter of m integer points over q,
    given by their column totals t, as its numerators over mq after mq
    itself.

    `canonicalize`'s closed form on b = t / mq: with k = t_n // mq the
    glide runs iff k is odd (sign -1), each head numerator becomes
    sign t_i mod mq and the last t_n - k mq.
    """
    *head, last = total
    k, rest = divmod(last, mq)
    sign = -1 if k % 2 else 1
    return (mq, *[sign * t % mq for t in head], rest)


#: cells by canonical rep, each kept only while some caller holds it
_held_cells: weakref.WeakValueDictionary[LiftPoint, CutPolytope] = (
    weakref.WeakValueDictionary())


def cut_polytope(p: Union[KleinPoint, Sequence[Rational]]) -> CutPolytope:
    """The cell of a point, shared while held (cells are immutable).

    A cell that some caller still holds comes back as it is, with the
    vertices, faces and classes it has computed, so `representatives(p)`
    after `cut_polytope(p)` reuses the caller's face work.  No cell is
    kept for its own sake: once the last holder drops it, it is freed,
    and the next call builds it afresh.
    """
    point = project(p)
    cell = _held_cells.get(point.rep)
    if cell is None:
        cell = _held_cells[point.rep] = CutPolytope(point)
    return cell
