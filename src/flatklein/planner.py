"""Geodesic selection by representative faces of the cell boundary.

Every minimal lift of a target lands in the relative interior of exactly
one face of the source's cell R(P), and the deck action permutes the faces
hit by the different lifts within one equivalence class.  The deck group
acts freely, so the minimal lifts meet every face of that class, one lift
per face.  Picking a fixed representative face per class therefore selects
exactly one lift for every pair of points, and the selection varies
continuously while the pair stays in one partition cell; the cell index is
the stratum dimension of the source plus the dimension of the face that
was hit.

Face identity is symbolic: a face is named by the sorted row keys of the
cell rows tight on it, which are stable across an entire stratum.
The representative of a class is its smallest key, so `plan` keeps the
lift whose tight set has the smallest key and needs neither the face
lattice nor the face classes; `representatives` lists those keys for a
whole cell.

A lift's tight rows come from the other lifts, and no cell is built.
Every row of R(P) is the bisector of P and a neighbour gP, and a point q
is as far from gP as from P iff g^-1 q is as far from P as q is.  So a
minimal lift q is tight on the row of gP iff g^-1 q is another minimal
lift.  A lone lift is therefore tight on no row: its key is () and its
face has dimension n.  On the cut locus, where two or more lifts tie, the
rows tight at q are those of the deck maps g that carry another lift q'
to q and send P to a neighbour.  The lifts of each parity branch of
`klein_space._branches` are a product of per-axis ties, and on their
numerators over D:
- within a branch, g is a translation.  Switching one tied head axis i
  is a wall, w_i+ where q takes the upper option and w_i- where it takes
  the lower one, the sign flipped on a reflected axis (a_i > 1/2).
  Switching the tied last axis is the cap c+ or c- in the same way, and
  lifts that differ on two or more axes share no row;
- across branches, g is a glide, with t = (q_n - q'_n)/D and
  v_i = (q_i + q'_i)/D on the head.  Here t = +-1 always: q_n and q'_n
  both lie within D of the source's last numerator and differ by an odd
  multiple of D.  It is
  the slant s+ (t = 1) or s- (t = -1) iff every v_i is allowed at a_i:
  0 or 1 below 1/2 (bit v_i), 1 or 2 above it (bit 2 - v_i), 0 at
  a_i = 0 and 1 at a_i = 1/2 (bit 0).
So each lift costs O(n) plus its own tight rows, and no pair of lifts is
scanned.  The chosen lift is relatively interior to its face, so the face
has dimension n minus the rank of its rows' offsets gP - P.

A pair is read once: `plan` projects both points and puts them over one
common denominator, whose integer numerators feed both the stratum
dimension and the minimal lifts (`minimal_lifts`' core).  The dimension
comes from `stratification._stratum_dim`, which reads it off the zero
entries of the source's K table and builds no sign vector.  The chosen
lift takes the target's own `Fraction` on each axis where it lands on the
target's numerator, and one `Fraction` per other axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Sequence

from ._exact import InvariantError, common_denominator, mat_rank
from .cut_polytope import cut_polytope
from .klein_space import (KleinPoint, LiftPoint, _tied_branches, format_rat,
                          geodesic_path, project)
from .stratification import _stratum_dim

__all__ = ["FaceKey", "PlanResult", "plan", "representatives"]

FaceKey = tuple  # sorted tuple of row keys


@dataclass(frozen=True)
class PlanResult:
    """Chosen minimal geodesic for one ordered pair."""

    index: int
    stratum_dim: int
    face_dim: int
    face_key: FaceKey
    lift: LiftPoint
    samples: tuple[KleinPoint, ...] = ()

    def to_json(self) -> dict:
        data = {
            "index": self.index,
            "stratum_dim": self.stratum_dim,
            "face_dim": self.face_dim,
            "face_key": list(self.face_key),
            "lift": [format_rat(c) for c in self.lift],
        }
        if self.samples:
            data["samples"] = [[format_rat(c) for c in s.rep]
                               for s in self.samples]
        return data


def representatives(p) -> dict[int, set[FaceKey]]:
    """Minimal face key of every face-equivalence class, grouped by dim."""
    cell = cut_polytope(p)
    faces = cell.face_lattice()
    out: dict[int, set[FaceKey]] = {}
    for cls in cell.face_equivalences():
        key = min(faces[i].active for i in cls)
        out.setdefault(faces[cls[0]].dim, set()).add(key)
    return out


#: a row tight at a lift: its key and its offset gP - P, numerators over D
TightRow = tuple[str, tuple[int, ...]]


def _tight_rows(a: Sequence[int], den: int,
                tied: list[tuple[int, list[tuple[int, ...]]]],
                ) -> Iterator[tuple[tuple[int, ...], list[TightRow]]]:
    """Each minimal lift, as numerators over den, with the rows of the
    source's cell tight at it (the lift rule of the module docstring).

    `a` holds the source's numerators over den and `tied` the minimal
    branches of `klein_space._tied_branches`.  Per axis and option x, the
    wall or cap that switches the axis and the slant entries that pair x
    with the other branch are taken out once, so a lift reads its rows
    off its own options.
    """
    n = len(a)
    last = n - 1
    # the slant bit of each allowed v_i, per head axis
    bits = [{0: "0"} if not x else {1: "0"} if 2 * x == den
            else {0: "0", 1: "1"} if 2 * x < den else {1: "1", 2: "0"}
            for x in a[:-1]]
    for parity, axes in tied:
        own: list[dict[int, TightRow]] = []
        for i, opts in enumerate(axes):
            if len(opts) == 1:
                own.append({})
                continue
            lo, hi = opts
            up = [0] * n
            if i == last:
                up[i] = 2 * den
                names = ("c+", "c-")
            else:
                up[i] = den
                names = (f"w{i}+", f"w{i}-")
                if 2 * a[i] > den:  # a reflected axis
                    names = names[::-1]
            # the upper option is the lower one moved by +e_i (or +2e_n)
            own.append({hi: (names[0], tuple(up)),
                        lo: (names[1], tuple([-x for x in up]))})
        far = next((other for p, other in tied if p != parity), None)
        cross: list[dict[int, list[tuple[str, int]]]] = []
        if far is not None:
            # per own option x, the other branch's options that make an
            # allowed glide: (bit, v_i D - 2A_i) on the head, (sign, t D)
            # last, where t = +-1 always (module docstring)
            for i in range(last):
                cross.append({x: [(bits[i][v], v * den - 2 * a[i])
                                  for v in ((x + y) // den for y in far[i])
                                  if v in bits[i]]
                              for x in axes[i]})
            cross.append({x: [("+" if x > y else "-", x - y)
                              for y in far[last]]
                          for x in axes[last]})
        for q in product(*axes):
            rows = [row for i, x in enumerate(q) if (row := own[i].get(x))]
            if cross:
                for *head, (sign, t) in product(*(cross[i][x]
                                                  for i, x in enumerate(q))):
                    rows.append(("s" + sign + "".join(b for b, _ in head),
                                 tuple([o for _, o in head] + [t])))
            yield q, rows


def plan(y, z, samples: int = 0) -> PlanResult:
    """Deterministic selection of one minimal geodesic from y to z.

    Refused with a ValueError above n = CLASSIFY_N_MAX, even before a
    dimension mismatch.
    """
    src = project(y)
    dst = project(z)
    n = src.n
    nums, den = common_denominator(src.rep + dst.rep)
    dim = _stratum_dim(nums[:n], den)
    if dst.n != n:
        raise ValueError("dimension mismatch")
    tied = _tied_branches(nums[:n], nums[n:], den)
    if len(tied) == 1 and all(len(opts) == 1 for opts in tied[0][1]):
        # a lone lift is tight on no row of the cell (module docstring)
        k, q, j = (), tuple(opts[0] for opts in tied[0][1]), n
    else:
        keys = set()
        count = 0
        best = None
        for q, rows in _tight_rows(nums[:n], den, tied):
            key = tuple(sorted([name for name, _ in rows]))
            keys.add(key)
            count += 1
            if best is None or key < best[0]:
                best = key, q, rows
        if len(keys) != count:
            raise InvariantError(
                "minimal lifts must lie on distinct faces: source "
                f"({', '.join(format_rat(c) for c in src.rep)}), target "
                f"({', '.join(format_rat(c) for c in dst.rep)}), "
                f"{count} lifts, keys {sorted(keys)}")
        k, q, rows = best
        # q is relatively interior to its face, so this is its dimension
        j = n - mat_rank(offset for _, offset in rows)
    lift = tuple([c if x == b else Fraction(x, den)
                  for x, b, c in zip(q, nums[n:], dst.rep)])
    pts = tuple(geodesic_path(src.rep, lift, samples)) if samples else ()
    return PlanResult(dim + j, dim, j, k, lift, pts)
