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

A lone minimal lift needs no cell at all.  Every row of R(P) is the
bisector of P and a deck image gP, so a lift q on that row is as far from
gP as from P, and g^-1 q is a second lift of the target at the same
minimal distance.  A lift with no rival is therefore tight on no row: it
lies in the open cell, its key is () and its face has dimension n.  `plan`
builds the source's cell only on the cut locus, where two or more lifts
tie.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._exact import InvariantError, mat_rank
from .cut_polytope import cut_polytope
from .klein_space import (KleinPoint, LiftPoint, format_rat, geodesic_path,
                          minimal_lifts, project)
from .stratification import classify

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


def plan(y, z, samples: int = 0) -> PlanResult:
    """Deterministic selection of one minimal geodesic from y to z.

    Refused with a ValueError above n = CLASSIFY_N_MAX, by `classify`.
    """
    src = project(y)
    dst = project(z)
    stratum = classify(src.rep)
    lifts = minimal_lifts(src.rep, dst)
    if len(lifts) == 1:
        # a lone lift is tight on no row of the cell (module docstring)
        k, q, j = (), lifts[0], len(src.rep)
    else:
        cell = cut_polytope(src)
        by_key = {}
        for q in lifts:
            tight = cell.active_descriptors(q)
            by_key[tuple(sorted(tight))] = (q, tight)
        if len(by_key) != len(lifts):
            raise InvariantError(
                "minimal lifts must lie on distinct faces: source "
                f"({', '.join(format_rat(c) for c in src.rep)}), target "
                f"({', '.join(format_rat(c) for c in dst.rep)}), "
                f"{len(lifts)} lifts, keys {sorted(by_key)}")
        k = min(by_key)
        q, tight = by_key[k]
        # q is relatively interior to its face, so this is its dimension
        j = cell.n - mat_rank(normal for key, normal, _ in cell.integer_rows()
                              if key in tight)
    pts = tuple(geodesic_path(src.rep, q, samples)) if samples else ()
    return PlanResult(stratum.dim + j, stratum.dim, j, k, q, pts)
