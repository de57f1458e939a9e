"""Geodesic selection by representative faces of the cell boundary.

Every minimal lift of a target lands in the relative interior of exactly
one face of the source's cell R(P), and the deck action permutes the faces
hit by the different lifts within one equivalence class.  Picking a fixed
representative face per class (per dimension) therefore selects exactly
one lift for every pair of points, and the selection varies continuously
while the pair stays in one partition cell; the cell index is the stratum
dimension of the source plus the dimension of the face that was hit.

Face identity is symbolic: a face is named by the sorted key strings of
its tight boundary descriptors, which are stable across an entire stratum,
so the representative tables are computed once per stratum and reused.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cut_polytope import CutPolytope, cut_polytope
from .klein_space import (KleinPoint, LiftPoint, Rational, as_point,
                          format_rat, geodesic_path, minimal_lifts, project)
from .stratification import Stratum, classify

__all__ = ["FaceKey", "PlanResult", "partition_index", "plan", "representatives"]

FaceKey = tuple  # sorted tuple of descriptor key strings


def _as_klein(x) -> KleinPoint:
    return x if isinstance(x, KleinPoint) else project(as_point(x))


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


@dataclass
class _StratumTables:
    stratum_dim: int
    dim_by_key: dict
    rep_keys: frozenset


_TABLES_MAX = 256
_TABLES: dict = {}  # least recently used first


def _tables_for(point: KleinPoint, stratum: Stratum) -> _StratumTables:
    key = (stratum.domain.kinds, stratum.alpha.signs)
    tables = _TABLES.pop(key, None)
    if tables is None:
        faces = cut_polytope(point).face_lattice()
        reps = representatives(point)
        tables = _StratumTables(
            stratum_dim=stratum.dim,
            dim_by_key={f.active: f.dim for f in faces},
            rep_keys=frozenset().union(*reps.values()))
    _TABLES[key] = tables
    while len(_TABLES) > _TABLES_MAX:
        del _TABLES[next(iter(_TABLES))]
    return tables


def plan(y, z, samples: int = 0) -> PlanResult:
    """Deterministic selection of one minimal geodesic from y to z."""
    src = _as_klein(y)
    dst = _as_klein(z)
    stratum = classify(src.rep)
    tables = _tables_for(src, stratum)
    cell = cut_polytope(src)
    lifts = minimal_lifts(src.rep, dst)
    hits = []
    keys = []
    for q in lifts:
        k = tuple(sorted(d.key() for d in cell.active_descriptors(q)))
        keys.append(k)
        if k in tables.rep_keys:
            hits.append((q, k))
    if len(hits) != 1:
        raise AssertionError(
            "representative-face selection must pick exactly one lift; "
            f"got {len(hits)} for source {src.rep} target {dst.rep}; "
            f"lift keys {keys}; representatives {sorted(tables.rep_keys)}")
    q, k = hits[0]
    j = tables.dim_by_key[k]
    pts = tuple(geodesic_path(src.rep, q, samples)) if samples else ()
    return PlanResult(stratum.dim + j, stratum.dim, j, k, q, pts)


def partition_index(y, z) -> int:
    """Index of the partition cell containing the ordered pair (y, z)."""
    return plan(y, z).index
