"""flatklein: exact geometry of flat n-dimensional Klein bottles.

Quotient metric and lifts (`klein_space`), cut-locus polytopes
(`cut_polytope`), parameter-space stratification (`stratification`),
geodesic planning (`planner`), independent brute-force/certification
oracles (`oracle`), and a command-line interface (`cli`).
"""

from ._exact import InvariantError
from .klein_space import (
    LiftPoint,
    KleinPoint,
    DeckElement,
    apply_deck,
    as_point,
    canonicalize,
    format_rat,
    geodesic_path,
    minimal_lifts,
    neighbor_set,
    project,
    rat,
    squared_distance,
)
from .cut_polytope import (
    CutPolytope,
    Vertex,
    Face,
    cut_polytope,
    delta,
    k_value,
)
from .oracle import (
    CertificationReport,
    brute_distance,
    brute_minimal_images,
    brute_vertices,
    certify_vertices,
)
from .planner import FaceKey, PlanResult, plan, representatives
from .stratification import (
    DomainDescriptor,
    SignVector,
    Stratum,
    catalog,
    classify,
)

__all__ = [
    "InvariantError",
    "LiftPoint",
    "KleinPoint",
    "DeckElement",
    "apply_deck",
    "as_point",
    "canonicalize",
    "format_rat",
    "geodesic_path",
    "minimal_lifts",
    "neighbor_set",
    "project",
    "rat",
    "squared_distance",
    "CutPolytope",
    "Vertex",
    "Face",
    "cut_polytope",
    "delta",
    "k_value",
    "CertificationReport",
    "brute_distance",
    "brute_minimal_images",
    "brute_vertices",
    "certify_vertices",
    "FaceKey",
    "PlanResult",
    "plan",
    "representatives",
    "DomainDescriptor",
    "SignVector",
    "Stratum",
    "catalog",
    "classify",
]

__version__ = "0.1.0"
