"""Exact-arithmetic Khovanov homology over the cube of resolutions.

The package computes bigraded integral link homology from PD codes and
braid closures, supports diagrams with a subset of crossings left
undetermined (with self-intersection-corrected gradings), runs spectral
sequences of positive-weight filtrations with a sandbox for perturbed
differentials, and ships the classical Alexander-polynomial deduction
chain plus a bundled acceptance suite (`kh selftest`).
"""

from .braids import braid_closure
from .chain import (BigradedComplex, HomologyGroup, SNFResult,
                    SparseIntMatrix, rank_over_q, smith_normal_form)
from .cube import (MERGE, NONORIENTABLE_BAND, SPLIT, CubeEdge, CubeVertex,
                   GradedCube, build_cube, edge_parity_admissible,
                   grading_shift_on_drop, msign)
from .diagram import (UNLINK_UNVERIFIED, UNLINK_VERIFIED, Crossing,
                      PlanarDiagram, ResolvedState, diagram_from_json,
                      parse_pd)
from .errors import (InconsistentArcs, InfeasibleParity, KhError,
                     MalformedPD, MultiComponent, NotADifferential,
                     NotAPseudoDiagram, NotFiltered, OddSelfIntersection,
                     OrderViolation, OrientationDependentWrithe, OutOfDomain,
                     SignInconsistency, UnknownCrossingId, UnorientedDiagram)
from .filtration import (FilteredComplex, PerturbedDifferential,
                         SpectralPage, cobordism_order, op_order,
                         q_order_bound, sandbox_perturb, spectral_sequence)
from .invariants import (DifferentialPlacement, FeasibilityReport,
                         Mod4Table, PlacementOption, alexander,
                         differential_feasibility, mod4_betti,
                         rank_lower_bound)
from .khovanov import (KhovanovComplex, assemble, reduced_assemble,
                       reidemeister_compare)
from .laurent import LaurentPoly

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # diagrams
    "Crossing", "PlanarDiagram", "ResolvedState", "parse_pd",
    "diagram_from_json", "braid_closure", "UNLINK_VERIFIED",
    "UNLINK_UNVERIFIED",
    # cube
    "GradedCube", "CubeVertex", "CubeEdge", "build_cube",
    "edge_parity_admissible", "grading_shift_on_drop", "msign", "MERGE",
    "SPLIT", "NONORIENTABLE_BAND",
    # chain algebra
    "SparseIntMatrix", "SNFResult", "smith_normal_form", "rank_over_q",
    "HomologyGroup", "BigradedComplex", "LaurentPoly",
    # homology
    "KhovanovComplex", "assemble", "reduced_assemble",
    "reidemeister_compare",
    # filtrations
    "FilteredComplex", "SpectralPage", "spectral_sequence", "op_order",
    "PerturbedDifferential", "sandbox_perturb", "q_order_bound",
    "cobordism_order",
    # invariants
    "alexander", "mod4_betti", "Mod4Table", "rank_lower_bound",
    "differential_feasibility", "FeasibilityReport",
    "DifferentialPlacement", "PlacementOption",
    # errors
    "KhError", "MalformedPD", "InconsistentArcs", "UnknownCrossingId",
    "UnorientedDiagram", "OrientationDependentWrithe", "NotAPseudoDiagram",
    "OutOfDomain", "NotADifferential", "SignInconsistency",
    "OrderViolation", "NotFiltered", "OddSelfIntersection",
    "MultiComponent", "InfeasibleParity",
]
