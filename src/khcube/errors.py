"""Exception taxonomy shared by every khcube module.

All library errors derive from KhError so callers (and the CLI) can
distinguish bad input or bad data (exit code 1) from internal bugs
(anything else, exit code 2).
"""

from __future__ import annotations

__all__ = [
    "KhError",
    "MalformedPD",
    "InconsistentArcs",
    "UnknownCrossingId",
    "OrientationDependentWrithe",
    "NotAPseudoDiagram",
    "OutOfDomain",
    "NotADifferential",
    "SignInconsistency",
    "OrderViolation",
    "NotFiltered",
    "OddSelfIntersection",
    "MultiComponent",
    "InfeasibleParity",
]


class KhError(Exception):
    """Base class for all expected khcube failures."""


class MalformedPD(KhError):
    """PD text or JSON that does not match the documented grammar."""


class InconsistentArcs(KhError):
    """Arc labels that do not appear exactly twice across all crossings."""


class UnknownCrossingId(KhError):
    """A crossing id outside range(len(crossings))."""


class OrientationDependentWrithe(KhError):
    """Writhe of a resolved state changed under component re-orientation.

    For a state presenting an unlink the inter-component sign sums must
    cancel pairwise; a nonzero sum means the state is not an unlink
    presentation (or the diagram data is corrupt).
    """


class NotAPseudoDiagram(KhError):
    """A resolution failed (or could not be verified as) an unlink check."""


class OutOfDomain(KhError):
    """Extended grading-defect input with an entry outside its domain."""


class NotADifferential(KhError):
    """A square-zero check failed."""


class SignInconsistency(KhError):
    """Edge-sign assembly produced a non-anticommuting square."""


class OrderViolation(KhError):
    """A sandbox differential violated its declared bidegree order contract."""


class NotFiltered(KhError):
    """A map does not respect the requested positive-weight filtration."""


class OddSelfIntersection(KhError):
    """A surface self-intersection number with the wrong parity."""


class MultiComponent(KhError):
    """A knot-only computation was asked for a multi-component link."""


class InfeasibleParity(KhError):
    """A target rank whose parity cannot be reached by rank-2 kills."""
