"""Gauss-code invariants of virtual knots and links.

Diagrams are multi-component signed Gauss codes (virtual crossings are
implicit in the representation).  On top of them: arc labelings and
crossing indices, the affine index polynomial, F-polynomial families,
difference writhes of smoothed diagrams, linking spans of two-component
links, formal B-sums over flat classes with sound nonzero certificates,
and Reidemeister rewriting for randomized invariance checking.
"""

from .catalog import CatalogEntry, builtin_catalog, load_catalog, lookup
from .diagram import (
    Diagram,
    Passage,
    crossing_change,
    flat_key,
    mirror,
    parse,
    reorder_components,
    reverse_component,
    serialize,
)
from .errors import (
    GaussCodeError,
    InconsistentLabelingError,
    PreconditionError,
    StaleMoveError,
    ValidationError,
    VknotsError,
)
from .labeling import ArcLabeling, arc_labeling, crossing_index, crossing_sign
from .laurent import LaurentPoly, monomial, one, var, zero
from .moves import KINDS, MoveSite, apply_move, enumerate_moves, random_walk
from .smoothing import smooth1, smooth2, smooth3

__all__ = [
    "Diagram", "Passage", "parse", "serialize", "mirror",
    "crossing_change", "reverse_component", "reorder_components", "flat_key",
    "ArcLabeling", "arc_labeling", "crossing_sign", "crossing_index",
    "LaurentPoly", "zero", "one", "monomial", "var",
    "MoveSite", "KINDS", "enumerate_moves", "apply_move", "random_walk",
    "smooth1", "smooth2", "smooth3",
    "CatalogEntry", "builtin_catalog", "load_catalog", "lookup",
    "VknotsError", "GaussCodeError", "ValidationError",
    "InconsistentLabelingError", "PreconditionError", "StaleMoveError",
]

__version__ = "0.1.0"
