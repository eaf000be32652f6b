"""Invariant tower: writhes, polynomials, spans, B-sums, fingerprints.

The registry at the bottom names every invariant the way the command line
does and records its parameters, so batch tools can drive the whole tower
uniformly.  It records no arity: each invariant rejects a diagram with the
wrong number of components itself (``require_knot``, the spans' check for
two components, ``component_index``), in words that name the value asked
for.  For B-sum valued invariants the comparable form is the fingerprint
bucket map, which is what actually transfers across move-equivalent
diagrams (raw flat sums are representation-bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..diagram import Diagram
from ..errors import PreconditionError
from .fingerprint import (
    DEFAULT_DEPTH,
    DEFAULT_WINDOW,
    fingerprint,
    flatsum_fingerprint,
    flatsum_nonzero,
    kink_class_fingerprints,
    restricted_flatsum_fingerprint,
)
from .flatsums import FlatSum, b_flat_sum, b_sum, flat_sum, self_crossings
from .spans import (
    FTILDE_VARS,
    LinkingNumbers,
    fspan_nk,
    linking_numbers,
    over_under_weight,
    smoothed_link_dwrithe_weight,
    span_nk,
    tilde_f,
)
from .weights import (
    WeightFn,
    i_flat,
    i_function,
    index_weight,
    nested_dwrithe,
    product,
    sign_weight,
    smoothed_dwrithe_weight,
)
from .writhes import (
    AIP_VARS,
    FNMK_VARS,
    FPOLY_VARS,
    affine_index_poly,
    dwrithe,
    dwrithe_nm,
    f_poly,
    f_poly_nmk,
    smoothed_dwrithe,
    writhe_n,
)

__all__ = [
    "AIP_VARS", "FPOLY_VARS", "FNMK_VARS", "FTILDE_VARS",
    "writhe_n", "dwrithe", "affine_index_poly", "f_poly", "dwrithe_nm",
    "f_poly_nmk", "smoothed_dwrithe",
    "WeightFn", "sign_weight", "index_weight", "product",
    "smoothed_dwrithe_weight", "i_function", "i_flat", "nested_dwrithe",
    "LinkingNumbers", "linking_numbers", "span_nk", "fspan_nk", "tilde_f",
    "over_under_weight", "smoothed_link_dwrithe_weight",
    "FlatSum", "flat_sum", "b_sum", "b_flat_sum", "self_crossings",
    "fingerprint", "flatsum_fingerprint", "flatsum_nonzero",
    "kink_class_fingerprints", "restricted_flatsum_fingerprint",
    "DEFAULT_WINDOW", "DEFAULT_DEPTH",
    "InvariantSpec", "REGISTRY", "compute_invariant", "comparable_invariant",
]


@dataclass(frozen=True)
class InvariantSpec:
    name: str
    params: tuple[str, ...]
    compute: Callable


REGISTRY: dict[str, InvariantSpec] = {
    "jn": InvariantSpec("jn", ("n",), writhe_n),
    "djn": InvariantSpec("djn", ("n",), dwrithe),
    "aip": InvariantSpec("aip", (), affine_index_poly),
    "fpoly": InvariantSpec("fpoly", ("n",), f_poly),
    "djnm": InvariantSpec("djnm", ("n", "m"), dwrithe_nm),
    "fnmk": InvariantSpec("fnmk", ("n", "m", "k"), f_poly_nmk),
    "lk": InvariantSpec("lk", (), linking_numbers),
    "span": InvariantSpec("span", (), lambda d: linking_numbers(d).span),
    "spannk": InvariantSpec("spannk", ("n", "k"), span_nk),
    "fspannk": InvariantSpec("fspannk", ("n", "k"), fspan_nk),
    "ftilde": InvariantSpec("ftilde", ("n", "k", "m"), tilde_f),
    "bsum": InvariantSpec("bsum", ("i",), b_sum),
    "bflat": InvariantSpec("bflat", ("i",), b_flat_sum),
}


def compute_invariant(name: str, d: Diagram, params: dict):
    """Evaluate a registry invariant; returns int, LaurentPoly,
    LinkingNumbers, or FlatSum."""
    if name not in REGISTRY:
        raise PreconditionError(f"unknown invariant {name!r}")
    spec = REGISTRY[name]
    missing = [p for p in spec.params if params.get(p) is None]
    if missing:
        raise PreconditionError(
            f"invariant {name!r} needs parameter(s) {', '.join(missing)}"
        )
    args = [params[p] for p in spec.params]
    return spec.compute(d, *args)


def comparable_invariant(name: str, d: Diagram, params: dict,
                         depth: int = DEFAULT_DEPTH,
                         window: int = DEFAULT_WINDOW):
    """Move-transferable form of an invariant's value, for equality checks.

    B-sum values are compared through their kink-restricted fingerprint
    bucket maps; the raw formal sums are representation-bound (a kink move
    shifts them by a diagram-with-unknot class).
    """
    value = compute_invariant(name, d, params)
    if isinstance(value, FlatSum):
        return restricted_flatsum_fingerprint(value, d, params["i"], depth, window)
    return value
