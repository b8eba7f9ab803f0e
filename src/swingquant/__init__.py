"""Swing option pricing with firm volume constraints.

The premium of a swing contract, as a function of its global volume
bounds, is concave and piecewise affine on a triangular tiling of the
admissible set, and integer bounds admit 0/1 optimal purchase policies.
This package prices the integer vertices by backward dynamic programming
on a quantized Markov state tree and fills the rest of the surface by
affine interpolation.
"""
from .contracts import (
    GlobalConstraints,
    InfeasibleContractError,
    PremiumSurface,
    RawContract,
    interpolate_on_tile,
    normalize_contract,
)
from .model import TwoFactorParams, closed_form_strip
from .tree import (
    build_tree,
    extract_and_value_policy,
    premium_surface,
    quantized_dp_price,
)

__version__ = "0.1.0"

__all__ = [
    "GlobalConstraints",
    "InfeasibleContractError",
    "PremiumSurface",
    "RawContract",
    "interpolate_on_tile",
    "normalize_contract",
    "TwoFactorParams",
    "closed_form_strip",
    "build_tree",
    "extract_and_value_policy",
    "premium_surface",
    "quantized_dp_price",
    "__version__",
]
