"""Exact-arithmetic irreducibility certificates for multivariate
polynomials over Q, through p-adic lifting conditions."""

# set before the submodule imports: lifting and cli read it from here
__version__ = "0.1.0"

from .errors import ConfigError, LiftcertError, ResourceLimitExceeded
from .finitefield import (
    ResidueField,
    ResiduePoly,
    is_irreducible_multivariate,
    is_irreducible_univariate,
)
from .lifting import (
    LiftingCertificate,
    certify_irreducible,
    check_lifting,
    generate_lifting,
    suggest_pairs,
)
from .multipoly import MultiPoly, phi_expand, reconstruct
from .oracle import FactorizationResult, brute_factor
from .parse import ParseError, parse_polynomial
from .valuation import Inert, PairConfig, RationalCenter

__all__ = [
    "ConfigError",
    "LiftcertError",
    "ResourceLimitExceeded",
    "ResidueField",
    "ResiduePoly",
    "is_irreducible_multivariate",
    "is_irreducible_univariate",
    "LiftingCertificate",
    "certify_irreducible",
    "check_lifting",
    "generate_lifting",
    "suggest_pairs",
    "MultiPoly",
    "phi_expand",
    "reconstruct",
    "FactorizationResult",
    "brute_factor",
    "ParseError",
    "parse_polynomial",
    "Inert",
    "PairConfig",
    "RationalCenter",
]
