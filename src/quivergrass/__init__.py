"""Exact computation with quiver representations and their Grassmannians."""

from .errors import BudgetError, DomainError
from .fields import QQ, PrimeField, RationalField
from .quiver import Quiver, euler_form, kronecker_quiver, linear_quiver
from .rep import (
    Representation,
    SubrepWitness,
    build_extension,
    direct_sum,
    dual,
    ext1_dim,
    hom_basis,
    hom_dim,
    injective,
    is_rigid,
    phi_map,
    projective,
    quotient,
    restrict,
    simple,
    tangent_dim,
    zero_rep,
)

__version__ = "0.1.0"

from . import ardynkin, cluster, counting, elliptic, poly, typea  # noqa: E402

__all__ = [
    "BudgetError", "DomainError", "QQ", "PrimeField", "RationalField",
    "Quiver", "euler_form", "kronecker_quiver", "linear_quiver",
    "Representation", "SubrepWitness", "build_extension", "direct_sum",
    "dual", "ext1_dim", "hom_basis", "hom_dim",
    "injective", "is_rigid", "phi_map", "projective", "quotient",
    "restrict", "simple", "tangent_dim", "zero_rep",
]
