"""Combinatorial invariants of affine spherical varieties.

From a reductive group's root data and a pair (weight monoid, spherical
root set), the package computes the full set of B-divisors with their
valuation functionals and parabolic stabilizers, along with the lattice,
cone and monoid machinery this rests on.
"""

from .luna import BDivisorRecord, LatticeFunctional, LunaDatum, RootTypeTable
from .monoid import WeightMonoid
from .polyhedral import (
    Lattice,
    RationalCone,
    hilbert_basis,
    hilbert_basis_with_units,
    monoid_membership,
)
from .recovery import (
    moment_polytope,
    recover_divisors,
    recover_prime,
    recover_type_cd_divisors,
    stabilizers_of,
    validate_luna_datum,
)
from .rootsys import (
    GroupSpec,
    ParabolicSet,
    RootData,
    WeightVec,
    build_root_data,
    symmetric_form,
)
from .spherical import (
    SphericalRootSet,
    classify_root_types,
    elementary_forms,
    hidden_divisors,
    hidden_root_triples,
    hidden_spherical_roots,
    make_spherical_roots,
    match_hidden_root_triple,
)

__version__ = "0.1.0"

__all__ = [
    "BDivisorRecord", "GroupSpec", "Lattice", "LatticeFunctional",
    "LunaDatum", "ParabolicSet", "RationalCone", "RootData",
    "RootTypeTable", "SphericalRootSet", "WeightMonoid", "WeightVec",
    "build_root_data", "classify_root_types", "elementary_forms",
    "hidden_divisors", "hidden_root_triples", "hidden_spherical_roots",
    "hilbert_basis", "hilbert_basis_with_units", "make_spherical_roots",
    "match_hidden_root_triple", "moment_polytope", "monoid_membership",
    "recover_divisors", "recover_prime", "recover_type_cd_divisors",
    "stabilizers_of", "symmetric_form", "validate_luna_datum",
]
