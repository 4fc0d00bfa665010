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
    Polytope,
    RationalCone,
    hilbert_basis,
    hilbert_basis_with_units,
    monoid_membership,
)
from .recovery import (
    localize_datum,
    moment_polytope,
    recover_divisors,
    recover_prime,
    recover_type_cd_divisors,
    stabilizer_of,
    validate_luna_datum,
)
from .rootsys import (
    CovectorVec,
    GroupSpec,
    ParabolicSet,
    RootData,
    WeightVec,
    build_root_data,
    pairing,
    support,
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
    type_a_roots,
    valuation_cone,
)

__version__ = "0.1.0"

__all__ = [
    "BDivisorRecord", "CovectorVec", "GroupSpec", "Lattice",
    "LatticeFunctional", "LunaDatum", "ParabolicSet", "Polytope",
    "RationalCone", "RootData", "RootTypeTable", "SphericalRootSet",
    "WeightMonoid", "WeightVec", "build_root_data", "classify_root_types",
    "elementary_forms", "hidden_divisors", "hidden_root_triples",
    "hidden_spherical_roots", "hilbert_basis", "hilbert_basis_with_units",
    "localize_datum", "make_spherical_roots", "match_hidden_root_triple",
    "moment_polytope", "monoid_membership", "pairing", "recover_divisors",
    "recover_prime", "recover_type_cd_divisors", "stabilizer_of", "support",
    "symmetric_form", "type_a_roots", "validate_luna_datum",
    "valuation_cone",
]
