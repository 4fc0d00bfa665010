"""Constructors and filters that only the tests use.

They build values through the public constructors of `sphervar` and add
no check of their own: `monoid_of` is a `WeightMonoid`, so its
generators must be dominant on the active roots, which on a torus group
asks nothing.
"""

from sphervar.monoid import WeightMonoid
from sphervar.polyhedral import RationalCone
from sphervar.rootsys import CovectorVec, RootData, WeightVec
from sphervar.spherical import SphericalRootSet


def monoid_of(rd: RootData, vectors) -> WeightMonoid:
    """The monoid generated by the integer vectors, read as weights."""
    return WeightMonoid(rd, tuple(rd.weight(v) for v in vectors))


def fundamental_weight(rd: RootData, i: int) -> WeightVec:
    return rd.weight(tuple(int(j == i) for j in range(rd.dim)))


def covector(rd: RootData, coords) -> CovectorVec:
    return CovectorVec(rd.spec, tuple(coords))


def zero_cone(dim: int) -> RationalCone:
    return RationalCone.from_generators((), dim=dim)


def thin_to_elementary(psi: SphericalRootSet) -> SphericalRootSet:
    """Keep only the roots of one of the three elementary forms."""
    kept = tuple(g for g, t in zip(psi.roots, psi.forms)
                 if t.kind != "none")
    return SphericalRootSet(psi.rd, kept)
