"""Weight monoids: finitely generated submonoids of the character lattice.

A monoid is given by dominant integral generators.  Everything derived
is cached on the instance: the spanned lattice, the canonical cone over
the generators, the invertible sublattice, the minimal generators modulo
invertibles, and the membership search table (`MonoidSearch`), which
every membership query to the monoid reuses.  The cone is built once:
its facet normals are the rays of the dual cone, and the saturation
check and the recovery identity read cone(M) off it.  Saturation is
decided by the normality test (Bruns–Ichim): the parallelepiped points
of a triangulation of cone(M) spanned by generators, each looked up
among the generators before any membership search.

Membership is bounded by the rays of the dual cone: they are
nonnegative on the monoid and vanish exactly on its units, so the
monoid is Z≥0·(generators some ray is positive on) + Z·(generators
every ray vanishes on), and each ray r caps the coefficient of a
generator g in a representation of v at r.v // r.g.  Canonical
representatives modulo the invertible part are chosen by Hermite
reduction so that all downstream computations are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .polyhedral import (
    Lattice,
    MonoidSearch,
    PointedQuotient,
    RationalCone,
    hilbert_basis_with_units,  # noqa: F401  bench/tracing.py wraps this name here
    monoid_membership,
    parallelepiped_points,
    primitive,
)
from .rootsys import RootData, WeightVec


class MonoidError(ValueError):
    pass


SATURATION_RANK_LIMIT = 6


@dataclass(frozen=True)
class WeightMonoid:
    """Monoid of dominant weights, possibly relative to a Levi subgroup.

    levi_roots restricts which simple roots must pair nonnegatively with
    the generators (None means all of them); a monoid from `localize` is
    dominant only for the Levi of the weight it is localized at.
    """

    rd: RootData
    generators: tuple[WeightVec, ...]
    levi_roots: frozenset[int] | None = None
    enforce_dominance: bool = field(default=True, compare=False)

    def __post_init__(self):
        gens = tuple(self.generators)
        for g in gens:
            if g.spec != self.rd.spec:
                raise MonoidError("generator does not match the group")
            if not g.is_integral:
                raise MonoidError("monoid generators must be integral weights")
        if self.enforce_dominance:
            levi = self.active_roots
            for g in gens:
                for i in levi:
                    if g.coords[i] < 0:
                        raise MonoidError(
                            f"generator {tuple(map(str, g.coords))} is not dominant "
                            f"(negative on coroot {i + 1})")
        object.__setattr__(self, "generators", gens)

    @property
    def active_roots(self) -> frozenset[int]:
        if self.levi_roots is None:
            return frozenset(range(self.rd.n_simple))
        return self.levi_roots

    @property
    def dim(self) -> int:
        return self.rd.dim

    # -- derived data --------------------------------------------------

    @cached_property
    def gen_vectors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(g.int_coords() for g in self.generators)

    @cached_property
    def lattice(self) -> Lattice:
        """Z-span of the monoid (the weight lattice it generates)."""
        return Lattice.span(list(self.gen_vectors), self.dim)

    @cached_property
    def cone(self) -> RationalCone:
        """cone(M), the canonical cone over the generators."""
        return RationalCone.from_generators(self.gen_vectors, dim=self.dim)

    @cached_property
    def _dual_rays(self) -> tuple[tuple[int, ...], ...]:
        """Extreme rays of the dual cone {phi : phi.g >= 0 for every
        generator g}, modulo its lineality: the facet normals of `cone`.
        The lineality is the annihilator of the span of the monoid, so it
        vanishes on every generator and only the rays are kept.
        `localize` seeds this attribute on the localized monoid, which
        then builds no cone to read it."""
        return self.cone.facet_normals

    @cached_property
    def _invertible_flags(self) -> tuple[bool, ...]:
        """Whether -g lies in the monoid, for each generator g: the units
        of the search table.

        -g is in the monoid iff g lies in the lineality space of
        C = cone(generators), that is iff every ray of the dual cone
        vanishes on g.  Conversely, the lineality space is a face of C,
        so it is the cone over the generators it contains; a rational
        nonnegative relation -g = sum q_i l_i among them, scaled by a
        common denominator D, gives -g = (D - 1) g + sum D q_i l_i, a
        monoid element (Bruns–Gubeladze, Polytopes, Rings and K-Theory,
        ch. 2).
        """
        units = set(self._search.units)
        return tuple(i in units for i in range(len(self.gen_vectors)))

    @cached_property
    def invertible_lattice(self) -> Lattice:
        """The group of units, spanned by the invertible generators."""
        return self._search.unit_lattice

    @cached_property
    def _search(self) -> MonoidSearch:
        """The membership search table over the generators and the dual
        rays, built once and shared by every query to this monoid.  A
        localized monoid has other generators and builds its own, from
        the rays `localize` seeds."""
        return MonoidSearch(self.gen_vectors, self._dual_rays)

    def contains_vector(self, vec) -> tuple[bool, list[int] | None]:
        return monoid_membership(tuple(int(x) for x in vec), self._search)

    def contains(self, w: WeightVec) -> bool:
        if w.spec != self.rd.spec:
            raise MonoidError("weight does not match the group")
        if not w.is_integral:
            return False
        return self.contains_vector(w.int_coords())[0]

    @cached_property
    def minimal_generators(self) -> tuple[WeightVec, ...]:
        """Irreducible noninvertible elements modulo the invertible part,
        as canonical (Hermite-reduced) representatives, sorted."""
        inv = self.invertible_lattice
        reps: dict[tuple[int, ...], tuple[int, ...]] = {}
        for g, f in zip(self.gen_vectors, self._invertible_flags):
            if f:
                continue
            rep = inv.reduce_mod(g)
            reps[rep] = rep
        out = []
        for rep in reps:
            if not self._is_reducible(rep):
                out.append(rep)
        return tuple(self.rd.weight(r) for r in sorted(out))

    def _is_reducible(self, vec: tuple[int, ...]) -> bool:
        inv = self.invertible_lattice
        vals = [sum(a * b for a, b in zip(r, vec)) for r in self._search.rays]
        for g, f, caps in zip(self.gen_vectors, self._invertible_flags,
                              self._search.values):
            # a ray r with r.vec < r.g puts vec - g outside the monoid
            if f or any(a < b for a, b in zip(vals, caps)):
                continue
            diff = tuple(a - b for a, b in zip(vec, g))
            ok, _ = self.contains_vector(diff)
            if ok and not inv.contains(diff):
                return True
        return False

    # -- operations -----------------------------------------------------

    def localize(self, mu: WeightVec) -> "WeightMonoid":
        """Adjoin -mu: the weight monoid of the localization at mu.

        The Levi shrinks to the simple roots orthogonal to mu, which keeps
        the dominance invariant meaningful for the localized monoid.

        The dual of cone(M ∪ {-mu}) is the face C^∨ ∩ mu^⊥ of the dual
        C^∨ of cone(M).  Since mu lies in cone(M), every ray of C^∨ is
        nonnegative on mu and the lineality of C^∨ vanishes on it, so the
        rays of that face are exactly the rays of C^∨ vanishing on mu.
        They are handed to the localized monoid, which then needs no
        double description of its own to decide invertibility.
        """
        if not self.contains(mu):
            raise MonoidError("can only localize at an element of the monoid")
        new_levi = frozenset(i for i in self.active_roots if mu.coords[i] == 0)
        loc = WeightMonoid(self.rd, self.generators + (-mu,), new_levi)
        v = mu.int_coords()
        loc.__dict__["_dual_rays"] = tuple(
            r for r in self._dual_rays if sum(a * b for a, b in zip(r, v)) == 0)
        return loc

    def equals(self, other: "WeightMonoid") -> bool:
        """Set equality, decided by mutual membership of generators: a
        monoid contains another exactly when it contains its generators."""
        if self.rd.spec != other.rd.spec:
            raise MonoidError("mismatched group specs")
        return (all(other.contains_vector(v)[0] for v in self.gen_vectors)
                and all(self.contains_vector(v)[0] for v in other.gen_vectors))

    def is_saturated(self) -> bool:
        """Whether the monoid equals its saturation S = cone(M) ∩ lattice,
        decided by the normality test (Bruns–Ichim, J. Algebra 324, 2010).

        S contains the monoid, so it has at least its units; the two must
        have the same.  Then both pass to the pointed quotient by the
        units.  Let T be the pulling triangulation of the quotient cone,
        spanned on each extreme ray by the shortest generator of M on it.
        A point x of S lies in some simplex of T with rays v_i in M, so x
        is a sum of multiples of the v_i and one lattice point of the
        half-open parallelepiped {sum t_i v_i : 0 <= t_i < 1}.  Hence M
        is S iff M holds every such point.  A point equal to a generator
        is in M; any other is a membership query, and the first point
        outside M ends the test.
        """
        lat = self.lattice
        if lat.rank > SATURATION_RANK_LIMIT:
            raise MonoidError(
                f"saturation check limited to lattice rank {SATURATION_RANK_LIMIT}")
        if lat.rank == 0:
            return True
        quotient = PointedQuotient(self.cone, lat)
        if quotient.units != self.invertible_lattice:
            return False
        qcone = quotient.pointed
        if qcone is None:
            return True
        gens = {quotient.project(g) for g, f in
                zip(self.gen_vectors, self._invertible_flags) if not f}
        shortest = {}
        for g in sorted(gens, key=lambda g: sum(map(abs, g)), reverse=True):
            shortest[primitive(g)] = g
        return all(p in gens or self.contains_vector(quotient.lift(p))[0]
                   for p in parallelepiped_points(
                       qcone, [shortest[r] for r in qcone.rays]))


def torus_monoid(rd: RootData, vectors) -> WeightMonoid:
    """Convenience constructor for monoids without the dominance check
    (polyhedral-level tests on raw lattice data)."""
    gens = tuple(rd.weight(v) for v in vectors)
    return WeightMonoid(rd, gens, enforce_dominance=False)
