"""Weight monoids: finitely generated submonoids of the character lattice.

A monoid is given by dominant integral generators, and it owns
everything derived from them, each computed once and cached on the
instance: the spanned lattice, the canonical cone over the generators,
the type-a roots, the invertible sublattice, the minimal generators
modulo invertibles, and the membership search table (`MonoidSearch`),
which every membership query to the monoid reuses.  No other module
seeds or caches a copy of these.  The facet normals of the cone are the
rays of the dual cone; the search table, the saturation check and the
recovery identity read them off it.  When the generators lie on `dim`
linearly independent rays, cone(M) is simplicial and is read off one
Bareiss inverse, with no double description.  The type-a roots, the
active simple roots orthogonal to the whole monoid, are read off the
generators alone.

Saturation is decided by the normality test (Bruns–Ichim): the
parallelepiped points of a triangulation of cone(M) spanned by
generators, each looked up among the generators before any membership
search.  A free monoid, whose nonzero generators are a basis of its
lattice, is saturated and takes no test.

Membership is bounded by the rays of the dual cone: they are
nonnegative on the monoid and vanish exactly on its units, so the
monoid is Z≥0·(generators some ray is positive on) + Z·(generators
every ray vanishes on), and each ray r caps the coefficient of a
generator g in a representation of v at r.v // r.g.  A vector outside
the rational span of the monoid is refused before any search, by the
span equations of the cone.  A query answers yes or no; no certificate
is built.

The monoid's canonical form is its unit lattice (an HNF basis) and its
minimal generators modulo the units, as sorted Hermite-reduced
representatives.  Both are unique, so equality of monoids is equality of
the forms.  The minimal generators are found in order of the degree
given by the sum of the dual rays, which vanishes exactly on the units:
only a generator of smaller degree can be split off another.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polyhedral import (
    Lattice,
    MonoidSearch,
    PointedQuotient,
    RationalCone,
    cached_property,
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

    def __post_init__(self):
        gens = tuple(self.generators)
        for g in gens:
            if g.spec != self.rd.spec:
                raise MonoidError("generator does not match the group")
            if not g.is_integral:
                raise MonoidError("monoid generators must be integral weights")
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
    def type_a_roots(self) -> frozenset[int]:
        """The active simple roots orthogonal to the whole monoid: those
        on which every generator vanishes.

        This is the set on which the sum of the minimal generators
        vanishes: every generator is dominant on the active roots, and a
        unit, nonnegative there with its negative, vanishes there, so a
        minimal generator is nonnegative on them and every generator is
        a unit plus a sum of minimal generators."""
        return frozenset(i for i in self.active_roots
                         if not any(g.coords[i] for g in self.generators))

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
        """The membership search table over the generators and `cone`,
        built once and shared by every query to this monoid."""
        return MonoidSearch(self.gen_vectors, self.dim, self.cone)

    def contains_vector(self, vec) -> bool:
        return monoid_membership(vec, self._search)

    def contains(self, w: WeightVec) -> bool:
        if w.spec != self.rd.spec:
            raise MonoidError("weight does not match the group")
        if not w.is_integral:
            return False
        return self.contains_vector(w.int_coords())

    @cached_property
    def minimal_generators(self) -> tuple[WeightVec, ...]:
        """Irreducible noninvertible elements modulo the invertible part,
        as canonical (Hermite-reduced) representatives, sorted.

        The degree, the sum of the dual rays, is additive and nonnegative
        on the monoid and vanishes exactly on its units.  So a nonunit v
        is a sum of two nonunits iff v - g is in the monoid for some
        nonunit g of smaller degree, and then for an irreducible one,
        since a summand of g will do as well as g.  The generators'
        classes are taken in order of degree, and each is tested against
        the irreducibles of smaller degree kept before it: classes of one
        degree need no membership query between them.
        """
        inv = self.invertible_lattice
        degree: dict[tuple[int, ...], int] = {}
        for g, f, vals in zip(self.gen_vectors, self._invertible_flags,
                              self._search.values):
            if not f:
                degree[inv.reduce_mod(g)] = sum(vals)
        kept: list[tuple[int, ...]] = []
        for v in sorted(degree, key=degree.__getitem__):
            if not any(degree[g] < degree[v] and self.contains_vector(
                    tuple(a - b for a, b in zip(v, g))) for g in kept):
                kept.append(v)
        return tuple(self.rd.weight(r) for r in sorted(kept))

    # -- operations -----------------------------------------------------

    def localize(self, mu: WeightVec) -> "WeightMonoid":
        """Adjoin -mu: the weight monoid of the localization at mu.

        The Levi shrinks to the simple roots orthogonal to mu, which keeps
        the dominance invariant meaningful for the localized monoid.  The
        localized monoid is a monoid like any other: it derives its own
        cone and search table.  The recovery walk builds none; it reads
        each localization off a face of cone(M).
        """
        if not self.contains(mu):
            raise MonoidError("can only localize at an element of the monoid")
        new_levi = frozenset(i for i in self.active_roots if mu.coords[i] == 0)
        return WeightMonoid(self.rd, self.generators + (-mu,), new_levi)

    def equals(self, other: "WeightMonoid") -> bool:
        """Set equality, read off the canonical form.  A monoid is its
        units plus the monoid its minimal generators span, and both are
        determined by the set: the units are a lattice, kept by its HNF
        basis, and the irreducibles modulo the units are unique
        (Bruns–Gubeladze, Polytopes, Rings and K-Theory, ch. 2), kept as
        sorted Hermite-reduced representatives."""
        if self.rd.spec != other.rd.spec:
            raise MonoidError("mismatched group specs")
        return (self.invertible_lattice == other.invertible_lattice
                and self.minimal_generators == other.minimal_generators)

    def check_saturation_rank(self) -> None:
        """Raise `MonoidError` if `is_saturated` refuses the monoid: one
        that is not free, on a lattice of rank past
        `SATURATION_RANK_LIMIT`.  A free monoid passes at any rank."""
        if self.lattice.rank > SATURATION_RANK_LIMIT and not self._is_free:
            raise MonoidError(
                f"saturation check limited to lattice rank {SATURATION_RANK_LIMIT}")

    @property
    def _is_free(self) -> bool:
        """Whether the nonzero generators number the rank of the lattice
        they span, and so are a Z-basis of it."""
        return sum(map(any, self.gen_vectors)) == self.lattice.rank

    def is_saturated(self) -> bool:
        """Whether the monoid equals its saturation S = cone(M) ∩ lattice,
        decided by the normality test (Bruns–Ichim, J. Algebra 324, 2010).
        A monoid that `check_saturation_rank` refuses raises `MonoidError`.

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

        A free monoid needs no test.  Its nonzero generators are a
        Z-basis of its lattice, and a lattice point lies in their cone
        iff its coordinates in that basis are nonnegative integers: M is
        S, at any rank.

        Validation asks this only when a datum's recovery identity
        fails, so a datum whose identity holds takes no normality test.
        """
        self.check_saturation_rank()
        if self._is_free:
            return True
        quotient = PointedQuotient(self.cone, self.lattice)
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
        return all(p in gens or self.contains_vector(quotient.lift(p))
                   for p in parallelepiped_points(
                       qcone, [shortest[r] for r in qcone.rays]))

