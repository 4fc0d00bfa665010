"""Weight monoids: finitely generated submonoids of the character lattice.

A monoid is given by dominant integral generators, and it owns
everything derived from them, each computed once and cached on the
instance: the spanned lattice X, the coordinates on its basis of the
generators, minimal generators and units, cone(M), the type-a roots, the
invertible sublattice, the minimal generators modulo invertibles, the
membership search table (`MonoidSearch`) and the facet table: the value
of each facet normal of the cone on each generator (the search table's
rows).  No other module seeds, caches or recomputes a copy of these.
cone(M) is held in the coordinates of X, where it is full-dimensional
and its facet normals are functionals on X; when it is simplicial, as
for every free monoid, it is read off one Bareiss inverse, with no
double description.  The type-a roots, the active simple roots
orthogonal to the whole monoid, are read off the generators alone.

Saturation is read off the Hilbert basis of S = cone(M) ∩ lattice: M
is S iff the two have the same units and each element of that basis is
a key of the facet table, so no membership query is asked.  A free
monoid, whose nonzero generators are a basis of its lattice, is
saturated and takes no basis.

Membership is a search over the table (`monoid_membership`): a vector
is read into X first, which refuses one off its span or off X, and the
dual rays are nonnegative on the monoid, vanish exactly on its units
and cap each coefficient.  A query answers yes or no.

The monoid's canonical form is its unit lattice (an HNF basis) and its
minimal generators modulo the units, as sorted Hermite-reduced
representatives.  Both are unique, so equality of monoids is equality of
the forms.  The minimal generators are found in order of the degree,
the sum of the dual rays, which vanishes exactly on the units; g can be
split off v only if it has smaller degree and v's facet row dominates.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ge, sub

from .polyhedral import (
    Lattice,
    MonoidSearch,
    RationalCone,
    cached_property,
    hilbert_basis_with_units,
    monoid_membership,
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
    def gen_coords(self) -> tuple[tuple[int, ...], ...]:
        """Each generator's coordinates on the basis of the lattice."""
        return tuple(map(self.lattice.coords, self.gen_vectors))

    @cached_property
    def cone(self) -> RationalCone:
        """cone(M) in the coordinates of the lattice: the canonical cone
        over `gen_coords`, full-dimensional."""
        return RationalCone.from_generators(self.gen_coords, dim=self.lattice.rank)

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
        return tuple(not any(vals) for vals in self._search.values)

    @cached_property
    def invertible_lattice(self) -> Lattice:
        """The group of units, spanned by the invertible generators."""
        return Lattice.span([g for g, unit in zip(self.gen_vectors, self._invertible_flags)
                             if unit], self.dim)

    @cached_property
    def unit_coords(self) -> tuple[tuple[int, ...], ...]:
        """A basis of the group of units, in coordinates on the lattice."""
        return self._search.unit_lattice.basis

    @cached_property
    def _search(self) -> MonoidSearch:
        """The membership search table over `gen_coords` and `cone`,
        built once and shared by every query to this monoid."""
        return MonoidSearch(self.gen_coords, self.lattice, self.cone)

    def contains_vector(self, vec) -> bool:
        return monoid_membership(vec, self._search)

    def contains(self, w: WeightVec) -> bool:
        if w.spec != self.rd.spec:
            raise MonoidError("weight does not match the group")
        if not w.is_integral:
            return False
        return self.contains_vector(w.int_coords())

    @cached_property
    def facet_rows(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """The facet table on M: the values of the facet normals of
        cone(M) on each nonunit class, keyed by its Hermite-reduced form;
        they vanish on units, so it is the `_search` row of any member."""
        inv = self.invertible_lattice
        return {inv.reduce_mod(g): tuple(vals) for g, vals
                in zip(self.gen_vectors, self._search.values) if any(vals)}

    @cached_property
    def minimal_generators(self) -> tuple[WeightVec, ...]:
        """Irreducible noninvertible elements modulo the invertible part,
        as canonical (Hermite-reduced) representatives, sorted.

        The facet normals are nonnegative on the monoid and their sum, the
        degree, vanishes exactly on its units.  So a nonunit v is a sum of
        two nonunits iff v - g is in the monoid for some nonunit g of
        smaller degree, and then for an irreducible one, since a summand
        of g will do as well as g.  The classes are taken in order of
        degree, and v is queried only against the irreducibles g of
        smaller degree kept before it whose row in `facet_rows` its own
        row dominates: for any other g, v - g is negative on some facet
        normal, and so is not in the monoid.
        """
        rows = self.facet_rows
        degree = {v: sum(row) for v, row in rows.items()}
        kept: list[tuple[int, ...]] = []
        for v in sorted(degree, key=degree.__getitem__):
            if not any(degree[g] < degree[v] and all(map(ge, rows[v], rows[g]))
                       and self.contains_vector(tuple(map(sub, v, g)))
                       for g in kept):
                kept.append(v)
        return tuple(self.rd.weight(r) for r in sorted(kept))

    @cached_property
    def minimal_coords(self) -> tuple[tuple[int, ...], ...]:
        """Each minimal generator's coordinates on the basis of the lattice."""
        return tuple(self.lattice.coords(g.int_coords()) for g in self.minimal_generators)

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

    def is_saturated(self) -> bool:
        """Whether the monoid equals its saturation S = cone(M) ∩ lattice,
        read off the Hilbert basis of S (`hilbert_basis_with_units`); a
        monoid algebra is normal iff its monoid is saturated (Hochster,
        Ann. Math. 96, 1972).

        A free monoid needs no basis.  Its nonzero generators number the
        rank of the lattice they span, so they are a Z-basis of it, and a
        lattice point lies in their cone iff its coordinates in that
        basis are nonnegative integers: M is S, at any rank.  Any other
        monoid on a lattice of rank past `SATURATION_RANK_LIMIT` is
        refused with `MonoidError`.

        S contains M, so M = S needs the units of S to be those of M;
        both are compared in the coordinates of X, where S is taken.
        Given that, let b be an element of the Hilbert basis of S that
        lies in M, a sum of generators.  A nonunit generator of M is then
        a nonunit of S, so if two of them appear in the sum, or one
        twice, the sum splits b in S: b is one generator modulo the
        units.  Sent back to X and Hermite-reduced modulo the units, as
        `facet_rows` keys each nonunit generator class, b is in M iff it
        is a key of `facet_rows`.
        Conversely, S is the units plus the monoid its basis spans, so
        it lies in M once every basis element does.  No membership query
        is asked (Bruns–Gubeladze, Polytopes, Rings and K-Theory, ch. 2).

        Validation asks this only when a datum's recovery identity
        fails, so a datum whose identity holds takes no basis and no
        refusal.
        """
        if sum(map(any, self.gen_vectors)) == self.lattice.rank:
            return True
        if self.lattice.rank > SATURATION_RANK_LIMIT:
            raise MonoidError(
                f"saturation check limited to lattice rank {SATURATION_RANK_LIMIT}")
        X, inv = self.lattice, self.invertible_lattice
        units, basis = hilbert_basis_with_units(self.cone, Lattice.full(X.rank))
        return (units.basis == self.unit_coords
                and all(inv.reduce_mod(X.from_coords(b)) in self.facet_rows
                        for b in basis))
