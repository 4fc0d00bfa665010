"""Weight monoids: finitely generated submonoids of the character lattice.

A monoid is given by dominant integral generators.  Everything derived
is cached on the instance: the spanned lattice, the rays of the dual
cone, the invertible sublattice, the minimal generators modulo
invertibles, and the membership search table (`MonoidSearch`: search
order, pruning tables and the target-free part of the Borosh–Treybig
bound), which every membership query to the monoid reuses.  Canonical
representatives modulo the invertible part are chosen by Hermite
reduction so that all downstream computations are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .polyhedral import (
    Lattice,
    MonoidSearch,
    RationalCone,
    _dd,
    hilbert_basis_with_units,
    integer_kernel,
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
    the generators (None means all of them); localized monoids produced
    during divisor recovery are dominant only for the Levi.
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
    def _dual_rays(self) -> tuple[tuple[int, ...], ...]:
        """Extreme rays of the dual cone {phi : phi.g >= 0 for every
        generator g}, modulo its lineality.  The lineality is the
        annihilator of the span of the monoid, so it vanishes on every
        generator and only the rays are kept.  `localize` seeds this
        attribute on the localized monoid instead of running DD again."""
        return tuple(_dd(self.dim, self.gen_vectors)[1])

    @cached_property
    def _invertible_flags(self) -> tuple[bool, ...]:
        """Whether -g lies in the monoid, for each generator g.

        -g is in the monoid iff g lies in the lineality space of
        C = cone(generators), that is iff every ray of the dual cone
        vanishes on g.  Conversely, the lineality space is a face of C,
        so it is the cone over the generators it contains; a rational
        nonnegative relation -g = sum q_i l_i among them, scaled by a
        common denominator D, gives -g = (D - 1) g + sum D q_i l_i, a
        monoid element (Bruns–Gubeladze, Polytopes, Rings and K-Theory,
        ch. 2).
        """
        rays = self._dual_rays
        return tuple(all(sum(a * b for a, b in zip(r, g)) == 0 for r in rays)
                     for g in self.gen_vectors)

    @cached_property
    def extended_generators(self) -> tuple[tuple[int, ...], ...]:
        """Generators plus negatives of the invertible ones: a generating
        set of the monoid closed enough for membership queries.

        The invertible part of the monoid is its intersection with the
        lineality space of cone(generators), which is generated by the
        generators lying in that space (see `_invertible_flags`), so
        adjoining their negatives generates the whole group of units.
        """
        ext = list(self.gen_vectors)
        for g, inv in zip(self.gen_vectors, self._invertible_flags):
            if inv:
                ext.append(tuple(-x for x in g))
        return tuple(ext)

    @cached_property
    def invertible_lattice(self) -> Lattice:
        inv_gens = [g for g, f in zip(self.gen_vectors, self._invertible_flags) if f]
        return Lattice.span(inv_gens, self.dim)

    @cached_property
    def _search(self) -> MonoidSearch:
        """The membership search table over `extended_generators`, built
        once and shared by every query to this monoid.  A localized
        monoid has other generators and builds its own."""
        return MonoidSearch(self.extended_generators)

    def contains_vector(self, vec) -> tuple[bool, list[int] | None]:
        return monoid_membership(tuple(int(x) for x in vec), self._search)

    def contains(self, w: WeightVec) -> bool:
        if w.spec != self.rd.spec:
            raise MonoidError("weight does not match the group")
        if not w.is_integral:
            return False
        return self.contains_vector(w.int_coords())[0]

    def is_invertible(self, w: WeightVec) -> bool:
        return self.invertible_lattice.contains(w.int_coords()) \
            if w.is_integral else False

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
        for g, f in zip(self.gen_vectors, self._invertible_flags):
            if f:
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
        """Set equality, decided by mutual membership of generating sets."""
        if self.rd.spec != other.rd.spec:
            raise MonoidError("mismatched group specs")
        for v in self.extended_generators:
            if not other.contains_vector(v)[0]:
                return False
        for v in other.extended_generators:
            if not self.contains_vector(v)[0]:
                return False
        return True

    def is_saturated(self) -> bool:
        """Whether the monoid equals cone(monoid) ∩ lattice."""
        lat = self.lattice
        if lat.rank > SATURATION_RANK_LIMIT:
            raise MonoidError(
                f"saturation check limited to lattice rank {SATURATION_RANK_LIMIT}")
        if lat.rank == 0:
            return True
        cone = RationalCone.from_generators(list(self.gen_vectors), dim=self.dim)
        units, basis = hilbert_basis_with_units(cone, lat)
        inv = self.invertible_lattice
        for u in units.basis:
            if not inv.contains(u):
                return False
        for h in basis:
            if not self.contains_vector(h)[0]:
                return False
        return True


def _coordinate_blocks(spec, factor_split, central_split):
    """Coordinate index blocks of a (factors, central) bipartition."""
    starts = []
    pos = 0
    for _, r in spec.factors:
        starts.append((pos, pos + r))
        pos += r
    block = []
    for f in factor_split:
        s, e = starts[f]
        block.extend(range(s, e))
    for c in central_split:
        block.append(spec.simple_rank + c)
    return sorted(block)


def is_decomposable(m: WeightMonoid,
                    factors_a, central_a) -> bool:
    """Whether the monoid splits as a sum of submonoids supported on the
    two sides of the given bipartition of factors and central directions.

    Decided by block-projecting each generator and testing membership of
    both projections: the monoid decomposes iff every generator splits.
    """
    spec = m.rd.spec
    factors_a = set(int(f) for f in factors_a)
    central_a = set(int(c) for c in central_a)
    if not factors_a <= set(range(len(spec.factors))):
        raise MonoidError("factor index out of range")
    if not central_a <= set(range(spec.central_rank)):
        raise MonoidError("central index out of range")
    block_a = set(_coordinate_blocks(spec, factors_a, central_a))
    for g in m.gen_vectors:
        part_a = tuple(x if i in block_a else 0 for i, x in enumerate(g))
        part_b = tuple(x - y for x, y in zip(g, part_a))
        if not m.contains_vector(part_a)[0] or not m.contains_vector(part_b)[0]:
            return False
    return True


def trivial_factors(m: WeightMonoid) -> tuple[frozenset[int], Lattice]:
    """Simple factors with zero coordinate block in every generator, and
    the lattice of central directions annihilated by all generators."""
    spec = m.rd.spec
    trivial = []
    pos = 0
    for f, (_, r) in enumerate(spec.factors):
        if all(all(g[pos + i] == 0 for i in range(r)) for g in m.gen_vectors):
            trivial.append(f)
        pos += r
    c = spec.central_rank
    if c == 0:
        kernel = Lattice(0, ())
    else:
        rows = [[g[spec.simple_rank + j] for j in range(c)] for g in m.gen_vectors]
        rows = [r for r in rows if any(r)]
        if not rows:
            kernel = Lattice.full(c)
        else:
            ker = integer_kernel(rows)
            kernel = Lattice.span(ker, c)
    return frozenset(trivial), kernel


def torus_monoid(rd: RootData, vectors) -> WeightMonoid:
    """Convenience constructor for monoids without the dominance check
    (polyhedral-level tests on raw lattice data)."""
    gens = tuple(rd.weight(v) for v in vectors)
    return WeightMonoid(rd, gens, enforce_dominance=False)
