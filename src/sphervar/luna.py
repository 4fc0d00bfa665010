"""Shared value types for B-divisor data.

A divisor's valuation vector is a functional on the weight lattice X,
stored by its values on the canonical lattice basis.  The coroot of
simple root i is e_i in coroot coordinates, so its values are column i
of the basis (`Lattice.columns`), and half of it is that column halved.
A record keeps no other presentation of its functional: the stabilizer
follows from the record's origin and its values on X (see
`sphervar.recovery.stabilizers_of`).

Each functional also carries one integer form, computed once: the
least common denominator d > 0 of its values and the integer vector
n = d * values, so that phi(x) = n.c(x) / d for a point x of span_Q(X)
with coordinates c(x) in the basis (`Lattice.coords`).  A weight is read
into those coordinates once (`span_vector`, which refuses one off the
span), however many functionals are then read on it; each reading is
one integer dot product for a point of X, and a value one exact
division, which builds a `Fraction` only when it does not come out even.
Since d > 0, the sign of n.c is the sign of phi(x), and phi(x) = 1 iff
n.c = d for a point x of X.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .monoid import WeightMonoid
from .polyhedral import (
    Lattice,
    QVec,
    _clear_denominators,
    _dot,
    cached_property,
    exact,
)
from .rootsys import ParabolicSet, RootData, WeightVec

if TYPE_CHECKING:
    from .spherical import SphericalRootSet


class LunaError(ValueError):
    pass


def span_vector(lattice: Lattice, vec) -> QVec:
    """The coordinates of vec in the lattice basis (`Lattice.coords`),
    refused with `LunaError` when vec is off the rational span; a
    functional with integer form (d, n) is n.c / d there."""
    c = lattice.coords(vec)
    if c is None:
        raise LunaError("vector outside the lattice span")
    return c


@dataclass(frozen=True)
class LatticeFunctional:
    """A rational functional on a weight lattice, given by its values on
    the canonical lattice basis, each held as `exact` gives it."""

    lattice: Lattice
    values: tuple[int | Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(map(exact, self.values)))
        if len(self.values) != self.lattice.rank:
            raise LunaError("functional length does not match the lattice rank")

    @cached_property
    def integer_form(self) -> tuple[int, tuple[int, ...]]:
        """(d, n): d > 0 the least common denominator of the values and
        n = d * values, so that phi is n.c / d at basis coordinates c."""
        d, n = _clear_denominators(self.values)
        return d, tuple(n)

    def evaluate(self, vec) -> int | Fraction:
        d, n = self.integer_form
        return exact(_dot(n, span_vector(self.lattice, vec)), d)

    def eval_weight(self, w: WeightVec) -> int | Fraction:
        return self.evaluate(w.coords)

    def __add__(self, other: "LatticeFunctional") -> "LatticeFunctional":
        if self.lattice != other.lattice:
            raise LunaError("functionals on different lattices")
        return LatticeFunctional(self.lattice,
                                 tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "LatticeFunctional") -> "LatticeFunctional":
        if self.lattice != other.lattice:
            raise LunaError("functionals on different lattices")
        return LatticeFunctional(self.lattice,
                                 tuple(a - b for a, b in zip(self.values, other.values)))


@dataclass(frozen=True)
class BDivisorRecord:
    """One recovered B-divisor: valuation functional, stabilizer, origin."""

    divisor_id: str
    phi: LatticeFunctional
    stabilizer: ParabolicSet | None
    source: str
    source_roots: tuple[int, ...] = ()

    def moved_roots(self, n_simple: int) -> frozenset[int]:
        """Simple roots alpha with P_alpha not contained in the stabilizer."""
        if self.stabilizer is None:
            raise LunaError("stabilizer not computed yet")
        return frozenset(range(n_simple)) - self.stabilizer.roots


@dataclass(frozen=True)
class LunaDatum:
    """Assembled combinatorial data of an affine spherical variety (or of a
    localization of one, when the monoid's Levi is a proper subset)."""

    monoid: WeightMonoid
    psi: SphericalRootSet
    type_table: "RootTypeTable"
    divisors: tuple[BDivisorRecord, ...]

    @property
    def rd(self) -> RootData:
        return self.monoid.rd

    @property
    def levi_roots(self) -> frozenset[int]:
        return self.monoid.active_roots

    @property
    def lattice(self) -> Lattice:
        return self.monoid.lattice

    def divisors_moved_by(self, alpha: int) -> tuple[BDivisorRecord, ...]:
        """D(alpha): divisors whose stabilizer does not contain P_alpha."""
        out = []
        for d in self.divisors:
            if d.stabilizer is None:
                raise LunaError("stabilizers not computed yet")
            if alpha not in d.stabilizer.roots:
                out.append(d)
        return tuple(out)


@dataclass(frozen=True)
class RootTypeTable:
    """Luna type (a/b/c/d) of each active simple root, with the recorded
    partner for paired d-roots."""

    entries: tuple[tuple[int, str], ...]
    partners: tuple[tuple[int, int], ...] = ()

    def type_of(self, i: int) -> str:
        for j, t in self.entries:
            if j == i:
                return t
        raise LunaError(f"no type recorded for simple root {i}")

    def roots_of_type(self, t: str) -> tuple[int, ...]:
        return tuple(j for j, tt in self.entries if tt == t)

    def partner_of(self, i: int) -> int | None:
        for a, b in self.partners:
            if a == i:
                return b
            if b == i:
                return a
        return None
