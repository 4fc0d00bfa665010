"""Shared value types for B-divisor data.

A divisor's valuation vector is primarily a functional on the weight
lattice X, stored by its values on the canonical lattice basis; when the
divisor comes from an explicit coroot formula the coroot presentation is
kept alongside for cross-checks against simple roots outside X.

Each functional also carries one integer form, computed once: a
denominator d > 0, least possible, and an integer covector w on Z^dim,
supported on the pivot columns of the HNF basis of X, with
phi(v) = w.v / d on span_Q(X).  Evaluation is a span check against the
annihilator rows of X, one integer dot product and one exact division,
which builds a `Fraction` only when it does not come out even; since
d > 0, the sign of w.v is the sign of phi(v).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .monoid import WeightMonoid
from .polyhedral import Lattice, PolyhedralError, _clear_denominators, _dot, exact
from .rootsys import CovectorVec, ParabolicSet, RootData, WeightVec


class LunaError(ValueError):
    pass


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

    @staticmethod
    def from_covector(cov: CovectorVec, lattice: Lattice) -> "LatticeFunctional":
        den, c = _clear_denominators(cov.coords)
        return LatticeFunctional(
            lattice, tuple(exact(_dot(c, b), den) for b in lattice.basis))

    @cached_property
    def integer_form(self) -> tuple[int, tuple[int, ...]]:
        """(d, w) with phi(v) = w.v / d on the span of the lattice."""
        return self.lattice.integer_form(self.values)

    def evaluate(self, vec) -> int | Fraction:
        if len(vec) != self.lattice.dim:
            raise PolyhedralError("vector length does not match the lattice")
        den, v = _clear_denominators(vec)
        if not self.lattice.in_span(v):
            raise LunaError("vector outside the lattice span")
        d, w = self.integer_form
        return exact(_dot(w, v), d * den)

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
    coroot_form: CovectorVec | None = None

    def moved_roots(self, n_simple: int) -> frozenset[int]:
        """Simple roots alpha with P_alpha not contained in the stabilizer."""
        if self.stabilizer is None:
            raise LunaError("stabilizer not computed yet")
        return frozenset(range(n_simple)) - self.stabilizer.roots

    def with_stabilizer(self, p: ParabolicSet) -> "BDivisorRecord":
        return BDivisorRecord(self.divisor_id, self.phi, p, self.source,
                              self.source_roots, self.coroot_form)


@dataclass(frozen=True)
class LunaDatum:
    """Assembled combinatorial data of an affine spherical variety (or of a
    localization of one, when levi_roots is a proper subset)."""

    rd: RootData
    monoid: WeightMonoid
    psi: tuple[WeightVec, ...]
    type_table: "RootTypeTable"
    divisors: tuple[BDivisorRecord, ...]
    levi_roots: frozenset[int]

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
