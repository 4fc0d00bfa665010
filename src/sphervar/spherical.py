"""Spherical-variety invariants from a weight monoid and a root set.

Covers the Luna type classification of simple roots, the three
elementary shapes a spherical root can take, hiddenness of divisors and
of spherical roots, and the four exceptional families that admit a
hidden root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .luna import LunaDatum, RootTypeTable
from .monoid import WeightMonoid
from .polyhedral import Lattice, _dot, cached_property
from .rootsys import (
    RootData,
    RootDataError,
    WeightVec,
    root_coefficients,
    symmetric_form,
)


class SphericalError(ValueError):
    pass


@dataclass(frozen=True)
class SphericalRootSet:
    """Validated set of spherical roots for a fixed group: they are
    nonnegative combinations of simple roots, pairwise non-acute and
    linearly independent.  Admissibility against the classification
    tables of possible root systems is not checked here.
    """

    rd: RootData
    roots: tuple[WeightVec, ...]

    def weight_set(self) -> set[tuple[int | Fraction, ...]]:
        return {g.coords for g in self.roots}

    @cached_property
    def coefficients(self) -> tuple[tuple[int | Fraction, ...], ...]:
        """The simple-root coefficients of each root (`root_coefficients`),
        computed once per root set."""
        return tuple(root_coefficients(g, self.rd) for g in self.roots)

    @cached_property
    def supports(self) -> tuple[frozenset[int], ...]:
        """The simple roots with a nonzero coefficient in each root."""
        return tuple(frozenset(i for i, c in enumerate(cs) if c)
                     for cs in self.coefficients)

    @cached_property
    def forms(self) -> tuple[FormTag, ...]:
        """The elementary form of each root (`elementary_forms`),
        computed once per root set."""
        return elementary_forms(self)


def make_spherical_roots(rd: RootData, roots) -> SphericalRootSet:
    """Group-level validation: roots are nonnegative combinations of
    simple roots, pairwise non-acute, and linearly independent.  The
    nonnegativity holds as the valuation cone contains the antidominant
    chamber (Knop, The Luna–Vust theory of spherical embeddings, 1991)."""
    roots = tuple(roots)
    coefficients = []
    for i, g in enumerate(roots):
        if g.spec != rd.spec:
            raise SphericalError("spherical root does not match the group")
        if g.is_zero:
            raise SphericalError("zero vector cannot be a spherical root")
        try:
            cs = root_coefficients(g, rd)
        except RootDataError as exc:
            raise SphericalError(f"spherical root outside the root span: {exc}")
        if any(c < 0 for c in cs):
            raise SphericalError(
                f"spherical root {i + 1} is not a nonnegative combination "
                "of simple roots")
        coefficients.append(cs)
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if symmetric_form(rd, roots[i], roots[j]) > 0:
                raise SphericalError(
                    "spherical roots must be pairwise non-acute "
                    f"(roots {i + 1} and {j + 1} violate this)")
    if roots:
        mat = [list(map(int, g.int_coords())) if g.is_integral else None
               for g in roots]
        if any(r is None for r in mat):
            raise SphericalError("spherical roots must be integral weights")
        if Lattice.span(mat, rd.dim).rank != len(roots):
            raise SphericalError("spherical roots must be linearly independent")
    psi = SphericalRootSet(rd, roots)
    # the coefficients read here are the set's own, computed once
    psi.__dict__["coefficients"] = tuple(coefficients)
    return psi


def validate_roots_in_lattice(psi: SphericalRootSet, lattice: Lattice) -> None:
    """Datum-level validation: every root is a primitive lattice element.
    One solve per root: its coordinates on the lattice basis must be
    integers with gcd 1 (a root is nonzero, and `Lattice.from_coords` is
    injective, so that is primitivity in the lattice)."""
    for g in psi.roots:
        c = lattice.coords(g.int_coords())
        if c is None or any(type(x) is not int for x in c):
            raise SphericalError("spherical root is not in the weight lattice")
        if gcd(*c) != 1:
            raise SphericalError("spherical root is not primitive in the lattice")


# ---------------------------------------------------------------------------
# root types
# ---------------------------------------------------------------------------

def classify_root_types(m: WeightMonoid, psi: SphericalRootSet) -> RootTypeTable:
    """Luna type of every active simple root, with d-root partners.

    b: the root is a spherical root; c: twice the root is; a: orthogonal
    to the whole monoid (`WeightMonoid.type_a_roots`); d: otherwise.  A
    root matching several classes means the datum is invalid.  The
    positive multiples of a simple root among the spherical roots are
    read off the coefficient vectors supported on it alone.

    Partnered d-roots restrict to the same functional on the lattice, so
    the d-roots are grouped by their coroot columns (`Lattice.columns`)
    and partners are looked for within a group only.
    """
    active = sorted(m.active_roots)
    multiples: dict[int, list[int | Fraction]] = {}
    for supp, cs in zip(psi.supports, psi.coefficients):
        if len(supp) == 1:
            (i,) = supp
            if cs[i] > 0:
                multiples.setdefault(i, []).append(cs[i])
    a_set = m.type_a_roots
    entries = []
    for i in active:
        qs = multiples.get(i, [])
        if any(q not in (1, 2) for q in qs):
            raise SphericalError(
                f"invalid root set: a non-root multiple of simple root {i + 1} "
                "appears among the spherical roots")
        is_b, is_c = 1 in qs, 2 in qs
        if is_b and is_c:
            raise SphericalError(
                f"invalid root set: both alpha and 2*alpha in it (root {i + 1})")
        if i in a_set:
            if is_b or is_c:
                raise SphericalError(
                    f"invalid datum: simple root {i + 1} is orthogonal to the "
                    "monoid yet appears in the spherical roots")
            entries.append((i, "a"))
        elif is_b:
            entries.append((i, "b"))
        elif is_c:
            entries.append((i, "c"))
        else:
            entries.append((i, "d"))
    d_roots = [i for i, t in entries if t == "d"]
    columns = m.lattice.columns
    groups: dict[tuple[int, ...], list[int]] = {}
    for i in d_roots:
        groups.setdefault(columns[i], []).append(i)
    partners = []
    for i in d_roots:
        found = [j for j in groups[columns[i]]
                 if j != i and _is_partner(m, psi, i, j)]
        if len(found) > 1:
            raise SphericalError(
                f"invalid datum: simple root {i + 1} has multiple d-partners")
        # the relation is symmetric, so each pair is met from both ends;
        # it is kept from its smaller root, which keeps the pairs sorted
        if found and i < found[0]:
            partners.append((i, found[0]))
    return RootTypeTable(tuple(entries), tuple(partners))


def _is_partner(m: WeightMonoid, psi: SphericalRootSet, i: int, j: int) -> bool:
    """Whether the d-roots i and j, whose coroot columns are taken to be
    equal, are partners: orthogonal, with their sum or half of it among
    the roots.  That holds for (i, j) iff it holds for (j, i), since a
    Cartan entry is 0 iff its transpose is."""
    rd = m.rd
    if rd.cartan[i][j] != 0:
        return False
    # alpha_i + alpha_j or half of it among the roots, by coefficients
    pair = tuple(int(k in (i, j)) for k in range(rd.n_simple))
    half = tuple(Fraction(x, 2) for x in pair)
    return pair in psi.coefficients or half in psi.coefficients


# ---------------------------------------------------------------------------
# elementary forms (the three shapes a spherical root can take on the
# simple-root side)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FormTag:
    kind: str                      # "simple" | "double" | "pair" | "none"
    roots: tuple[int, ...] = ()
    k: int | Fraction | None = None


def elementary_forms(psi: SphericalRootSet) -> tuple[FormTag, ...]:
    """Tag each root: a simple root, twice one, or k(a1+a2) with a1,a2
    orthogonal simple roots and k in {1, 1/2}."""
    rd = psi.rd
    tags = []
    for coeffs in psi.coefficients:
        nz = [(i, c) for i, c in enumerate(coeffs) if c != 0]
        tag = FormTag("none")
        if len(nz) == 1:
            i, c = nz[0]
            if c == 1:
                tag = FormTag("simple", (i,))
            elif c == 2:
                tag = FormTag("double", (i,))
        elif len(nz) == 2:
            (i, ci), (j, cj) = nz
            if ci == cj and ci in (1, Fraction(1, 2)):
                if rd.cartan[i][j] == 0:
                    tag = FormTag("pair", (i, j), ci)
        tags.append(tag)
    return tuple(tags)


# ---------------------------------------------------------------------------
# hidden divisors and hidden spherical roots
# ---------------------------------------------------------------------------

def hidden_divisors(datum: LunaDatum) -> frozenset[str]:
    """Divisors on which every noninvertible monoid element pairs strictly
    positively (and the invertible part pairs to zero).  The minimal
    generators and the units lie in the lattice, where a functional with
    integer form (d, n) has the sign of n.c at basis coordinates c."""
    m = datum.monoid
    out = []
    for d in datum.divisors:
        n = d.phi.integer_form[1]
        if any(_dot(n, c) <= 0 for c in m.minimal_coords):
            continue
        if any(_dot(n, c) for c in m.unit_coords):
            continue
        out.append(d.divisor_id)
    return frozenset(out)


def hidden_spherical_roots(datum: LunaDatum) -> frozenset[int]:
    """Indices (into datum.psi.roots) of the hidden spherical roots: every
    divisor is moved by some root of the support, and the root is not of
    any elementary form."""
    psi = datum.psi
    hidden = []
    for idx, (tag, supp) in enumerate(zip(psi.forms, psi.supports)):
        if tag.kind != "none":
            continue
        covered = True
        for d in datum.divisors:
            if supp <= d.stabilizer.roots:
                covered = False
                break
        if covered:
            hidden.append(idx)
    return frozenset(hidden)


# ---------------------------------------------------------------------------
# the exceptional families with a hidden root
# ---------------------------------------------------------------------------

def _cn_long_root(rd: RootData, offset: int, n: int) -> WeightVec:
    """alpha_1 + alpha_n + 2(alpha_2 + ... + alpha_{n-1}) within a C_n
    factor starting at global index `offset`."""
    g = rd.simple_root(offset) + rd.simple_root(offset + n - 1)
    for i in range(1, n - 1):
        g = g + rd.simple_root(offset + i).scale(2)
    return g


@dataclass(frozen=True)
class HiddenTriple:
    family: int
    description: str
    psi: tuple[WeightVec, ...]      # the hidden root is listed second
    pi_a: frozenset[int]


def hidden_root_triples(rd: RootData) -> tuple[HiddenTriple, ...]:
    """The exceptional (group, roots, type-a set) triples admitting a
    hidden spherical root, instantiated for this group when the shape
    matches.  The second listed root is the hidden one.  They depend on
    the group alone, so they are built once per `RootData` and cached
    on it."""
    triples = rd.__dict__.get("_hidden_root_triples")
    if triples is None:
        triples = rd.__dict__["_hidden_root_triples"] = _hidden_root_triples(rd)
    return triples


def _hidden_root_triples(rd: RootData) -> tuple[HiddenTriple, ...]:
    spec = rd.spec
    out: list[HiddenTriple] = []
    factors = spec.factors
    if len(factors) == 1 and factors[0][0] == "C" and factors[0][1] >= 2:
        n = factors[0][1]
        gamma2 = _cn_long_root(rd, 0, n)
        pi_a = frozenset(range(2, n))
        for k in (1, 2):
            g1 = rd.simple_root(0) if k == 1 else rd.simple_root(0).scale(2)
            out.append(HiddenTriple(
                1, f"C{n} with k={k}", (g1, gamma2), pi_a))
    if len(factors) == 1 and factors[0] == ("G", 2):
        out.append(HiddenTriple(
            2, "G2", (rd.simple_root(1), rd.simple_root(0) + rd.simple_root(1)),
            frozenset()))
    if len(factors) == 2 and {factors[0][0], factors[1][0]} == {"C", "A"}:
        ci = 0 if factors[0][0] == "C" else 1
        ai = 1 - ci
        n = factors[ci][1]
        if factors[ai][1] == 1 and n >= 2:
            c_off = 0 if ci == 0 else factors[0][1]
            a_off = 0 if ai == 0 else factors[0][1]
            gamma1 = rd.simple_root(c_off) + rd.simple_root(a_off)
            gamma2 = _cn_long_root(rd, c_off, n)
            pi_a = frozenset(range(c_off + 2, c_off + n))
            out.append(HiddenTriple(3, f"C{n} x A1", (gamma1, gamma2), pi_a))
    if len(factors) == 1 and factors[0] == ("B", 4):
        gamma1 = rd.simple_root(1) + rd.simple_root(2).scale(2) + \
            rd.simple_root(3).scale(3)
        gamma2 = rd.simple_root(0) + rd.simple_root(1) + rd.simple_root(2) + \
            rd.simple_root(3)
        out.append(HiddenTriple(4, "B4", (gamma1, gamma2), frozenset({1, 2})))
    return tuple(out)


def match_hidden_root_triple(rd: RootData, psi: SphericalRootSet,
                             pi_a: frozenset[int]) -> HiddenTriple | None:
    """Report which exceptional triple, if any, the given data instantiate."""
    want = psi.weight_set()
    for triple in hidden_root_triples(rd):
        if {g.coords for g in triple.psi} == want and triple.pi_a == pi_a:
            return triple
    return None
