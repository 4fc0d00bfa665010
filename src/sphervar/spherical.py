"""Spherical-variety invariants from a weight monoid and a root set.

Covers the cone dictionary (tail cone vs. valuation cone), the Luna type
classification of simple roots, the three elementary shapes a spherical
root can take, hiddenness of divisors and of spherical roots, and the
four exceptional families that admit a hidden root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .luna import LunaDatum, RootTypeTable
from .monoid import WeightMonoid
from .polyhedral import Lattice, RationalCone, exact, lattice_span
from .rootsys import (
    RootData,
    RootDataError,
    WeightVec,
    root_coefficients,
    support,
    symmetric_form,
)


class SphericalError(ValueError):
    pass


@dataclass(frozen=True)
class SphericalRootSet:
    """Validated set of spherical roots for a fixed group.

    `level` records how far validation went: "linear" means the
    linear-algebraic invariants (root span, pairwise non-acuteness,
    independence) hold; admissibility against the full classification
    tables of possible root systems is never checked here.
    """

    rd: RootData
    roots: tuple[WeightVec, ...]
    level: str = "linear"

    def weight_set(self) -> set[tuple[int | Fraction, ...]]:
        return {g.coords for g in self.roots}


def make_spherical_roots(rd: RootData, roots) -> SphericalRootSet:
    """Group-level validation: roots lie in the root span, are pairwise
    non-acute, and are linearly independent."""
    roots = tuple(roots)
    for g in roots:
        if g.spec != rd.spec:
            raise SphericalError("spherical root does not match the group")
        if g.is_zero:
            raise SphericalError("zero vector cannot be a spherical root")
        try:
            support(g, rd)
        except RootDataError as exc:
            raise SphericalError(f"spherical root outside the root span: {exc}")
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
        if lattice_span(mat, rd.dim).rank != len(roots):
            raise SphericalError("spherical roots must be linearly independent")
    return SphericalRootSet(rd, roots)


def validate_roots_in_lattice(psi: SphericalRootSet, lattice: Lattice) -> None:
    """Datum-level validation: every root is a primitive lattice element."""
    for g in psi.roots:
        v = g.int_coords()
        if not lattice.contains(v):
            raise SphericalError("spherical root is not in the weight lattice")
        if lattice.primitive_vector(v) != v:
            raise SphericalError("spherical root is not primitive in the lattice")


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------

def _root_coords(psi: SphericalRootSet, lattice: Lattice) -> list:
    """The spherical roots in lattice-basis coordinates."""
    out = []
    for g in psi.roots:
        c = lattice.coords(g.int_coords())
        if c is None:
            raise SphericalError("spherical root outside the weight lattice span")
        out.append(c)
    return out


def tail_cone(psi: SphericalRootSet, lattice: Lattice) -> RationalCone:
    """Cone generated by the spherical roots, in lattice-basis coordinates."""
    return RationalCone.from_generators(_root_coords(psi, lattice),
                                        dim=lattice.rank)


def valuation_cone(psi: SphericalRootSet, lattice: Lattice) -> RationalCone:
    """Functionals nonpositive on the tail cone: minus the dual of it,
    in the basis dual to the lattice basis."""
    return RationalCone.from_inequalities(
        [tuple(-x for x in c) for c in _root_coords(psi, lattice)],
        dim=lattice.rank)


def spherical_roots_of_cone(v_cone: RationalCone, lattice: Lattice,
                            rd: RootData) -> tuple[WeightVec, ...]:
    """Primitive lattice elements cutting out the walls of the valuation
    cone from the nonpositive side."""
    roots = []
    for n in v_cone.facet_normals:
        # facet normals are nonnegative on the cone; spherical roots are the
        # nonpositive wall functionals
        neg = tuple(-x for x in n)
        amb = lattice.from_coords(neg)
        if any(type(x) is not int for x in amb):
            raise SphericalError("wall normal is not proportional to a lattice element")
        roots.append(rd.weight(amb))
    return tuple(sorted(roots, key=lambda w: w.coords))


# ---------------------------------------------------------------------------
# root types
# ---------------------------------------------------------------------------

def type_a_roots(m: WeightMonoid) -> frozenset[int]:
    """Simple roots orthogonal to the sum of all minimal generators.

    The sum mu of the minimal generators satisfies monoid + Z*mu = lattice
    (subtracting mu from it flips the sign of any one minimal generator),
    so this is the divisor-free type-a set.  It is computed once per
    monoid and cached on it, the way `recovery._root_types` caches the
    type table.
    """
    pia = m.__dict__.get("_type_a_roots")
    if pia is None:
        pia = m.__dict__["_type_a_roots"] = _type_a_roots(m)
    return pia


def _type_a_roots(m: WeightMonoid) -> frozenset[int]:
    mins = m.minimal_generators
    active = m.active_roots
    if not mins:
        return frozenset(active)
    mu = mins[0]
    for g in mins[1:]:
        mu = mu + g
    span_check = list(g.int_coords() for g in mins) + \
        [b for b in m.invertible_lattice.basis]
    if lattice_span(span_check, m.dim).basis != m.lattice.basis:
        raise SphericalError("internal: minimal generators do not span the lattice")
    return frozenset(i for i in active if mu.coords[i] == 0)


def classify_root_types(m: WeightMonoid, psi: SphericalRootSet) -> RootTypeTable:
    """Luna type of every active simple root, with d-root partners.

    b: the root is a spherical root; c: twice the root is; a: orthogonal
    to the whole monoid; d: otherwise.  A root matching several classes
    means the datum is invalid.
    """
    rd = m.rd
    active = sorted(m.active_roots)
    psi_set = psi.weight_set()
    a_set = type_a_roots(m)
    entries = []
    for i in active:
        alpha = rd.simple_root(i)
        is_b = alpha.coords in psi_set
        is_c = alpha.scale(2).coords in psi_set
        multiples = _rational_multiples_in_psi(alpha, psi)
        if any(q not in (1, 2) for q in multiples):
            raise SphericalError(
                f"invalid root set: a non-root multiple of simple root {i + 1} "
                "appears among the spherical roots")
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
    partners = []
    for i in d_roots:
        found = [j for j in d_roots if j != i and _is_partner(m, psi, i, j)]
        if len(found) > 1:
            raise SphericalError(
                f"invalid datum: simple root {i + 1} has multiple d-partners")
        if found:
            j = found[0]
            if not _is_partner(m, psi, j, i):
                raise SphericalError("invalid datum: asymmetric d-partner relation")
            if (min(i, j), max(i, j)) not in partners:
                partners.append((min(i, j), max(i, j)))
    return RootTypeTable(tuple(entries), tuple(sorted(partners)))


def _rational_multiples_in_psi(alpha: WeightVec, psi: SphericalRootSet):
    out = []
    for g in psi.roots:
        ratio = None
        consistent = True
        for x, y in zip(g.coords, alpha.coords):
            if y == 0:
                if x != 0:
                    consistent = False
                    break
            else:
                r = exact(x, y)
                if ratio is None:
                    ratio = r
                elif ratio != r:
                    consistent = False
                    break
        if consistent and ratio is not None and ratio > 0:
            out.append(ratio)
    return out


def _is_partner(m: WeightMonoid, psi: SphericalRootSet, i: int, j: int) -> bool:
    rd = m.rd
    if rd.cartan[i][j] != 0:
        return False
    # alpha_i^vee - alpha_j^vee must vanish on the whole weight lattice
    for b in m.lattice.basis:
        if b[i] != b[j]:
            return False
    s = rd.simple_root(i) + rd.simple_root(j)
    psi_set = psi.weight_set()
    if s.coords in psi_set:
        return True
    half = s.scale(Fraction(1, 2))
    return half.coords in psi_set


# ---------------------------------------------------------------------------
# elementary forms (the three shapes a spherical root can take on the
# simple-root side)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FormTag:
    kind: str                      # "simple" | "double" | "pair" | "none"
    roots: tuple[int, ...] = ()
    k: int | Fraction | None = None


def elementary_forms(psi: SphericalRootSet, rd: RootData) -> tuple[FormTag, ...]:
    """Tag each root: a simple root, twice one, or k(a1+a2) with a1,a2
    orthogonal simple roots and k in {1, 1/2}."""
    tags = []
    for g in psi.roots:
        coeffs = root_coefficients(g, rd)
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
                if symmetric_form(rd, rd.simple_root(i), rd.simple_root(j)) == 0:
                    tag = FormTag("pair", (i, j), ci)
        tags.append(tag)
    return tuple(tags)


# ---------------------------------------------------------------------------
# hidden divisors and hidden spherical roots
# ---------------------------------------------------------------------------

def hidden_divisors(datum: LunaDatum) -> frozenset[str]:
    """Divisors on which every noninvertible monoid element pairs strictly
    positively (and the invertible part pairs to zero)."""
    mins = datum.monoid.minimal_generators
    inv = datum.monoid.invertible_lattice
    out = []
    for d in datum.divisors:
        if any(d.phi.eval_weight(g) <= 0 for g in mins):
            continue
        if any(d.phi.evaluate(b) != 0 for b in inv.basis):
            continue
        out.append(d.divisor_id)
    return frozenset(out)


def hidden_spherical_roots(datum: LunaDatum) -> frozenset[int]:
    """Indices (into datum.psi) of the hidden spherical roots: every
    divisor is moved by some root of the support, and the root is not of
    any elementary form."""
    rd = datum.rd
    psi = SphericalRootSet(rd, datum.psi)
    tags = elementary_forms(psi, rd)
    n = rd.n_simple
    hidden = []
    for idx, g in enumerate(datum.psi):
        if tags[idx].kind != "none":
            continue
        supp = support(g, rd)
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
