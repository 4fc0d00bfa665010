"""Constructors and filters that only the tests use.

They build values through the public constructors and methods of
`sphervar` and add no check of their own: `monoid_of` is a
`WeightMonoid`, so its generators must be dominant on the active roots,
which on a torus group asks nothing.  The exceptions are
`primitive_vector`, which refuses a zero vector and a vector off the
span of the lattice, `valuation_cone`, which refuses a root off it, and
`integer_kernel`, which refuses an empty matrix and rows of mixed
length; it and `saturation` read the relations of `_relations`.
`localize_datum` turns the refusal of `WeightMonoid.localize` into a
`RecoveryError`.
"""

import itertools
from fractions import Fraction

from sphervar.luna import BDivisorRecord, LatticeFunctional, LunaDatum
from sphervar.monoid import MonoidError, WeightMonoid
from sphervar.polyhedral import (
    Lattice,
    PolyhedralError,
    RationalCone,
    _clear_denominators,
    _dot,
    _relations,
    exact,
    primitive,
)
from sphervar.recovery import RecoveryError
from sphervar.rootsys import (
    GroupSpec,
    ParabolicSet,
    RootData,
    WeightVec,
    build_root_data,
    root_coefficients,
)
from sphervar.spherical import (
    SphericalError,
    SphericalRootSet,
    classify_root_types,
    make_spherical_roots,
)


def monoid_of(rd: RootData, vectors) -> WeightMonoid:
    """The monoid generated by the integer vectors, read as weights."""
    return WeightMonoid(rd, tuple(rd.weight(v) for v in vectors))


def simplex_monoid(k: int, dim: int, without=()) -> WeightMonoid:
    """The monoid over (x, 1) for the lattice points x of k times the
    standard dim-simplex, less those in `without`, on the torus of rank
    dim + 1."""
    points = [x + (1,) for x in itertools.product(range(k + 1), repeat=dim)
              if sum(x) <= k and x not in without]
    return monoid_of(build_root_data(GroupSpec((), dim + 1)), points)


def fundamental_weight(rd: RootData, i: int) -> WeightVec:
    return rd.weight(tuple(int(j == i) for j in range(rd.dim)))


def coroot(rd: RootData, i: int) -> tuple[int, ...]:
    """The coroot of simple root i, in the coordinates dual to the
    weights: the unit tuple e_i."""
    return tuple(int(j == i) for j in range(rd.dim))


def from_covector(cov, lattice: Lattice) -> LatticeFunctional:
    """The restriction to the lattice of a covector, a tuple of rational
    dual coordinates: its values on the basis, one dot product each."""
    den, c = _clear_denominators(cov)
    return LatticeFunctional(
        lattice, tuple(exact(_dot(c, b), den) for b in lattice.basis))


def pairing(c, w: WeightVec) -> int | Fraction:
    """<c, w>: the dot product of the dual coordinates c with those of w,
    which must be as many."""
    return exact(sum(a * b for a, b in zip(c, w.coords, strict=True)))


def integer_kernel(rows) -> list[tuple[int, ...]]:
    """Basis of the (saturated) lattice {x in Z^n : A x = 0}: the
    relations among the columns of A."""
    A = [tuple(map(int, r)) for r in rows]
    if not A:
        raise PolyhedralError("integer_kernel needs at least one row")
    if len({len(r) for r in A}) > 1:
        raise PolyhedralError("integer_kernel: rows differ in length")
    return _relations(zip(*A))[1]


def saturation(lattice: Lattice) -> Lattice:
    """The saturated lattice span_Q(basis) ∩ Z^dim."""
    if not lattice.annihilator:
        return Lattice.full(lattice.dim)
    return Lattice.span(integer_kernel(lattice.annihilator), lattice.dim)


def zero_cone(dim: int) -> RationalCone:
    return RationalCone.from_generators((), dim=dim)


def primitive_vector(lattice: Lattice, v):
    """The unique primitive lattice element w with v = c*w, c > 0."""
    c = lattice.coords(v)
    if c is None:
        raise PolyhedralError("vector is not in the rational span of the lattice")
    if all(x == 0 for x in c):
        raise PolyhedralError("zero vector has no primitive representative")
    return lattice.from_coords(primitive(c))


def group_case_document(dynkin: str, n: int) -> dict:
    """The document of G×G/diag G for G simple of the given type and rank,
    from the Cartan matrix alone.  Let s be the diagram flip -w0: it
    reverses A_n, swaps the two spin nodes of D_n for n odd and reflects
    E6, and is the identity otherwise.  Generator i is omega_i in the
    first factor plus omega_{s(i)} in the second, and spherical root i is
    alpha_i in the first factor plus alpha_{s(i)} in the second, divided
    by the gcd of its entries; alpha_i, in fundamental-weight
    coordinates, is column i of the Cartan matrix."""
    cartan = build_root_data(GroupSpec(((dynkin, n),))).cartan
    flip = list(range(n))
    if dynkin == "A":
        flip.reverse()
    elif dynkin == "D" and n % 2:
        flip[-2:] = [n - 1, n - 2]
    elif (dynkin, n) == ("E", 6):
        flip = [5, 1, 4, 3, 2, 0]

    def omega(i):
        return [int(j == i) for j in range(n)]

    def alpha(i):
        return [row[i] for row in cartan]

    return {
        "schema": 1,
        "group": {"factors": [[dynkin, n], [dynkin, n]], "central_rank": 0},
        "monoid_generators": [omega(i) + omega(flip[i]) for i in range(n)],
        "spherical_roots": [list(primitive(alpha(i) + alpha(flip[i])))
                            for i in range(n)],
    }


def sl_so_document(n: int) -> dict:
    """The document of SL_{n+1}/SO_{n+1}: the A_n monoid on the
    2 omega_i with the spherical roots 2 alpha_i; alpha_i, in
    fundamental-weight coordinates, is column i of the Cartan matrix."""
    cartan = build_root_data(GroupSpec((("A", n),))).cartan
    return {
        "schema": 1,
        "group": {"factors": [["A", n]], "central_rank": 0},
        "monoid_generators": [[2 * (j == i) for j in range(n)]
                              for i in range(n)],
        "spherical_roots": [[2 * row[i] for row in cartan] for i in range(n)],
    }


def thin_to_elementary(psi: SphericalRootSet) -> SphericalRootSet:
    """Keep only the roots of one of the three elementary forms."""
    kept = tuple(g for g, t in zip(psi.roots, psi.forms)
                 if t.kind != "none")
    return SphericalRootSet(psi.rd, kept)


def product(e1, e2) -> tuple[WeightMonoid, SphericalRootSet]:
    """The monoid and the spherical roots of the product of two data,
    each given by its `monoid` and `psi`: the group has the simple
    factors of both, then the central tori of both, and each side's
    generators and roots are embedded with zeros on the other side."""
    s1, s2 = e1.monoid.rd.spec, e2.monoid.rd.spec
    rd = build_root_data(GroupSpec(s1.factors + s2.factors,
                                   s1.central_rank + s2.central_rank))
    n1, n2 = s1.simple_rank, s2.simple_rank

    def left(w: WeightVec) -> WeightVec:
        c = w.int_coords()
        return rd.weight(c[:n1] + (0,) * n2 + c[n1:] + (0,) * s2.central_rank)

    def right(w: WeightVec) -> WeightVec:
        c = w.int_coords()
        return rd.weight((0,) * n1 + c[:n2] + (0,) * s1.central_rank + c[n2:])

    monoid = WeightMonoid(rd, tuple(map(left, e1.monoid.generators))
                          + tuple(map(right, e2.monoid.generators)))
    psi = make_spherical_roots(rd, [left(g) for g in e1.psi.roots]
                               + [right(g) for g in e2.psi.roots])
    return monoid, psi


def support(w: WeightVec, rd: RootData) -> frozenset[int]:
    """Indices of simple roots appearing in the simple-root expansion of w.

    Raises if w has a central component or otherwise leaves the root span.
    """
    return frozenset(j for j, c in enumerate(root_coefficients(w, rd)) if c != 0)


def valuation_cone(psi: SphericalRootSet, lattice: Lattice) -> RationalCone:
    """Functionals nonpositive on the tail cone, the cone over the
    spherical roots: minus its dual, in the basis dual to the lattice
    basis."""
    normals = []
    for g in psi.roots:
        c = lattice.coords(g.int_coords())
        if c is None:
            raise SphericalError("spherical root outside the weight lattice span")
        normals.append(tuple(-x for x in c))
    return RationalCone.from_inequalities(normals, dim=lattice.rank)


def halfspace_datum(dim: int, normals) -> LunaDatum:
    """A datum on the torus of rank dim whose divisors D1, D2, ... are
    external records with the given normals as functionals.  The monoid
    is generated by the ±e_i, so its lattice is Z^dim with the standard
    basis and the values of each functional are its normal's entries."""
    rd = build_root_data(GroupSpec((), dim))
    units = [tuple(int(j == i) for j in range(dim)) for i in range(dim)]
    monoid = monoid_of(rd, units + [tuple(-x for x in e) for e in units])
    psi = make_spherical_roots(rd, ())
    records = tuple(
        BDivisorRecord(f"D{i + 1}", LatticeFunctional(monoid.lattice, tuple(n)),
                       ParabolicSet(frozenset()), "external")
        for i, n in enumerate(normals))
    return LunaDatum(monoid, psi, classify_root_types(monoid, psi), records)


def localize_datum(datum: LunaDatum, mu: WeightVec) -> LunaDatum:
    """The datum of the localization at mu: monoid localized, roots
    restricted to the Levi, divisors filtered to those pairing to zero
    with mu, stabilizers intersected with the Levi."""
    try:
        loc = datum.monoid.localize(mu)
    except MonoidError as exc:
        raise RecoveryError(str(exc)) from exc
    new_levi = loc.active_roots
    psi = make_spherical_roots(datum.rd, [
        g for g, supp in zip(datum.psi.roots, datum.psi.supports)
        if supp <= new_levi])
    table = classify_root_types(loc, psi)
    divisors = []
    for d in datum.divisors:
        if d.phi.eval_weight(mu) != 0:
            continue
        divisors.append(BDivisorRecord(
            d.divisor_id, d.phi,
            ParabolicSet(d.stabilizer.roots & new_levi),
            d.source, d.source_roots))
    return LunaDatum(loc, psi, table, tuple(divisors))
