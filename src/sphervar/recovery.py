"""Recovery of the B-divisor set from a weight monoid and spherical roots.

The divisors split into two groups.  Those attached to type-c and type-d
simple roots are written down directly from the root (one divisor per
root, or per partnered pair of d-roots).  The rest — the stable divisors
and the pairs attached to type-b roots — are recovered by walking the
faces of cone(M) from largest to smallest: at each face one of four
exclusive situations (1a, 1c, 2, 3) determines which new divisors appear
with which valuation functionals.  Each stabilizer follows from the
divisor's origin: a type-c, type-d or case-2 divisor is moved by exactly
the roots it was minted from, a class (1c) or case-3 divisor by the
type-b roots its functional pairs to one with.  A record carries its
functional on X and nothing else (see `recover_prime` for why).

Only the faces that can mint a divisor, warn or raise are walked.  A
face whose Levi is the type-a roots mints only if it is the whole cone
(1a, nothing) or a facet (1c); any other face mints only through a
type-b root alpha in its Levi (cases 2 and 3).  Every generator pairs
nonnegatively with the coroot of alpha, so the faces whose Levi holds
alpha are the faces of F_alpha, the face spanned by the generators the
coroot vanishes on.  Case 3 mints for alpha only at F_alpha itself.
Case 2 at a face strictly inside F_alpha fails its sign test: every
functional that vanishes on F_alpha vanishes on that face too, and at
F_alpha either one of them failed the test or case 2 minted a pair that
pairs to 1 with alpha.  So the walk visits the whole cone, the facets
whose Levi is the type-a roots, and each F_alpha, largest first: at
most 1 + #dual rays + #type-b roots nodes.

A node's case follows from how the node was found.  The whole cone is
case 1a: its Levi is the type-a roots, and no dual ray vanishes on it.
A facet whose Levi is the type-a roots is found as the zero set of one
dual ray, and is case 1c with that ray.  F_alpha is found with the
type-b roots whose coroots vanish on exactly its generators; those are
the roots case 3 tries there, and case 2 is tried when the Levi holds
no other root outside the type-a roots.

The walk computes on integers and builds no localized monoid.  A node is
a face, given by its minimal generators, and its weight mu, their integer
sum, lies in its relative interior; the localization at mu depends only
on that face (Bruns–Gubeladze, Polytopes, Rings and K-Theory, ch. 2).
On a facet exactly one dual ray of M vanishes, the class functional up
to scale: a facet normal of cone(M), held in the coordinates of X, with
its values on the minimal generators in the monoid's facet table.  Every
test of a recovered functional at a node (does it vanish at mu, whether
it pairs to 1 with a type-b root, its sign on the minimal generators off
the node) is a sign or equality test of n.c against the functional's
integer form (d, n), with phi = n.c / d at the coordinates c on the
basis of X of a root, a generator or mu, the sum of its face's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .luna import (
    BDivisorRecord,
    LatticeFunctional,
    LunaDatum,
    RootTypeTable,
    span_vector,
)
from .monoid import MonoidError, WeightMonoid
from .polyhedral import (
    Lattice,
    PolyhedralError,
    RationalCone,
    _clear_denominators,
    _dot,
    cached_property,
    exact,
    hilbert_basis_with_units,  # noqa: F401  bench/tracing.py wraps this name here
    primitive,
)
from .rootsys import ParabolicSet, WeightVec
from .spherical import (
    SphericalRootSet,
    classify_root_types,
    validate_roots_in_lattice,
)

# the rule for the faces of cone(M) that the walk skips, stated with its
# trace; the skipped faces are not counted, as that would enumerate them
SKIPPED_FACES = (
    "not walked: every face other than the whole cone, the facets whose "
    "Levi is the type-a roots and the face F_alpha where the coroot of a "
    "type-b root alpha vanishes; such a face mints no divisor")


class RecoveryError(ValueError):
    pass


@dataclass(frozen=True)
class RecursionNode:
    """Trace of one node of the recovery walk, a face of cone(M)."""

    subset: tuple[int, ...]
    mu: tuple[int, ...]
    levi_roots: tuple[int, ...]
    case: str
    minted: tuple[tuple[int | Fraction, ...], ...]


def _half_column(X: Lattice, i: int) -> tuple[int | Fraction, ...]:
    """The values on the basis of X of half the coroot of simple root i:
    column i of the basis, halved."""
    return tuple(exact(x, 2) for x in X.columns[i])


def recover_type_cd_divisors(m: WeightMonoid, psi: SphericalRootSet,
                             table: RootTypeTable) -> list[BDivisorRecord]:
    """Divisors attached to type-c and type-d roots: one per c-root with
    half the coroot, one per d-root or partnered d-pair with the coroot.
    The coroot of root i restricted to X is column i of its basis.  A
    table from `classify_root_types` partners d-roots only within equal
    columns, but `table` is the caller's, so a pair whose columns differ
    is refused here."""
    X = m.lattice
    out = [BDivisorRecord("?", LatticeFunctional(X, _half_column(X, i)), None,
                          "type_c", (i,))
           for i in table.roots_of_type("c")]
    done: set[int] = set()
    for i in table.roots_of_type("d"):
        if i in done:
            continue
        j = table.partner_of(i)
        if j is not None and X.columns[j] != X.columns[i]:
            raise RecoveryError(
                "invalid datum: partnered d-roots restrict differently "
                "to the weight lattice")
        roots = (i,) if j is None else tuple(sorted((i, j)))
        out.append(BDivisorRecord(
            "?", LatticeFunctional(X, X.columns[i]), None, "type_d", roots))
        done.update(roots)
    return out


def _facet_functional(X: Lattice, row, values) -> LatticeFunctional:
    """The class functional at a facet of cone(M) whose inward normal,
    nonnegative on M, takes the values `row` on the basis of X and
    `values` on the minimal generators: `row` over g0, the least positive
    value, so that it is 1 on the generator of the class monoid."""
    g0 = min(v for v in values if v)
    if any(v % g0 for v in values):
        raise RecoveryError(
            "invalid monoid: localized class monoid has no single generator")
    return LatticeFunctional(X, tuple(exact(b, g0) for b in row))


def _root_types(m: WeightMonoid, psi: SphericalRootSet) -> RootTypeTable:
    """`classify_root_types(m, psi)`, computed once per monoid and root
    set: the table is cached on the monoid, keyed by the roots.  It is
    the one thing the monoid holds that it does not derive itself, as it
    depends on the roots too."""
    tables = m.__dict__.setdefault("_root_types", {})
    table = tables.get(psi.roots)
    if table is None:
        table = tables[psi.roots] = classify_root_types(m, psi)
    return table


def recover_prime(m: WeightMonoid, psi: SphericalRootSet,
                  trace: list[RecursionNode] | None = None,
                  warnings: list[str] | None = None) -> list[BDivisorRecord]:
    """The stable divisors and the type-b divisor pairs, with their
    valuation functionals, recovered over the faces of cone(M) that can
    mint one (largest faces first, then by their generators): the whole
    cone, the facets whose Levi is the type-a roots, and for each type-b
    root alpha the face F_alpha where its coroot vanishes.  Each node is
    built once with what it is: the whole cone (case 1a), a facet with
    its dual ray (case 1c), or F_alpha with its type-b roots (case 2 or
    3).  At F_alpha a type-b root beta is in the Levi iff F_alpha lies in
    F_beta, and no generator outside F_alpha vanishes on beta iff F_beta
    lies in F_alpha, so the roots case 3 tries are exactly those found
    with the node.

    The roots are checked to lie in the weight lattice first.  The case-2
    sign test (every functional in the pool that vanishes on F_alpha is
    <= 0 on alpha; with `< 0` the same) fails exactly when one such
    functional exists, so it is written as "none vanishes on F_alpha".
    On a facet F_alpha such a one is a positive multiple of the coroot,
    2 on alpha.  Otherwise the coroot is a nonnegative sum of the normals
    of the facets through F_alpha; one is positive on alpha, so it is no
    F_beta (the coroot of beta is not), and that facet minted its
    functional first.

    Case 3 at F_alpha mints alpha^vee - base for each root alpha found
    there with a unique base, a functional in the pool that vanishes on
    F_alpha and pairs to 1 with alpha.  Three arguments leave it one
    check, `_check_node_pattern`:
    - Each pool functional is >= 0 on the minimal generators (a dual
      ray, half a coroot on dominant generators, or a case-3 one that
      passed the check), so the base vanishes on each generator of the
      node, as alpha^vee does, and so does what case 3 mints.
    - No base is a case-2 record: gamma^vee/2 pairs <gamma^vee, alpha>/2
      with alpha, which lies in X, and that is 1 iff gamma = alpha, as
      off-diagonal Cartan entries are <= 0; but case 2 mints for alpha
      only at F_alpha, and only when case 3 does not run there.
    - Nothing minted is in the pool already: if alpha^vee - base = r,
      r vanishing on F_alpha, then r pairs 2 - 1 = 1 with alpha, so r is
      the base, which is then alpha^vee/2 with zero set F_alpha.  But a
      class functional's zero set is a facet whose Levi omits alpha, the
      base is no case-2 record, and a case-3 one's zero set is its own
      node, each face being one node."""
    validate_roots_in_lattice(psi, m.lattice)
    rd = m.rd
    X = m.lattice
    gens = [g.int_coords() for g in m.minimal_generators]
    table = _root_types(m, psi)
    pi_a = frozenset(table.roots_of_type("a"))
    active = sorted(m.active_roots)

    def weight(face) -> tuple[int, ...]:
        return tuple(map(sum, zip(*(gens[j] for j in face)))) \
            if face else (0,) * X.dim

    def levi_of(mu) -> frozenset[int]:
        return frozenset(i for i in active if mu[i] == 0)

    # each node is (face, case, what found it): the whole cone, case 1a;
    # the facet where a dual ray vanishes, case 1c, with the ray's values
    # on X and on the generators; or F_alpha, case 2 or 3, with every
    # type-b root alpha whose coroot vanishes on exactly its generators
    rows = [m.facet_rows[g] for g in gens]
    nodes = [(tuple(range(len(gens))), "1a", None)]
    for k, row in enumerate(m.cone.facet_normals):
        values = [r[k] for r in rows]
        facet = tuple(j for j, v in enumerate(values) if v == 0)
        if levi_of(weight(facet)) == pi_a:
            nodes.append((facet, "1c", (row, values)))
    f_alphas: dict[tuple[int, ...], list[int]] = {}
    for alpha in table.roots_of_type("b"):
        f_alphas.setdefault(tuple(
            j for j, g in enumerate(gens) if g[alpha] == 0), []).append(alpha)
    nodes += [(face, "F_alpha", roots) for face, roots in f_alphas.items()]
    nodes.sort(key=lambda node: (-len(node[0]), node[0]))

    pool: list[BDivisorRecord] = []

    for face, case, found in nodes:
        mu = weight(face)
        levi = pi_a
        minted: list[BDivisorRecord] = []
        if case == "1c":
            minted.append(BDivisorRecord(
                "?", _facet_functional(X, *found), None, "case_1c", ()))
        elif case == "F_alpha":
            levi = levi_of(mu)
            c_mu = [sum(c) for c in zip(*(m.minimal_coords[j] for j in face))]
            overline = [rec for rec in pool
                        if _dot(rec.phi.integer_form[1], c_mu) == 0]
            # the roots found lie in levi - pi_a, so a lone root there is
            # the type-b root alpha; the sign test (every functional
            # vanishing at mu is <= 0 on alpha) holds iff none vanishes
            lone = len(levi - pi_a) == 1
            if lone and not overline:
                case = "2"
                (alpha,) = found
                phi = LatticeFunctional(X, _half_column(X, alpha))
                for _ in range(2):
                    minted.append(BDivisorRecord(
                        "?", phi, None, "case_2", (alpha,)))
            else:
                if lone and warnings is not None:
                    warnings.append(
                        "case-2 sign hypothesis failed at node "
                        f"{tuple(j + 1 for j in face)}; falling through")
                case = "3"
                # the roots that give one functional are grouped before
                # its record is built; `found` lists them in ascending order
                new: dict[tuple[int | Fraction, ...],
                          tuple[LatticeFunctional, list[int]]] = {}
                for alpha in found:
                    root = X.coords(rd.simple_root(alpha).int_coords())
                    ones = []
                    for rec in overline:
                        d, n = rec.phi.integer_form
                        if _dot(n, root) == d:
                            ones.append(rec)
                    if len(ones) != 1:
                        continue
                    phi = LatticeFunctional(X, X.columns[alpha]) - ones[0].phi
                    new.setdefault(phi.values, (phi, []))[1].append(alpha)
                for values in sorted(new):
                    phi, roots = new[values]
                    _check_node_pattern(phi, m.minimal_coords, face)
                    minted.append(BDivisorRecord(
                        "?", phi, None, "case_3", tuple(roots)))
        pool.extend(minted)
        if trace is not None:
            trace.append(RecursionNode(
                tuple(j + 1 for j in face), mu, tuple(sorted(levi)), case,
                tuple(r.phi.values for r in minted)))
    return pool


def _check_node_pattern(phi: LatticeFunctional, gen_coords, face) -> None:
    """A case-3 divisor must be positive on every minimal generator
    (given by its coordinates on X) off its node's face; on the face it
    vanishes, as its base and the coroot do (see `recover_prime`)."""
    _, n = phi.integer_form
    for j, c in enumerate(gen_coords):
        if j not in face and _dot(n, c) <= 0:
            raise RecoveryError(
                "invalid datum: recovered divisor escapes its node")


def stabilizers_of(recs: list[BDivisorRecord], table: RootTypeTable,
                   m: WeightMonoid) -> list[ParabolicSet]:
    """The parabolic stabilizer of each record, which follows from the
    origin of the divisor.

    A type-c, type-d or case-2 divisor is moved by exactly the roots it
    was minted from: its functional is the coroot of such a root alpha,
    or half of it, and <alpha^vee, beta> = 2 only for beta = alpha, as
    every off-diagonal Cartan entry is <= 0.  A class divisor (case 1c)
    or a case-3 divisor is moved by the type-b roots that pair to one
    with its functional; an empty set means the divisor is stable under
    the whole group.  Each type-b root is read into the coordinates c
    of the lattice once, before any record (`span_vector`), and a
    functional with integer form (d, n) pairs to one with it iff
    n.c = d.
    """
    b_roots = [(beta, span_vector(m.lattice, m.rd.simple_root(beta).coords))
               for beta in table.roots_of_type("b")]
    active = frozenset(m.active_roots)
    return [_stabilizer(rec, b_roots, active) for rec in recs]


def _stabilizer(rec: BDivisorRecord, b_roots, active) -> ParabolicSet:
    if rec.source in ("type_c", "type_d", "case_2"):
        return ParabolicSet(active - frozenset(rec.source_roots))
    if rec.source not in ("case_1c", "case_3"):
        raise RecoveryError(f"unknown divisor source {rec.source!r}")
    d, n = rec.phi.integer_form
    return ParabolicSet(active - frozenset(
        beta for beta, c in b_roots if _dot(n, c) == d))


def recover_divisors(m: WeightMonoid, psi: SphericalRootSet,
                     trace: list[RecursionNode] | None = None,
                     warnings: list[str] | None = None) -> LunaDatum:
    """Full divisor recovery: the recursive walk plus the c/d divisors,
    each built once with its id and stabilizer, assembled and validated."""
    recs = recover_prime(m, psi, trace, warnings)
    table = _root_types(m, psi)
    recs += recover_type_cd_divisors(m, psi, table)
    stabilizers = stabilizers_of(recs, table, m)
    ordered = sorted(zip(recs, stabilizers), key=lambda rp: (
        rp[0].phi.values, rp[0].source, rp[0].source_roots))
    final = tuple(BDivisorRecord(f"D{i + 1}", r.phi, p, r.source,
                                 r.source_roots)
                  for i, (r, p) in enumerate(ordered))
    datum = LunaDatum(m, psi, table, final)
    report = validate_luna_datum(datum)
    if not report.passed:
        raise RecoveryError(
            "recovered datum fails validation: "
            + "; ".join(f"{c}: {d}" for c, d in report.violations))
    if warnings is not None:
        warnings.extend(report.warnings)
    return datum


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    passed: bool = True
    violations: list[tuple[str, str]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def fail(self, code: str, detail: str) -> None:
        self.passed = False
        self.violations.append((code, detail))


def validate_luna_datum(datum: LunaDatum) -> ValidationReport:
    """Check the structural constraints a divisor set must satisfy against
    its monoid, root types and spherical roots."""
    rep = ValidationReport()
    rd = datum.rd
    m = datum.monoid
    X = m.lattice
    table = datum.type_table
    n_active = sorted(datum.levi_roots)

    # (i) every functional is nonnegative on the monoid and kills units;
    # generators and units lie in X, where phi has the sign of n.c
    for d in datum.divisors:
        n = d.phi.integer_form[1]
        if any(_dot(n, c) < 0 for c in m.gen_coords):
            rep.fail("phi_nonnegative",
                     f"{d.divisor_id} is negative on a monoid generator")
        if any(_dot(n, c) for c in m.unit_coords):
            rep.fail("phi_invertible_vanishing",
                     f"{d.divisor_id} does not vanish on the invertible part")

    # type-a roots move no divisor
    for i in table.roots_of_type("a"):
        moved = datum.divisors_moved_by(i)
        if moved:
            rep.fail("type_a_moved",
                     f"type-a root {i + 1} moves {moved[0].divisor_id}")

    # (ii) type-b pairs; the coroot of root i on X is column i of its
    # basis, and each root is read into the coordinates of X once
    for i in table.roots_of_type("b"):
        alpha = rd.simple_root(i)
        moved = datum.divisors_moved_by(i)
        if len(moved) != 2:
            rep.fail("b_pair_count",
                     f"type-b root {i + 1} moves {len(moved)} divisors, not 2")
            continue
        c = span_vector(X, alpha.coords)
        bad_pairing = [d for d in moved if _dot(d.phi.integer_form[1], c)
                       != d.phi.integer_form[0]]
        if bad_pairing:
            rep.fail("b_pair_pairing",
                     f"divisor {bad_pairing[0].divisor_id} pairs "
                     f"{bad_pairing[0].phi.eval_weight(alpha)} with type-b "
                     f"root {i + 1}, not 1")
        total = moved[0].phi + moved[1].phi
        if total.values != X.columns[i]:
            rep.fail("b_pair_sum",
                     f"functionals at type-b root {i + 1} do not sum to the coroot")

    # (iii) type-c roots
    for i in table.roots_of_type("c"):
        moved = datum.divisors_moved_by(i)
        if len(moved) != 1:
            rep.fail("c_count",
                     f"type-c root {i + 1} moves {len(moved)} divisors, not 1")
            continue
        if moved[0].phi.values != _half_column(X, i):
            rep.fail("c_phi",
                     f"type-c divisor at root {i + 1} is not half the coroot")

    # (iv) type-d roots
    for i in table.roots_of_type("d"):
        moved = datum.divisors_moved_by(i)
        if len(moved) != 1:
            rep.fail("d_count",
                     f"type-d root {i + 1} moves {len(moved)} divisors, not 1")
            continue
        if moved[0].phi.values != X.columns[i]:
            rep.fail("d_phi",
                     f"type-d divisor at root {i + 1} is not the coroot")
        partner = table.partner_of(i)
        allowed = {frozenset({i})} | \
            ({frozenset({i, partner})} if partner is not None else set())
        got = moved[0].moved_roots(rd.n_simple) & frozenset(n_active)
        if got not in allowed:
            rep.fail("d_stabilizer",
                     f"type-d divisor at root {i + 1} has moved set "
                     f"{sorted(x + 1 for x in got)}")

    # shared divisors must pair compatible root types
    for d in datum.divisors:
        moved = sorted(d.moved_roots(rd.n_simple) & frozenset(n_active))
        types = {table.type_of(i) for i in moved}
        if len(moved) >= 2:
            if types == {"b"}:
                pass
            elif types == {"d"} and len(moved) == 2 and \
                    table.partner_of(moved[0]) == moved[1]:
                pass
            else:
                rep.fail("sharing",
                         f"divisor {d.divisor_id} is moved by an incompatible "
                         f"set of roots {[x + 1 for x in moved]}")

    # (v) sign constraint for elementary-form roots: each root is read
    # into the coordinates of X once, where the first divisor it is read
    # on asks for it, and phi has the sign of n.c there
    for g, tag in zip(datum.psi.roots, datum.psi.forms):
        if tag.kind == "none":
            continue
        alpha1 = tag.roots[0]
        c = None
        for d in datum.divisors:
            if alpha1 in d.stabilizer.roots:
                if c is None:
                    c = span_vector(X, g.coords)
                if _dot(d.phi.integer_form[1], c) > 0:
                    rep.fail("lemma_sign",
                             f"divisor {d.divisor_id} outside the moved set "
                             "of an elementary root pairs positively with it")

    # (vi) monoid recovery from the divisor half-spaces, for saturated M.
    # A violation needs the identity failing and M saturated, so the
    # identity, read off the facets, is asked first, and the normality
    # test only when it fails.  A refused normality test is a warning:
    # the check could have failed and was not run.
    if not _monoid_recovery_identity(datum):
        try:
            saturated = m.is_saturated()
        except MonoidError:
            rep.warnings.append("saturation not checked (lattice too large)")
        else:
            if saturated:
                rep.fail("monoid_recovery",
                         "the monoid is not cut out of its lattice by the "
                         "divisor functionals")

    # diagnostic: a locally-effective datum with the root supports and the
    # type-a set covering everything must already be covered by supports
    supports = set().union(*datum.psi.supports)
    pia = set(table.roots_of_type("a"))
    if pia | supports == set(n_active) and supports != set(n_active) and pia:
        rep.warnings.append(
            "type-a roots complete the support cover; for a locally "
            "effective action the supports alone should cover")
    return rep


def _monoid_recovery_identity(datum: LunaDatum) -> bool:
    """Whether the divisor functionals cut the monoid out of its lattice
    X, on the side check (i) leaves open: X ∩ K lies in M, where K is the
    cut cone {phi_D >= 0 for every D}.  For saturated M, which is
    X ∩ C with C = cone(M), that holds iff K lies in C, since a rational
    cone is the cone over its lattice points (Bruns–Gubeladze, Polytopes,
    Rings and K-Theory, ch. 2).  What is returned is whether K lies in C,
    for any M; check (vi) reads it only together with saturation.

    By cone duality in X_Q, K ⊆ C iff C^∨ ⊆ K^∨ = cone(Phi), Phi the set
    of functionals.  C spans X_Q, so C^∨ is pointed and its extreme rays
    are the facet normals of C, which the monoid holds in the coordinates
    of X, primitive.  Hence if each is the primitive form of some phi_D,
    then C^∨ ⊆ cone(Phi) and the identity holds.  Otherwise cone(Phi) is
    built in the coordinates of X, and the identity holds iff it
    contains every facet normal.

    The facet table decides alone wherever check (i) passed.  There every
    phi_D is >= 0 on M, so cone(Phi) ⊆ C^∨, and C^∨ ⊆ cone(Phi) holds
    only if the two are equal.  Then each extreme ray of the pointed C^∨,
    a facet normal, is an extreme ray of cone(Phi), and so a multiple of
    some phi_D.  Hence cone(Phi), built only where some facet normal is
    not, returns True only when check (i) failed; that is also why
    check (vi) may ask this before the normality test.
    """
    m = datum.monoid
    normals = m.cone.facet_normals
    phis = {primitive(d.phi.values) for d in datum.divisors if any(d.phi.values)}
    if all(n in phis for n in normals):
        return True
    phi_cone = RationalCone.from_generators(
        [d.phi.values for d in datum.divisors], dim=m.lattice.rank)
    return all(map(phi_cone.contains, normals))


# ---------------------------------------------------------------------------
# moment polytopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentPolytope:
    """The polytope P = {lambda : <lambda, phi_D> >= -ord_D for every D}
    in the rational span of the weight lattice, translated by a base
    weight.

    Each row of `rows` is an inequality (n, c) . (x, t) >= 0 on lattice
    coordinates x: a half-space as the values of phi_D on the lattice
    basis and ord_D, times their common denominator, and last the row
    t >= 0.  Together they cut out the homogenization of P, the cone
    whose section at t = 1 is P.  Every query reads one vertex
    description of it (`_description`), computed on first use and kept
    on the instance.

    A ray (x, t) of the cone with t > 0 is a vertex x / t of P, one with
    t = 0 a recession ray, and the cone's lines all have t = 0 and are
    the lines of P.  The cone's rays are taken orthogonal to its
    lineality, so with L the lineality space of P, P = (P ∩ L^⊥) + L
    (Schrijver, Theory of Linear and Integer Programming, 1986, ch. 8)
    and `vertices_ambient` gives the vertices of P ∩ L^⊥, ⊥ taken in the
    coordinates of the lattice basis; `rays_ambient` gives the recession
    rays and each line l as the two rays l and -l.  Hence P is the
    convex hull of the vertices plus the cone over the rays.
    """

    rows: tuple[tuple[int, ...], ...]
    lattice: Lattice
    base: WeightVec

    @cached_property
    def _description(self) -> tuple[list[tuple[int | Fraction, ...]],
                                    list[tuple[int, ...]]]:
        """(vertices, rays) in ambient coordinates, each sorted: the
        vertices moved by the base, and each line as two opposite rays.
        The queries return these lists themselves, not copies."""
        X = self.lattice
        cone = RationalCone.from_inequalities(self.rows, dim=X.rank + 1)
        verts, rays = [], []
        for l in cone.lineality:
            if l[-1] != 0:
                raise PolyhedralError("internal: homogenization lineality hits t!=0")
            amb = X.from_coords(l[:-1])
            rays += [amb, tuple(-x for x in amb)]
        for r in cone.rays:
            t = r[-1]
            if t < 0:
                raise PolyhedralError("internal: homogenization ray with t<0")
            amb = X.from_coords(r[:-1])
            if t:
                verts.append(tuple(exact(y + t * b, t)
                                   for y, b in zip(amb, self.base.coords)))
            else:
                rays.append(amb)
        return sorted(verts), sorted(rays)

    def vertices_ambient(self) -> list[tuple[int | Fraction, ...]]:
        return self._description[0]

    def rays_ambient(self) -> list[tuple[int, ...]]:
        return self._description[1]

    def is_bounded(self) -> bool:
        verts, rays = self._description
        return not verts or not rays

    def is_empty(self) -> bool:
        return not self._description[0]


def moment_polytope(datum: LunaDatum, base: WeightVec,
                    orders: dict[str, int]) -> MomentPolytope:
    """The polytope {lambda : <lambda, phi_D> >= -ord_D} + base, one
    half-space per divisor."""
    X = datum.monoid.lattice
    rows = []
    for d in datum.divisors:
        if d.divisor_id not in orders:
            raise RecoveryError(f"no order given for divisor {d.divisor_id}")
        order = int(orders[d.divisor_id])
        rows.append(tuple(_clear_denominators(d.phi.values + (order,))[1]))
    rows.append((0,) * X.rank + (1,))
    return MomentPolytope(tuple(rows), X, base)
