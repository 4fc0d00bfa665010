"""Recovery of the B-divisor set from a weight monoid and spherical roots.

The divisors split into two groups.  Those attached to type-c and type-d
simple roots are written down directly from the root (one divisor per
root, or per partnered pair of d-roots).  The rest — the stable divisors
and the pairs attached to type-b roots — are recovered by walking the
faces of cone(M) from largest to smallest: at each face one of four
exclusive situations (1a, 1c, 2, 3) determines which new divisors appear
with which valuation functionals.  Stabilizers are then read off from
the pairing of the functional against the type-b roots.

Only the faces that can mint a divisor, warn or raise are walked.  A
face whose Levi is the type-a roots mints only if it is the whole cone
(1a, nothing) or a facet (1c); any other face mints only through a
type-b root alpha in its Levi (cases 2 and 3).  Every generator pairs
nonnegatively with the coroot of alpha, so the faces whose Levi holds
alpha are the faces of F_alpha, the face spanned by the generators the
coroot vanishes on.  The walk visits the whole cone, the facets whose
Levi is the type-a roots, and the faces inside some F_alpha, in the order
of the full face walk; the faces it skips add nothing to the pool that
later faces read.

The walk computes on integers and builds no localized monoid.  A node is
a face, given by its minimal generators, and its weight mu, their integer
sum, lies in its relative interior; the localization at mu depends only
on that face (Bruns–Gubeladze, Polytopes, Rings and K-Theory, ch. 2).
The faces are the intersections of the zero sets of the dual rays of M
(Kaibel–Pfetsch, Comput. Geom. 23, 2002), so each comes with the rays
vanishing on it: none on the whole cone, and on a facet exactly one, the
class functional up to scale.  A smaller face whose Levi is the type-a
roots has two or more, mints nothing and is not walked.  Every test of a
recovered functional at a node (does it vanish at mu, its sign at a
type-b root, whether it pairs to 1 with one, its pattern on the minimal
generators) is a sign or equality test of w.v against the functional's
integer form (d, w): d > 0 and w an integer covector on the pivot
columns of the lattice basis, with phi(v) = w.v / d (see `sphervar.luna`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .luna import (
    BDivisorRecord,
    LatticeFunctional,
    LunaDatum,
    LunaError,
    RootTypeTable,
)
from .monoid import MonoidError, WeightMonoid
from .polyhedral import (
    Lattice,
    Polytope,
    RationalCone,
    _dot,
    exact,
    hilbert_basis_with_units,  # noqa: F401  bench/tracing.py wraps this name here
    primitive,
)
from .rootsys import CovectorVec, ParabolicSet, RootData, WeightVec, pairing, support
from .spherical import (
    SphericalRootSet,
    classify_root_types,
    elementary_forms,
    make_spherical_roots,
    validate_roots_in_lattice,
)

MAX_FACES = 4096
# the rule for the faces of cone(M) that the walk skips, stated with its
# trace; the skipped faces are not counted, as that would enumerate them
SKIPPED_FACES = (
    "not walked: every face other than the whole cone that is neither a "
    "facet whose Levi is the type-a roots nor a face whose Levi holds a "
    "type-b root; such a face mints no divisor")


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


def _half_coroot(rd: RootData, i: int) -> CovectorVec:
    return rd.simple_coroot(i).scale(Fraction(1, 2))


def recover_type_cd_divisors(m: WeightMonoid, psi: SphericalRootSet,
                             table: RootTypeTable) -> list[BDivisorRecord]:
    """Divisors attached to type-c and type-d roots: one per c-root with
    half the coroot, one per d-root or partnered d-pair with the coroot."""
    rd = m.rd
    X = m.lattice
    out: list[BDivisorRecord] = []
    for i in table.roots_of_type("c"):
        cov = _half_coroot(rd, i)
        phi = LatticeFunctional.from_covector(cov, X)
        out.append(BDivisorRecord("?", phi, None, "type_c", (i,), cov))
    done: set[int] = set()
    for i in table.roots_of_type("d"):
        if i in done:
            continue
        j = table.partner_of(i)
        cov = rd.simple_coroot(i)
        phi = LatticeFunctional.from_covector(cov, X)
        if j is None:
            out.append(BDivisorRecord("?", phi, None, "type_d", (i,), cov))
            done.add(i)
        else:
            phi_j = LatticeFunctional.from_covector(rd.simple_coroot(j), X)
            if phi_j.values != phi.values:
                raise RecoveryError(
                    "invalid datum: partnered d-roots restrict differently "
                    "to the weight lattice")
            out.append(BDivisorRecord(
                "?", phi, None, "type_d", tuple(sorted((i, j))), cov))
            done.update((i, j))
    return out


def _facet_functional(X: Lattice, ray, ray_coords, gens) -> LatticeFunctional:
    """The class functional at a facet of cone(M) with inward normal
    `ray`: the ray on the basis of X (`ray_coords`) divided by g0, its
    least positive value on the minimal generators `gens`, so that it is
    1 on the generator of the localized class monoid.  The ray is
    nonnegative on M and positive on some minimal generator."""
    values = [_dot(ray, g) for g in gens]
    g0 = min(v for v in values if v)
    if any(v % g0 for v in values):
        raise RecoveryError(
            "invalid monoid: localized class monoid has no single generator")
    return LatticeFunctional(X, tuple(exact(x, g0) for x in ray_coords))


def _root_types(m: WeightMonoid, psi: SphericalRootSet) -> RootTypeTable:
    """`classify_root_types(m, psi)`, computed once per monoid and root
    set: the table is cached on the monoid, keyed by the roots, the way
    `WeightMonoid.localize` seeds `_dual_rays`."""
    tables = m.__dict__.setdefault("_root_types", {})
    table = tables.get(psi.roots)
    if table is None:
        table = tables[psi.roots] = classify_root_types(m, psi)
    return table


def _faces(k: int, zeros, facets, inner) -> list[tuple[int, ...]]:
    """The faces of a cone over k generators that the walk visits, as
    the indices of the generators on each, largest first and then
    lexicographic: the whole cone, the `facets`, and every face inside
    one of the faces `inner`.  Faces are bitmasks of generators, and
    `zeros` holds the zero set of each dual ray.  The faces inside F are
    F cut with any of those zero sets (Kaibel–Pfetsch): F is cut with
    each zero set in turn, and so is every face found so far."""
    def check(faces: set[int]) -> None:
        if len(faces) > MAX_FACES:
            raise RecoveryError(
                f"recovery limited to {MAX_FACES} faces of the weight cone")

    faces = {(1 << k) - 1, *facets, *inner}
    check(faces)
    for face in inner:
        below = {face}
        for zero in zeros:
            below |= {f & zero for f in below}
            faces |= below
            check(faces)
    nodes = [tuple(j for j in range(k) if face >> j & 1) for face in faces]
    return sorted(nodes, key=lambda node: (-len(node), node))


def recover_prime(m: WeightMonoid, psi: SphericalRootSet,
                  trace: list[RecursionNode] | None = None,
                  warnings: list[str] | None = None) -> list[BDivisorRecord]:
    """The stable divisors and the type-b divisor pairs, with their
    valuation functionals, recovered over the faces of cone(M) that can
    mint one (largest faces first): the whole cone, the facets whose
    Levi is the type-a roots, and the faces whose Levi holds a type-b
    root."""
    rd = m.rd
    X = m.lattice
    gens = [g.int_coords() for g in m.minimal_generators]
    rays = m._dual_rays
    table = _root_types(m, psi)
    pi_a = frozenset(table.roots_of_type("a"))
    pi_b = frozenset(table.roots_of_type("b"))
    active = sorted(m.active_roots)
    zeros = [sum(1 << j for j, g in enumerate(gens) if _dot(r, g) == 0)
             for r in rays]

    def weight(subset) -> tuple[int, ...]:
        return tuple(map(sum, zip(*(gens[i] for i in subset)))) \
            if subset else (0,) * X.dim

    def levi_of(mu) -> frozenset[int]:
        return frozenset(i for i in active if mu[i] == 0)

    if any(g[alpha] < 0 for g in gens for alpha in pi_b):
        raise RecoveryError(
            "invalid monoid: a minimal generator is negative on a type-b root")
    facets = [z for z in zeros if levi_of(weight(
        [j for j in range(len(gens)) if z >> j & 1])) == pi_a]
    # F_alpha: alpha's coroot is nonnegative on M, so the generators it
    # vanishes on span the face holding every face whose Levi holds alpha
    inner = {sum(1 << j for j, g in enumerate(gens) if g[alpha] == 0)
             for alpha in pi_b}
    nodes = _faces(len(gens), zeros, facets, inner)
    ray_coords = [tuple(_dot(r, b) for b in X.basis) for r in rays]
    root_vecs = {alpha: rd.simple_root(alpha).int_coords() for alpha in pi_b}

    def root_pairing(rec: BDivisorRecord, alpha: int) -> tuple[int, int]:
        """(w.alpha, d) for the integer form (d, w) of the functional."""
        a = root_vecs[alpha]
        if not X.in_span(a):
            raise LunaError("vector outside the lattice span")
        d, w = rec.phi.integer_form
        return _dot(w, a), d

    pool: list[BDivisorRecord] = []

    for subset in nodes:
        mu = weight(subset)
        levi = levi_of(mu)
        minted: list[BDivisorRecord] = []
        case = ""
        if levi == pi_a:
            # the whole cone or a facet: no dual ray or exactly one
            face = sum(1 << j for j in subset)
            vanishing = [i for i, z in enumerate(zeros) if face & z == face]
            if not vanishing:
                case = "1a"
            else:
                case = "1c"
                (facet,) = vanishing
                phi = _facet_functional(X, rays[facet], ray_coords[facet], gens)
                _check_node_pattern(phi, gens, subset)
                minted.append(BDivisorRecord("?", phi, None, "case_1c", ()))
        else:
            overline = [rec for rec in pool
                        if _dot(rec.phi.integer_form[1], mu) == 0]
            extra = levi - pi_a
            case2 = False
            if len(extra) == 1:
                (alpha,) = extra
                if alpha in pi_b:
                    if all(root_pairing(rec, alpha)[0] <= 0
                           for rec in overline):
                        case = "2"
                        case2 = True
                        cov = _half_coroot(rd, alpha)
                        phi = LatticeFunctional.from_covector(cov, X)
                        _check_node_pattern(phi, gens, subset)
                        for _ in range(2):
                            minted.append(BDivisorRecord(
                                "?", phi, None, "case_2", (alpha,), cov))
                    elif warnings is not None:
                        warnings.append(
                            "case-2 sign hypothesis failed at node "
                            f"{tuple(i + 1 for i in subset)}; "
                            "falling through")
            if not case2:
                case = "3"
                excluded = {alpha for alpha in levi if any(
                    g[alpha] == 0 for j, g in enumerate(gens) if j not in subset)}
                new: dict[tuple[int | Fraction, ...],
                          tuple[list[int], BDivisorRecord]] = {}
                for alpha in sorted((levi & pi_b) - excluded):
                    ones = []
                    for rec in overline:
                        num, d = root_pairing(rec, alpha)
                        if num == d:
                            ones.append(rec)
                    if len(ones) != 1:
                        continue
                    base = ones[0]
                    phi = LatticeFunctional.from_covector(
                        rd.simple_coroot(alpha), X) - base.phi
                    cov = rd.simple_coroot(alpha) - base.coroot_form \
                        if base.coroot_form is not None else None
                    if phi.values in new:
                        new[phi.values][0].append(alpha)
                    else:
                        new[phi.values] = ([alpha], BDivisorRecord(
                            "?", phi, None, "case_3", (), cov))
                for values in sorted(new):
                    roots, rec = new[values]
                    if any(r.phi.values == values for r in overline):
                        raise RecoveryError(
                            "invalid datum: reconstructed divisor "
                            "duplicates a recovered one")
                    _check_node_pattern(rec.phi, gens, subset)
                    minted.append(BDivisorRecord(
                        "?", rec.phi, None, "case_3",
                        tuple(sorted(roots)), rec.coroot_form))
        pool.extend(minted)
        if trace is not None:
            trace.append(RecursionNode(
                tuple(i + 1 for i in subset), mu,
                tuple(sorted(levi)), case or "-",
                tuple(r.phi.values for r in minted)))
    return pool


def _check_node_pattern(phi: LatticeFunctional, gens, subset) -> None:
    """A divisor recovered at a node must pair to zero with exactly the
    node's minimal generators (given as integer vectors)."""
    _, w = phi.integer_form
    for j, g in enumerate(gens):
        v = _dot(w, g)
        if j in subset and v != 0:
            raise RecoveryError(
                "invalid datum: recovered divisor does not vanish on its node")
        if j not in subset and v <= 0:
            raise RecoveryError(
                "invalid datum: recovered divisor escapes its node")


def stabilizer_of(rec: BDivisorRecord, table: RootTypeTable,
                  m: WeightMonoid) -> ParabolicSet:
    """The parabolic stabilizer, from the origin of the divisor.

    For the recovered (stable or type-b) divisors the moved roots are the
    type-b roots pairing to one with the functional; an empty set means
    the divisor is stable under the whole group.
    """
    rd = m.rd
    active = frozenset(m.active_roots)
    if rec.source in ("case_1c", "case_2", "case_3"):
        moved = set()
        for beta in table.roots_of_type("b"):
            if rec.phi.eval_weight(rd.simple_root(beta)) == 1:
                moved.add(beta)
        if rec.coroot_form is not None:
            cross = set()
            for beta in active:
                if pairing(rec.coroot_form, rd.simple_root(beta)) == 1:
                    cross.add(beta)
            if cross != moved:
                raise RecoveryError(
                    "invalid datum: coroot presentation moves roots "
                    f"{sorted(cross)} but the functional moves {sorted(moved)}")
        if rec.source == "case_2" and moved != set(rec.source_roots):
            raise RecoveryError(
                "invalid datum: a type-b pair divisor moves unexpected roots")
        return ParabolicSet(active - frozenset(moved))
    if rec.source == "type_c":
        (alpha,) = rec.source_roots
        cross = {beta for beta in active
                 if pairing(rec.coroot_form, rd.simple_root(beta)) == 1}
        if cross != {alpha}:
            raise RecoveryError(
                "invalid datum: type-c divisor moves roots other than its root")
        return ParabolicSet(active - {alpha})
    if rec.source == "type_d":
        return ParabolicSet(active - frozenset(rec.source_roots))
    raise RecoveryError(f"unknown divisor source {rec.source!r}")


def recover_divisors(m: WeightMonoid, psi: SphericalRootSet,
                     trace: list[RecursionNode] | None = None,
                     warnings: list[str] | None = None) -> LunaDatum:
    """Full divisor recovery: the recursive walk plus the c/d divisors,
    stabilizers filled in, assembled and validated."""
    validate_roots_in_lattice(psi, m.lattice)
    table = _root_types(m, psi)
    recs = recover_prime(m, psi, trace, warnings) \
        + recover_type_cd_divisors(m, psi, table)
    recs = [r.with_stabilizer(stabilizer_of(r, table, m)) for r in recs]
    recs.sort(key=lambda r: (r.phi.values, r.source, r.source_roots))
    final = [BDivisorRecord(f"D{i + 1}", r.phi, r.stabilizer, r.source,
                            r.source_roots, r.coroot_form)
             for i, r in enumerate(recs)]
    datum = LunaDatum(m.rd, m, psi.roots, table, tuple(final),
                      frozenset(m.active_roots))
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
    psi = SphericalRootSet(rd, datum.psi)
    n_active = sorted(datum.levi_roots)

    # (i) every functional is nonnegative on the monoid and kills units;
    # generators and units lie in X, where phi has the sign of w.v
    for d in datum.divisors:
        w = d.phi.integer_form[1]
        if any(_dot(w, g) < 0 for g in m.gen_vectors):
            rep.fail("phi_nonnegative",
                     f"{d.divisor_id} is negative on a monoid generator")
        if any(_dot(w, b) for b in m.invertible_lattice.basis):
            rep.fail("phi_invertible_vanishing",
                     f"{d.divisor_id} does not vanish on the invertible part")

    # type-a roots move no divisor
    for i in table.roots_of_type("a"):
        moved = datum.divisors_moved_by(i)
        if moved:
            rep.fail("type_a_moved",
                     f"type-a root {i + 1} moves {moved[0].divisor_id}")

    # (ii) type-b pairs
    for i in table.roots_of_type("b"):
        alpha = rd.simple_root(i)
        moved = datum.divisors_moved_by(i)
        if len(moved) != 2:
            rep.fail("b_pair_count",
                     f"type-b root {i + 1} moves {len(moved)} divisors, not 2")
            continue
        bad_pairing = [d for d in moved if d.phi.eval_weight(alpha) != 1]
        if bad_pairing:
            rep.fail("b_pair_pairing",
                     f"divisor {bad_pairing[0].divisor_id} pairs "
                     f"{bad_pairing[0].phi.eval_weight(alpha)} with type-b "
                     f"root {i + 1}, not 1")
        total = moved[0].phi + moved[1].phi
        coroot = LatticeFunctional.from_covector(rd.simple_coroot(i), X)
        if total.values != coroot.values:
            rep.fail("b_pair_sum",
                     f"functionals at type-b root {i + 1} do not sum to the coroot")

    # (iii) type-c roots
    for i in table.roots_of_type("c"):
        moved = datum.divisors_moved_by(i)
        if len(moved) != 1:
            rep.fail("c_count",
                     f"type-c root {i + 1} moves {len(moved)} divisors, not 1")
            continue
        half = LatticeFunctional.from_covector(_half_coroot(rd, i), X)
        if moved[0].phi.values != half.values:
            rep.fail("c_phi",
                     f"type-c divisor at root {i + 1} is not half the coroot")

    # (iv) type-d roots
    for i in table.roots_of_type("d"):
        moved = datum.divisors_moved_by(i)
        if len(moved) != 1:
            rep.fail("d_count",
                     f"type-d root {i + 1} moves {len(moved)} divisors, not 1")
            continue
        coroot = LatticeFunctional.from_covector(rd.simple_coroot(i), X)
        if moved[0].phi.values != coroot.values:
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

    # (v) sign constraint for elementary-form roots
    tags = elementary_forms(psi, rd)
    for g, tag in zip(datum.psi, tags):
        if tag.kind == "none":
            continue
        alpha1 = tag.roots[0]
        moved_ids = {d.divisor_id for d in datum.divisors_moved_by(alpha1)}
        for d in datum.divisors:
            if d.divisor_id in moved_ids:
                continue
            if d.phi.eval_weight(g) > 0:
                rep.fail("lemma_sign",
                         f"divisor {d.divisor_id} outside the moved set of an "
                         "elementary root pairs positively with it")

    # (vi) monoid recovery from the divisor half-spaces (saturated case)
    try:
        saturated = m.is_saturated()
    except MonoidError:
        saturated = None
        rep.warnings.append("saturation not checked (lattice too large)")
    if saturated:
        if not _monoid_recovery_identity(datum):
            rep.fail("monoid_recovery",
                     "the monoid is not cut out of its lattice by the "
                     "divisor functionals")

    # diagnostic: a locally-effective datum with the root supports and the
    # type-a set covering everything must already be covered by supports
    supports: set[int] = set()
    for g in datum.psi:
        supports |= set(support(g, rd))
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
    Rings and K-Theory, ch. 2).

    By cone duality in X_Q, K ⊆ C iff C^∨ ⊆ K^∨ = cone(Phi), Phi the set
    of functionals.  C spans X_Q, so C^∨ is pointed and its extreme rays
    are the facet normals of C, the dual rays of M read on the basis of
    X.  Hence if every such ray, made primitive, is the primitive form of
    some phi_D, then C^∨ ⊆ cone(Phi) and the identity holds.  Otherwise
    the cut cone is built in the coordinates of X, and lies in C iff its
    rays and both signs of its lineality vectors do, read as weights.
    """
    m = datum.monoid
    X = m.lattice
    phis = {primitive(d.phi.values) for d in datum.divisors if any(d.phi.values)}
    if all(primitive([_dot(r, b) for b in X.basis]) in phis
           for r in m._dual_rays):
        return True
    cut = RationalCone.from_inequalities(
        [d.phi.values for d in datum.divisors], dim=X.rank)
    lines = cut.lineality + tuple(tuple(-x for x in v) for v in cut.lineality)
    return all(m.cone.contains(X.from_coords(v)) for v in cut.rays + lines)


# ---------------------------------------------------------------------------
# localization of a datum and moment polytopes
# ---------------------------------------------------------------------------

def localize_datum(datum: LunaDatum, mu: WeightVec) -> LunaDatum:
    """The datum of the localization at mu: monoid localized, roots
    restricted to the Levi, divisors filtered to those pairing to zero
    with mu, stabilizers intersected with the Levi."""
    try:
        loc = datum.monoid.localize(mu)
    except MonoidError as exc:
        raise RecoveryError(str(exc)) from exc
    new_levi = loc.active_roots
    rd = datum.rd
    new_roots = []
    for g in datum.psi:
        if support(g, rd) <= new_levi:
            new_roots.append(g)
    psi = make_spherical_roots(rd, new_roots)
    table = classify_root_types(loc, psi)
    divisors = []
    for d in datum.divisors:
        if d.phi.eval_weight(mu) != 0:
            continue
        divisors.append(BDivisorRecord(
            d.divisor_id, d.phi,
            ParabolicSet(d.stabilizer.roots & new_levi),
            d.source, d.source_roots, d.coroot_form))
    return LunaDatum(rd, loc, psi.roots, table, tuple(divisors), new_levi)


@dataclass(frozen=True)
class MomentPolytope:
    """Half-space description of a moment polytope inside the rational
    span of the weight lattice, translated by a base weight."""

    polytope: Polytope
    lattice: Lattice
    base: WeightVec

    def vertices_ambient(self) -> list[tuple[int | Fraction, ...]]:
        out = []
        for v in self.polytope.vertices():
            amb = self.lattice.from_coords(v)
            out.append(tuple(exact(a + b) for a, b in zip(amb, self.base.coords)))
        return sorted(out)

    def rays_ambient(self) -> list[tuple[int, ...]]:
        _, rays, _ = self.polytope.vertex_description()
        return sorted(tuple(self.lattice.from_coords(r)) for r in rays)

    def is_bounded(self) -> bool:
        return self.polytope.is_bounded()

    def is_empty(self) -> bool:
        return self.polytope.is_empty()


def moment_polytope(datum: LunaDatum, base: WeightVec,
                    orders: dict[str, int]) -> MomentPolytope:
    """The polytope {lambda : <lambda, phi_D> >= -ord_D} + base, one
    half-space per divisor."""
    X = datum.monoid.lattice
    constraints = []
    for d in datum.divisors:
        if d.divisor_id not in orders:
            raise RecoveryError(f"no order given for divisor {d.divisor_id}")
        constraints.append((d.phi.values, -int(orders[d.divisor_id])))
    poly = Polytope.from_halfspaces(X.rank, constraints)
    return MomentPolytope(poly, X, base)


def thin_to_elementary(psi: SphericalRootSet, rd: RootData) -> SphericalRootSet:
    """Keep only the roots of one of the three elementary forms."""
    tags = elementary_forms(psi, rd)
    kept = tuple(g for g, t in zip(psi.roots, tags) if t.kind != "none")
    return SphericalRootSet(rd, kept)
