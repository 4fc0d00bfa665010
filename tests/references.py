"""Rational-arithmetic and search references shared by the test modules.

They compute on `Fraction` or by plain bounded search, and share no code
with the kernels of `sphervar`, so an oracle built on them does not run
the code it judges.  `reference_cone` and `reference_inequality_cone`
are the exceptions: they are the two constructors of `RationalCone` on
the double-description path alone, the path that a full-dimensional
simplicial cone no longer takes, and `_dd` itself is judged against a
`Fraction` reference in `test_properties.py`.
`reference_roots_in_lattice` is the root check as it was, on the
`Lattice` methods, kept to judge the rule that replaced it, and
`reference_validation` is `validate_luna_datum` with its check (vi) in
the order it had before the recovery identity was asked first.
`reference_type_a_roots` is the type-a set as it was read, off the
minimal generators of the monoid, kept to judge
`WeightMonoid.type_a_roots`, which reads it off the generators.
`reference_classify_root_types` is `classify_root_types` with its
former partner search, every ordered pair of d-roots tested against the
lattice basis row by row, kept to judge the search that groups the
d-roots by their coroot columns first.  `reference_stabilizers_of` is
`stabilizers_of` as it was, a dispatch on the source that reads every
recovered divisor's stabilizer off the type-b pairings and cross-checks
case-2 and type-c divisors against their half coroots
(`reference_half_coroot`, a rational covector the records no longer
carry), kept to judge the rule that reads the stabilizer off the
divisor's origin.  `reference_facet_basis_rows` is the facet table
on the lattice basis as it was read off an ambient cone, kept to judge
cone(M) held in the lattice's coordinates.  `reference_normality_test` is
`WeightMonoid.is_saturated` as it was before it read the Hilbert basis,
the normality test on the pointed quotient and its parallelepiped
points, kept to judge the rule that replaced it; it runs no Hilbert
basis.  `reference_vertex_description` is the vertex description of
the polyhedron a half-space set cuts out, as the package's `Polytope`
computed it in coordinates before `MomentPolytope` read its cone itself,
here on `reference_inequality_cone`; it judges the four answers of
`MomentPolytope`.
"""

import itertools
from fractions import Fraction
from math import isqrt

from builders import coroot, pairing, primitive_vector
from sphervar.monoid import MonoidError
from sphervar.polyhedral import (
    PointedQuotient,
    RationalCone,
    _clear_denominators,
    _dd,
    _parallelepiped_points,
    _triangulation,
    primitive,
)
from sphervar.luna import LunaError, RootTypeTable
from sphervar.recovery import (
    RecoveryError,
    _monoid_recovery_identity,
    validate_luna_datum,
)
from sphervar.rootsys import ParabolicSet
from sphervar.spherical import SphericalError


def reference_rational_solve(cols, target):
    """A solution x of sum_i x_i cols[i] = target over Q, with the free
    coordinates zero, or None if there is none: Gauss–Jordan elimination
    on `Fraction` entries."""
    if not cols:
        return [] if all(Fraction(x) == 0 for x in target) else None
    n = len(cols[0])
    m = len(cols)
    aug = [[Fraction(cols[j][i]) for j in range(m)] + [Fraction(target[i])]
           for i in range(n)]
    piv_cols = []
    r = 0
    for c in range(m):
        p = next((i for i in range(r, n) if aug[i][c] != 0), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        fac = aug[r][c]
        aug[r] = [x / fac for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
    for i in range(r, n):
        if aug[i][m] != 0:
            return None
    sol = [Fraction(0)] * m
    for i, c in enumerate(piv_cols):
        sol[c] = aug[i][m]
    return sol



def reference_integer_solve(cols, target):
    """A solution x in Z^k of sum_i x_i cols[i] = target, or None if there
    is none: the rows (cols[i] | e_i) are brought to echelon form by
    Euclid's algorithm on each column, and the target is reduced by the
    pivot rows, adding up the same multiples of their second blocks."""
    n, k = len(target), len(cols)
    rows = [list(c) + [int(i == j) for j in range(k)]
            for i, c in enumerate(cols)]
    pivots = []
    for p in range(n):
        while len(live := [r for r in rows if r[p]]) > 1:
            piv = min(live, key=lambda r: abs(r[p]))
            for r in live:
                if r is not piv:
                    q = r[p] // piv[p]
                    r[:] = [a - q * b for a, b in zip(r, piv)]
        if live:
            rows.remove(live[0])
            pivots.append((p, live[0]))
    res, x = list(target), [0] * k
    for p, row in pivots:
        if res[p] % row[p]:
            return None
        q = res[p] // row[p]
        res = [a - q * b for a, b in zip(res, row)]
        x = [a + q * b for a, b in zip(x, row[n:])]
    return x if not any(res) else None

def reference_det(rows):
    """The determinant of a square matrix by Gaussian elimination on
    `Fraction` entries."""
    a = [[Fraction(x) for x in r] for r in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k] != 0), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def reference_cone(generators, lines, dim):
    """The canonical cone over the generators and lines by two double
    descriptions, for every input: the facets are the extreme rays of
    {phi : phi.g >= 0, phi.l = 0}, and the rays those of the cone the
    facets cut out."""
    gens = [primitive(g) for g in generators if any(g)]
    lns = [primitive(l) for l in lines if any(l)]
    ann, facets = _dd(dim, gens + lns + [tuple(-x for x in l) for l in lns])
    lin, rays = _dd(dim, facets + ann + [tuple(-x for x in a) for a in ann])
    return RationalCone._canonical(dim, rays, lin, facets, ann)


def reference_inequality_cone(normals, equations, dim):
    """The canonical cone {x : n.x >= 0, e.x = 0} by two double
    descriptions, for every input: the rays are the extreme rays of the
    system, and the facets those of the dual of the cone they span."""
    nrm = [primitive(n) for n in normals if any(n)]
    eqs = [primitive(e) for e in equations if any(e)]
    lin, rays = _dd(dim, nrm + eqs + [tuple(-x for x in e) for e in eqs])
    ann, facets = _dd(dim, rays + lin + [tuple(-x for x in l) for l in lin])
    return RationalCone._canonical(dim, rays, lin, facets, ann)


def reference_vertex_description(dim, constraints):
    """(vertices, recession rays, lines) of {x in Q^dim : n.x >= c} for
    the constraints (n, c), each sorted.  Each constraint is kept as one
    integer row, (n, c) times their common denominator, and the
    homogenization {(x, t) : n.x >= c t, t >= 0} is split by t: a ray
    with t > 0 is a vertex x / t, one with t = 0 a recession ray.  With
    lines present the 'vertices' are representatives of the minimal
    faces, those orthogonal to the lines."""
    ieqs = []
    for normal, offset in constraints:
        row = _clear_denominators(tuple(normal) + (offset,))[1]
        ieqs.append(tuple(row[:-1]) + (-row[-1],))
    ieqs.append((0,) * dim + (1,))
    cone = reference_inequality_cone(ieqs, [], dim + 1)
    verts, rays, lines = [], [], []
    for l in cone.lineality:
        assert l[-1] == 0, "homogenization lineality hits t != 0"
        lines.append(l[:-1])
    for r in cone.rays:
        assert r[-1] >= 0, "homogenization ray with t < 0"
        if r[-1] > 0:
            verts.append(tuple(Fraction(x, r[-1]) for x in r[:-1]))
        else:
            rays.append(r[:-1])
    return sorted(verts), sorted(rays), sorted(lines)


# -- monoid membership by a minor-bounded search ------------------------------
#
# `reference_monoid_membership` is `monoid_membership` as it was before the
# search table and before the dual-ray bound: a backtracking search with
# every coefficient bounded by the largest absolute minor of
# [generators | v] (Borosh–Treybig), computed per query by a Bareiss
# determinant of every minor, or past `cap` minors by Hadamard's bound on
# it.  It returns (answer, coefficients or None).

def reference_int_det(mat):
    # Bareiss fraction-free determinant
    a = [row[:] for row in mat]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            p = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if p is None:
                return 0
            a[k], a[p] = a[p], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def reference_hadamard_bound(rows):
    # the product of the k largest row norms bounds every k x k minor
    sq = sorted((sum(x * x for x in r) for r in rows), reverse=True)
    n = len(rows[0]) if rows else 0
    best = 0
    prod = 1
    for k in range(min(len(sq), n)):
        prod *= sq[k]
        root = isqrt(prod)
        best = max(best, root + (root * root != prod))
    return best


def reference_max_abs_minor(rows, cap=500000):
    m = len(rows)
    n = len(rows[0]) if rows else 0
    best = max((abs(x) for r in rows for x in r), default=1)
    count = 0
    for k in range(2, min(m, n) + 1):
        for ri in itertools.combinations(range(m), k):
            for ci in itertools.combinations(range(n), k):
                count += 1
                if count > cap:
                    return max(reference_hadamard_bound(rows), 1)
                sub = [[rows[i][j] for j in ci] for i in ri]
                best = max(best, abs(reference_int_det(sub)))
    return max(best, 1)


def reference_monoid_membership(v, generators):
    v = tuple(map(int, v))
    gens = [tuple(map(int, g)) for g in generators]
    if not any(v):
        return True, [0] * len(gens)
    if not gens:
        return False, None
    dim = len(v)
    aug_rows = [[g[i] for g in gens] + [v[i]] for i in range(dim)]
    bound = reference_max_abs_minor(aug_rows)

    order = sorted(range(len(gens)), key=lambda i: gens[i], reverse=True)
    n = len(order)
    supp = [[False] * dim for _ in range(n + 1)]
    nneg = [[True] * dim for _ in range(n + 1)]
    npos = [[True] * dim for _ in range(n + 1)]
    for pos in reversed(range(n)):
        g = gens[order[pos]]
        for i in range(dim):
            supp[pos][i] = supp[pos + 1][i] or g[i] != 0
            nneg[pos][i] = nneg[pos + 1][i] and g[i] >= 0
            npos[pos][i] = npos[pos + 1][i] and g[i] <= 0

    coeffs = [0] * len(gens)

    def search(pos, residual):
        if not any(residual):
            for p in range(pos, n):
                coeffs[order[p]] = 0
            return True
        if pos >= n:
            return False
        for i in range(dim):
            r = residual[i]
            if r != 0 and not supp[pos][i]:
                return False
            if r < 0 and nneg[pos][i]:
                return False
            if r > 0 and npos[pos][i]:
                return False
        g = gens[order[pos]]
        for c in range(bound + 1):
            coeffs[order[pos]] = c
            if search(pos + 1, tuple(r - c * x for r, x in zip(residual, g))):
                return True
        return False

    if search(0, v):
        return True, coeffs[:]
    return False, None


def reference_member(v, gens):
    """v in Z≥0-span(gens) by `reference_monoid_membership`, once v is
    found in the rational span of gens by `reference_rational_solve`: a
    vector outside the span would make the search walk its whole box."""
    return (reference_rational_solve(gens, v) is not None
            and reference_monoid_membership(v, gens)[0])


def reference_minimal_generators(gens, reduce_mod):
    """The minimal generators of Z≥0-span(gens) modulo its units, by all
    pairs: the class of a nonunit generator v, reduced by `reduce_mod`, is
    kept unless v - g is a nonunit element for some nonunit generator g
    (`WeightMonoid._is_reducible` as it was before the degree order, on
    the reference search).  A unit is an element whose negative is one
    too.  Returns the kept classes, sorted."""
    def unit(v):
        return (reference_member(v, gens)
                and reference_member(tuple(-x for x in v), gens))

    nonunits = [g for g in gens if not unit(g)]
    classes = {reduce_mod(g) for g in nonunits}
    return sorted(v for v in classes if not any(
        reference_member(d, gens) and not unit(d)
        for d in (tuple(a - b for a, b in zip(v, g)) for g in nonunits)))


def reference_normality_test(m):
    """Whether the monoid m is saturated, by the normality test
    (Bruns–Ichim, J. Algebra 324, 2010).  The saturation S must have the
    units of m; then both pass to the pointed quotient by the units.
    Let T be the pulling triangulation of the quotient cone, spanned on
    each extreme ray by the shortest generator of m on it.  A point of
    S is a sum of multiples of the rays of a simplex of T and one
    lattice point of its half-open parallelepiped, so m is S iff m holds
    every such point: a generator, or found by a membership query."""
    if m.lattice.rank == 0:
        return True
    quotient = PointedQuotient(
        RationalCone.from_generators(m.gen_vectors, dim=m.dim), m.lattice)
    if quotient.units != m.invertible_lattice:
        return False
    qcone = quotient.pointed
    if qcone is None:
        return True
    gens = {quotient.project(g) for g, f in
            zip(m.gen_vectors, m._invertible_flags) if not f}
    shortest = {}
    for g in sorted(gens, key=lambda g: sum(map(abs, g)), reverse=True):
        shortest[primitive(g)] = g
    rays = [shortest[r] for r in qcone.rays]
    return all(p in gens or m.contains_vector(quotient.lift(p))
               for simplex in _triangulation(qcone)
               for p in _parallelepiped_points([rays[i] for i in simplex]))


def reference_facet_basis_rows(m, cone):
    """`WeightMonoid.facet_basis_rows` as it was while cone(M) was held in
    ambient weight coordinates: the value of each facet normal of the
    ambient cone over the generators on each basis vector of the
    lattice X of m."""
    return tuple(tuple(sum(x * y for x, y in zip(n, b)) for b in m.lattice.basis)
                 for n in cone.facet_normals)


def reference_roots_in_lattice(psi, lattice):
    """`validate_roots_in_lattice` as it was, two solves per root: each
    root must be in the lattice (`Lattice.contains`), then be its own
    primitive vector (`builders.primitive_vector`)."""
    for g in psi.roots:
        v = g.int_coords()
        if not lattice.contains(v):
            raise SphericalError("spherical root is not in the weight lattice")
        if primitive_vector(lattice, v) != v:
            raise SphericalError("spherical root is not primitive in the lattice")


SATURATION_WARNING = "saturation not checked (lattice too large)"


def reference_validation(datum):
    """(passed, violations, warnings) of `validate_luna_datum` with check
    (vi) in its former order: the normality test first, its refusal a
    warning, and the recovery identity only for a saturated monoid.  The
    other checks do not depend on that order, so they are read off the
    current report with the entries of (vi) taken out; (vi) adds the last
    violation, and its warning comes before the closing diagnostic's."""
    rep = validate_luna_datum(datum)
    violations = [v for v in rep.violations if v[0] != "monoid_recovery"]
    warnings = [w for w in rep.warnings if w != SATURATION_WARNING]
    try:
        saturated = datum.monoid.is_saturated()
    except MonoidError:
        saturated = None
        warnings.insert(0, SATURATION_WARNING)
    if saturated:
        if not _monoid_recovery_identity(datum):
            violations.append((
                "monoid_recovery",
                "the monoid is not cut out of its lattice by the divisor "
                "functionals"))
    return not violations, violations, warnings


def reference_type_a_roots(m):
    """The type-a roots as they were read: the active simple roots on
    which the sum of the minimal generators of m vanishes."""
    mins = m.minimal_generators
    return frozenset(i for i in m.active_roots
                     if sum(g.coords[i] for g in mins) == 0)


def _reference_is_partner(m, psi, i, j):
    rd = m.rd
    if rd.cartan[i][j] != 0:
        return False
    for b in m.lattice.basis:
        if b[i] != b[j]:
            return False
    pair = tuple(int(k in (i, j)) for k in range(rd.n_simple))
    half = tuple(Fraction(x, 2) for x in pair)
    return pair in psi.coefficients or half in psi.coefficients


def reference_classify_root_types(m, psi):
    """`classify_root_types` with the all-pairs partner search."""
    multiples = {}
    for supp, cs in zip(psi.supports, psi.coefficients):
        if len(supp) == 1:
            (i,) = supp
            if cs[i] > 0:
                multiples.setdefault(i, []).append(cs[i])
    entries = []
    for i in sorted(m.active_roots):
        qs = multiples.get(i, [])
        if any(q not in (1, 2) for q in qs):
            raise SphericalError(
                f"invalid root set: a non-root multiple of simple root {i + 1} "
                "appears among the spherical roots")
        is_b, is_c = 1 in qs, 2 in qs
        if is_b and is_c:
            raise SphericalError(
                f"invalid root set: both alpha and 2*alpha in it (root {i + 1})")
        if i in m.type_a_roots:
            if is_b or is_c:
                raise SphericalError(
                    f"invalid datum: simple root {i + 1} is orthogonal to the "
                    "monoid yet appears in the spherical roots")
            entries.append((i, "a"))
        else:
            entries.append((i, "b" if is_b else "c" if is_c else "d"))
    d_roots = [i for i, t in entries if t == "d"]
    partners = []
    for i in d_roots:
        found = [j for j in d_roots
                 if j != i and _reference_is_partner(m, psi, i, j)]
        if len(found) > 1:
            raise SphericalError(
                f"invalid datum: simple root {i + 1} has multiple d-partners")
        if found:
            j = found[0]
            if not _reference_is_partner(m, psi, j, i):
                raise SphericalError(
                    "invalid datum: asymmetric d-partner relation")
            if (min(i, j), max(i, j)) not in partners:
                partners.append((min(i, j), max(i, j)))
    return RootTypeTable(tuple(entries), tuple(sorted(partners)))


def reference_half_coroot(rd, i):
    """Half the coroot of simple root i, as a tuple of rational dual
    coordinates."""
    return tuple(Fraction(x, 2) for x in coroot(rd, i))


def _reference_pairing_to_one(cov, roots, rd):
    return {beta for beta in roots if pairing(cov, rd.simple_root(beta)) == 1}


def reference_stabilizers_of(recs, table, m):
    """`stabilizers_of` with its former dispatch on the source: a
    recovered divisor (case 1c, 2 or 3) is moved by the type-b roots its
    functional pairs to one with, and a case-2 divisor must be moved by
    its own root alone, cross-checked against its half coroot; a type-c
    divisor must be moved by its root alone under half its coroot, and a
    type-d divisor is moved by its roots.  Each type-b root is solved
    for on the lattice basis before any record, and a root off its span
    refused there."""
    rd = m.rd
    active = frozenset(m.active_roots)
    b_roots = []
    for beta in table.roots_of_type("b"):
        coords = m.lattice.coords(rd.simple_root(beta).coords)
        if coords is None:
            raise LunaError("vector outside the lattice span")
        b_roots.append((beta, coords))
    out = []
    for rec in recs:
        if rec.source in ("case_1c", "case_2", "case_3"):
            moved = {beta for beta, coords in b_roots
                     if sum(v * c for v, c in zip(rec.phi.values, coords)) == 1}
            if rec.source == "case_2":
                (alpha,) = rec.source_roots
                cross = _reference_pairing_to_one(
                    reference_half_coroot(rd, alpha), active, rd)
                if cross != moved:
                    raise RecoveryError(
                        "invalid datum: coroot presentation moves roots "
                        f"{sorted(cross)} but the functional moves "
                        f"{sorted(moved)}")
                if moved != {alpha}:
                    raise RecoveryError(
                        "invalid datum: a type-b pair divisor moves "
                        "unexpected roots")
            out.append(ParabolicSet(active - frozenset(moved)))
        elif rec.source == "type_c":
            (alpha,) = rec.source_roots
            half = reference_half_coroot(rd, alpha)
            if _reference_pairing_to_one(half, active, rd) != {alpha}:
                raise RecoveryError(
                    "invalid datum: type-c divisor moves roots other than "
                    "its root")
            out.append(ParabolicSet(active - {alpha}))
        elif rec.source == "type_d":
            out.append(ParabolicSet(active - frozenset(rec.source_roots)))
        else:
            raise RecoveryError(f"unknown divisor source {rec.source!r}")
    return out
