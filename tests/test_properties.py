"""Hypothesis-driven property tests for the algebraic invariants."""

import itertools
from dataclasses import replace
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from pathlib import Path
from random import Random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from corpus import build_corpus
from test_recovery import (
    reference_monoid_recovery_identity,
    reference_violations,
    tampered_divisor_sets,
)
from sphervar import polyhedral
from sphervar.cli import parse_input
from sphervar.luna import BDivisorRecord, LatticeFunctional, LunaError
from sphervar.monoid import WeightMonoid, torus_monoid
from sphervar.polyhedral import (
    Lattice,
    MonoidSearch,
    PolyhedralError,
    RationalCone,
    hilbert_basis_with_units,
    hnf,
    integer_kernel,
    integer_solve,
    monoid_membership,
    primitive,
    rational_solve,
)
from sphervar.recovery import (
    RecoveryError,
    RecursionNode,
    _half_coroot,
    _monoid_recovery_identity,
    localize_datum,
    recover_divisors,
    recover_prime,
    validate_luna_datum,
)
from sphervar.rootsys import (
    CovectorVec,
    GroupSpec,
    WeightVec,
    build_root_data,
    pairing,
    symmetric_form,
)
from sphervar.spherical import classify_root_types, make_spherical_roots

vec2 = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
vec3 = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))


@settings(max_examples=80, deadline=None)
@given(st.lists(vec2, min_size=0, max_size=4))
def test_dual_involution_property(gens):
    gens = [g for g in gens if any(g)]
    cone = RationalCone.from_generators(gens, dim=2) if gens \
        else RationalCone.zero(2)
    assert cone.dual().dual() == cone


@st.composite
def cone_inputs(draw, dim=None):
    """(dim, generators, lines) in ranks 2-4, entries in [-3, 3]."""
    if dim is None:
        dim = draw(st.integers(2, 4))
    vec = st.tuples(*[st.integers(-3, 3)] * dim)
    return (dim, draw(st.lists(vec, max_size=5)),
            draw(st.lists(vec, max_size=1)))


@settings(max_examples=80, deadline=None)
@given(cone_inputs(), st.data())
def test_every_cone_route_gives_the_same_canonical_form(inputs, data):
    dim, gens, lines = inputs
    cone = RationalCone.from_generators(gens, lines=lines, dim=dim)
    shuffled = data.draw(st.permutations(gens))
    total = tuple(sum(g[i] for g in gens) for i in range(dim))
    assert RationalCone.from_generators(
        shuffled + [total], lines=lines, dim=dim) == cone
    assert RationalCone.from_inequalities(
        cone.facet_normals, cone.span_equations, dim=dim) == cone
    assert RationalCone.from_generators(
        cone.rays, lines=cone.lineality, dim=dim) == cone


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 4).flatmap(
    lambda d: st.tuples(cone_inputs(d), cone_inputs(d))), st.booleans())
def test_intersection_is_self_exactly_on_containment(inputs, nested):
    (dim, gens_a, lines_a), (_, gens_b, lines_b) = inputs
    a = RationalCone.from_generators(gens_a, lines=lines_a, dim=dim)
    if nested:
        # B contains A, so both outcomes are exercised
        gens_b, lines_b = gens_b + gens_a, lines_b + lines_a
    b = RationalCone.from_generators(gens_b, lines=lines_b, dim=dim)
    inside = all(b.contains(r) for r in a.rays) and \
        all(b.contains(l) and b.contains(tuple(-x for x in l))
            for l in a.lineality)
    assert (a.intersection(b) == a) == inside
    if nested:
        assert inside


@settings(max_examples=60, deadline=None)
@given(st.lists(vec3, min_size=1, max_size=4))
def test_facets_support_generators(gens):
    gens = [g for g in gens if any(g)]
    if not gens:
        return
    cone = RationalCone.from_generators(gens, dim=3)
    for g in gens:
        assert cone.contains(g)
        for n in cone.facet_normals:
            assert sum(a * b for a, b in zip(n, g)) >= 0
        for e in cone.span_equations:
            assert sum(a * b for a, b in zip(e, g)) == 0


@settings(max_examples=80, deadline=None)
@given(st.lists(vec3, min_size=1, max_size=5))
def test_hnf_is_canonical_for_the_span(rows):
    rows = [r for r in rows if any(r)]
    if not rows:
        return
    basis = hnf(rows)
    # adding a lattice element changes nothing
    extra = tuple(sum(b[i] for b in basis) for i in range(3))
    assert hnf(rows + [list(extra)]) == basis
    lat = Lattice.span(rows, 3)
    for r in rows:
        assert lat.contains(r)


@settings(max_examples=80, deadline=None)
@given(vec3, st.integers(1, 5))
def test_primitive_absorbs_positive_scaling(v, c):
    if not any(v):
        return
    assert primitive(tuple(c * x for x in v)) == primitive(v)
    p = primitive(v)
    # direction is preserved
    k = next(Fraction(a, b) for a, b in zip(v, p) if b != 0)
    assert k > 0


@settings(max_examples=50, deadline=None)
@given(st.lists(vec3, min_size=1, max_size=3))
@example([(2, 4, 6)])
@example([(1, 1, 0), (0, 0, 0), (2, 2, 0)])
def test_integer_kernel_is_every_relation_in_a_box(rows):
    kernel = integer_kernel(rows)
    for x in kernel:
        assert all(sum(a * b for a, b in zip(r, x)) == 0 for r in rows)
    assert len(kernel) == 3 - len(hnf(rows))
    span = Lattice.span(kernel, 3)
    for x in itertools.product(range(-3, 4), repeat=3):
        if all(sum(a * b for a, b in zip(r, x)) == 0 for r in rows):
            assert span.contains(x)


@st.composite
def integer_systems(draw):
    """(cols, target): up to 4 integer columns in Z^1..Z^4, and a target
    that is an integer combination of them or drawn at random."""
    n = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(-4, 4)] * n)
    cols = draw(st.lists(vec, max_size=4))
    if cols and draw(st.booleans()):
        x = draw(st.lists(st.integers(-3, 3), min_size=len(cols),
                          max_size=len(cols)))
        return cols, _combination(x, cols, n)
    return cols, draw(vec)


@settings(max_examples=200, deadline=None)
@given(integer_systems())
@example(([(2, 4), (4, 2)], (2, 1)))
@example(([(2, 4), (4, 2)], (6, 6)))
@example(([(0, 0)], (0, 1)))
@example(([], (0, 0)))
def test_integer_solve_answers_exactly_on_the_lattice(system):
    cols, target = system
    n = len(target)
    sol = integer_solve(cols, target)
    if Lattice.span(cols, n).contains(target):
        assert sol is not None and _combination(sol, cols, n) == target
    else:
        assert sol is None


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
       st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
       st.integers(-3, 3), st.integers(-3, 3))
def test_pairing_bilinear(c1, c2, a, b):
    rd = build_root_data(GroupSpec((("C", 2),)))
    cov = rd.covector(c1)
    w1 = rd.weight(c2)
    w2 = rd.weight((1, 1))
    lhs = pairing(cov, w1.scale(a) + w2.scale(b))
    assert lhs == a * pairing(cov, w1) + b * pairing(cov, w2)


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
       st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
def test_symmetric_form_symmetric(u, v):
    rd = build_root_data(GroupSpec((("G", 2),)))
    w1, w2 = rd.weight(u), rd.weight(v)
    assert symmetric_form(rd, w1, w2) == symmetric_form(rd, w2, w1)


@settings(max_examples=40, deadline=None)
@given(st.lists(vec2, min_size=1, max_size=3))
def test_cone_rays_lie_in_cone(gens):
    gens = [g for g in gens if any(g)]
    if not gens:
        return
    cone = RationalCone.from_generators(gens, dim=2)
    for r in cone.rays:
        assert cone.contains(r)
    for l in cone.lineality:
        assert cone.contains(l)
        assert cone.contains(tuple(-x for x in l))


@st.composite
def torus_generators(draw):
    """Up to 5 generators of rank <= 3 with entries in [-2, 2], drawn to
    include zero vectors and pairs g, -g (invertible generators)."""
    rank = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(-2, 2)] * rank)
    gens = draw(st.lists(st.one_of(vec, st.just((0,) * rank)),
                         min_size=1, max_size=4))
    if draw(st.booleans()):
        gens.append(tuple(-x for x in draw(st.sampled_from(gens))))
    return rank, gens


@settings(max_examples=60, deadline=None)
@given(torus_generators())
def test_invertibility_matches_membership_search(data):
    rank, gens = data
    rd = build_root_data(GroupSpec((), rank))
    m = torus_monoid(rd, gens)
    expected = tuple(monoid_membership(tuple(-x for x in g), gens)[0]
                     for g in gens)
    assert m._invertible_flags == expected
    for g, inv in zip(gens, expected):
        if inv:
            continue
        loc = m.localize(rd.weight(g))
        # the dual rays are inherited from m, not recomputed
        assert "_dual_rays" in loc.__dict__
        fresh = torus_monoid(rd, [w.int_coords() for w in loc.generators])
        assert loc._invertible_flags == fresh._invertible_flags
        assert loc.invertible_lattice == fresh.invertible_lattice


def reference_is_saturated(m):
    # `WeightMonoid.is_saturated` as it was before it read the generators:
    # every Hilbert-basis element of the saturation found by membership
    lat = m.lattice
    if lat.rank == 0:
        return True
    cone = RationalCone.from_generators(list(m.gen_vectors), dim=m.dim)
    units, basis = hilbert_basis_with_units(cone, lat)
    return (all(m.invertible_lattice.contains(u) for u in units.basis)
            and all(m.contains_vector(h)[0] for h in basis))


@settings(max_examples=150, deadline=None)
@given(torus_generators())
@example((2, [(1, 0), (1, 2)]))
@example((2, [(2, 0), (3, 0), (0, 1)]))
@example((2, [(2, 0), (-2, 0), (0, 1)]))
@example((2, [(1, 1), (-1, -1), (1, -1)]))
# (1, 0) = (1, 1) - (0, 1) is a unit of the saturation but not of the monoid
@example((2, [(2, 0), (-2, 0), (1, 1), (0, 1)]))
# (2, 0) is not primitive on its ray, so it spans the triangulation's
# simplex and (1, 0) is a parallelepiped point outside the monoid
@example((2, [(2, 0), (0, 1), (1, 1)]))
def test_saturation_matches_the_membership_reference(data):
    rank, gens = data
    m = torus_monoid(build_root_data(GroupSpec((), rank)), gens)
    assert m.is_saturated() == reference_is_saturated(m)


@pytest.mark.parametrize("gens, saturated", [
    # 999 parallelepiped points, (2, 1) the first outside the monoid
    ([(0, 1), (1, 1), (1000, 1)], False),
    # 999 parallelepiped points, every one a generator
    ([(k, 1) for k in range(1001)], True),
], ids=["fan_0_1_1000", "full_fan_1000"])
def test_saturation_of_the_thousand_fans(gens, saturated):
    m = torus_monoid(build_root_data(GroupSpec((), 2)), gens)
    assert m.is_saturated() is saturated
    assert reference_is_saturated(m) is saturated


# -- the integer kernels against rational references -------------------------
#
# The references below are the rational-arithmetic versions of `_dd`,
# `rational_solve` and `Lattice.coords` that the integer kernels replaced.
# They compute on `Fraction` throughout and share no code with the kernels.

def reference_primitive(v):
    fr = [Fraction(x) for x in v]
    den = 1
    for x in fr:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in fr]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints)


def reference_dd(dim, inequalities):
    lin = [tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim)]
    rays = []
    masks = []
    n_processed = 0
    seen = set()
    todo = []
    for a in inequalities:
        af = [Fraction(x) for x in a]
        if all(x == 0 for x in af):
            continue
        ap = reference_primitive(af)
        if ap not in seen:
            seen.add(ap)
            todo.append(ap)

    def dot(a, r):
        return sum(Fraction(x) * y for x, y in zip(a, r))

    for a in todo:
        k = n_processed
        v0_orig = next((v for v in lin if dot(a, v) != 0), None)
        if v0_orig is not None:
            v0 = v0_orig if dot(a, v0_orig) > 0 else tuple(-x for x in v0_orig)
            pv = dot(a, v0)
            new_lin = []
            for v in lin:
                if v is v0_orig:
                    continue
                w = tuple(x - dot(a, v) / pv * y for x, y in zip(v, v0))
                if any(x != 0 for x in w):
                    new_lin.append(w)
            lin = new_lin
            rays = [tuple(x - dot(a, r) / pv * y for x, y in zip(r, v0))
                    for r in rays]
            masks = [mk | (1 << k) for mk in masks]
            rays.append(v0)
            masks.append((1 << k) - 1)
            n_processed += 1
            continue
        vals = [dot(a, r) for r in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        if not neg:
            for i in zero:
                masks[i] |= 1 << k
            n_processed += 1
            continue
        new_rays = []
        new_masks = []
        for i in pos:
            new_rays.append(rays[i])
            new_masks.append(masks[i])
        for i in zero:
            new_rays.append(rays[i])
            new_masks.append(masks[i] | (1 << k))
        for i, j in itertools.product(pos, neg):
            common = masks[i] & masks[j]
            adjacent = True
            for t in range(len(rays)):
                if t != i and t != j and (masks[t] & common) == common:
                    adjacent = False
                    break
            if not adjacent:
                continue
            w = tuple(vals[i] * x - vals[j] * y for x, y in zip(rays[j], rays[i]))
            new_rays.append(w)
            new_masks.append(common | (1 << k))
        rays = new_rays
        masks = new_masks
        n_processed += 1

    lin_basis = [reference_primitive(v) for v in lin if any(x != 0 for x in v)]
    ray_vecs = [reference_primitive(r) for r in rays if any(x != 0 for x in r)]
    return lin_basis, ray_vecs


def reference_rational_solve(cols, target):
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


def reference_coords(lattice, v):
    sol = reference_rational_solve(list(lattice.basis), v)
    return tuple(sol) if sol is not None else None


def _combination(coeffs, vectors, dim):
    return tuple(sum(c * v[i] for c, v in zip(coeffs, vectors))
                 for i in range(dim))


@st.composite
def dd_systems(draw):
    """(dim, rows) in ranks 1-6, with zero, duplicate (positively
    rescaled, possibly rational), negated and redundant rows and equality
    pairs mixed in."""
    dim = draw(st.integers(1, 6))
    vec = st.tuples(*[st.integers(-3, 3)] * dim)
    rows = draw(st.lists(vec, max_size=6))
    extras = st.sampled_from(
        ["zero", "duplicate", "negated", "redundant", "equality"])
    for kind in draw(st.lists(extras, max_size=4)):
        if kind == "zero" or not rows:
            rows.append((0,) * dim)
            continue
        a = draw(st.sampled_from(rows))
        if kind == "duplicate":
            c = draw(st.sampled_from([2, 3, Fraction(1, 2), Fraction(2, 3)]))
            rows.append(tuple(c * x for x in a))
        elif kind == "negated":
            rows.append(tuple(-x for x in a))
        elif kind == "redundant":
            b = draw(st.sampled_from(rows))
            rows.append(tuple(x + y for x, y in zip(a, b)))
        else:
            b = draw(vec)
            rows += [b, tuple(-x for x in b)]
    order = draw(st.permutations(range(len(rows))))
    return dim, [rows[i] for i in order]


@settings(max_examples=150, deadline=None)
@given(dd_systems())
@example((3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]))
@example((4, [(1, 0, 0, 0), (2, 0, 0, 0), (0, 0, 0, 0), (0, 1, -1, 0),
              (0, -1, 1, 0), (1, 1, 0, 0)]))
def test_integer_dd_matches_rational_reference(system):
    dim, rows = system
    assert polyhedral._dd(dim, rows) == reference_dd(dim, rows)


entries = st.one_of(st.integers(-4, 4),
                    st.fractions(-3, 3, max_denominator=4))


@st.composite
def linear_systems(draw):
    """(cols, target): up to 4 columns in Q^1..Q^4, with a dependent column
    mixed in, and a target in the column span or drawn at random."""
    n = draw(st.integers(1, 4))
    vec = st.tuples(*[entries] * n)
    cols = draw(st.lists(vec, min_size=1, max_size=4))
    if draw(st.booleans()):
        c = draw(st.lists(entries, min_size=len(cols), max_size=len(cols)))
        cols.insert(draw(st.integers(0, len(cols))), _combination(c, cols, n))
    if draw(st.booleans()):
        x = draw(st.lists(entries, min_size=len(cols), max_size=len(cols)))
        target = _combination(x, cols, n)
    else:
        target = draw(st.one_of(st.tuples(*[st.integers(-4, 4)] * n), vec))
    return cols, target


@settings(max_examples=200, deadline=None)
@given(linear_systems())
@example(([(1, 2), (2, 4)], (1, 3)))
@example(([(1, 2), (2, 4)], (Fraction(1, 2), 1)))
@example(([(0, 0)], (0, 1)))
def test_rational_solve_matches_rational_reference(system):
    cols, target = system
    sol, ref = rational_solve(cols, target), reference_rational_solve(cols, target)
    assert sol == ref
    if ref is not None:
        assert_canonical(sol, ref)


@st.composite
def lattice_vectors(draw):
    """(lattice, v) with v in the lattice, in its rational span but not
    (in general) in it, or drawn from the whole space."""
    dim = draw(st.integers(1, 5))
    vec = st.tuples(*[st.integers(-4, 4)] * dim)
    lat = Lattice.span(draw(st.lists(vec, max_size=4)), dim)
    kind = draw(st.sampled_from(["lattice", "span", "outside"]))
    if kind == "outside" or not lat.basis:
        return lat, draw(vec)
    if kind == "lattice":
        c = draw(st.lists(st.integers(-3, 3), min_size=lat.rank,
                          max_size=lat.rank))
    else:
        den = draw(st.integers(2, 5))
        c = [Fraction(x, den) for x in draw(st.lists(
            st.integers(-6, 6), min_size=lat.rank, max_size=lat.rank))]
    return lat, _combination(c, lat.basis, dim)


@settings(max_examples=200, deadline=None)
@given(lattice_vectors())
def test_echelon_coords_match_rational_reference(data):
    lat, v = data
    assert lat.coords(v) == reference_coords(lat, v)


# -- the ray-bounded membership search against the minor-bounded one ---------
#
# The reference below is `monoid_membership` as it was before the search
# table and before the dual-ray bound: a backtracking search with every
# coefficient bounded by the largest absolute minor of [generators | v]
# (Borosh–Treybig), computed per query by a Bareiss determinant of every
# minor, or past `cap` minors by Hadamard's bound on it.  The two searches
# may find different certificates, so the properties compare the answers
# and check each certificate.

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


@st.composite
def generator_matrices(draw, max_dim=5, max_gens=6, entries=3):
    """(generators, v) in dims 1 to max_dim, drawn to include zero,
    duplicate and negated generators."""
    dim = draw(st.integers(1, max_dim))
    vec = st.tuples(*[st.integers(-entries, entries)] * dim)
    gens = draw(st.lists(vec, min_size=1, max_size=max_gens - 2))
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["zero", "duplicate", "negated"]))
        g = draw(st.sampled_from(gens))
        gens.append((0,) * dim if kind == "zero" else
                    g if kind == "duplicate" else tuple(-x for x in g))
    return draw(st.permutations(gens)), draw(vec)


@settings(max_examples=150, deadline=None)
@given(generator_matrices(max_dim=3, max_gens=5, entries=2))
def test_membership_matches_the_per_query_reference(data):
    gens, v = data
    expected = reference_monoid_membership(v, gens)[0]
    for query in (gens, MonoidSearch(gens)):
        ok, cert = monoid_membership(v, query)
        assert ok == expected
        if ok:
            assert_certificate(cert, gens, v)


def assert_certificate(cert, gens, v):
    assert len(cert) == len(gens) and min(cert, default=0) >= 0
    assert tuple(sum(c * g[i] for c, g in zip(cert, gens))
                 for i in range(len(v))) == tuple(v)


def _corpus_monoids():
    """Every corpus monoid and its localization at each minimal generator."""
    out = []
    for e in build_corpus():
        out.append(e.monoid)
        out.extend(e.monoid.localize(g) for g in e.monoid.minimal_generators)
    return out


CORPUS_MONOIDS = _corpus_monoids()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CORPUS_MONOIDS), st.data())
def test_membership_matches_reference_on_corpus_monoids(m, data):
    # the generators and the negatives of the invertible ones, a generating
    # set on which the reference search stays small
    ext = m.gen_vectors + tuple(tuple(-x for x in g) for g, f in
                                zip(m.gen_vectors, m._invertible_flags) if f)
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(ext),
                                max_size=len(ext)))
    v = tuple(sum(c * g[i] for c, g in zip(coeffs, ext)) for i in range(m.dim))
    ok, cert = m.contains_vector(v)
    assert ok == reference_monoid_membership(v, ext)[0]
    if ok:
        assert_certificate(cert, m.gen_vectors, v)


# -- the triangulated Hilbert basis against the all-subsets reference --------
#
# The reference below is `hilbert_basis_with_units` as it was before the
# triangulation: candidates from the parallelepiped of every linearly
# independent subset of the quotient cone's rays, each point found by a
# rational solve.

def reference_box_residues(coord_rows):
    s = len(coord_rows)
    H = hnf(coord_rows)
    diag = []
    for j in range(s):
        row = next(r for r in H if next(i for i in range(s) if r[i]) == j)
        diag.append(row[j])
    return list(itertools.product(*(range(d) for d in diag)))


def reference_parallelepiped_points(rays, dim):
    sat = Lattice.span(list(rays), dim).saturation()
    coord_rows = [[int(x) for x in sat.coords(r)] for r in rays]
    out = set()
    for rep in reference_box_residues(coord_rows):
        amb = sat.from_coords(rep)
        t = rational_solve(list(rays), amb)
        t_frac = [x - (x.numerator // x.denominator) for x in t]
        pt = [Fraction(0)] * dim
        for c, r in zip(t_frac, rays):
            for i in range(dim):
                pt[i] += c * r[i]
        if any(pt):
            assert all(x.denominator == 1 for x in pt)
            out.add(tuple(int(x) for x in pt))
    return sorted(out)


def _independent_subsets(rays, q):
    for size in range(2, min(len(rays), q) + 1):
        for sub in itertools.combinations(rays, size):
            if len(hnf(sub)) == size:
                yield sub


def reference_volume(rays, q):
    """The number of box residues the reference enumerates: the index of
    each linearly independent subset of the rays in the saturated
    lattice of its span, summed."""
    total = 0
    for sub in _independent_subsets(rays, q):
        sat = Lattice.span(list(sub), q).saturation()
        diag = hnf([[int(x) for x in sat.coords(r)] for r in sub])
        total += abs(prod(next(x for x in row if x) for row in diag))
    return total


def reference_hilbert_basis_with_units(cone, lattice, max_volume=None):
    """The all-subsets Hilbert basis, or None when its enumeration would
    pass `max_volume` box residues (`reference_volume`)."""
    dim = cone.dim
    cone = cone.intersection(RationalCone.from_inequalities(
        [], lattice.annihilator, dim=dim))
    m = lattice.rank
    unit_rows = []
    if cone.lineality and m:
        constraints = list(cone.facet_normals) + list(cone.span_equations)
        rows = [[sum(c[i] * b[i] for i in range(dim)) for b in lattice.basis]
                for c in constraints]
        kernel = integer_kernel(rows) if rows else \
            [tuple(int(i == j) for j in range(m)) for i in range(m)]
        for k in kernel:
            unit_rows.append(tuple(int(x) for x in lattice.from_coords(k)))
    units = Lattice.span(unit_rows, dim)
    if m == 0:
        return units, []
    if units.rank:
        unit_coords = [[int(x) for x in lattice.coords(b)] for b in units.basis]
        quot_rows = integer_kernel(unit_coords)
    else:
        quot_rows = [tuple(int(i == j) for j in range(m)) for i in range(m)]
    q = len(quot_rows)
    if q == 0:
        return units, []

    def to_quotient(v):
        c = lattice.coords(v)
        return tuple(sum(Fraction(r[i]) * c[i] for i in range(m))
                     for r in quot_rows)

    proj_rays = sorted({primitive(img) for img in map(to_quotient, cone.rays)
                        if any(img)})
    if not proj_rays:
        return units, []
    if max_volume is not None and \
            reference_volume(proj_rays, q) > max_volume:
        return None
    qcone = RationalCone.from_generators(proj_rays, dim=q)
    grading = [sum(n[i] for n in qcone.facet_normals) for i in range(q)]
    candidates = set(proj_rays)
    for sub in _independent_subsets(proj_rays, q):
        for p in reference_parallelepiped_points(sub, q):
                if qcone.contains(p):
                    candidates.add(p)
    kept = []
    for p in sorted(candidates,
                    key=lambda p: (sum(a * b for a, b in zip(grading, p)), p)):
        if not any(qcone.contains(tuple(a - b for a, b in zip(p, k)))
                   for k in kept):
            kept.append(p)
    lift_cols = [tuple(int(x) for x in to_quotient(b)) for b in lattice.basis]
    lifted = []
    for p in kept:
        vec = tuple(int(x) for x in
                    lattice.from_coords(integer_solve(lift_cols, p)))
        lifted.append(units.reduce_mod(vec) if units.rank else vec)
    return units, sorted(lifted)


# The reference spends about 0.2 ms on each box residue it enumerates,
# and one unbounded draw took 241 s; every example here enumerates at
# most 16 residues, and about 1 draw in 600 passes this bound
REFERENCE_MAX_VOLUME = 5000


@st.composite
def hilbert_inputs(draw):
    """(cone, lattice) in dims 2-5: full lattices, random sublattices,
    cones with lineality, and cones of lower rank than their lattice."""
    dim = draw(st.integers(2, 5))
    b = 2 if dim <= 3 else 1
    vec = st.tuples(*[st.integers(-b, b)] * dim)
    # a positive last coordinate keeps the cone pointed, so that many
    # drawn cones are not simplicial
    upper = st.tuples(*[st.integers(-b, b)] * (dim - 1), st.integers(1, b + 1))
    kind = draw(st.sampled_from(["full", "sublattice", "lineality", "lower rank"]))
    size = draw(st.integers(1, dim - 1) if kind == "lower rank"
                else st.integers(dim, dim + 2))
    gens = draw(st.lists(draw(st.sampled_from([upper, vec])),
                         min_size=size, max_size=size))
    lines = [draw(vec)] if kind == "lineality" else []
    lattice = Lattice.full(dim)
    if kind == "sublattice":
        basis = draw(st.lists(vec, min_size=1, max_size=dim))
        if any(any(v) for v in basis):
            lattice = Lattice.span(basis, dim)
    return RationalCone.from_generators(gens, lines, dim=dim), lattice


@settings(max_examples=300, deadline=None)
@given(hilbert_inputs())
@example((RationalCone.from_generators([(1, 0, 1), (0, 1, 2)], dim=3),
          Lattice.full(3)))
@example((RationalCone.from_generators([(1, 2, 0, 0)], [(0, 0, 1, 1)], dim=4),
          Lattice.span([(2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1)], 4)))
@example((RationalCone.from_generators(
    [(0, 0, 1), (2, 0, 1), (0, 2, 1), (2, 2, 1)], dim=3),
    Lattice.span([(1, 1, 0), (1, -1, 0), (0, 0, 1)], 3)))
# a cone inside the span of a lattice of lower rank, used as it is
@example((RationalCone.from_generators([(1, 0, 1), (1, 2, 1)], dim=3),
          Lattice.span([(1, 0, 1), (0, 1, 0)], 3)))
# cones leaving the span of the lattice, by a ray and by the lineality
@example((RationalCone.from_generators([(1, 0, 0), (0, 1, 0), (1, 1, 1)],
                                       dim=3),
          Lattice.span([(1, 0, 0), (0, 2, 0)], 3)))
@example((RationalCone.from_generators([(1, 0, 0)], [(0, 1, 1)], dim=3),
          Lattice.span([(1, 0, 0), (0, 1, 0)], 3)))
def test_triangulated_hilbert_basis_matches_all_subsets_reference(inputs):
    cone, lattice = inputs
    ref = reference_hilbert_basis_with_units(cone, lattice,
                                             REFERENCE_MAX_VOLUME)
    assume(ref is not None)
    units, basis = hilbert_basis_with_units(cone, lattice)
    assert (units, basis) == ref


# -- the integer form of a functional and the integer walk ---------------------
#
# The references below are `LatticeFunctional.evaluate` and `from_covector`
# as they were before the integer form (lattice coordinates solved per
# call, sums of Fractions), and `recover_prime` as it was before the walk
# moved onto integers: node weights as `WeightVec` sums and every test of a
# functional a reference evaluation.

def reference_evaluate(phi, vec):
    coords = phi.lattice.coords(vec)
    if coords is None:
        raise LunaError("vector outside the lattice span")
    return sum(v * c for v, c in zip(phi.values, coords))


def reference_from_covector(cov, lattice):
    vals = tuple(sum(c * Fraction(b) for c, b in zip(cov.coords, basis))
                 for basis in lattice.basis)
    return LatticeFunctional(lattice, vals)


def _reference_class_functional(m, loc):
    X = m.lattice
    inv = loc.invertible_lattice
    inv_coords = [[int(x) for x in X.coords(b)] for b in inv.basis]
    if inv_coords:
        kernel = integer_kernel(inv_coords)
    else:
        kernel = [(1,)] if X.rank == 1 else []
    if len(kernel) != 1:
        raise RecoveryError("internal: localization is not of corank one")
    f = kernel[0]

    def f_of(w):
        c = X.coords(w.int_coords())
        return sum(Fraction(a) * b for a, b in zip(f, c))

    images = [(g, f_of(g)) for g in m.minimal_generators]
    nonzero = [v for _, v in images if v != 0]
    if not nonzero:
        raise RecoveryError("internal: corank-one localization with no class")
    if any(v > 0 for v in nonzero) and any(v < 0 for v in nonzero):
        raise RecoveryError("internal: localization class monoid not pointed")
    sign = 1 if nonzero[0] > 0 else -1
    vals = [sign * v for _, v in images]
    pos = sorted(v for v in vals if v > 0)
    g0 = pos[0]
    if any(v % g0 != 0 for v in pos):
        raise RecoveryError(
            "invalid monoid: localized class monoid has no single generator")
    values = tuple(Fraction(sign * x, 1) / g0 for x in f)
    return LatticeFunctional(X, values)


def _reference_check_node_pattern(phi, mins, subset):
    for j, g in enumerate(mins):
        v = reference_evaluate(phi, g.coords)
        if j in subset and v != 0:
            raise RecoveryError(
                "invalid datum: recovered divisor does not vanish on its node")
        if j not in subset and v <= 0:
            raise RecoveryError(
                "invalid datum: recovered divisor escapes its node")


REFERENCE_MAX_MINIMAL_GENERATORS = 12


def reference_recover_prime(m, psi, trace=None, warnings=None):
    """The walk over every subset of the minimal generators, largest
    first, localizing the monoid at each node."""
    rd = m.rd
    X = m.lattice
    mins = m.minimal_generators
    k = len(mins)
    if k > REFERENCE_MAX_MINIMAL_GENERATORS:
        raise RecoveryError(
            f"recovery limited to {REFERENCE_MAX_MINIMAL_GENERATORS} "
            "minimal generators")
    table = classify_root_types(m, psi)
    pi_a = frozenset(table.roots_of_type("a"))
    pi_b = frozenset(table.roots_of_type("b"))
    active = sorted(m.active_roots)

    pool = []
    local_cache = {}
    zero = rd.weight([0] * rd.dim)

    for size in range(k, -1, -1):
        for subset in itertools.combinations(range(k), size):
            mu = zero
            for i in subset:
                mu = mu + mins[i]
            levi = frozenset(i for i in active if mu.coords[i] == 0)
            overline = [rec for rec in pool
                        if reference_evaluate(rec.phi, mu.coords) == 0]
            minted = []
            case = ""
            if levi == pi_a:
                loc = local_cache.get(mu.coords)
                if loc is None:
                    loc = m.localize(mu) if not mu.is_zero else m
                    local_cache[mu.coords] = loc
                inv_rank = loc.invertible_lattice.rank
                if inv_rank == X.rank:
                    case = "1a"
                elif inv_rank <= X.rank - 2:
                    case = "1b"
                else:
                    case = "1c"
                    phi = _reference_class_functional(m, loc)
                    # a class divisor already recovered above is not minted
                    if not any(r.phi.values == phi.values for r in overline):
                        _reference_check_node_pattern(phi, mins, subset)
                        minted.append(BDivisorRecord(
                            "?", phi, None, "case_1c", ()))
            else:
                extra = levi - pi_a
                case2 = False
                if len(extra) == 1:
                    (alpha,) = extra
                    if alpha in pi_b:
                        a_wt = rd.simple_root(alpha)
                        signs_ok = all(
                            reference_evaluate(rec.phi, a_wt.coords) <= 0
                            for rec in overline)
                        if signs_ok:
                            case = "2"
                            case2 = True
                            cov = _half_coroot(rd, alpha)
                            phi = reference_from_covector(cov, X)
                            _reference_check_node_pattern(phi, mins, subset)
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
                    excluded = set()
                    for alpha in levi:
                        if any(mins[j].coords[alpha] == 0
                               for j in range(k) if j not in subset):
                            excluded.add(alpha)
                    new = {}
                    for alpha in sorted((levi & pi_b) - excluded):
                        a_wt = rd.simple_root(alpha)
                        ones = [rec for rec in overline
                                if reference_evaluate(rec.phi, a_wt.coords) == 1]
                        if len(ones) != 1:
                            continue
                        base = ones[0]
                        phi = reference_from_covector(
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
                        _reference_check_node_pattern(rec.phi, mins, subset)
                        minted.append(BDivisorRecord(
                            "?", rec.phi, None, "case_3",
                            tuple(sorted(roots)), rec.coroot_form))
            pool.extend(minted)
            if trace is not None:
                trace.append(RecursionNode(
                    tuple(i + 1 for i in subset), mu.coords,
                    tuple(sorted(levi)), case or "-",
                    tuple(r.phi.values for r in minted)))
    return pool


def _walk_outcome(walk, m, psi):
    """(records, trace, warnings) of one walk, or the error it raised."""
    trace, warnings = [], []
    try:
        recs = walk(m, psi, trace, warnings)
    except ValueError as exc:  # LunaError, RecoveryError, SphericalError
        return type(exc), str(exc)
    return recs, trace, warnings


def _face_nodes(m):
    """(faces, facets): the subsets of the minimal generators (1-based)
    that are the generators on some face of cone(M), and those on some
    facet, from the facet normals of the cone: a subset is a face iff it
    holds every generator on the facets containing it."""
    mins = [g.int_coords() for g in m.minimal_generators]
    normals = RationalCone.from_generators(m.gen_vectors, dim=m.dim).facet_normals

    def zero_set(n):
        return {j for j, g in enumerate(mins)
                if sum(a * b for a, b in zip(n, g)) == 0}

    out = set()
    for size in range(len(mins) + 1):
        for subset in itertools.combinations(range(len(mins)), size):
            containing = [n for n in normals if set(subset) <= zero_set(n)]
            closure = tuple(j for j in range(len(mins))
                            if all(j in zero_set(n) for n in containing))
            if closure == subset:
                out.add(tuple(j + 1 for j in subset))
    facets = {tuple(j + 1 for j in sorted(zero_set(n))) for n in normals}
    return out, facets


def _reference_outcome_on_faces(m, psi):
    """The outcome of the subset walk with its trace and its warnings
    kept at the nodes that can mint only: the faces of cone(M) that are
    the whole cone, a facet whose Levi is the type-a roots, or a face
    whose Levi holds a type-b root."""
    outcome = _walk_outcome(reference_recover_prime, m, psi)
    if isinstance(outcome[0], type):
        return outcome
    recs, trace, warnings = outcome
    faces, facets = _face_nodes(m)
    table = classify_root_types(m, psi)
    pi_a = frozenset(table.roots_of_type("a"))
    pi_b = frozenset(table.roots_of_type("b"))
    whole = tuple(range(1, len(m.minimal_generators) + 1))
    kept = [node for node in trace if node.subset in faces and (
        node.subset == whole
        or node.subset in facets and frozenset(node.levi_roots) == pi_a
        or pi_b & frozenset(node.levi_roots))]
    names = {str(node.subset) for node in kept}
    return (recs, kept,
            [w for w in warnings
             if w.split(" at node ")[1].split(";")[0] in names])


@st.composite
def functional_inputs(draw):
    """(phi, v): rational values on a lattice of `lattice_vectors` (full,
    a sublattice or of lower rank), and v in the lattice, in its rational
    span, or drawn from the whole space (often off the span)."""
    lat, v = draw(lattice_vectors())
    values = draw(st.lists(entries, min_size=lat.rank, max_size=lat.rank))
    return LatticeFunctional(lat, tuple(values)), v


@settings(max_examples=300, deadline=None)
@given(functional_inputs())
@example((LatticeFunctional(Lattice.span([(2, 0), (1, 3)], 2),
                            (Fraction(1, 2), Fraction(-2, 3))), (1, 1)))
@example((LatticeFunctional(Lattice.span([(1, 1, 0)], 3), (Fraction(3, 4),)),
          (1, 0, 0)))
@example((LatticeFunctional(Lattice(2, ()), ()), (0, 0)))
def test_integer_form_evaluation_matches_the_coordinate_reference(data):
    phi, v = data
    lat = phi.lattice
    d, w = phi.integer_form
    assert d > 0 and gcd(d, *w) == 1
    pivots = {next(j for j, x in enumerate(b) if x) for b in lat.basis}
    assert all(x == 0 for j, x in enumerate(w) if j not in pivots)
    try:
        expected = reference_evaluate(phi, v)
    except LunaError:
        with pytest.raises(LunaError):
            phi.evaluate(v)
    else:
        assert phi.evaluate(v) == expected
    with pytest.raises(PolyhedralError):
        phi.evaluate(tuple(v) + (0,))


@settings(max_examples=200, deadline=None)
@given(lattice_vectors(), st.data())
def test_from_covector_matches_the_reference(data, draw):
    lat, v = data
    cov = CovectorVec(GroupSpec((), lat.dim), tuple(draw.draw(
        st.lists(entries, min_size=lat.dim, max_size=lat.dim))))
    phi = LatticeFunctional.from_covector(cov, lat)
    assert phi == reference_from_covector(cov, lat)
    if lat.coords(v) is not None:
        assert phi.evaluate(v) == sum(a * b for a, b in zip(cov.coords, v))


# -- one representation of an exact rational ----------------------------------
#
# An exact rational is an `int` when it is integral and a `Fraction` with
# denominator > 1 otherwise.  The reference below is `Lattice.integer_form`
# as it was before it computed on integers: back substitution in Fractions,
# then the denominators cleared.

rationals = st.one_of(st.integers(-6, 6),
                      st.fractions(-3, 3, max_denominator=4))


def assert_canonical(values, expected):
    """values equal expected one by one, each an int exactly when it is
    integral and otherwise a Fraction with denominator > 1."""
    assert len(values) == len(expected)
    for x, e in zip(values, expected):
        e = Fraction(e)
        assert x == e
        if e.denominator == 1:
            assert type(x) is int, x
        else:
            assert type(x) is Fraction and x.denominator > 1, x


def reference_integer_form(lattice, values):
    piv = [next(j for j, x in enumerate(b) if x) for b in lattice.basis]
    x = []
    for b, p, val in zip(reversed(lattice.basis), reversed(piv),
                         reversed(values)):
        rest = sum(b[q] * y for q, y in zip(piv[len(piv) - len(x):], x))
        x.insert(0, (Fraction(val) - rest) / b[p])
    d = lcm(*(y.denominator for y in x))
    w = [0] * lattice.dim
    for p, y in zip(piv, x):
        w[p] = int(y * d)
    return d, tuple(w)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(*[st.lists(rationals, min_size=n, max_size=n)] * 2)),
    rationals)
@example(([Fraction(1, 2), 3], [Fraction(1, 2), Fraction(4, 1)]), 2)
def test_weights_and_covectors_hold_int_exactly_when_integral(pair, c):
    a, b = pair
    spec = GroupSpec((), len(a))
    for cls in (WeightVec, CovectorVec):
        u, v = cls(spec, a), cls(spec, b)
        assert_canonical(u.coords, a)
        assert_canonical((u + v).coords, [x + y for x, y in zip(a, b)])
        assert_canonical((u - v).coords, [x - y for x, y in zip(a, b)])
        assert_canonical(u.scale(c).coords, [c * x for x in a])
    w = WeightVec(spec, a)
    assert_canonical((-w).coords, [-x for x in a])
    assert w.is_integral == all(Fraction(x).denominator == 1 for x in a)
    if w.is_integral:
        assert w.int_coords() == tuple(a)
    assert_canonical([pairing(CovectorVec(spec, b), w)],
                     [sum(Fraction(x) * y for x, y in zip(a, b))])


@pytest.mark.parametrize("factors", [
    (("A", 3),), (("B", 3),), (("C", 2),), (("G", 2),), (("F", 4),),
    (("D", 4), ("A", 1))], ids=str)
def test_root_data_holds_int_exactly_when_integral(factors):
    rd = build_root_data(GroupSpec(factors, 1))
    for i in range(rd.n_simple):
        for vec in (rd.simple_root(i), rd.simple_coroot(i),
                    rd.fundamental_weight(i)):
            assert all(type(x) is int for x in vec.coords)
    assert_canonical(rd.root_lengths, rd.root_lengths)
    for row in rd.sym_form:
        assert_canonical(row, row)
    alpha = rd.simple_root(0)
    assert_canonical([symmetric_form(rd, alpha, alpha)],
                     [2 * rd.root_lengths[0]])


@settings(max_examples=200, deadline=None)
@given(lattice_vectors(), st.data())
def test_functionals_hold_int_exactly_when_integral(data, draw):
    lat, v = data
    values = draw.draw(st.lists(rationals, min_size=lat.rank,
                                max_size=lat.rank))
    other = draw.draw(st.lists(rationals, min_size=lat.rank,
                               max_size=lat.rank))
    phi, psi = LatticeFunctional(lat, values), LatticeFunctional(lat, other)
    assert_canonical(phi.values, values)
    assert_canonical(LatticeFunctional(lat, values).values, values)
    assert_canonical((phi + psi).values, [x + y for x, y in zip(values, other)])
    assert_canonical((phi - psi).values, [x - y for x, y in zip(values, other)])
    cov = CovectorVec(GroupSpec((), lat.dim), tuple(draw.draw(
        st.lists(rationals, min_size=lat.dim, max_size=lat.dim))))
    assert_canonical(LatticeFunctional.from_covector(cov, lat).values,
                     reference_from_covector(cov, lat).values)
    try:
        expected = reference_evaluate(phi, v)
    except LunaError:
        return
    assert_canonical([phi.evaluate(v)], [expected])


@st.composite
def lattice_values(draw):
    """(lattice, v, values): a lattice and a vector of `lattice_vectors`,
    and one rational per basis vector."""
    lat, v = draw(lattice_vectors())
    return lat, v, draw(st.lists(rationals, min_size=lat.rank,
                                 max_size=lat.rank))


@settings(max_examples=300, deadline=None)
@given(lattice_values())
# the pivots 2 and 3 divide neither entry, so both rows scale (d, w)
@example((Lattice.span([(2, 1, 0), (0, 3, 1)], 3), (0, 0, 0), [0, 1]))
def test_integer_form_matches_the_fraction_reference(data):
    lat, _, values = data
    assert lat.integer_form(values) == reference_integer_form(lat, values)


@settings(max_examples=300, deadline=None)
@given(lattice_values())
# the second pivot does not divide: the first coordinate is scaled too
@example((Lattice.span([(1, 0), (0, 2)], 2), (1, 1), [1, 1]))
def test_from_coords_inverts_coords_on_the_span(data):
    lat, v, coeffs = data
    c = lat.coords(v)
    if c is not None:
        assert_canonical(c, reference_coords(lat, v))
        assert_canonical(lat.from_coords(c), v)
    point = lat.from_coords(coeffs)
    assert_canonical(point, [sum(Fraction(a) * b[i]
                                 for a, b in zip(coeffs, lat.basis))
                             for i in range(lat.dim)])
    assert_canonical(lat.coords(point), coeffs)


@pytest.mark.parametrize("entry", build_corpus(), ids=lambda e: e.name)
def test_integer_walk_matches_the_reference_on_the_corpus(entry):
    assert _walk_outcome(recover_prime, entry.monoid, entry.psi) == \
        _reference_outcome_on_faces(entry.monoid, entry.psi)


BENCH_INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs"
BENCH_DOCUMENTS = sorted(BENCH_INPUTS.glob("*/*.json"))


@pytest.mark.parametrize("path", BENCH_DOCUMENTS,
                         ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_integer_walk_matches_the_reference_on_the_bench_documents(path):
    # the ladders and cliffs: non-simplicial cones and every flag type
    doc = parse_input(path.read_bytes())
    ref = parse_input(path.read_bytes())
    assert _walk_outcome(recover_prime, doc.monoid, doc.psi) == \
        _reference_outcome_on_faces(ref.monoid, ref.psi)


TORUS3 = build_root_data(GroupSpec((), 3))
NO_ROOTS = make_spherical_roots(TORUS3, ())


def test_integer_walk_matches_the_reference_on_the_3x4_grid():
    # 12 minimal generators, the most the reference takes; 10 faces, of
    # which the walk visits the whole cone and the 4 facets
    gens = [(x, y, 1) for x in range(3) for y in range(4)]
    m = torus_monoid(TORUS3, gens)
    assert len(m.minimal_generators) == REFERENCE_MAX_MINIMAL_GENERATORS
    outcome = _walk_outcome(recover_prime, m, NO_ROOTS)
    assert len(outcome[0]) == 4
    assert len(outcome[1]) == 5
    assert outcome == _reference_outcome_on_faces(torus_monoid(TORUS3, gens),
                                                  NO_ROOTS)


def test_face_walk_keeps_the_case2_warnings_at_faces():
    # so3_x1 times the cone over the unit square: A1 x T^3 with a type-b
    # root on a non-simplicial cone.  The subset walk warns at 15 nodes,
    # 6 of them off the faces; the face walk keeps the other 9 and every
    # divisor.  It visits 15 of the 20 faces: the ray through 2 alpha and
    # the 4 edges through it are neither facets nor inside the face where
    # the coroot vanishes
    rd = build_root_data(GroupSpec((("A", 1),), 3))
    gens = [(2, 0, 0, 0)] + [(0, x, y, 1) for x in (0, 1) for y in (0, 1)]
    psi = make_spherical_roots(rd, (rd.weight(gens[0]),))

    def monoid():
        return WeightMonoid(rd, tuple(rd.weight(g) for g in gens))

    outcome = _walk_outcome(recover_prime, monoid(), psi)
    assert len(outcome[1]) == 15
    assert len(outcome[2]) == 9
    assert len(_walk_outcome(reference_recover_prime, monoid(), psi)[2]) == 15
    assert outcome == _reference_outcome_on_faces(monoid(), psi)


@st.composite
def polygon_cones(draw, max_points=7):
    """Generators of a saturated toric monoid: the lattice points (x, y, 1)
    of a lattice polygon in [0, 2]^2 (or a segment, or a point) at
    height 1, at most `max_points` of them.  A lattice polygon is normal,
    so they generate the lattice points of their cone."""
    pts = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                        min_size=1, max_size=min(4, max_points), unique=True))
    cone = RationalCone.from_generators([(x, y, 1) for x, y in pts], dim=3)
    gens = [(x, y, 1) for x in range(3) for y in range(3)
            if cone.contains((x, y, 1))]
    assume(len(gens) <= max_points)
    return gens


@settings(max_examples=100, deadline=None)
@given(polygon_cones())
@example([(x, y, 1) for x in range(3) for y in range(2)])
@example([(0, 0, 1), (1, 0, 1), (0, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 1),
          (1, 1, 1)])
def test_integer_walk_matches_the_reference_on_toric_cones(gens):
    m = torus_monoid(TORUS3, gens)
    ref = torus_monoid(TORUS3, gens)
    assert _walk_outcome(recover_prime, m, NO_ROOTS) == \
        _reference_outcome_on_faces(ref, NO_ROOTS)


@settings(max_examples=100, deadline=None)
@given(polygon_cones(), st.data())
def test_membership_in_a_saturated_cone_is_cone_and_lattice(gens, data):
    """A saturated monoid, and each of its localizations, is the set of
    lattice points of its cone."""
    m = torus_monoid(TORUS3, gens)
    if data.draw(st.booleans()):
        mins = m.minimal_generators
        mu = data.draw(st.sampled_from(mins))
        for _ in range(data.draw(st.integers(0, 2))):
            mu = mu + data.draw(st.sampled_from(mins))
        m = m.localize(mu)
    cone = RationalCone.from_generators(m.gen_vectors)
    for _ in range(10):
        v = data.draw(st.tuples(st.integers(-4, 6), st.integers(-4, 6),
                                st.integers(-2, 4)))
        ok, cert = m.contains_vector(v)
        assert ok == (cone.contains(v) and m.lattice.contains(v))
        if ok:
            assert_certificate(cert, m.gen_vectors, v)


def _divisor_table(datum):
    return sorted((d.phi.values, tuple(sorted(d.stabilizer.roots)))
                  for d in datum.divisors)


@settings(max_examples=20, deadline=None)
@given(polygon_cones(), st.data())
def test_localization_commutes_with_recovery_on_toric_cones(gens, data):
    m = torus_monoid(TORUS3, gens)
    datum = recover_divisors(m, NO_ROOTS)
    mins = m.minimal_generators
    subset = data.draw(st.lists(st.sampled_from(mins), min_size=1,
                                max_size=len(mins), unique=True))
    mu = subset[0]
    for g in subset[1:]:
        mu = mu + g
    loc = localize_datum(datum, mu)
    # no spherical roots, so their restriction to the Levi is empty too
    direct = recover_divisors(m.localize(mu), NO_ROOTS)
    assert direct.monoid.lattice == loc.monoid.lattice
    assert _divisor_table(direct) == _divisor_table(loc)


# -- recovery does not depend on how the monoid's generators are listed -------

def _full_divisor_table(datum):
    return [(d.divisor_id, d.phi.values, tuple(sorted(d.stabilizer.roots)),
             d.source, d.source_roots) for d in datum.divisors]


def _relisted(gens, orders):
    """Other generator lists of the same monoid: `gens` in each of the
    given orders, with its first generator repeated, and with g1 + gk
    added for each k (2·g1 at k = 1)."""
    first = gens[0]
    return ([[gens[i] for i in order] for order in orders]
            + [gens + [first]]
            + [gens + [first + g] for g in gens])


def _assert_relisting_keeps_the_table(rd, gens, psi, orders):
    expected = _full_divisor_table(
        recover_divisors(WeightMonoid(rd, tuple(gens)), psi))
    variants = _relisted(gens, orders)
    for variant in variants:
        datum = recover_divisors(WeightMonoid(rd, tuple(variant)), psi)
        assert _full_divisor_table(datum) == expected, variant
    return len(variants)


def test_recovery_ignores_the_listing_of_the_generators_on_the_corpus():
    rng = Random(5)
    count = 0
    for e in build_corpus():
        gens = list(e.monoid.generators)
        shuffled = list(range(len(gens)))
        rng.shuffle(shuffled)
        orders = [shuffled, list(reversed(range(len(gens))))]
        count += _assert_relisting_keeps_the_table(e.rd, gens, e.psi, orders)
    assert count == 109


@settings(max_examples=30, deadline=None)
@given(polygon_cones(), st.data())
def test_recovery_ignores_the_listing_of_the_generators_on_toric_cones(
        vectors, data):
    gens = [TORUS3.weight(v) for v in vectors]
    order = data.draw(st.permutations(range(len(gens))))
    # a torus has no simple roots, so every relisting passes dominance
    _assert_relisting_keeps_the_table(TORUS3, gens, NO_ROOTS, [order])


# -- the recovery identity read off the dual rays -----------------------------

@settings(max_examples=60, deadline=None)
@given(polygon_cones())
@example([(x, y, 1) for x in range(3) for y in range(3)])
def test_recovery_identity_matches_the_cut_cone_reference_on_toric_cones(gens):
    datum = recover_divisors(torus_monoid(TORUS3, gens), NO_ROOTS)
    for kind, divisors in tampered_divisor_sets(datum):
        variant = replace(datum, divisors=divisors)
        assert _monoid_recovery_identity(variant) == \
            reference_monoid_recovery_identity(variant), kind
        assert validate_luna_datum(variant).violations == \
            reference_violations(variant), kind
