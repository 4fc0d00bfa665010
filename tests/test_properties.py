"""Hypothesis-driven property tests for the algebraic invariants."""

import itertools
import json
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import gcd, prod
from operator import mul
from pathlib import Path
from random import Random
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from builders import (
    coroot,
    from_covector,
    fundamental_weight,
    group_case_document,
    halfspace_datum,
    integer_kernel,
    localize_datum,
    monoid_of,
    pairing,
    product,
    saturation,
    simplex_monoid,
    zero_cone,
)
from corpus import build_corpus
from references import (
    SATURATION_WARNING,
    reference_classify_root_types,
    reference_cone,
    reference_det,
    reference_facet_basis_rows,
    reference_half_coroot,
    reference_inequality_cone,
    reference_integer_solve,
    reference_member,
    reference_minimal_generators,
    reference_monoid_membership,
    reference_normality_test,
    reference_rational_solve,
    reference_roots_in_lattice,
    reference_stabilizers_of,
    reference_type_a_roots,
    reference_validation,
    reference_vertex_description,
)
from test_recovery import (
    _pair_datum,
    recover_entry,
    reference_monoid_recovery_identity,
    reference_violations,
    tampered_divisor_sets,
)
from sphervar import monoid as monoid_module
from sphervar import polyhedral
from sphervar.cli import parse_input
from sphervar.luna import BDivisorRecord, LatticeFunctional, LunaError
from sphervar.monoid import WeightMonoid
from sphervar.polyhedral import (
    Lattice,
    MonoidSearch,
    PointedQuotient,
    PolyhedralError,
    RationalCone,
    hilbert_basis_with_units,
    hnf,
    monoid_membership,
    primitive,
)
from sphervar.recovery import (
    RecoveryError,
    RecursionNode,
    _half_column,
    _monoid_recovery_identity,
    moment_polytope,
    recover_divisors,
    recover_prime,
    recover_type_cd_divisors,
    stabilizers_of,
    validate_luna_datum,
)
from sphervar.rootsys import (
    GroupSpec,
    WeightVec,
    build_root_data,
    symmetric_form,
)
from sphervar.spherical import (
    SphericalError,
    SphericalRootSet,
    classify_root_types,
    make_spherical_roots,
    validate_roots_in_lattice,
)

vec2 = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
vec3 = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))


@settings(max_examples=80, deadline=None)
@given(st.lists(vec2, min_size=0, max_size=4))
def test_dual_involution_property(gens):
    gens = [g for g in gens if any(g)]
    cone = RationalCone.from_generators(gens, dim=2) if gens \
        else zero_cone(2)
    assert cone.dual().dual() == cone


@st.composite
def cone_inputs(draw, dim=None, max_lines=1):
    """(dim, generators, lines) in ranks 2-4, entries in [-3, 3]."""
    if dim is None:
        dim = draw(st.integers(2, 4))
    vec = st.tuples(*[st.integers(-3, 3)] * dim)
    return (dim, draw(st.lists(vec, max_size=5)),
            draw(st.lists(vec, max_size=max_lines)))


def fraction_projection(v, lines):
    """v projected orthogonally off span(lines), by Gram–Schmidt on
    `Fraction` entries."""
    def off(u, basis):
        for w in basis:
            c = sum(map(mul, u, w)) / sum(map(mul, w, w))
            u = [a - c * b for a, b in zip(u, w)]
        return u

    basis = []
    for line in lines:
        u = off([Fraction(x) for x in line], basis)
        if any(u):
            basis.append(u)
    return off([Fraction(x) for x in v], basis)


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 4).flatmap(lambda d: cone_inputs(d, max_lines=3)))
@example((3, [(1, 0, 0), (0, 0, 1), (2, -1, 3)], [(1, 1, 0), (0, 1, 1)]))
def test_cone_rays_are_the_fraction_projections_off_the_lineality(inputs):
    # rays and facet normals are primitive and orthogonal to the lineality
    # and to the span equations; the HNF lineality basis is not orthogonal,
    # so the Gram matrix behind the projection has off-diagonal entries
    dim, gens, lines = inputs
    cone = RationalCone.from_generators(gens, lines=lines, dim=dim)
    for vecs, normal_to in [(cone.rays, cone.lineality),
                            (cone.facet_normals, cone.span_equations)]:
        for v in vecs:
            assert gcd(*v) == 1
            assert not any(sum(map(mul, v, w)) for w in normal_to)
    gens = [g for g in gens if any(g)]
    projected = {reference_primitive(p) for p in
                 (fraction_projection(g, cone.lineality) for g in gens)
                 if any(p)}
    # each extreme ray modulo the lineality is the projection of a generator
    assert set(cone.rays) <= projected
    assert polyhedral._project_off(gens, Lattice.span(cone.lineality, dim)) \
        == sorted(projected)


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


@settings(max_examples=100, deadline=None)
@given(cone_inputs(max_lines=2))
# the span equations that double description spans with index 13
@example((4, [(2, -3, 2, 3), (-3, -2, 3, 1)], []))
def test_dual_is_the_cone_over_the_facet_normals(inputs):
    # `dual` swaps the two descriptions; double description of the cone
    # over the facet normals, with the span equations as lines, agrees
    dim, gens, lines = inputs
    cone = RationalCone.from_generators(gens, lines=lines, dim=dim)
    assert cone.dual() == reference_cone(
        cone.facet_normals, cone.span_equations, dim)


@st.composite
def linear_part_cone_inputs(draw):
    """(build, dim, vectors, linear part) in dims 2-5, entries in [-7, 7]:
    generators with lines, or inequalities with equations."""
    dim = draw(st.integers(2, 5))
    vec = st.tuples(*[st.integers(-7, 7)] * dim)
    return (draw(st.sampled_from(["generators", "inequalities"])), dim,
            draw(st.lists(vec, max_size=3)), draw(st.lists(vec, max_size=2)))


@settings(max_examples=150, deadline=None)
@given(linear_part_cone_inputs())
# double description spans the lines of {x : (2, 3, 5).x >= 0} with index
# 2, as (1, 6, -4), (0, 10, -6); their integer points are (1, 1, -1),
# (0, 5, -3)
@example(("inequalities", 3, [(2, 3, 5)], []))
# and these span equations with index 13, as (1, 57, 26, 39),
# (0, 91, 39, 65); saturated they are (1, 1, 2, -1), (0, 7, 3, 5)
@example(("generators", 4, [(2, -3, 2, 3), (-3, -2, 3, 1)], []))
def test_a_cone_keeps_the_integer_points_of_its_linear_parts(inputs):
    # the lineality and the span equations are each the HNF basis of its
    # saturation, the one built first that of double description's kernel,
    # so the form depends on the cone alone: rebuilt from either canonical
    # description it is the same cone
    build, dim, vecs, linear = inputs
    cone = (RationalCone.from_generators if build == "generators"
            else RationalCone.from_inequalities)(vecs, linear, dim=dim)
    for part in (cone.lineality, cone.span_equations):
        assert part == saturation(Lattice.span(part, dim)).basis
    kernel, _ = polyhedral._dd(
        dim, [*vecs, *linear, *(tuple(-x for x in v) for v in linear)])
    assert (cone.span_equations if build == "generators" else cone.lineality) \
        == saturation(Lattice.span(kernel, dim)).basis
    assert RationalCone.from_generators(
        cone.rays, cone.lineality, dim=dim) == cone
    assert RationalCone.from_inequalities(
        cone.facet_normals, cone.span_equations, dim=dim) == cone


@st.composite
def simplicial_cone_inputs(draw):
    """(dim, generators, lines) in dims 1-5, entries in [-9, 9]: mostly
    `dim` generators, each a multiple of a vector in [-3, 3]^dim, in
    permuted order, otherwise fewer; then possibly a zero, a duplicate or
    a negated generator, and lines."""
    dim = draw(st.integers(1, 5))
    vec = st.tuples(*[st.integers(-3, 3)] * dim)
    count = draw(st.one_of(st.just(dim), st.integers(0, dim)))
    gens = [tuple(draw(st.integers(1, 3)) * x for x in v)
            for v in draw(st.lists(vec, min_size=count, max_size=count))]
    if gens and draw(st.booleans()):
        kind = draw(st.sampled_from(["zero", "duplicate", "negated"]))
        g = draw(st.sampled_from(gens))
        gens.append((0,) * dim if kind == "zero" else
                    g if kind == "duplicate" else tuple(-x for x in g))
    lines = draw(st.lists(vec, max_size=2)) if draw(st.booleans()) else []
    return dim, draw(st.permutations(gens)), lines


@settings(max_examples=300, deadline=None)
@given(simplicial_cone_inputs())
# rank-deficient: double description's kernel basis spans the span
# equations with index 13, and the cone keeps their saturation
@example((4, [(2, -3, 2, 3), (-3, -2, 3, 1)], []))
@example((3, [(0, 2, 0), (-1, 0, 0), (0, 0, 3), (0, 1, 0)], []))
@example((2, [(1, 0), (0, 1)], [(0, 0)]))  # p = -1 on the sorted rays
@example((2, [(1, 0), (0, 1)], [(1, 1)]))
@example((2, [(2, 1), (4, 2)], []))
def test_simplicial_cones_match_double_description(inputs):
    # a full-dimensional simplicial cone skips double description and
    # every other cone runs it once at build and once more on the first
    # read of its other description; both give the double-description
    # form.  The same vectors as normals, with the lines as equations, cut
    # out the dual cone: simplicial exactly when that one is.
    dim, gens, lines = inputs
    rays = {reference_primitive(g) for g in gens if any(g)}
    simplicial = (not any(map(any, lines)) and len(rays) == dim
                  and reference_det(list(rays)) != 0)
    real = polyhedral._dd
    for build, reference, other_side in [
            (RationalCone.from_generators, reference_cone, "rays"),
            (RationalCone.from_inequalities, reference_inequality_cone,
             "facet_normals")]:
        calls = []
        with mock.patch.object(polyhedral, "_dd",
                               lambda *a: calls.append(a) or real(*a)):
            cone = build(gens, lines, dim=dim)
            assert len(calls) == (0 if simplicial else 1)
            getattr(cone, other_side)
            assert len(calls) == (0 if simplicial else 2)
            assert cone == reference(gens, lines, dim)
            assert len(calls) == (0 if simplicial else 2)


def test_recovery_and_its_moment_polytope_run_one_double_description_a_cone(
        monkeypatch):
    # the walk reads the facets of the monoid's cone and the polytope the
    # rays of its homogenized cone: neither reads the other description,
    # so every double description runs inside a build, at most one each
    real = polyhedral._dd
    calls = []
    built = []  # the double descriptions each build ran

    def counted(build):
        def wrapper(*args, **kwargs):
            before = len(calls)
            cone = build(*args, **kwargs)
            built.append(len(calls) - before)
            return cone
        return staticmethod(wrapper)

    monkeypatch.setattr(polyhedral, "_dd", lambda *a: calls.append(a) or real(*a))
    for name in ("from_generators", "from_inequalities"):
        monkeypatch.setattr(RationalCone, name, counted(getattr(RationalCone, name)))
    total = 0
    for e in build_corpus():
        calls.clear()
        built.clear()
        datum = recover_entry(e)
        poly = moment_polytope(datum, e.rd.weight((0,) * e.rd.dim),
                               {d.divisor_id: 1 for d in datum.divisors})
        poly.vertices_ambient(), poly.rays_ambient(), poly.is_bounded()
        assert max(built) <= 1 and len(calls) == sum(built), e.name
        total += len(calls)
    assert total


@st.composite
def halfspace_sets(draw):
    """(dim, [(normal, order)], base) in dimension 1 to 3, the half-space
    n.x >= -order per pair: too few or parallel normals leave lines,
    opposite ones bound or empty the polytope."""
    dim = draw(st.integers(1, 3))
    pairs = draw(st.lists(
        st.tuples(st.tuples(*[rationals] * dim), st.integers(-2, 2)),
        max_size=5))
    return dim, pairs, draw(st.tuples(*[rationals] * dim))


@settings(max_examples=120, deadline=None)
@given(halfspace_sets())
@example((2, [((1, 0), 1)], (0, 0)))  # a line
@example((1, [((1,), 0)], (Fraction(1, 2),)))  # a ray
@example((2, [((1, 0), 0), ((-1, 0), 1), ((0, 1), 0), ((0, -1), 1)],
          (0, 0)))  # bounded
@example((1, [((1,), -1), ((-1,), 0)], (0,)))  # empty
@example((3, [((1, 1, 0), 1), ((-1, -1, 0), 0), ((0, 0, 1), 0)],
          (1, 0, Fraction(-1, 3))))  # a line, a vertex off it, a ray
def test_moment_polytope_matches_the_vertex_description_reference(case):
    dim, pairs, base = case
    datum = halfspace_datum(dim, [n for n, _ in pairs])
    X = datum.lattice
    mp = moment_polytope(datum, datum.rd.weight(base),
                         {f"D{i + 1}": o for i, (_, o) in enumerate(pairs)})
    verts, rays, lines = reference_vertex_description(
        dim, [(n, -o) for n, o in pairs])
    lines += [tuple(-x for x in l) for l in lines]
    assert mp.vertices_ambient() == sorted(
        tuple(a + b for a, b in zip(X.from_coords(v), base)) for v in verts)
    assert mp.rays_ambient() == sorted(X.from_coords(r) for r in rays + lines)
    assert mp.is_bounded() is (not verts or not (rays or lines))
    assert mp.is_empty() is (not verts)


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
    # `Lattice.contains` decides membership by the echelon basis; the
    # reference solver finds an exact integer combination by Euclid's
    # algorithm on the columns themselves
    cols, target = system
    n = len(target)
    sol = reference_integer_solve(cols, target)
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
    w1 = rd.weight(c2)
    w2 = rd.weight((1, 1))
    lhs = pairing(c1, w1.scale(a) + w2.scale(b))
    assert lhs == a * pairing(c1, w1) + b * pairing(c1, w2)


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
def torus_generators(draw, min_size=1, max_size=4):
    """Up to max_size + 1 generators of rank <= 3 with entries in [-2, 2],
    drawn to include zero vectors and pairs g, -g (invertible
    generators), and no generator at all when min_size is 0."""
    rank = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(-2, 2)] * rank)
    gens = draw(st.lists(st.one_of(vec, st.just((0,) * rank)),
                         min_size=min_size, max_size=max_size))
    if gens and draw(st.booleans()):
        gens.append(tuple(-x for x in draw(st.sampled_from(gens))))
    return rank, gens


@settings(max_examples=60, deadline=None)
@given(torus_generators())
def test_invertibility_matches_membership_search(data):
    rank, gens = data
    rd = build_root_data(GroupSpec((), rank))
    m = monoid_of(rd, gens)
    expected = tuple(monoid_membership(tuple(-x for x in g), gens)
                     for g in gens)
    assert m._invertible_flags == expected
    for g, inv in zip(gens, expected):
        if inv:
            continue
        loc = m.localize(rd.weight(g))
        fresh = monoid_of(rd, [w.int_coords() for w in loc.generators])
        assert loc._invertible_flags == fresh._invertible_flags
        assert loc.invertible_lattice == fresh.invertible_lattice


def reference_is_saturated(m):
    # `WeightMonoid.is_saturated` as it was before it read the generators:
    # every Hilbert-basis element of the saturation found by membership
    lat = m.lattice
    if lat.rank == 0:
        return True
    cone = reference_cone(m.gen_vectors, (), m.dim)
    units, basis = hilbert_basis_with_units(cone, lat)
    return (all(m.invertible_lattice.contains(u) for u in units.basis)
            and all(m.contains_vector(h) for h in basis))


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
# free monoids: of rank 2 in Z^3, and of lattice index 3
@example((3, [(1, 1, 0), (0, 1, 1)]))
@example((2, [(1, 1), (1, -2)]))
def test_saturation_matches_the_membership_reference(data):
    rank, gens = data
    m = monoid_of(build_root_data(GroupSpec((), rank)), gens)
    saturated = m.is_saturated()
    assert saturated == reference_is_saturated(m)
    assert saturated == reference_normality_test(m)


def test_saturation_reads_the_rays_and_matches_the_reference():
    # the Hilbert basis of the saturation of a monoid that is not free
    # reads the rays of cone(M), which a recovery leaves unread: one more
    # double description where the build ran one, and the references'
    # answer
    real = polyhedral._dd
    for m in CORPUS_MONOIDS + [simplex_monoid(4, 3),
                               simplex_monoid(4, 3, without={(1, 1, 1)})]:
        fresh = WeightMonoid(m.rd, m.generators, m.levi_roots)
        calls = []
        with mock.patch.object(polyhedral, "_dd",
                               lambda *a: calls.append(a) or real(*a)):
            fresh.cone
            at_build = len(calls)
            saturated = fresh.is_saturated()
        free = sum(map(any, fresh.gen_vectors)) == fresh.lattice.rank
        assert len(calls) == at_build * (1 if free else 2), m.generators
        assert saturated == reference_is_saturated(fresh), m.generators
        assert saturated == reference_normality_test(fresh), m.generators


@settings(max_examples=150, deadline=None)
@given(torus_generators(min_size=0, max_size=3))
@example((2, []))
@example((2, [(0, 0)]))
@example((2, [(1, 0), (-1, 0), (1, 1), (2, 1), (3, 1)]))
@example((3, [(1, 0, 1), (1, 1, 1), (1, 2, 1), (2, 0, 1), (-1, -2, -1)]))
# a unit line, two generators whose facet rows (1, 0) and (0, 1) do not
# dominate each other, and their sum, split off both
@example((3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (1, 0, 1), (2, 1, 1)]))
def test_minimal_generators_match_the_all_pairs_reference(data):
    """The degree order against every generator tried against every
    other, and the unit lattice against the reference units."""
    rank, gens = data
    m = monoid_of(build_root_data(GroupSpec((), rank)), gens)
    units = [g for g in gens if reference_member(tuple(-x for x in g), gens)]
    assert m.invertible_lattice == Lattice.span(units, rank)
    assert [g.int_coords() for g in m.minimal_generators] == \
        reference_minimal_generators(gens, m.invertible_lattice.reduce_mod)


@st.composite
def torus_monoid_pairs(draw):
    """Two generator lists of one rank, the second drawn from the first
    so that the monoids are often equal: sums of generators added, one
    generator dropped, and a free vector added, each at random."""
    rank, gens = draw(torus_generators(min_size=0, max_size=3))
    other = list(gens)
    if gens:
        for _ in range(draw(st.integers(0, 2))):
            a, b = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
            other.append(tuple(x + y for x, y in zip(a, b)))
        if draw(st.booleans()):
            other.pop(draw(st.integers(0, len(other) - 1)))
    if draw(st.booleans()):
        other.append(draw(st.tuples(*[st.integers(-2, 2)] * rank)))
    return rank, gens, draw(st.permutations(other))


@settings(max_examples=150, deadline=None)
@given(torus_monoid_pairs())
@example((2, [], [(0, 0)]))
@example((2, [], [(0, 1)]))
# equal minimal generators modulo the units, but not equal units
@example((2, [(0, 1)], [(0, 1), (1, 0), (-1, 0)]))
# (1, 1) and (3, 1) differ by the unit (2, 0)
@example((2, [(2, 0), (-2, 0), (1, 1)], [(-2, 0), (3, 1), (2, 0)]))
@example((2, [(2, 0), (-2, 0), (1, 1)], [(-2, 0), (1, 1), (1, 0)]))
def test_equality_is_mutual_membership(data):
    rank, gens, other = data
    rd = build_root_data(GroupSpec((), rank))
    expected = (all(reference_member(g, other) for g in gens)
                and all(reference_member(g, gens) for g in other))
    a, b = monoid_of(rd, gens), monoid_of(rd, other)
    assert a.equals(b) is expected
    assert b.equals(a) is expected


@pytest.mark.parametrize("gens, saturated", [
    # 999 parallelepiped points, (2, 1) the first outside the monoid
    ([(0, 1), (1, 1), (1000, 1)], False),
    # 999 parallelepiped points, every one a generator
    ([(k, 1) for k in range(1001)], True),
], ids=["fan_0_1_1000", "full_fan_1000"])
def test_saturation_of_the_thousand_fans(gens, saturated):
    m = monoid_of(build_root_data(GroupSpec((), 2)), gens)
    assert m.is_saturated() is saturated
    assert reference_is_saturated(m) is saturated
    assert reference_normality_test(m) is saturated


def test_saturation_asks_no_membership_query(monkeypatch):
    # saturation is read off the Hilbert basis of S and the keys of the
    # facet table: neither the monoid's membership query nor the search
    # behind it runs, on a monoid that is saturated or not
    def refuse(*args):
        raise AssertionError("a membership query was asked")

    monkeypatch.setattr(WeightMonoid, "contains_vector", refuse)
    monkeypatch.setattr(monoid_module, "monoid_membership", refuse)
    rd2 = build_root_data(GroupSpec((), 2))
    cases = [(simplex_monoid(4, 3, without={(1, 1, 1)}), False),
             (monoid_of(rd2, [(0, 1), (1, 1), (1000, 1)]), False),
             (monoid_of(rd2, [(k, 1) for k in range(1001)]), True)]
    for m, saturated in cases:
        assert m.is_saturated() is saturated
    for m in CORPUS_MONOIDS:
        m.is_saturated()


# -- the integer kernels against rational references -------------------------
#
# The references below are the rational-arithmetic versions of `_dd` and
# `Lattice.coords` that the integer kernels replaced.  They compute on
# `Fraction` throughout and share no code with the kernels.

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


@settings(max_examples=200, deadline=None)
@given(lattice_vectors())
def test_annihilator_is_empty_exactly_at_full_rank(data):
    # the full-rank shortcut gives what the relations among the basis
    # columns give, and only a full-rank lattice has no annihilator
    lat, v = data
    columns = [[b[j] for b in lat.basis] for j in range(lat.dim)]
    assert lat.annihilator == tuple(polyhedral._relations(columns)[1])
    assert (lat.annihilator == ()) == (lat.rank == lat.dim)
    assert lat.in_span(v) == (lat.coords(v) is not None)


# -- the ray-bounded membership search against the minor-bounded one ---------
#
# `reference_monoid_membership` (tests/references.py) is `monoid_membership`
# as it was before the search table and before the dual-ray bound; the
# properties compare the two decisions.

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
    expected = reference_member(v, gens)
    lattice = Lattice.span(gens, len(v))
    for query in (gens, MonoidSearch(map(lattice.coords, gens), lattice)):
        assert monoid_membership(v, query) is expected


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
    assert m.contains_vector(v) is reference_monoid_membership(v, ext)[0]


@st.composite
def sublattice_monoids(draw):
    """(m, targets): a monoid whose lattice X has rank below the dimension
    or a pivot above 1, and vectors in X, in span_Q(X) off X (when X is
    not saturated) and off span_Q(X) (below full rank).  The monoid is a
    torus monoid on a sublattice spanned by small vectors, with a unit in
    about half the draws, k partnered pairs in A1^2k, or the group case
    G×G/diag G at small rank."""
    kind = draw(st.sampled_from(["torus", "pairs", "group"]))
    if kind == "torus":
        dim = draw(st.integers(2, 3))
        basis = draw(st.lists(st.tuples(*[st.integers(-1, 2)] * dim),
                              min_size=1, max_size=dim))
        basis[0] = tuple(draw(st.sampled_from([1, 2, 3])) * x for x in basis[0])
        gens = draw(st.lists(st.lists(st.integers(-1, 1), min_size=len(basis),
                                      max_size=len(basis)),
                             min_size=1, max_size=3))
        gens = [tuple(sum(c * b[i] for c, b in zip(cs, basis)) for i in range(dim))
                for cs in gens]
        if draw(st.booleans()):  # a unit
            gens.append(tuple(-x for x in draw(st.sampled_from(gens))))
        m = monoid_of(build_root_data(GroupSpec((), dim)), gens)
    elif kind == "pairs":
        m = _pair_datum(draw(st.integers(1, 2)))[0]
    else:
        dynkin, n = draw(st.sampled_from([("A", 1), ("A", 2), ("A", 3), ("B", 2),
                                          ("C", 2), ("D", 3), ("G", 2)]))
        rd = build_root_data(GroupSpec(((dynkin, n), (dynkin, n))))
        m = monoid_of(rd, group_case_document(dynkin, n)["monoid_generators"])
    X = m.lattice
    assume(X.rank < m.dim or not X._unit_pivots)
    coeffs = draw(st.lists(st.integers(-1, 2), min_size=len(m.gen_vectors),
                           max_size=len(m.gen_vectors)))
    inside = tuple(sum(c * g[i] for c, g in zip(coeffs, m.gen_vectors))
                   for i in range(m.dim))
    targets = [inside]
    off_lattice = [b for b in saturation(X).basis if not X.contains(b)]
    if off_lattice:
        w = draw(st.sampled_from(off_lattice))
        targets.append(tuple(a + b for a, b in zip(inside, w)))
    if X.rank < m.dim:
        j = draw(st.sampled_from([j for j in range(m.dim)
                                  if any(a[j] for a in X.annihilator)]))
        targets.append(tuple(a + (i == j) for i, a in enumerate(inside)))
    return m, targets


@settings(max_examples=100, deadline=None)
@given(sublattice_monoids())
def test_cone_in_lattice_coordinates_matches_the_ambient_cone(data):
    # cone(M) is held in the coordinates of X: its facet normals are the
    # ambient facet normals read on the basis of X, made primitive, with
    # the same lineality, and membership reads a target into X first
    m, targets = data
    ambient = reference_cone(m.gen_vectors, (), m.dim)
    rows = reference_facet_basis_rows(m, ambient)
    assert m.cone.facet_normals == tuple(sorted(map(primitive, rows)))
    assert len(m.cone.lineality) == len(ambient.lineality)
    for v in targets:
        assert m.contains_vector(v) is reference_monoid_membership(v, m.gen_vectors)[0]


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
    sat = saturation(Lattice.span(list(rays), dim))
    coord_rows = [[int(x) for x in sat.coords(r)] for r in rays]
    out = set()
    for rep in reference_box_residues(coord_rows):
        amb = sat.from_coords(rep)
        t = reference_rational_solve(list(rays), amb)
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
        sat = saturation(Lattice.span(list(sub), q))
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
                    lattice.from_coords(reference_integer_solve(lift_cols, p)))
        lifted.append(units.reduce_mod(vec) if units.rank else vec)
    return units, sorted(lifted)


# The reference spends about 0.2 ms on each box residue it enumerates,
# and one unbounded draw took 241 s; every example here enumerates at
# most 16 residues, and about 1 draw in 600 passes this bound
REFERENCE_MAX_VOLUME = 5000


UNIT_LINE_CONE = RationalCone.from_generators(
    [(0, 0, 1, 0), (1, 0, 1, 0), (0, 1, 1, 0), (1, 1, 1, 0)], [(0, 0, 0, 1)])
PLANAR_CONE = RationalCone.from_generators([(1, 0, 0), (1, 2, 0)])


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
# a square cone with a unit line, and a cone of rank 2 in Z^3
@example((UNIT_LINE_CONE, Lattice.full(4)))
@example((PLANAR_CONE, Lattice.full(3)))
def test_triangulated_hilbert_basis_matches_all_subsets_reference(inputs):
    cone, lattice = inputs
    ref = reference_hilbert_basis_with_units(cone, lattice,
                                             REFERENCE_MAX_VOLUME)
    assume(ref is not None)
    units, basis = hilbert_basis_with_units(cone, lattice)
    assert (units, basis) == ref


@settings(max_examples=300, deadline=None)
@given(hilbert_inputs())
@example((UNIT_LINE_CONE, Lattice.full(4)))
@example((PLANAR_CONE, Lattice.full(3)))
# a lattice of index 25 under a cone of rank 2 in Z^3
@example((PLANAR_CONE, Lattice.span([(5, 0, 0), (0, 5, 0), (0, 0, 1)], 3)))
# cones leaving the span of the lattice, by a ray and by the lineality
@example((RationalCone.from_generators([(1, 0, 0), (0, 1, 0), (1, 1, 1)],
                                       dim=3),
          Lattice.span([(1, 0, 0), (0, 2, 0)], 3)))
@example((RationalCone.from_generators([(1, 0, 0)], [(0, 1, 1)], dim=3),
          Lattice.span([(1, 0, 0), (0, 1, 0)], 3)))
def test_quotient_cone_read_off_matches_double_description(inputs):
    # the quotient cone read off the Hermite rows is the cone that double
    # description builds over the projected rays, and it spans Z^q
    cone, lattice = inputs
    quotient = PointedQuotient(cone, lattice)
    rays = {primitive(quotient.project(r)) for r in quotient.cone.rays}
    if quotient.pointed is None:
        assert quotient.q == 0 and not rays
        return
    assert quotient.pointed == RationalCone.from_generators(
        sorted(rays), dim=quotient.q)
    assert quotient.pointed.span_rank() == quotient.q


@pytest.mark.parametrize("cone, lattice", [
    (UNIT_LINE_CONE, Lattice.full(4)), (PLANAR_CONE, Lattice.full(3))],
    ids=["unit line", "rank below dimension"])
def test_the_quotient_cone_takes_no_double_description(cone, lattice):
    calls = []
    real = polyhedral._dd
    with mock.patch.object(polyhedral, "_dd",
                           lambda *a: calls.append(a) or real(*a)):
        units, basis = hilbert_basis_with_units(cone, lattice)
    assert calls == []
    assert (units, basis) == reference_hilbert_basis_with_units(cone, lattice)


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
    vals = tuple(sum(c * Fraction(b) for c, b in zip(cov, basis))
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
                            phi = reference_from_covector(
                                reference_half_coroot(rd, alpha), X)
                            _reference_check_node_pattern(phi, mins, subset)
                            for _ in range(2):
                                minted.append(BDivisorRecord(
                                    "?", phi, None, "case_2", (alpha,)))
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
                        # no case-3 divisor is based on a case-2 one (the
                        # argument in `recover_prime`), checked on every
                        # input the reference walks
                        assert base.source != "case_2", (subset, alpha)
                        phi = reference_from_covector(
                            coroot(rd, alpha), X) - base.phi
                        if phi.values in new:
                            new[phi.values][0].append(alpha)
                        else:
                            new[phi.values] = ([alpha], BDivisorRecord(
                                "?", phi, None, "case_3", ()))
                    for values in sorted(new):
                        roots, rec = new[values]
                        if any(r.phi.values == values for r in overline):
                            raise RecoveryError(
                                "invalid datum: reconstructed divisor "
                                "duplicates a recovered one")
                        _reference_check_node_pattern(rec.phi, mins, subset)
                        minted.append(BDivisorRecord(
                            "?", rec.phi, None, "case_3",
                            tuple(sorted(roots))))
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


def _facet_nodes(m):
    """The subsets of the minimal generators (1-based) that are the
    generators on some facet of cone(M), from the facet normals of the
    cone."""
    mins = [g.int_coords() for g in m.minimal_generators]
    normals = RationalCone.from_generators(m.gen_vectors, dim=m.dim).facet_normals
    return {tuple(j + 1 for j, g in enumerate(mins)
                  if sum(a * b for a, b in zip(n, g)) == 0) for n in normals}


def _reference_outcome_on_faces(m, psi):
    """The outcome of the subset walk with its trace and its warnings
    kept at the nodes that can mint only: the whole cone, the facets of
    cone(M) whose Levi is the type-a roots, and for each type-b root
    alpha the face F_alpha spanned by the generators its coroot vanishes
    on."""
    outcome = _walk_outcome(reference_recover_prime, m, psi)
    if isinstance(outcome[0], type):
        return outcome
    recs, trace, warnings = outcome
    facets = _facet_nodes(m)
    table = classify_root_types(m, psi)
    pi_a = frozenset(table.roots_of_type("a"))
    mins = [g.int_coords() for g in m.minimal_generators]
    f_alphas = {tuple(j + 1 for j, g in enumerate(mins) if g[alpha] == 0)
                for alpha in table.roots_of_type("b")}
    whole = tuple(range(1, len(mins) + 1))
    kept = [node for node in trace if node.subset == whole
            or node.subset in f_alphas
            or node.subset in facets and frozenset(node.levi_roots) == pi_a]
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
    d, n = phi.integer_form
    assert d > 0 and gcd(d, *n) == 1
    assert n == tuple(d * x for x in phi.values)
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
    cov = tuple(draw.draw(
        st.lists(entries, min_size=lat.dim, max_size=lat.dim)))
    phi = from_covector(cov, lat)
    assert phi == reference_from_covector(cov, lat)
    if lat.coords(v) is not None:
        assert phi.evaluate(v) == sum(a * b for a, b in zip(cov, v))


# -- one representation of an exact rational ----------------------------------
#
# An exact rational is an `int` when it is integral and a `Fraction` with
# denominator > 1 otherwise.

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


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(*[st.lists(rationals, min_size=n, max_size=n)] * 2)),
    rationals)
@example(([Fraction(1, 2), 3], [Fraction(1, 2), Fraction(4, 1)]), 2)
def test_weights_and_covectors_hold_int_exactly_when_integral(pair, c):
    a, b = pair
    spec = GroupSpec((), len(a))
    w, v = WeightVec(spec, a), WeightVec(spec, b)
    assert_canonical(w.coords, a)
    assert_canonical((w + v).coords, [x + y for x, y in zip(a, b)])
    assert_canonical((w - v).coords, [x - y for x, y in zip(a, b)])
    assert_canonical(w.scale(c).coords, [c * x for x in a])
    assert_canonical((-w).coords, [-x for x in a])
    assert w.is_integral == all(Fraction(x).denominator == 1 for x in a)
    if w.is_integral:
        assert w.int_coords() == tuple(a)
    assert_canonical([pairing(b, w)],
                     [sum(Fraction(x) * y for x, y in zip(a, b))])


@pytest.mark.parametrize("factors", [
    (("A", 3),), (("B", 3),), (("C", 2),), (("G", 2),), (("F", 4),),
    (("D", 4), ("A", 1))], ids=str)
def test_root_data_holds_int_exactly_when_integral(factors):
    rd = build_root_data(GroupSpec(factors, 1))
    for i in range(rd.n_simple):
        for vec in (rd.simple_root(i), fundamental_weight(rd, i)):
            assert all(type(x) is int for x in vec.coords)
        assert all(type(x) is int for x in coroot(rd, i))
    assert_canonical(rd.root_lengths, rd.root_lengths)
    omega = [fundamental_weight(rd, j) for j in range(rd.dim)]
    for u in omega:
        row = [symmetric_form(rd, u, v) for v in omega]
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
    cov = tuple(draw.draw(
        st.lists(rationals, min_size=lat.dim, max_size=lat.dim)))
    assert_canonical(from_covector(cov, lat).values,
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


@st.composite
def lattice_roots(draw):
    """(lattice, roots): a lattice in Z^dim and one to three nonzero
    integer vectors, each a multiple of a lattice vector, a primitive
    vector of Z^dim in its rational span, or drawn from the whole space."""
    dim = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(-4, 4)] * dim)
    lat = Lattice.span(draw(st.lists(vec, max_size=4)), dim)
    roots = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["lattice", "span", "outside"]))
        if kind == "outside" or not lat.basis:
            v = draw(vec)
        else:
            c = draw(st.lists(st.integers(-3, 3), min_size=lat.rank,
                              max_size=lat.rank))
            v = _combination(c, lat.basis, dim)
            if not any(v):
                continue
            v = primitive(v) if kind == "span" else \
                tuple(draw(st.integers(1, 3)) * x for x in v)
        if any(v):
            roots.append(v)
    assume(roots)
    return lat, roots


def _root_check_outcome(check, lattice, roots):
    rd = build_root_data(GroupSpec((), lattice.dim))
    psi = SphericalRootSet(rd, tuple(WeightVec(rd.spec, v) for v in roots))
    try:
        check(psi, lattice)
    except SphericalError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(lattice_roots())
# a multiple of a basis vector before a vector outside the lattice, and
# the other way round: the first failing root gives the message
@example((Lattice.span([(2, 0), (0, 1)], 2), [(4, 0), (1, 0)]))
@example((Lattice.span([(2, 0), (0, 1)], 2), [(1, 0), (4, 0)]))
@example((Lattice.span([(2, 1)], 2), [(2, 1), (1, 0)]))
def test_one_solve_root_check_matches_the_two_solve_reference(data):
    lattice, roots = data
    assert _root_check_outcome(validate_roots_in_lattice, lattice, roots) == \
        _root_check_outcome(reference_roots_in_lattice, lattice, roots)


@pytest.mark.parametrize("entry", build_corpus(), ids=lambda e: e.name)
def test_integer_walk_matches_the_reference_on_the_corpus(entry):
    assert _walk_outcome(recover_prime, entry.monoid, entry.psi) == \
        _reference_outcome_on_faces(entry.monoid, entry.psi)


CORPUS_LOCALIZATIONS = [(e, j) for e in build_corpus()
                        for j in range(len(e.monoid.minimal_generators))]


@pytest.mark.parametrize(
    "entry, j", CORPUS_LOCALIZATIONS,
    ids=[f"{e.name}-{j + 1}" for e, j in CORPUS_LOCALIZATIONS])
def test_integer_walk_matches_the_reference_on_the_corpus_localizations(
        entry, j):
    # each corpus entry localized at each of its minimal generators, with
    # its roots restricted to the Levi of the localization
    def localized():
        return localize_datum(recover_entry(entry),
                              entry.monoid.minimal_generators[j])

    loc, ref = localized(), localized()
    assert _walk_outcome(recover_prime, loc.monoid, loc.psi) == \
        _reference_outcome_on_faces(ref.monoid, ref.psi)


def test_the_walk_and_its_reference_refuse_a_divisor_that_escapes_its_node():
    # C2 x T, alpha_1 type b: no generator lies on F_alpha, so it is the
    # empty face, where both class functionals vanish; case 3 mints the
    # coroot of alpha_1 less the one pairing to 1 with it, and that is 0
    # on the second generator, off the node
    rd = build_root_data(GroupSpec((("C", 2),), 1))
    m = monoid_of(rd, [(1, 0, 0), (1, 1, 1), (1, 0, 1)])
    psi = make_spherical_roots(rd, [rd.weight((2, -1, 0))])
    refused = (RecoveryError,
               "invalid datum: recovered divisor escapes its node")
    assert _walk_outcome(recover_prime, m, psi) == refused
    assert _walk_outcome(reference_recover_prime, m, psi) == refused


def test_integer_walk_matches_the_reference_on_corpus_products():
    # every pair of corpus entries, a repeat included: products carry
    # type-b roots beside roots and facets of the other factor
    for e1, e2 in itertools.combinations_with_replacement(build_corpus(), 2):
        m, psi = product(e1, e2)
        ref_m, ref_psi = product(e1, e2)
        assert _walk_outcome(recover_prime, m, psi) == \
            _reference_outcome_on_faces(ref_m, ref_psi), (e1.name, e2.name)
        assert len(recover_divisors(m, psi).divisors) == \
            e1.n_divisors + e2.n_divisors, (e1.name, e2.name)


BENCH_INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs"
BENCH_DOCUMENTS = sorted(BENCH_INPUTS.glob("*/*.json"))
DATA = Path(__file__).resolve().parent.parent / "data"


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
    m = monoid_of(TORUS3, gens)
    assert len(m.minimal_generators) == REFERENCE_MAX_MINIMAL_GENERATORS
    outcome = _walk_outcome(recover_prime, m, NO_ROOTS)
    assert len(outcome[0]) == 4
    assert len(outcome[1]) == 5
    assert outcome == _reference_outcome_on_faces(monoid_of(TORUS3, gens),
                                                  NO_ROOTS)


def test_face_walk_skips_the_case2_warnings_inside_f_alpha():
    # so3_x1 times the cone over the unit square: A1 x T^3 with a type-b
    # root on a non-simplicial cone.  The subset walk warns at 15 nodes,
    # each strictly inside F_alpha, the face over the square where the
    # coroot vanishes.  The face walk visits 6 of the 20 faces: the whole
    # cone, F_alpha and the 4 facets through 2 alpha; it warns nowhere and
    # keeps every divisor
    rd = build_root_data(GroupSpec((("A", 1),), 3))
    gens = [(2, 0, 0, 0)] + [(0, x, y, 1) for x in (0, 1) for y in (0, 1)]
    psi = make_spherical_roots(rd, (rd.weight(gens[0]),))

    def monoid():
        return WeightMonoid(rd, tuple(rd.weight(g) for g in gens))

    outcome = _walk_outcome(recover_prime, monoid(), psi)
    assert [n.case for n in outcome[1]] == ["1a", "2"] + ["1c"] * 4
    assert outcome[2] == []
    assert len(_walk_outcome(reference_recover_prime, monoid(), psi)[2]) == 15
    assert outcome == _reference_outcome_on_faces(monoid(), psi)


# Three A1 x A1 data for the guards of case 2 and case 3 at F_alpha.  In
# the first a type-d root lies in the Levi at F_alpha beside the one
# type-b root found there, so the guard on the Levi, not the number of
# roots found, sends the node to case 3, with no warning.  In the other
# two, two type-b roots share F_alpha, so case 3 tries both there: on
# the empty face it mints nothing, and on the face of one generator it
# mints for the second root only, which a walk keeping one root per face
# would miss.  Validation refuses both.
GUARD_DOCUMENTS = {
    "d_root_in_the_levi": {
        "schema": 1,
        "group": {"factors": [["A", 1], ["A", 1]], "central_rank": 1},
        "monoid_generators": [[0, 0, 1], [2, 0, 0], [1, 1, 0]],
        "spherical_roots": [[2, 0, 0]]},
    "two_b_roots_on_one_face": {
        "schema": 1,
        "group": {"factors": [["A", 1], ["A", 1]], "central_rank": 0},
        "monoid_generators": [[1, 1], [3, 1], [1, 3]],
        "spherical_roots": [[2, 0], [0, 2]]},
    "second_b_root_mints_on_a_shared_face": {
        "schema": 1,
        "group": {"factors": [["A", 1], ["A", 1]], "central_rank": 1},
        "monoid_generators": [[1, 3, 2], [1, 1, -2], [0, 0, -2]],
        "spherical_roots": [[2, 0, 0], [0, 2, 0]]},
}


def _guard_datum(name):
    return parse_input(json.dumps(GUARD_DOCUMENTS[name]).encode())


@pytest.mark.parametrize("name", sorted(GUARD_DOCUMENTS))
def test_integer_walk_matches_the_reference_on_the_guard_data(name):
    doc, ref = _guard_datum(name), _guard_datum(name)
    assert _walk_outcome(recover_prime, doc.monoid, doc.psi) == \
        _reference_outcome_on_faces(ref.monoid, ref.psi)


def test_a_type_d_root_in_the_levi_sends_f_alpha_to_case_3_unwarned():
    # F_alpha is the face of the first generator, whose Levi holds both
    # roots; taking case 2 there whenever one root is found would warn
    doc = _guard_datum("d_root_in_the_levi")
    trace, warnings = [], []
    datum = recover_divisors(doc.monoid, doc.psi, trace, warnings)
    assert [(n.subset, n.case, n.levi_roots, n.minted) for n in trace] == [
        ((1, 2, 3), "1a", (), ()),
        ((1, 2), "1c", (), ((0, -1, 0),)),
        ((2, 3), "1c", (), ((0, 0, 1),)),
        ((1,), "3", (0, 1), ((1, 1, 0),)),
    ]
    assert warnings == []
    assert [(d.source, d.source_roots) for d in datum.divisors] == [
        ("case_1c", ()), ("case_1c", ()), ("case_3", (0,)), ("type_d", (1,))]


def test_two_type_b_roots_on_one_f_alpha_mint_nothing_there():
    doc = _guard_datum("two_b_roots_on_one_face")
    trace, warnings = [], []
    recs = recover_prime(doc.monoid, doc.psi, trace, warnings)
    assert [r.source for r in recs] == ["case_1c", "case_1c"]
    assert trace[-1] == RecursionNode((), (0, 0), (0, 1), "3", ())
    assert warnings == []
    with pytest.raises(RecoveryError, match="b_pair_count"):
        recover_divisors(doc.monoid, doc.psi)


def test_case_3_tries_every_type_b_root_found_on_a_shared_f_alpha():
    # F_alpha is the face of the minimal generator (0, 0, -2) for both
    # roots; only the second has a unique base there
    doc = _guard_datum("second_b_root_mints_on_a_shared_face")
    trace, warnings = [], []
    recs = recover_prime(doc.monoid, doc.psi, trace, warnings)
    assert [(r.phi.values, r.source, r.source_roots) for r in recs[3:]] == [
        ((1, 1, 0), "case_3", (1,))]
    assert trace[-1] == RecursionNode(
        (1,), (0, 0, -2), (0, 1), "3", ((1, 1, 0),))
    assert warnings == []
    with pytest.raises(RecoveryError,
                       match="type-b root 1 moves 1 divisors, not 2"):
        recover_divisors(doc.monoid, doc.psi)


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
    m = monoid_of(TORUS3, gens)
    ref = monoid_of(TORUS3, gens)
    assert _walk_outcome(recover_prime, m, NO_ROOTS) == \
        _reference_outcome_on_faces(ref, NO_ROOTS)


@settings(max_examples=100, deadline=None)
@given(polygon_cones(), st.data())
def test_membership_in_a_saturated_cone_is_cone_and_lattice(gens, data):
    """A saturated monoid, and each of its localizations, is the set of
    lattice points of its cone."""
    m = monoid_of(TORUS3, gens)
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
        assert m.contains_vector(v) is \
            (cone.contains(v) and m.lattice.contains(v))


def _divisor_table(datum):
    return sorted((d.phi.values, tuple(sorted(d.stabilizer.roots)))
                  for d in datum.divisors)


@settings(max_examples=20, deadline=None)
@given(polygon_cones(), st.data())
def test_localization_commutes_with_recovery_on_toric_cones(gens, data):
    m = monoid_of(TORUS3, gens)
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
    datum = recover_divisors(monoid_of(TORUS3, gens), NO_ROOTS)
    for kind, divisors in tampered_divisor_sets(datum):
        variant = replace(datum, divisors=divisors)
        assert _monoid_recovery_identity(variant) == \
            reference_monoid_recovery_identity(variant), kind
        assert validate_luna_datum(variant).violations == \
            reference_violations(variant), kind


def reference_class_functionals(m):
    """The class functionals of a torus monoid by direct dot products:
    each facet normal of the reference cone read on the basis of X, over
    its least positive value on the reference minimal generators; None
    when its values there are not all multiples of that one."""
    mins = reference_minimal_generators(list(m.gen_vectors),
                                        m.invertible_lattice.reduce_mod)
    out = []
    for r in reference_cone(m.gen_vectors, (), m.dim).facet_normals:
        values = [sum(map(mul, r, g)) for g in mins]
        g0 = min(v for v in values if v)
        if any(v % g0 for v in values):
            return None
        out.append(tuple(Fraction(sum(map(mul, r, b)), g0)
                         for b in m.lattice.basis))
    return sorted(out)


@settings(max_examples=100, deadline=None)
@given(torus_generators())
# a unit line, and a monoid of rank 2 in Z^3
@example((3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (1, 0, 1), (2, 1, 1)]))
@example((3, [(1, 1, 0), (0, 1, 1), (1, 2, 1), (2, 1, -1)]))
# a facet whose localized class monoid has no single generator
@example((2, [(2, 0), (3, 0), (0, 1)]))
def test_class_functionals_and_identity_match_direct_dot_products(data):
    """The facet table's functionals and the recovery identity on torus
    monoids with units and of rank below their dimension, against the
    functionals read off the reference cone and the cut-cone identity."""
    rank, gens = data
    rd = build_root_data(GroupSpec((), rank))
    m = monoid_of(rd, gens)
    psi = make_spherical_roots(rd, ())
    expected = reference_class_functionals(m)
    if expected is None:
        with pytest.raises(RecoveryError, match="no single generator"):
            recover_prime(m, psi)
        return
    assert sorted(r.phi.values for r in recover_prime(m, psi)) == expected
    datum = recover_divisors(m, psi)
    variants = tampered_divisor_sets(datum) if datum.divisors else []
    for kind, divisors in [("as is", datum.divisors)] + variants:
        variant = replace(datum, divisors=divisors)
        assert _monoid_recovery_identity(variant) == \
            reference_monoid_recovery_identity(variant), kind


# -- check (vi): the recovery identity first, the normality test after --------

def _assert_the_order_of_check_vi_is_immaterial(datum, name):
    """The report, on the datum and on each of its tampered divisor sets,
    equals the report with (vi) in its former order, except that the
    refusal's warning is absent where the recovery identity holds: there
    (vi) cannot fail, so nothing was skipped.  Returns how many warnings
    that drops."""
    variants = [("as is", datum.divisors)] + tampered_divisor_sets(datum)
    dropped = 0
    for kind, divisors in variants:
        variant = replace(datum, divisors=divisors)
        rep = validate_luna_datum(variant)
        passed, violations, warnings = reference_validation(variant)
        if _monoid_recovery_identity(variant):
            kept = [w for w in warnings if w != SATURATION_WARNING]
            dropped += len(warnings) - len(kept)
            warnings = kept
        assert (rep.passed, rep.violations, rep.warnings) == \
            (passed, violations, warnings), (name, kind)
    return dropped


def _rank7_torus_datum():
    # 2 e_i and the all-ones vector: not free, and past the rank limit
    rd = build_root_data(GroupSpec((), 7))
    gens = [tuple(2 * int(i == j) for j in range(7)) for i in range(7)]
    return recover_divisors(monoid_of(rd, gens + [(1,) * 7]),
                            make_spherical_roots(rd, ()))


def test_check_vi_matches_its_former_order_on_the_corpus_and_the_cliffs():
    # the hexagon cliff is not saturated; the rank-7 torus is past the
    # rank limit, and its identity holds as recovered
    for e in build_corpus():
        _assert_the_order_of_check_vi_is_immaterial(recover_entry(e), e.name)
    for path in sorted((BENCH_INPUTS / "cliffs").glob("*.json")):
        doc = parse_input(path.read_bytes())
        _assert_the_order_of_check_vi_is_immaterial(
            recover_divisors(doc.monoid, doc.psi), path.stem)
    assert _assert_the_order_of_check_vi_is_immaterial(
        _rank7_torus_datum(), "rank 7") > 0


def test_check_vi_matches_its_former_order_on_corpus_products():
    for e1, e2 in itertools.combinations_with_replacement(build_corpus(), 2):
        _assert_the_order_of_check_vi_is_immaterial(
            recover_divisors(*product(e1, e2)), (e1.name, e2.name))


def test_the_cone_over_the_functionals_confirms_the_identity_only_where_check_i_failed():
    # where every phi_D is >= 0 on M the facet table decides the identity
    # alone, so a cone(Phi) built inside it must refute it
    phi_cones = mock.patch.object(RationalCone, "from_generators",
                                  wraps=RationalCone.from_generators)
    data = [recover_entry(e) for e in build_corpus()] + [
        recover_divisors(*product(e1, e2)) for e1, e2 in
        itertools.combinations_with_replacement(build_corpus(), 2)]
    outcomes = Counter()
    for datum in data:
        for _, divisors in [("as is", datum.divisors)] + \
                tampered_divisor_sets(datum):
            variant = replace(datum, divisors=divisors)
            check_i = all(d.phi.evaluate(g) >= 0 for d in divisors
                          for g in variant.monoid.gen_vectors)
            with phi_cones as built:
                holds = _monoid_recovery_identity(variant)
            if built.called:
                outcomes[check_i, holds] += 1
    assert outcomes[True, True] == 0
    assert outcomes[True, False] and outcomes[False, True]


# -- the type-a roots, read off the generators ---------------------------------

def _assert_type_a_roots_match_the_reference(m, name):
    assert m.type_a_roots == reference_type_a_roots(m), name


def test_type_a_roots_match_the_reference_on_the_corpus_and_its_localizations():
    # the localizations are dominant only on a Levi and hold units
    for m in CORPUS_MONOIDS:
        _assert_type_a_roots_match_the_reference(m, m.generators)


def test_type_a_roots_match_the_reference_on_corpus_products():
    for e1, e2 in itertools.combinations_with_replacement(build_corpus(), 2):
        m, _ = product(e1, e2)
        _assert_type_a_roots_match_the_reference(m, (e1.name, e2.name))


def test_type_a_roots_match_the_reference_on_the_bench_documents():
    for path in BENCH_DOCUMENTS:
        _assert_type_a_roots_match_the_reference(
            parse_input(path.read_bytes()).monoid, path.name)


@settings(max_examples=100, deadline=None)
@given(torus_generators(min_size=0))
def test_type_a_roots_match_the_reference_on_torus_monoids(data):
    rank, gens = data
    m = monoid_of(build_root_data(GroupSpec((), rank)), gens)
    assert m.type_a_roots == reference_type_a_roots(m) == frozenset()


FLAG_GROUPS = [GroupSpec(factors, central) for factors, central in [
    ((("A", 1),), 0), ((("A", 1),), 1), ((("A", 2),), 0), ((("B", 2),), 1),
    ((("G", 2),), 0), ((("A", 1), ("A", 1)), 1), ((("A", 3),), 0)]]


@st.composite
def flag_monoids(draw):
    """A monoid of a group with simple factors, dominant on a drawn Levi
    (all simple roots, or a subset): up to 4 generators, nonnegative on
    the Levi and with entries in [-2, 2] elsewhere, drawn to include zero
    vectors, generators zero on the Levi, and a unit pair g, -g with g
    zero on the Levi."""
    rd = build_root_data(draw(st.sampled_from(FLAG_GROUPS)))
    n = rd.n_simple
    levi = draw(st.one_of(st.none(), st.frozensets(st.integers(0, n - 1))))
    active = range(n) if levi is None else levi
    coord = [st.integers(0, 2) if i in active else st.integers(-2, 2)
             for i in range(rd.dim)]
    vec = st.tuples(*coord)
    flat = st.tuples(*[st.just(0) if i in active else c
                       for i, c in enumerate(coord)])
    gens = draw(st.lists(st.one_of(vec, flat, st.just((0,) * rd.dim)),
                         max_size=4))
    if draw(st.booleans()):
        g = draw(flat)
        gens += [g, tuple(-x for x in g)]
    return WeightMonoid(rd, tuple(rd.weight(g) for g in gens), levi)


@settings(max_examples=150, deadline=None)
@given(flag_monoids())
def test_type_a_roots_match_the_reference_on_flag_monoids(m):
    _assert_type_a_roots_match_the_reference(m, m.generators)


# -- the coroot functionals, read off the lattice basis ------------------------
#
# The coroot of simple root i is e_i in coroot coordinates, so its values
# on the basis of X are column i of the basis (`Lattice.columns`), and
# half of it is that column halved.  `reference_from_covector` is the
# covector solve these replace.

def _assert_columns_match_the_covector_reference(m, name):
    rd, X = m.rd, m.lattice
    assert len(X.columns) == rd.dim, name
    for j in range(rd.dim):
        unit = tuple(int(k == j) for k in range(rd.dim))
        assert_canonical(X.columns[j], reference_from_covector(unit, X).values)
    for i in range(rd.n_simple):
        assert_canonical(
            X.columns[i],
            reference_from_covector(coroot(rd, i), X).values)
        assert_canonical(
            _half_column(X, i),
            reference_from_covector(reference_half_coroot(rd, i), X).values)


def test_coroot_columns_match_the_covector_reference_on_the_corpus():
    # the corpus and its localizations, which hold units
    for m in CORPUS_MONOIDS:
        _assert_columns_match_the_covector_reference(m, m.generators)


def test_coroot_columns_match_the_covector_reference_on_corpus_products():
    for e1, e2 in itertools.combinations_with_replacement(build_corpus(), 2):
        m, _ = product(e1, e2)
        _assert_columns_match_the_covector_reference(m, (e1.name, e2.name))


def test_coroot_columns_match_the_covector_reference_on_the_bench_documents():
    for path in BENCH_DOCUMENTS:
        _assert_columns_match_the_covector_reference(
            parse_input(path.read_bytes()).monoid, path.name)


@settings(max_examples=150, deadline=None)
@given(flag_monoids())
def test_coroot_columns_match_the_covector_reference_on_flag_monoids(m):
    # central tori, units, Levis and lattices of lower rank, the zero
    # lattice included
    _assert_columns_match_the_covector_reference(m, m.generators)


@settings(max_examples=100, deadline=None)
@given(torus_generators(min_size=0))
def test_coroot_columns_match_the_covector_reference_on_torus_monoids(data):
    rank, gens = data
    m = monoid_of(build_root_data(GroupSpec((), rank)), gens)
    _assert_columns_match_the_covector_reference(m, gens)


# -- coordinates on unit pivots -----------------------------------------------

@st.composite
def unit_pivot_lattices(draw):
    """(lattice, values): a lattice whose HNF basis has every pivot 1 and
    any entries in the columns that hold no pivot, so in general not the
    identity on its support, and one rational coordinate per basis
    vector."""
    dim = draw(st.integers(1, 5))
    pivots = sorted(draw(st.sets(st.integers(0, dim - 1), max_size=dim)))
    rows = []
    for p in pivots:
        rows.append(tuple(
            int(q == p) if q == p or q in pivots or q < p
            else draw(st.integers(-4, 4)) for q in range(dim)))
    lat = Lattice.span(rows, dim)
    assert lat.basis == tuple(rows)
    return lat, draw(st.lists(rationals, min_size=lat.rank, max_size=lat.rank))


@settings(max_examples=300, deadline=None)
@given(unit_pivot_lattices())
@example((Lattice.span([(1, 0, 2), (0, 1, 3)], 3),
          [Fraction(1, 2), Fraction(-2, 3)]))
@example((Lattice.span([(0, 1, 0, -2), (0, 0, 1, 4)], 4),
          [Fraction(3, 4), Fraction(5, 6)]))
def test_coords_on_unit_pivots_are_read_off_the_pivot_columns(data):
    # a lattice point, a rational point of the span and, below full rank,
    # that point moved in a column with no pivot, which is off the span
    lat, values = data
    assert lat._unit_pivots
    point = lat.from_coords(values)
    points = [lat.from_coords([int(x) for x in values]), point]
    free = sorted(set(range(lat.dim)) - set(lat._pivots))
    if free:
        j = free[0]
        points.append(point[:j] + (point[j] + 1,) + point[j + 1:])
    for v in points:
        expected = reference_coords(lat, v)
        if expected is None:
            assert lat.coords(v) is None
        else:
            assert_canonical(lat.coords(v), expected)
    assert (lat.coords(points[-1]) is None) == bool(free)


# -- the d-partner search by coroot columns ------------------------------------

def _classify_outcome(classify, m, psi):
    try:
        return classify(m, psi)
    except SphericalError as exc:
        return str(exc)


def test_partner_search_matches_the_all_pairs_reference_on_corpus_products():
    # a1a1_pair_root, a1a1_half_pair and c2a1_hidden carry partnered
    # d-roots, so the 66 products with one of them do too
    partnered = 0
    for e1, e2 in itertools.combinations_with_replacement(build_corpus(), 2):
        m, psi = product(e1, e2)
        table = _classify_outcome(classify_root_types, m, psi)
        assert table == _classify_outcome(reference_classify_root_types,
                                          m, psi), (e1.name, e2.name)
        partnered += bool(table.partners)
        if {e1.name, e2.name} == {"a1a1_pair_root", "a1a1_half_pair"}:
            assert len(table.partners) == 2
    assert partnered == 66


def test_partner_search_matches_the_all_pairs_reference_on_the_documents():
    for path in BENCH_DOCUMENTS + sorted(DATA.glob("*.json")):
        doc = parse_input(path.read_bytes())
        assert _classify_outcome(classify_root_types, doc.monoid, doc.psi) == \
            _classify_outcome(reference_classify_root_types,
                              doc.monoid, doc.psi), path.name


@st.composite
def a1_power_data(draw):
    """(m, psi) on A1^k, k <= 6, possibly with a central torus: the
    generators repeat coordinates in a drawn pattern, so that coroot
    columns coincide, and the roots, built without the checks of
    `make_spherical_roots`, are drawn among the pair sums, their halves,
    the simple roots and their doubles, so that a d-root can have two
    partners."""
    k = draw(st.integers(2, 6))
    central = draw(st.integers(0, 1))
    rd = build_root_data(GroupSpec((("A", 1),) * k, central))
    pattern = [draw(st.integers(0, 2)) for _ in range(k)]
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        vals = draw(st.lists(st.integers(0, 2), min_size=3, max_size=3))
        gens.append(tuple(vals[c] for c in pattern)
                    + tuple(draw(st.integers(-1, 1)) for _ in range(central)))
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    shapes = st.one_of(
        st.sampled_from(pairs).map(lambda p: {p[0]: 2, p[1]: 2}),
        st.sampled_from(pairs).map(lambda p: {p[0]: 1, p[1]: 1}),
        st.integers(0, k - 1).map(lambda i: {i: 2}),
        st.integers(0, k - 1).map(lambda i: {i: 4}))
    roots = [tuple(c.get(i, 0) for i in range(k)) + (0,) * central
             for c in draw(st.lists(shapes, max_size=4, unique_by=str))]
    psi = SphericalRootSet(rd, tuple(rd.weight(r) for r in roots))
    return monoid_of(rd, gens), psi


@settings(max_examples=300, deadline=None)
@given(a1_power_data())
@example((monoid_of(build_root_data(GroupSpec((("A", 1),) * 3)),
                    [(1, 1, 1)]),
          SphericalRootSet(build_root_data(GroupSpec((("A", 1),) * 3)),
                           tuple(build_root_data(GroupSpec(
                               (("A", 1),) * 3)).weight(r)
                               for r in [(2, 2, 0), (2, 0, 2)]))))
def test_partner_search_matches_the_all_pairs_reference_on_a1_powers(data):
    m, psi = data
    assert _classify_outcome(classify_root_types, m, psi) == \
        _classify_outcome(reference_classify_root_types, m, psi)


# -- the stabilizer read off the divisor's origin ------------------------------

def _stabilizers_outcome(stabilizers, recs, table, m):
    try:
        return stabilizers(recs, table, m)
    except ValueError as exc:  # LunaError, RecoveryError
        return type(exc), str(exc)


def _assert_stabilizers_match_the_reference(m, psi, name):
    """`stabilizers_of` and the dispatch it replaced give the same
    stabilizers, or raise the same error, on the records of the walk and
    of the c/d roots; returns the sources of the records, none when the
    datum is refused before any record is built."""
    try:
        table = classify_root_types(m, psi)
        recs = recover_prime(m, psi) + recover_type_cd_divisors(m, psi, table)
    except ValueError:
        return set()
    assert _stabilizers_outcome(stabilizers_of, recs, table, m) == \
        _stabilizers_outcome(reference_stabilizers_of, recs, table, m), name
    return {rec.source for rec in recs}


ALL_SOURCES = {"case_1c", "case_2", "case_3", "type_c", "type_d"}


def test_stabilizers_match_the_dispatch_reference_on_the_corpus():
    sources = set()
    for e in build_corpus():
        sources |= _assert_stabilizers_match_the_reference(
            e.monoid, e.psi, e.name)
    assert sources == ALL_SOURCES


def test_stabilizers_match_the_dispatch_reference_on_the_corpus_localizations():
    sources = set()
    for e, j in CORPUS_LOCALIZATIONS:
        loc = localize_datum(recover_entry(e), e.monoid.minimal_generators[j])
        sources |= _assert_stabilizers_match_the_reference(
            loc.monoid, loc.psi, (e.name, j))
    assert sources >= {"case_1c", "case_2", "type_d"}


def test_stabilizers_match_the_dispatch_reference_on_corpus_products():
    sources = set()
    for e1, e2 in itertools.combinations_with_replacement(build_corpus(), 2):
        sources |= _assert_stabilizers_match_the_reference(
            *product(e1, e2), (e1.name, e2.name))
    assert sources == ALL_SOURCES


def test_stabilizers_match_the_dispatch_reference_on_the_bench_documents():
    for path in BENCH_DOCUMENTS:
        doc = parse_input(path.read_bytes())
        _assert_stabilizers_match_the_reference(doc.monoid, doc.psi, path.name)


def test_stabilizers_match_the_dispatch_reference_on_the_guard_data():
    # the last two data are refused only at validation, after the walk
    for name in sorted(GUARD_DOCUMENTS):
        doc = _guard_datum(name)
        _assert_stabilizers_match_the_reference(doc.monoid, doc.psi, name)


TYPED_GROUPS = [GroupSpec(factors, central) for factors, central in [
    ((("A", 1),), 1), ((("A", 2),), 0), ((("B", 2),), 0), ((("C", 2),), 1),
    ((("G", 2),), 0), ((("A", 1), ("A", 1)), 0), ((("A", 1), ("A", 1)), 1),
    ((("A", 3),), 0), ((("B", 2), ("A", 1)), 0)]]


@st.composite
def typed_root_data(draw):
    """(m, psi): a group of `TYPED_GROUPS`, spherical roots drawn as
    simple roots (type b), their doubles (type c) and sums of orthogonal
    pairs (partnered d-roots when their columns agree), each added to the
    dominant weight lambda, 8 on every simple root, among the generators
    so that it lies in the lattice, and up to two further dominant
    generators; every other root is type d or type a."""
    rd = build_root_data(draw(st.sampled_from(TYPED_GROUPS)))
    n = rd.n_simple
    roots, used = [], set()
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rd.cartan[i][j] == 0]
    if pairs and draw(st.booleans()):
        i, j = draw(st.sampled_from(pairs))
        roots.append(rd.simple_root(i) + rd.simple_root(j))
        used.update((i, j))
    for i in range(n):
        k = draw(st.sampled_from([0, 1, 2]))
        if k and i not in used:
            roots.append(rd.simple_root(i).scale(k))
    central = st.integers(-1, 1)
    lam = (8,) * n + tuple(draw(central) for _ in range(rd.dim - n))
    gens = [lam] + [tuple(a + b for a, b in zip(lam, g.coords)) for g in roots]
    gens += draw(st.lists(st.tuples(*[st.integers(0, 2)] * n
                                    + [central] * (rd.dim - n)), max_size=2))
    return monoid_of(rd, gens), make_spherical_roots(rd, roots)


@settings(max_examples=300, deadline=None)
@given(typed_root_data())
def test_stabilizers_match_the_dispatch_reference_on_typed_roots(data):
    m, psi = data
    _assert_stabilizers_match_the_reference(m, psi, m.generators)
