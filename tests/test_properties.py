"""Hypothesis-driven property tests for the algebraic invariants."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from sphervar.monoid import torus_monoid
from sphervar.polyhedral import (
    Lattice,
    RationalCone,
    hnf,
    lattice_span,
    monoid_membership,
    primitive,
    smith_diagonalize,
)
from sphervar.rootsys import GroupSpec, build_root_data, pairing, symmetric_form

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
    lat = lattice_span(rows, 3)
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
def test_smith_transforms_are_consistent(rows):
    D, S, T = smith_diagonalize([list(r) for r in rows])
    m, n = len(rows), 3
    SA = [[sum(S[i][k] * rows[k][j] for k in range(m)) for j in range(n)]
          for i in range(m)]
    SAT = [[sum(SA[i][k] * T[k][j] for k in range(n)) for j in range(n)]
           for i in range(m)]
    assert SAT == D
    for i in range(m):
        for j in range(n):
            if i != j:
                assert D[i][j] == 0


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
