import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphervar import polyhedral
from sphervar.polyhedral import (
    Lattice,
    PolyhedralError,
    Polytope,
    RationalCone,
    hilbert_basis,
    hilbert_basis_with_units,
    hnf,
    integer_kernel,
    integer_solve,
    monoid_membership,
    primitive,
    rational_solve,
)


# -- independent oracles ----------------------------------------------------

def det_oracle(rows):
    """Expansion by minors; independent of the Bareiss/HNF code paths."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_oracle(minor)
    return total


def cone_member_oracle(point, rays):
    """Membership in cone(rays) by Fourier–Motzkin elimination on the
    coefficient variables: feasibility of {t >= 0, sum t_i rays_i = point}."""
    m = len(rays)
    dim = len(point)
    # constraints on t in R^m: t_i >= 0 plus two inequalities per equation
    cons = []
    for i in range(m):
        row = [Fraction(0)] * m + [Fraction(0)]
        row[i] = Fraction(1)
        cons.append(row)
    for d in range(dim):
        row = [Fraction(rays[i][d]) for i in range(m)] + [Fraction(-point[d])]
        cons.append(row)
        cons.append([-x for x in row])
    # eliminate variables one by one; constraint = (coeffs, const) meaning
    # sum coeffs.t + const >= 0
    for var in range(m):
        pos = [c for c in cons if c[var] > 0]
        neg = [c for c in cons if c[var] < 0]
        rest = [c for c in cons if c[var] == 0]
        new = rest
        for p, q in itertools.product(pos, neg):
            combo = [p[j] * (-q[var]) + q[j] * p[var] for j in range(m + 1)]
            combo[var] = Fraction(0)
            new.append(combo)
        cons = new
    return all(c[m] >= 0 for c in cons)


def enumerate_hilbert_oracle(rays, dim, member=None):
    """Brute-force Hilbert basis: enumerate lattice points of the cone in
    a box provably containing every irreducible element (the zonotope of
    the rays), then drop every point that splits as a sum of two others.

    `member` is the cone membership test; the slow Fourier–Motzkin oracle
    is the default, a faster test may be injected for bulk runs.
    """
    if member is None:
        member = lambda p: cone_member_oracle(p, rays)
    box = [sum(abs(r[i]) for r in rays) for i in range(dim)]
    pts = []
    for combo in itertools.product(*(range(-b, b + 1) for b in box)):
        if any(combo) and member(combo):
            pts.append(combo)
    basis = []
    for p in pts:
        reducible = False
        for y in pts:
            if y == p:
                continue
            diff = tuple(a - b for a, b in zip(p, y))
            if any(diff) and member(diff):
                reducible = True
                break
        if not reducible:
            basis.append(p)
    return sorted(basis)


def fast_member(cone):
    """Membership via the cone's facet description (used for bulk oracle
    runs; the facets themselves are cross-validated by the duality tests)."""
    facets = cone.facet_normals
    eqs = cone.span_equations
    def member(p):
        for e in eqs:
            if sum(a * b for a, b in zip(e, p)) != 0:
                return False
        return all(sum(a * b for a, b in zip(f, p)) >= 0 for f in facets)
    return member


# -- primitive vectors and lattices ----------------------------------------

def test_primitive_examples():
    assert primitive((4, 6)) == (2, 3)
    assert primitive((1, 0)) == (1, 0)
    assert primitive((-2, -4)) == (-1, -2)
    assert primitive((Fraction(1, 2), Fraction(3, 2))) == (1, 3)
    with pytest.raises(PolyhedralError):
        primitive((0, 0))


def test_lattice_span_gcd():
    lat = Lattice.span([(2, 0), (3, 0)])
    assert lat.basis == ((1, 0),)
    # the empty span: rank 0, holding only the zero vector, reducing nothing
    empty = Lattice.span([], 3)
    assert empty == Lattice(3, ())
    assert empty.contains((0, 0, 0)) and not empty.contains((0, 1, 0))
    assert empty.reduce_mod((2, -1, 5)) == (2, -1, 5)


def test_lattice_span_identity():
    lat = Lattice.span([(1, 0), (0, 1)])
    assert lat.rank == 2
    assert lat.basis == ((1, 0), (0, 1))


def test_lattice_span_index_four():
    lat = Lattice.span([(2, 2), (2, -2)])
    # index = |det| of any basis; the oracle checks the input determinant
    assert abs(det_oracle([[2, 2], [2, -2]])) == 8
    assert abs(det_oracle([list(b) for b in lat.basis])) == 8
    assert lat.contains((2, 2)) and lat.contains((2, -2))
    assert not lat.contains((1, 1))


def test_primitive_vector_in_sublattice():
    lat = Lattice.span([(2, 2), (0, 4)])
    # (3,3) is 3/2 * (2,2); the primitive multiple inside the sublattice is
    # (2,2), not (1,1)
    assert lat.primitive_vector((3, 3)) == (2, 2)
    assert Lattice.full(2).primitive_vector((4, 6)) == (2, 3)
    assert Lattice.full(2).primitive_vector((1, 0)) == (1, 0)
    # (1,0) is inside the rational span; its primitive multiple in the
    # sublattice is (4,0)
    assert lat.primitive_vector((1, 0)) == (4, 0)
    with pytest.raises(PolyhedralError):
        lat.primitive_vector((0, 0))
    with pytest.raises(PolyhedralError):
        Lattice.span([(1, 1)]).primitive_vector((1, 0))


def test_saturation_and_annihilator():
    lat = Lattice.span([(2, 4)])
    assert lat.saturation().basis == ((1, 2),)
    ann = lat.annihilator
    assert len(ann) == 1
    assert sum(a * b for a, b in zip(ann[0], (2, 4))) == 0


def test_integer_solve_prefers_integral():
    # (3,) = 1*(2,) + 1*(1,): the rational pivot solution (3/2, 0) is not
    # integral but an integer solution exists
    sol = integer_solve([(2,), (1,)], (3,))
    assert sol is not None
    assert 2 * sol[0] + 1 * sol[1] == 3
    assert integer_solve([(2,)], (3,)) is None


def test_rational_solve_rejects_length_mismatch():
    with pytest.raises(PolyhedralError):
        rational_solve([(1, 0)], (1, 0, 7))
    with pytest.raises(PolyhedralError):
        rational_solve([(1, 0), (0, 1, 0)], (1, 0))
    with pytest.raises(PolyhedralError):
        integer_solve([(1,)], (1, 5))
    with pytest.raises(PolyhedralError):
        integer_solve([(1, 0)], (1,))
    with pytest.raises(PolyhedralError):
        integer_kernel([[1, 2], [3]])
    with pytest.raises(PolyhedralError):
        hnf([(1, 2), (3,)])


def test_lattice_coords_rejects_length_mismatch():
    lat = Lattice.span([(1, 0)], 2)
    with pytest.raises(PolyhedralError):
        lat.contains((1, 0, 7))
    with pytest.raises(PolyhedralError):
        lat.coords((1,))
    with pytest.raises(PolyhedralError):
        Lattice.full(2).reduce_mod((5, 7, 9))
    with pytest.raises(PolyhedralError):
        Lattice.full(2).from_coords((1, 2, 3))


def test_integer_form_and_in_span_reject_length_mismatch():
    with pytest.raises(PolyhedralError):
        Lattice.full(2).integer_form((1, 2, 3))
    with pytest.raises(PolyhedralError):
        Lattice.full(2).integer_form((1,))
    with pytest.raises(PolyhedralError):
        Lattice.span([(1, 0)], 2).in_span((0, 0, 5))
    with pytest.raises(PolyhedralError):
        Lattice.span([(1, 0)], 2).in_span((0,))


def test_integer_kernel():
    ker = integer_kernel([[1, 1, 1]])
    assert len(ker) == 2
    for v in ker:
        assert sum(v) == 0


# -- cones ------------------------------------------------------------------

def test_dual_first_orthant_self_dual():
    c = RationalCone.from_generators([(1, 0), (0, 1)])
    assert c.dual() == c


def test_dual_full_space_is_zero():
    full = RationalCone.from_inequalities([], dim=2)
    z = full.dual()
    assert z.rays == () and z.lineality == ()
    assert z == RationalCone.zero(2)
    assert z.dual() == full


def test_dual_of_slanted_cone():
    c = RationalCone.from_generators([(1, 0), (1, 2)])
    d = c.dual()
    assert set(d.rays) == {(0, 1), (2, -1)}


def test_facets_first_orthant():
    c = RationalCone.from_generators([(1, 0), (0, 1)])
    assert set(c.facet_normals) == {(1, 0), (0, 1)}
    assert c.span_equations == ()


def test_facets_single_ray():
    c = RationalCone.from_generators([(1, 1)])
    # a ray in the plane: one span equation cutting the line, no facet
    # inequality other than the one bounding the half-line
    assert len(c.span_equations) == 1
    e = c.span_equations[0]
    assert sum(a * b for a, b in zip(e, (1, 1))) == 0
    assert len(c.facet_normals) == 1
    n = c.facet_normals[0]
    assert sum(a * b for a, b in zip(n, (1, 1))) > 0
    assert c.contains((2, 2)) and not c.contains((-1, -1)) and not c.contains((1, 0))


def test_facets_of_slanted_cone():
    c = RationalCone.from_generators([(1, 0), (1, 2)])
    assert set(c.facet_normals) == {(0, 1), (2, -1)}


def test_halfspace_cone():
    c = RationalCone.from_inequalities([(1, 0)])
    assert c.lineality == ((0, 1),)
    assert c.rays == ((1, 0),)


def test_cone_with_lines():
    c = RationalCone.from_generators([(1, 0)], lines=[(0, 1)])
    assert c.lineality == ((0, 1),)
    assert c.rays == ((1, 0),)
    assert c.contains((1, -5)) and not c.contains((-1, 0))


def test_each_cone_constructor_runs_two_double_descriptions(monkeypatch):
    calls = []
    real = polyhedral._dd

    def counting(dim, inequalities):
        calls.append(dim)
        return real(dim, inequalities)

    monkeypatch.setattr(polyhedral, "_dd", counting)
    c = RationalCone.from_generators([(1, 0, 0), (1, 2, 0)], lines=[(0, 1, 1)])
    d = RationalCone.from_inequalities([(0, 1, 0)])
    builds = [
        lambda: RationalCone.from_generators([(1, 0, 0), (1, 2, 0)],
                                             lines=[(0, 1, 1)]),
        lambda: RationalCone.from_inequalities([(1, 0, 0), (2, 1, 0)],
                                               [(0, 1, -1)]),
        lambda: RationalCone.from_generators([], dim=3),
        lambda: RationalCone.from_inequalities([], dim=3),
        lambda: RationalCone.zero(3),
        lambda: c.dual(),
        lambda: c.intersection(d),
    ]
    for build in builds:
        calls.clear()
        build()
        assert len(calls) == 2


def test_facets_and_dual_generators_agree():
    rng = random.Random(7)
    for _ in range(40):
        dim = rng.randint(1, 4)
        gens = [tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rng.randint(1, dim + 2))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        c = RationalCone.from_generators(gens, dim=dim)
        d = c.dual()
        assert set(c.facet_normals) == set(d.rays)
        assert set(c.span_equations) == set(d.lineality)


def test_dual_involution_random():
    rng = random.Random(11)
    for _ in range(120):
        dim = rng.randint(1, 4)
        gens = [tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rng.randint(0, dim + 2))]
        gens = [g for g in gens if any(g)]
        c = (RationalCone.from_generators(gens, dim=dim) if gens
             else RationalCone.zero(dim))
        assert c.dual().dual() == c


def test_cone_membership_against_oracle():
    rng = random.Random(3)
    for _ in range(30):
        dim = rng.randint(2, 3)
        gens = [tuple(rng.randint(-2, 2) for _ in range(dim))
                for _ in range(rng.randint(1, 4))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        c = RationalCone.from_generators(gens, dim=dim)
        for _ in range(12):
            p = tuple(rng.randint(-4, 4) for _ in range(dim))
            assert c.contains(p) == cone_member_oracle(p, gens)


def test_cone_contains_rejects_length_mismatch():
    c = RationalCone.from_generators([(1, 0)], dim=2)
    with pytest.raises(PolyhedralError):
        c.contains((1, 0, -5))
    with pytest.raises(PolyhedralError):
        c.contains((1,))


# -- Hilbert bases ------------------------------------------------------------

def test_hilbert_first_orthant():
    c = RationalCone.from_generators([(1, 0), (0, 1)])
    assert hilbert_basis(c, Lattice.full(2)) == [(0, 1), (1, 0)]


def test_hilbert_slanted():
    c = RationalCone.from_generators([(1, 0), (1, 2)])
    assert hilbert_basis(c, Lattice.full(2)) == [(1, 0), (1, 1), (1, 2)]
    assert enumerate_hilbert_oracle([(1, 0), (1, 2)], 2) == [(1, 0), (1, 1), (1, 2)]


def test_hilbert_dual_slanted():
    c = RationalCone.from_generators([(0, 1), (2, -1)])
    assert hilbert_basis(c, Lattice.full(2)) == [(0, 1), (1, 0), (2, -1)]


def test_hilbert_on_sublattice():
    c = RationalCone.from_generators([(1, 0), (0, 1)])
    lat = Lattice.span([(2, 0), (0, 3)])
    assert hilbert_basis(c, lat) == [(0, 3), (2, 0)]


def test_hilbert_nonpointed_raises_without_units():
    c = RationalCone.from_inequalities([(1, 0)])
    with pytest.raises(PolyhedralError):
        hilbert_basis(c, Lattice.full(2))
    units, basis = hilbert_basis_with_units(c, Lattice.full(2))
    assert units.basis == ((0, 1),)
    assert basis == [(1, 0)]


def test_hilbert_matches_fm_oracle_tiny():
    # fully independent cross-check (Fourier–Motzkin membership) on a few
    # small cones
    for gens in ([(1, 0), (1, 2)], [(2, 1), (1, 3)], [(1, 0), (1, 1), (0, 1)]):
        c = RationalCone.from_generators(gens, dim=2)
        assert hilbert_basis(c, Lattice.full(2)) == enumerate_hilbert_oracle(gens, 2)


def test_hilbert_matches_oracle_small_random():
    rng = random.Random(5)
    done = 0
    while done < 12:
        dim = rng.randint(2, 3)
        gens = [tuple(rng.randint(0, 2) for _ in range(dim))
                for _ in range(rng.randint(2, 3))]
        gens = [g for g in gens if any(g)]
        if len(gens) < 2:
            continue
        c = RationalCone.from_generators(gens, dim=dim)
        if c.lineality:
            continue
        got = hilbert_basis(c, Lattice.full(dim))
        assert got == enumerate_hilbert_oracle(gens, dim, member=fast_member(c))
        done += 1


# -- the triangulation behind the Hilbert basis --------------------------------

def _simplices(cone):
    return [[cone.rays[i] for i in s] for s in polyhedral._triangulation(cone)]


@st.composite
def pointed_cones(draw):
    """Pointed cones in dims 2-4: full-dimensional ones, mostly not
    simplicial, and cones of lower rank than the ambient lattice."""
    dim = draw(st.integers(2, 4))
    b = 2 if dim <= 3 else 1
    upper = st.tuples(*[st.integers(-b, b)] * (dim - 1), st.integers(1, b + 1))
    gens = draw(st.lists(upper, min_size=1, max_size=dim + 3))
    if draw(st.booleans()):
        # embed in one more dimension along a fixed line: rank < lattice
        gens = [g + (g[0],) for g in gens]
        dim += 1
    return RationalCone.from_generators(gens, dim=dim)


CUBE = RationalCone.from_generators(
    [(x, y, z, 1) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
OCTAHEDRON = RationalCone.from_generators(
    [(1, 0, 0, 1), (-1, 0, 0, 1), (0, 1, 0, 1), (0, -1, 0, 1),
     (0, 0, 1, 1), (0, 0, -1, 1)])
PLANAR_IN_SPACE = RationalCone.from_generators(
    [(1, 0, 1), (0, 1, 1), (2, 1, 3), (1, 2, 3)], dim=3)


@settings(max_examples=100, deadline=None)
@given(pointed_cones())
@example(CUBE)
@example(OCTAHEDRON)
@example(PLANAR_IN_SPACE)
def test_triangulation_simplices_have_independent_extreme_rays(cone):
    for simplex in _simplices(cone):
        assert len(simplex) == cone.span_rank()
        assert len(hnf(simplex)) == cone.span_rank()


@settings(max_examples=60, deadline=None)
@given(pointed_cones())
@example(CUBE)
@example(OCTAHEDRON)
@example(PLANAR_IN_SPACE)
def test_triangulation_covers_the_cone(cone):
    simplices = _simplices(cone)
    for p in itertools.product(range(-2, 3), repeat=cone.dim):
        if cone.contains(p):
            assert any(c is not None and min(c) >= 0
                       for c in (rational_solve(s, p) for s in simplices)), p


@settings(max_examples=100, deadline=None)
@given(pointed_cones())
@example(CUBE)
@example(OCTAHEDRON)
@example(PLANAR_IN_SPACE)
def test_triangulation_interiors_are_disjoint(cone):
    simplices = _simplices(cone)
    for i, s in enumerate(simplices):
        inner = tuple(map(sum, zip(*s)))
        for j, t in enumerate(simplices):
            if j != i:
                c = rational_solve(t, inner)
                assert c is not None and min(c) <= 0


def _count_simplices(monkeypatch):
    """Count calls of `_parallelepiped_points`: one per maximal simplex."""
    calls = []
    real = polyhedral._parallelepiped_points

    def counted(rays):
        calls.append(rays)
        return real(rays)

    monkeypatch.setattr(polyhedral, "_parallelepiped_points", counted)
    return calls


@pytest.mark.parametrize("polygon", [
    [(0, 0), (1, 0), (0, 1)],
    [(0, 0), (1, 0), (1, 1), (0, 1)],
    [(0, 0), (2, 0), (3, 1), (1, 3), (0, 2)],
    [(1, 0), (2, 0), (3, 1), (2, 2), (1, 2), (0, 1)],
    [(0, 0), (3, 0), (4, 1), (4, 3), (2, 4), (0, 3), (-1, 1)],
], ids=["triangle", "square", "pentagon", "hexagon", "heptagon"])
def test_triangulation_of_a_polygon_cone_has_k_minus_2_simplices(
        polygon, monkeypatch):
    calls = _count_simplices(monkeypatch)
    cone = RationalCone.from_generators([(x, y, 1) for x, y in polygon])
    assert len(cone.rays) == len(polygon)
    hilbert_basis(cone, Lattice.full(3))
    assert len(calls) == len(polygon) - 2


def test_a_simplicial_cone_is_one_simplex(monkeypatch):
    calls = _count_simplices(monkeypatch)
    cone = RationalCone.from_generators([(1, 0, 0), (1, 3, 0), (1, 1, 5)])
    basis = hilbert_basis(cone, Lattice.full(3))
    assert len(calls) == 1
    assert len(basis) > 3


# -- monoid membership --------------------------------------------------------

def test_membership_numerical():
    ok, cert = monoid_membership((7,), [(2,), (3,)])
    assert ok
    assert 2 * cert[0] + 3 * cert[1] == 7
    ok, cert = monoid_membership((1,), [(2,), (3,)])
    assert not ok and cert is None
    # the branch with no 3 sets the coefficient of 2 to 1 before it fails;
    # the certificate found under 3 resets it
    assert monoid_membership((3,), [(2,), (3,)]) == (True, [0, 1])


def test_membership_2d():
    ok, cert = monoid_membership((2, 2), [(1, 0), (1, 2)])
    assert ok
    assert cert == [1, 1]


def test_membership_zero():
    ok, cert = monoid_membership((0, 0), [(1, 0)])
    assert ok and cert == [0]


def test_membership_mixed_signs():
    ok, cert = monoid_membership((-1, 0), [(1, 1), (-1, 0), (0, -1)])
    assert ok
    v = [0, 0]
    for c, g in zip(cert, [(1, 1), (-1, 0), (0, -1)]):
        v[0] += c * g[0]
        v[1] += c * g[1]
    assert tuple(v) == (-1, 0)


def test_membership_rejects_a_shorter_vector():
    # zip would drop the 5 and certify (1,) = 1 * (1, 5)
    with pytest.raises(PolyhedralError):
        monoid_membership((1,), [(1, 5)])


def test_membership_rejects_a_longer_vector():
    with pytest.raises(PolyhedralError):
        monoid_membership((1, 0), [(1,)])


def test_membership_rejects_generators_of_different_lengths():
    with pytest.raises(PolyhedralError):
        monoid_membership((1, 0), [(1, 0), (1,)])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-2, 3), st.integers(-2, 3)),
                min_size=1, max_size=4),
       st.tuples(st.integers(-6, 6), st.integers(-6, 6)))
def test_membership_certificate_recombines(gens, target):
    gens = [g for g in gens if any(g)]
    if not gens:
        return
    ok, cert = monoid_membership(target, gens)
    if ok:
        total = [0, 0]
        for c, g in zip(cert, gens):
            assert c >= 0
            total[0] += c * g[0]
            total[1] += c * g[1]
        assert tuple(total) == tuple(target)


# -- polytopes ----------------------------------------------------------------

def test_polytope_ray():
    p = Polytope.from_halfspaces(1, [((1,), 0)])
    verts, rays, lines = p.vertex_description()
    assert verts == [(Fraction(0),)]
    assert rays == [(1,)]
    assert not p.is_bounded() and not p.is_empty()


def test_polytope_segment():
    p = Polytope.from_halfspaces(1, [((1,), 0), ((-1,), -2)])
    assert p.vertices() == [(Fraction(0),), (Fraction(2),)]
    assert p.is_bounded()


def test_polytope_square():
    cons = [((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)]
    p = Polytope.from_halfspaces(2, cons)
    assert len(p.vertices()) == 4
    assert p.is_bounded()


def test_polytope_empty():
    p = Polytope.from_halfspaces(1, [((1,), 1), ((-1,), 0)])
    assert p.is_empty()
    assert p.is_bounded()


def test_polytope_fractional_normals():
    p = Polytope.from_halfspaces(1, [((Fraction(1, 2),), Fraction(-1, 2))])
    assert p.vertices() == [(Fraction(-1),)]


def test_polytope_vertices_hold_int_exactly_when_integral():
    # the triangle (0, 0), (1, 0), (0, 1/2), moved by (1/2, 1)
    p = Polytope.from_halfspaces(2, [((1, 0), Fraction(1, 2)), ((0, 1), 1),
                                     ((-1, -2), Fraction(-7, 2))])
    verts = p.vertices()
    assert verts == [(Fraction(1, 2), 1), (Fraction(1, 2), Fraction(3, 2)),
                     (Fraction(3, 2), 1)]
    assert [tuple(map(type, v)) for v in verts] == \
        [(Fraction, int), (Fraction, Fraction), (Fraction, int)]
