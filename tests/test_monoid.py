import itertools
import time

import pytest

from builders import fundamental_weight, monoid_of
from sphervar import monoid as monoid_module
from sphervar import polyhedral
from sphervar.monoid import MonoidError, WeightMonoid
from sphervar.polyhedral import (
    Lattice,
    RationalCone,
    hilbert_basis_with_units,
    monoid_membership,
)
from sphervar.rootsys import GroupSpec, build_root_data


def torus(rank):
    return build_root_data(GroupSpec((), rank))


def a1():
    return build_root_data(GroupSpec((("A", 1),)))


def test_dominance_enforced():
    rd = a1()
    with pytest.raises(MonoidError):
        WeightMonoid(rd, (rd.weight((-1,)),))


def test_invertible_part_examples():
    rd = torus(2)
    m = monoid_of(rd, [(1, 0), (0, 1)])
    assert m.invertible_lattice.rank == 0

    m = monoid_of(rd, [(1, 0), (-1, 0), (0, 1)])
    assert m.invertible_lattice.basis == ((1, 0),)

    m = monoid_of(rd, [(2, 3), (-2, -3), (1, 1)])
    assert m.invertible_lattice.basis == Lattice.span([(2, 3)]).basis


def test_minimal_generators_a1():
    rd = a1()
    alpha = rd.simple_root(0)
    m = WeightMonoid(rd, (alpha,))
    assert m.minimal_generators == (alpha,)


def test_minimal_generators_numerical():
    rd = torus(1)
    m = monoid_of(rd, [(2,), (3,)])
    assert tuple(g.int_coords() for g in m.minimal_generators) == ((2,), (3,))
    m2 = monoid_of(rd, [(2,), (3,), (5,)])
    assert tuple(g.int_coords() for g in m2.minimal_generators) == ((2,), (3,))


def test_minimal_generators_mod_invertibles():
    rd = torus(2)
    m = monoid_of(rd, [(1, 0), (-1, 0), (1, 1)])
    # the only class is (1,1) mod Z(1,0); the canonical representative is (0,1)
    assert tuple(g.int_coords() for g in m.minimal_generators) == ((0, 1),)


def test_localize_everything_invertible():
    rd = a1()
    alpha = rd.simple_root(0)
    m = WeightMonoid(rd, (alpha,))
    loc = m.localize(alpha)
    assert loc.invertible_lattice.rank == 1
    assert loc.minimal_generators == ()
    assert loc.active_roots == frozenset()


def test_localize_orthant():
    rd = torus(2)
    m = monoid_of(rd, [(1, 0), (0, 1)])
    loc = m.localize(rd.weight((1, 0)))
    assert loc.invertible_lattice.basis == ((1, 0),)
    assert tuple(g.int_coords() for g in loc.minimal_generators) == ((0, 1),)


def test_localize_composes():
    rd = torus(2)
    m = monoid_of(rd, [(1, 0), (0, 1)])
    e1, e2 = rd.weight((1, 0)), rd.weight((0, 1))
    twice = m.localize(e1).localize(e2)
    once = m.localize(rd.weight((1, 1)))
    assert twice.equals(once)


def test_localize_requires_membership():
    rd = torus(2)
    m = monoid_of(rd, [(1, 0), (0, 1)])
    with pytest.raises(MonoidError):
        m.localize(rd.weight((-1, 0)))


def test_localize_idempotent():
    rd = torus(2)
    m = monoid_of(rd, [(1, 0), (0, 1)])
    e1 = rd.weight((1, 0))
    assert m.localize(e1).localize(e1).equals(m.localize(e1))


def test_one_search_table_per_monoid(monkeypatch):
    built = []

    class CountingSearch(monoid_module.MonoidSearch):
        def __init__(self, generators, *args, **kwargs):
            built.append(tuple(generators))
            super().__init__(generators, *args, **kwargs)

    monkeypatch.setattr(monoid_module, "MonoidSearch", CountingSearch)
    rd = torus(2)
    m = monoid_of(rd, [(1, 0), (1, 1), (1, 2), (2, 1)])
    assert tuple(g.int_coords() for g in m.minimal_generators) == \
        ((1, 0), (1, 1), (1, 2))
    assert m.is_saturated()
    assert m.contains(rd.weight((3, 2)))
    assert not m.contains(rd.weight((0, 1)))
    loc = m.localize(rd.weight((1, 0)))
    assert built == [m.gen_vectors]
    # the localized monoid has other generators and builds its own table
    assert "_search" not in loc.__dict__
    table = loc._search
    assert loc.contains(rd.weight((-1, 0)))
    assert built == [m.gen_vectors, loc.gen_vectors]
    assert table is not m._search


def test_membership_search_deeper_than_the_recursion_limit():
    # (0, 1) is the last of 1,000 free generators in search order: the
    # search fixes every other coefficient at 0 on the way down
    rd = torus(2)
    m = monoid_of(rd, [(k, 1) for k in range(1000)])
    assert m.contains_vector((0, 1)) is True
    # (1, 2) is (1, 1) + (0, 1), and (1000, 2) is (999, 1) + (1, 1)
    assert m.contains_vector((1, 2)) is True
    assert m.contains_vector((1000, 2)) is True
    # in the cone but off the grid of heights: (1, 0) has height 0
    assert m.contains_vector((1, 0)) is False
    assert m.contains_vector((0, -1)) is False


def test_membership_outside_the_span_answers_at_once():
    # (k, k, 1) is off the plane of the generators, where the dual rays
    # alone leave a box of some k^2 coefficient pairs to search
    gens = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0)]
    m = monoid_of(torus(3), gens)
    start = time.perf_counter()
    assert m.contains_vector((200, 200, 1)) is False
    assert monoid_membership((200, 200, 1), gens) is False
    assert time.perf_counter() - start < 1
    assert m.contains_vector((200, 200, 0)) is True


def _count_membership(monkeypatch):
    queries = []
    search = monoid_module.monoid_membership

    def counted(v, generators):
        queries.append(tuple(v))
        return search(v, generators)

    monkeypatch.setattr(monoid_module, "monoid_membership", counted)
    return queries


def test_minimal_generators_of_one_degree_ask_no_membership(monkeypatch):
    # the dual rays (1, 0) and (-1, 999) sum to (0, 999), which is 999 on
    # every generator of the fan: no generator can be split off another
    queries = _count_membership(monkeypatch)
    m = monoid_of(torus(2), [(k, 1) for k in range(1000)])
    assert [g.int_coords() for g in m.minimal_generators] == \
        [(k, 1) for k in range(1000)]
    assert queries == []


def test_the_largest_full_flag_asks_no_membership(monkeypatch):
    # the fundamental weights of A128 all have degree 1
    queries = _count_membership(monkeypatch)
    rd = build_root_data(GroupSpec((("A", 128),)))
    m = WeightMonoid(rd, tuple(rd.weight(tuple(int(i == j) for j in range(128)))
                               for i in range(128)))
    assert sorted(m.minimal_generators, key=lambda g: g.coords) == \
        sorted(m.generators, key=lambda g: g.coords)
    assert queries == []


def test_the_64_copy_case_3_monoid_asks_no_membership(monkeypatch):
    # e_i + e_(64+i) and 2 e_i on (A1)^64 x T^64: the cone is simplicial,
    # so each generator's row of facet values has one nonzero entry, in
    # its own place, and no row dominates another.  Degree order alone
    # asks 4,096 queries here: 2 e_i has degree 2, the others degree 1
    queries = _count_membership(monkeypatch)
    n = 64
    rd = build_root_data(GroupSpec((("A", 1),) * n, n))

    def e(k):
        return tuple(int(j == k) for j in range(2 * n))

    gens = [tuple(a + b for a, b in zip(e(i), e(n + i))) for i in range(n)] \
        + [tuple(2 * x for x in e(i)) for i in range(n)]
    m = monoid_of(rd, gens)
    assert [g.int_coords() for g in m.minimal_generators] == sorted(gens)
    assert queries == []


def test_equality_asks_nothing_past_the_minimal_generators(monkeypatch):
    rd = torus(2)
    a = monoid_of(rd, [(1, 0), (1, 1), (1, 2), (2, 2)])
    b = monoid_of(rd, [(3, 3), (1, 2), (2, 2), (1, 1), (1, 0)])
    c = monoid_of(rd, [(1, 0), (1, 2)])
    queries = _count_membership(monkeypatch)
    for m in (a, b, c):
        m.minimal_generators
    # (2, 2) and (3, 3) have a higher degree than the rest and are split
    asked = len(queries)
    assert asked > 0
    assert a.equals(b) and b.equals(a)
    assert not a.equals(c) and not c.equals(b)
    assert len(queries) == asked


def test_the_empty_monoid_has_its_units_in_its_lattice():
    rd = torus(2)
    empty = WeightMonoid(rd, ())
    zero = monoid_of(rd, [(0, 0)])
    assert empty.invertible_lattice.dim == empty.lattice.dim == 2
    assert empty.invertible_lattice == zero.invertible_lattice
    assert empty.minimal_generators == zero.minimal_generators == ()
    assert empty.equals(zero) and zero.equals(empty)
    assert not empty.equals(monoid_of(rd, [(0, 1)]))


def test_minimal_generators_modulo_a_unit_line():
    # each query searches within the dual rays' bounds, so the whole
    # localization takes milliseconds
    rd = torus(3)
    m = monoid_of(rd, [(1, 0, 1), (1, 1, 1), (1, 2, 1), (2, 0, 1)])
    loc = m.localize(rd.weight((1, 2, 1)))
    assert loc.invertible_lattice.basis == ((1, 2, 1),)
    # the classes of (2, 0, 1) and (1, 1, 1) modulo the unit line
    assert tuple(g.int_coords() for g in loc.minimal_generators) == \
        ((0, -4, -1), (0, -1, 0))


def test_localizations_of_four_point_cones():
    """The saturated monoid of the cone over every four lattice points of
    [0, 2]^2 at height 1, localized at every sum of its minimal
    generators, against the Hilbert basis of the localized cone: a
    localization of a saturated monoid is saturated."""
    rd = torus(3)
    grid = [(x, y, 1) for x in range(3) for y in range(3)]
    count = 0
    for pts in itertools.combinations(grid, 4):
        cone = RationalCone.from_generators(pts)
        m = monoid_of(rd, [g for g in grid if cone.contains(g)])
        mins = m.minimal_generators
        for k in range(1, len(mins) + 1):
            for subset in itertools.combinations(mins, k):
                mu = subset[0]
                for g in subset[1:]:
                    mu = mu + g
                loc = m.localize(mu)
                units, basis = hilbert_basis_with_units(
                    RationalCone.from_generators(loc.gen_vectors), loc.lattice)
                assert loc.invertible_lattice == units
                assert [g.int_coords() for g in loc.minimal_generators] == basis
                count += 1
    assert count == 5154


def test_saturation():
    rd = torus(2)
    assert monoid_of(rd, [(1, 0), (0, 1)]).is_saturated()
    # saturation is relative to the spanned lattice: two independent
    # generators always span exactly their Z-grid
    assert monoid_of(rd, [(1, 0), (1, 2)]).is_saturated()
    assert not monoid_of(rd, [(2, 0), (3, 0), (0, 1)]).is_saturated()
    rd1 = torus(1)
    assert not monoid_of(rd1, [(2,), (3,)]).is_saturated()
    assert monoid_of(rd1, [(2,)]).is_saturated()  # lattice is 2Z


def test_saturation_stable_under_localization():
    rd = torus(2)
    m = monoid_of(rd, [(1, 0), (1, 1), (1, 2)])
    assert m.is_saturated()
    for g in [(1, 0), (1, 1), (1, 2)]:
        assert m.localize(rd.weight(g)).is_saturated()


def test_span_identity():
    rd = torus(2)
    m = monoid_of(rd, [(1, 0), (-1, 0), (1, 1), (2, 1)])
    mins = [g.int_coords() for g in m.minimal_generators]
    inv = m.invertible_lattice
    together = list(mins) + list(inv.basis)
    assert Lattice.span(together, 2).basis == m.lattice.basis


def test_no_minimal_generator_is_a_sum():
    rd = torus(2)
    m = monoid_of(rd, [(1, 0), (1, 1), (1, 2), (2, 2)])
    mins = [g.int_coords() for g in m.minimal_generators]
    assert sorted(mins) == [(1, 0), (1, 1), (1, 2)]
    # no minimal generator minus another is again a monoid element
    for v in mins:
        for w in mins:
            if v != w:
                diff = tuple(a - b for a, b in zip(v, w))
                assert not m.contains_vector(diff)


def test_localize_by_all_minimal_generators_trivializes():
    rd = torus(2)
    m = monoid_of(rd, [(1, 0), (1, 2)])
    total = rd.weight((2, 2))
    loc = m.localize(total)
    assert loc.invertible_lattice.basis == loc.lattice.basis


def test_saturation_rank_guard():
    # a free monoid needs no Hilbert basis and is saturated at any rank;
    # the rank limit refuses the basis of a monoid that is not free, such
    # as the 2 e_i and the all-ones vector in rank 7
    rd = torus(7)
    gens = [tuple(int(i == j) for j in range(7)) for i in range(7)]
    for free in (gens, [tuple(2 * x for x in gens[0])] + gens[1:]):
        assert monoid_of(rd, free).is_saturated() is True
    m = monoid_of(rd, [tuple(2 * x for x in g) for g in gens] + [(1,) * 7])
    assert len(m.minimal_generators) == 8
    with pytest.raises(MonoidError):
        m.is_saturated()


def test_the_largest_full_flag_cone_runs_no_double_description(monkeypatch):
    # the fundamental weights of A128 are 128 independent generators, so
    # cone(M) is simplicial and read off one inverse of the identity
    dd_calls = []
    real_dd = polyhedral._dd
    monkeypatch.setattr(polyhedral, "_dd",
                        lambda *a: dd_calls.append(a) or real_dd(*a))
    rd = build_root_data(GroupSpec((("A", 128),)))
    m = WeightMonoid(rd, tuple(fundamental_weight(rd, i) for i in range(128)))
    cone = m.cone
    assert dd_calls == []
    units = sorted(tuple(int(i == j) for j in range(128)) for i in range(128))
    assert list(cone.facet_normals) == units
    assert list(cone.rays) == units
    assert cone.lineality == () and cone.span_equations == ()
