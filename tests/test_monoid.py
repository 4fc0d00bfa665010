import itertools

import pytest

from sphervar import monoid as monoid_module
from sphervar import polyhedral
from sphervar.monoid import (
    MonoidError,
    WeightMonoid,
    torus_monoid,
)
from sphervar.polyhedral import Lattice, RationalCone, hilbert_basis_with_units
from sphervar.rootsys import GroupSpec, build_root_data


def torus(rank):
    return build_root_data(GroupSpec((), rank))


def a1():
    return build_root_data(GroupSpec((("A", 1),)))


def test_dominance_enforced():
    rd = a1()
    with pytest.raises(MonoidError):
        WeightMonoid(rd, (rd.weight((-1,)),))
    torus_monoid(rd, [(-1,)])  # raw constructor skips the check


def test_invertible_part_examples():
    rd = torus(2)
    m = torus_monoid(rd, [(1, 0), (0, 1)])
    assert m.invertible_lattice.rank == 0

    m = torus_monoid(rd, [(1, 0), (-1, 0), (0, 1)])
    assert m.invertible_lattice.basis == ((1, 0),)

    m = torus_monoid(rd, [(2, 3), (-2, -3), (1, 1)])
    assert m.invertible_lattice.basis == Lattice.span([(2, 3)]).basis


def test_minimal_generators_a1():
    rd = a1()
    alpha = rd.simple_root(0)
    m = WeightMonoid(rd, (alpha,))
    assert m.minimal_generators == (alpha,)


def test_minimal_generators_numerical():
    rd = torus(1)
    m = torus_monoid(rd, [(2,), (3,)])
    assert tuple(g.int_coords() for g in m.minimal_generators) == ((2,), (3,))
    m2 = torus_monoid(rd, [(2,), (3,), (5,)])
    assert tuple(g.int_coords() for g in m2.minimal_generators) == ((2,), (3,))


def test_minimal_generators_mod_invertibles():
    rd = torus(2)
    m = torus_monoid(rd, [(1, 0), (-1, 0), (1, 1)])
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
    m = torus_monoid(rd, [(1, 0), (0, 1)])
    loc = m.localize(rd.weight((1, 0)))
    assert loc.invertible_lattice.basis == ((1, 0),)
    assert tuple(g.int_coords() for g in loc.minimal_generators) == ((0, 1),)


def test_localize_composes():
    rd = torus(2)
    m = torus_monoid(rd, [(1, 0), (0, 1)])
    e1, e2 = rd.weight((1, 0)), rd.weight((0, 1))
    twice = m.localize(e1).localize(e2)
    once = m.localize(rd.weight((1, 1)))
    assert twice.equals(once)


def test_localize_requires_membership():
    rd = torus(2)
    m = torus_monoid(rd, [(1, 0), (0, 1)])
    with pytest.raises(MonoidError):
        m.localize(rd.weight((-1, 0)))


def test_localize_idempotent():
    rd = torus(2)
    m = torus_monoid(rd, [(1, 0), (0, 1)])
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
    m = torus_monoid(rd, [(1, 0), (1, 1), (1, 2), (2, 1)])
    assert tuple(g.int_coords() for g in m.minimal_generators) == \
        ((1, 0), (1, 1), (1, 2))
    assert m.is_saturated()
    assert m.contains(rd.weight((3, 2)))
    assert not m.contains(rd.weight((0, 1)))
    loc = m.localize(rd.weight((1, 0)))
    assert built == [m.gen_vectors]
    # the localized monoid has other generators and builds its own table,
    # from the dual rays that `localize` seeds
    assert "_search" not in loc.__dict__
    dd_calls = []
    real_dd = polyhedral._dd
    monkeypatch.setattr(polyhedral, "_dd",
                        lambda *a: dd_calls.append(a) or real_dd(*a))
    table = loc._search
    assert dd_calls == []
    assert loc.contains(rd.weight((-1, 0)))
    assert built == [m.gen_vectors, loc.gen_vectors]
    assert table is not m._search


def test_membership_search_deeper_than_the_recursion_limit():
    # (0, 1) is the last of 1,000 free generators in search order: the
    # search fixes every other coefficient at 0 on the way down
    rd = torus(2)
    m = torus_monoid(rd, [(k, 1) for k in range(1000)])
    ok, cert = m.contains_vector((0, 1))
    assert ok and cert == [1] + [0] * 999
    ok, cert = m.contains_vector((1, 2))
    assert ok and sum(cert) == 2
    assert sum(c * k for k, c in enumerate(cert)) == 1
    assert m.contains_vector((0, -1)) == (False, None)


def test_minimal_generators_modulo_a_unit_line():
    # each query searches within the dual rays' bounds, so the whole
    # localization takes milliseconds
    rd = torus(3)
    m = torus_monoid(rd, [(1, 0, 1), (1, 1, 1), (1, 2, 1), (2, 0, 1)])
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
        m = torus_monoid(rd, [g for g in grid if cone.contains(g)])
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
    assert torus_monoid(rd, [(1, 0), (0, 1)]).is_saturated()
    # saturation is relative to the spanned lattice: two independent
    # generators always span exactly their Z-grid
    assert torus_monoid(rd, [(1, 0), (1, 2)]).is_saturated()
    assert not torus_monoid(rd, [(2, 0), (3, 0), (0, 1)]).is_saturated()
    rd1 = torus(1)
    assert not torus_monoid(rd1, [(2,), (3,)]).is_saturated()
    assert torus_monoid(rd1, [(2,)]).is_saturated()  # lattice is 2Z


def test_saturation_stable_under_localization():
    rd = torus(2)
    m = torus_monoid(rd, [(1, 0), (1, 1), (1, 2)])
    assert m.is_saturated()
    for g in [(1, 0), (1, 1), (1, 2)]:
        assert m.localize(rd.weight(g)).is_saturated()


def test_span_identity():
    rd = torus(2)
    m = torus_monoid(rd, [(1, 0), (-1, 0), (1, 1), (2, 1)])
    mins = [g.int_coords() for g in m.minimal_generators]
    inv = m.invertible_lattice
    together = list(mins) + list(inv.basis)
    assert Lattice.span(together, 2).basis == m.lattice.basis


def test_no_minimal_generator_is_a_sum():
    rd = torus(2)
    m = torus_monoid(rd, [(1, 0), (1, 1), (1, 2), (2, 2)])
    mins = [g.int_coords() for g in m.minimal_generators]
    assert sorted(mins) == [(1, 0), (1, 1), (1, 2)]
    # no minimal generator minus another is again a monoid element
    for v in mins:
        for w in mins:
            if v != w:
                diff = tuple(a - b for a, b in zip(v, w))
                assert not m.contains_vector(diff)[0]


def test_localize_by_all_minimal_generators_trivializes():
    rd = torus(2)
    m = torus_monoid(rd, [(1, 0), (1, 2)])
    total = rd.weight((2, 2))
    loc = m.localize(total)
    assert loc.invertible_lattice.basis == loc.lattice.basis


def test_saturation_rank_guard():
    rd = torus(7)
    gens = [tuple(int(i == j) for j in range(7)) for i in range(7)]
    m = torus_monoid(rd, gens)
    with pytest.raises(MonoidError):
        m.is_saturated()
