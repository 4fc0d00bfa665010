"""Cross-module property checks tied to the structural invariants."""

import random

from builders import coroot, monoid_of, pairing
from corpus import build_corpus, corpus_by_name
from sphervar.polyhedral import (
    Lattice,
    RationalCone,
    hilbert_basis,
    monoid_membership,
)
from sphervar.recovery import recover_divisors, validate_luna_datum
from sphervar.rootsys import GroupSpec, build_root_data
from sphervar.spherical import classify_root_types


def test_classification_partitions_active_roots():
    for e in build_corpus():
        table = classify_root_types(e.monoid, e.psi)
        seen = [i for i, _ in table.entries]
        assert sorted(seen) == sorted(e.monoid.active_roots)
        assert len(seen) == len(set(seen))
        for _, t in table.entries:
            assert t in ("a", "b", "c", "d")


def test_partner_pairs_satisfy_conditions():
    e = corpus_by_name()["c2a1_hidden"]
    table = classify_root_types(e.monoid, e.psi)
    assert table.partners, "expected a partnered pair in the C2xA1 datum"
    rd = e.rd
    for i, j in table.partners:
        assert rd.cartan[i][j] == 0
        for b in e.monoid.lattice.basis:
            assert pairing(coroot(rd, i), rd.weight(b)) == \
                pairing(coroot(rd, j), rd.weight(b))


def test_hilbert_basis_minimality_via_membership():
    rng = random.Random(42)
    done = 0
    while done < 8:
        dim = rng.randint(2, 3)
        gens = [tuple(rng.randint(0, 2) for _ in range(dim))
                for _ in range(rng.randint(2, 3))]
        gens = [g for g in gens if any(g)]
        if len(gens) < 2:
            continue
        cone = RationalCone.from_generators(gens, dim=dim)
        if cone.lineality:
            continue
        basis = hilbert_basis(cone, Lattice.full(dim))
        for v in basis:
            assert cone.contains(v)
            others = [w for w in basis if w != v]
            assert not monoid_membership(v, others), (gens, v)
        done += 1


def test_effectivity_warning_on_trivial_factor():
    # a factor acting trivially leaves the support cover to the type-a
    # roots; the validator flags it
    e = corpus_by_name()["a1a1_trivial_factor"]
    datum = recover_divisors(e.monoid, e.psi)
    rep = validate_luna_datum(datum)
    assert rep.passed
    assert any("locally" in w for w in rep.warnings)

    g2 = corpus_by_name()["g2_hidden"]
    rep2 = validate_luna_datum(recover_divisors(g2.monoid, g2.psi))
    assert rep2.passed and not rep2.warnings


def test_a2_cone_two_divisors_same_functional():
    e = corpus_by_name()["a2_cone"]
    datum = recover_divisors(e.monoid, e.psi)
    assert len(datum.divisors) == 2
    assert datum.divisors[0].phi.values == datum.divisors[1].phi.values
    moved = [tuple(sorted(d.moved_roots(2))) for d in datum.divisors]
    assert sorted(moved) == [(0,), (1,)]


def test_larger_types_construct():
    for factors in [(("E", 6),), (("E", 7),), (("E", 8),), (("F", 4),),
                    (("D", 5),), (("B", 5), ("C", 3))]:
        rd = build_root_data(GroupSpec(tuple(factors)))
        n = rd.n_simple
        # connectivity and symmetrizability of the Cartan data
        for i in range(n):
            for j in range(n):
                lhs = rd.root_lengths[i] * rd.cartan[i][j]
                rhs = rd.root_lengths[j] * rd.cartan[j][i]
                assert lhs == rhs


def test_saturation_preserved_by_localization_on_corpus():
    for e in build_corpus():
        if e.monoid.lattice.rank > 4:
            continue
        assert e.monoid.is_saturated()
        for g in e.monoid.minimal_generators:
            assert e.monoid.localize(g).is_saturated(), e.name


def test_invertible_part_spans_only_invertibles():
    rd = build_root_data(GroupSpec((), 2))
    m = monoid_of(rd, [(1, 1), (-1, -1), (2, 1)])
    inv = m.invertible_lattice
    assert inv.basis == ((1, 1),)
    # every lattice element of the invertible part is a monoid element in
    # both directions
    for c in (-2, -1, 1, 2):
        v = (c, c)
        assert m.contains_vector(v)
        assert m.contains_vector(tuple(-x for x in v))
