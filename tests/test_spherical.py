from fractions import Fraction
from pathlib import Path

import pytest

from sphervar import spherical
from sphervar.cli import parse_input
from sphervar.monoid import WeightMonoid, torus_monoid
from sphervar.recovery import RecoveryError, recover_divisors
from sphervar.rootsys import GroupSpec, RootDataError, build_root_data
from sphervar.spherical import (
    SphericalError,
    classify_root_types,
    elementary_forms,
    hidden_root_triples,
    make_spherical_roots,
    match_hidden_root_triple,
    type_a_roots,
    valuation_cone,
)


def rd_of(*factors, central=0):
    return build_root_data(GroupSpec(tuple(factors), central))


def so3_monoid():
    rd = rd_of(("A", 1))
    return WeightMonoid(rd, (rd.simple_root(0),))


def test_make_spherical_roots_rejects_acute_pairs():
    rd = rd_of(("A", 2))
    with pytest.raises(SphericalError):
        make_spherical_roots(rd, (rd.simple_root(0),
                                  rd.simple_root(0) + rd.simple_root(1)))


def test_make_spherical_roots_rejects_dependent():
    rd = rd_of(("A", 1))
    with pytest.raises(SphericalError):
        make_spherical_roots(rd, (rd.simple_root(0), rd.simple_root(0).scale(2)))


def test_make_spherical_roots_rejects_central():
    rd = rd_of(("A", 1), central=1)
    with pytest.raises(SphericalError):
        make_spherical_roots(rd, (rd.weight((0, 1)),))


@pytest.mark.parametrize("raised, expected", [
    (RootDataError("off the root span"), SphericalError),
    (ZeroDivisionError("internal"), ZeroDivisionError),
])
def test_make_spherical_roots_converts_only_root_data_errors(
        monkeypatch, raised, expected):
    def broken(w, rd):
        raise raised

    monkeypatch.setattr(spherical, "support", broken)
    rd = rd_of(("A", 1))
    with pytest.raises(expected):
        make_spherical_roots(rd, (rd.simple_root(0),))


def negated_root_coords(roots, lattice):
    """The facet normals a valuation cone must have: minus each spherical
    root, in the coordinates of the lattice basis."""
    return {tuple(-x for x in lattice.coords(g.int_coords())) for g in roots}


def test_tail_and_valuation_cones_horospherical():
    m = so3_monoid()
    psi = make_spherical_roots(m.rd, ())
    v = valuation_cone(psi, m.lattice)
    assert len(v.lineality) == m.lattice.rank  # the full dual space
    t = v.dual()  # minus the tail cone, which no root spans
    assert t.rays == () and t.lineality == ()


def test_valuation_cone_half_line():
    m = so3_monoid()
    rd = m.rd
    psi = make_spherical_roots(rd, (rd.simple_root(0),))
    v = valuation_cone(psi, m.lattice)
    # functionals nonpositive on alpha: a half-line in the dual
    assert v.rays == ((-1,),)
    assert set(v.facet_normals) == negated_root_coords(psi.roots, m.lattice)


def test_g2_valuation_cone_roundtrip():
    rd = rd_of(("G", 2))
    lat_m = torus_monoid(rd, [(1, 0), (0, 1)])
    psi = make_spherical_roots(
        rd, (rd.simple_root(1), rd.simple_root(0) + rd.simple_root(1)))
    v = valuation_cone(psi, lat_m.lattice)
    assert len(v.facet_normals) == 2
    assert set(v.facet_normals) == negated_root_coords(psi.roots, lat_m.lattice)


def test_roundtrip_on_corpus_sets():
    cases = []
    rd = rd_of(("A", 1))
    m = WeightMonoid(rd, (rd.simple_root(0),))
    cases.append((m, (rd.simple_root(0),)))
    # the doubled root is primitive only in the lattice it spans
    m_c = WeightMonoid(rd, (rd.weight((4,)),))
    cases.append((m_c, (rd.simple_root(0).scale(2),)))
    rdg = rd_of(("G", 2))
    mg = WeightMonoid(rdg, (rdg.fundamental_weight(0), rdg.fundamental_weight(1)))
    cases.append((mg, (rdg.simple_root(1), rdg.simple_root(0) + rdg.simple_root(1))))
    for m, roots in cases:
        psi = make_spherical_roots(m.rd, roots)
        v = valuation_cone(psi, m.lattice)
        assert set(v.facet_normals) == negated_root_coords(roots, m.lattice)


def test_g_stable_divisors_lie_in_the_valuation_cone():
    # a divisor with stabilizer G is a G-invariant valuation, so it lies
    # in the valuation cone: it pairs nonpositively with every spherical
    # root (Knop, "The Luna-Vust theory of spherical embeddings", 1991)
    root = Path(__file__).resolve().parent.parent
    paths = sorted(root.glob("data/*.json")) + \
        sorted(root.glob("bench/inputs/**/*.json"))
    checked = 0
    for path in paths:
        doc = parse_input(path.read_bytes())
        try:
            datum = recover_divisors(doc.monoid, doc.psi)
        except (RecoveryError, SphericalError):
            continue
        cone = valuation_cone(doc.psi, datum.lattice)
        for d in datum.divisors:
            if datum.levi_roots <= d.stabilizer.roots:
                assert cone.contains(d.phi.values), (path.name, d.divisor_id)
                assert all(d.phi.eval_weight(g) <= 0 for g in doc.psi.roots)
                checked += 1
    assert checked == 67


def test_type_a_roots_and_hidden_triples_are_built_once():
    m = so3_monoid()
    assert type_a_roots(m) is type_a_roots(m) == frozenset()
    rd = rd_of(("C", 3))
    assert hidden_root_triples(rd) is hidden_root_triples(rd)
    assert len(hidden_root_triples(rd)) == 2


def test_type_a_roots_a1():
    m = so3_monoid()
    assert type_a_roots(m) == frozenset()


def test_type_a_roots_trivial_factor():
    rd = rd_of(("A", 1), ("A", 1))
    m = WeightMonoid(rd, (rd.simple_root(0),))
    assert type_a_roots(m) == frozenset({1})


def test_type_a_roots_cn_triple():
    for n in (3, 4):
        rd = rd_of(("C", n))
        two_omega1 = rd.fundamental_weight(0).scale(2)
        omega2 = rd.fundamental_weight(1)
        m = WeightMonoid(rd, (two_omega1, omega2))
        assert type_a_roots(m) == frozenset(range(2, n))


def test_classify_b_and_d():
    rd = rd_of(("A", 1))
    m = so3_monoid()
    psi_b = make_spherical_roots(rd, (rd.simple_root(0),))
    tb = classify_root_types(m, psi_b)
    assert tb.type_of(0) == "b"

    psi_empty = make_spherical_roots(rd, ())
    td = classify_root_types(m, psi_empty)
    assert td.type_of(0) == "d"
    assert td.partner_of(0) is None


def test_classify_c():
    rd = rd_of(("A", 1))
    m = WeightMonoid(rd, (rd.weight((4,)),))
    psi = make_spherical_roots(rd, (rd.simple_root(0).scale(2),))
    t = classify_root_types(m, psi)
    assert t.type_of(0) == "c"


def test_classify_g2():
    rd = rd_of(("G", 2))
    m = WeightMonoid(rd, (rd.fundamental_weight(0), rd.fundamental_weight(1)))
    psi = make_spherical_roots(
        rd, (rd.simple_root(1), rd.simple_root(0) + rd.simple_root(1)))
    t = classify_root_types(m, psi)
    assert t.type_of(0) == "d"
    assert t.type_of(1) == "b"


def test_classify_d_partners():
    rd = rd_of(("A", 1), ("A", 1))
    gen = rd.simple_root(0) + rd.simple_root(1)
    m = WeightMonoid(rd, (gen,))
    psi = make_spherical_roots(rd, (gen,))
    t = classify_root_types(m, psi)
    assert t.type_of(0) == "d" and t.type_of(1) == "d"
    assert t.partners == ((0, 1),)


def test_classify_rejects_type_a_in_psi():
    rd = rd_of(("A", 1), ("A", 1))
    m = WeightMonoid(rd, (rd.simple_root(0), rd.simple_root(1)))
    # make alpha2 orthogonal to the monoid but put it in the root set
    m2 = WeightMonoid(rd, (rd.simple_root(0),))
    psi = make_spherical_roots(rd, (rd.simple_root(1),))
    with pytest.raises(SphericalError):
        classify_root_types(m2, psi)


def test_elementary_forms():
    rd = rd_of(("G", 2))
    psi = make_spherical_roots(
        rd, (rd.simple_root(1), rd.simple_root(0) + rd.simple_root(1)))
    tags = elementary_forms(psi, rd)
    assert tags[0].kind == "simple" and tags[0].roots == (1,)
    # alpha1 and alpha2 are not orthogonal in G2, so the sum is not a pair
    assert tags[1].kind == "none"

    rd1 = rd_of(("A", 1))
    psi2 = make_spherical_roots(rd1, (rd1.simple_root(0).scale(2),))
    assert elementary_forms(psi2, rd1)[0].kind == "double"

    rd2 = rd_of(("A", 1), ("A", 1))
    psi3 = make_spherical_roots(rd2, (rd2.simple_root(0) + rd2.simple_root(1),))
    tag = elementary_forms(psi3, rd2)[0]
    assert tag.kind == "pair" and tag.k == 1 and tag.roots == (0, 1)


def test_elementary_form_half_pair():
    rd = rd_of(("A", 1), ("A", 1))
    gen = rd.simple_root(0) + rd.simple_root(1)
    half = gen.scale(Fraction(1, 2))
    psi = make_spherical_roots(rd, (half,))
    tag = elementary_forms(psi, rd)[0]
    assert tag.kind == "pair" and tag.k == Fraction(1, 2)


def test_elementary_form_c2a1_cross_factor_pair():
    rd = rd_of(("C", 2), ("A", 1))
    gen = rd.simple_root(0) + rd.simple_root(2)  # alpha1 + alpha1'
    psi = make_spherical_roots(rd, (gen,))
    tag = elementary_forms(psi, rd)[0]
    assert tag.kind == "pair" and tag.k == 1 and tag.roots == (0, 2)


def test_triples_self_match():
    # C3 (both k), G2, C2xA1, B4 all match themselves
    for factors, na in [((("C", 3),), 2), ((("G", 2),), 1),
                        ((("C", 2), ("A", 1)), 1), ((("B", 4),), 1)]:
        rd = rd_of(*factors)
        triples = hidden_root_triples(rd)
        assert len(triples) >= na
        for t in triples:
            psi = make_spherical_roots(rd, t.psi)
            got = match_hidden_root_triple(rd, psi, t.pi_a)
            assert got is not None and got.family == t.family


def test_triples_reject_decoys():
    rd = rd_of(("A", 2))
    psi = make_spherical_roots(rd, (rd.simple_root(0) + rd.simple_root(1),))
    assert match_hidden_root_triple(rd, psi, frozenset()) is None

    rdg = rd_of(("G", 2))
    # only a subset of the exceptional root pair
    psi2 = make_spherical_roots(rdg, (rdg.simple_root(1),))
    assert match_hidden_root_triple(rdg, psi2, frozenset()) is None

    rdc = rd_of(("C", 3))
    t = hidden_root_triples(rdc)[0]
    psi3 = make_spherical_roots(rdc, t.psi)
    # wrong type-a set
    assert match_hidden_root_triple(rdc, psi3, frozenset()) is None
