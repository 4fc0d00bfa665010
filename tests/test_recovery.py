import itertools
from dataclasses import replace
from fractions import Fraction
from math import gcd
from pathlib import Path
from unittest import mock

import pytest

from corpus import build_corpus, corpus_by_name
from sphervar import monoid as monoid_module
from sphervar import polyhedral
from sphervar import recovery as recovery_module
from sphervar.cli import parse_input
from sphervar.luna import BDivisorRecord, LatticeFunctional, LunaDatum
from sphervar.monoid import MonoidError, WeightMonoid, torus_monoid
from sphervar.polyhedral import Lattice, RationalCone, hilbert_basis_with_units
from sphervar.recovery import (
    RecoveryError,
    _monoid_recovery_identity,
    localize_datum,
    moment_polytope,
    recover_divisors,
    recover_prime,
    recover_type_cd_divisors,
    thin_to_elementary,
    validate_luna_datum,
)
from sphervar.rootsys import GroupSpec, ParabolicSet, build_root_data, support
from sphervar.spherical import (
    SphericalError,
    classify_root_types,
    hidden_divisors,
    hidden_spherical_roots,
    make_spherical_roots,
)


def recover_entry(e):
    return recover_divisors(e.monoid, e.psi)


# -- type c/d construction ---------------------------------------------------

def test_cd_single_d_root():
    e = corpus_by_name()["so3_x0"]
    table = classify_root_types(e.monoid, e.psi)
    recs = recover_type_cd_divisors(e.monoid, e.psi, table)
    assert len(recs) == 1
    assert recs[0].source == "type_d"
    # the coroot takes value 2 on the root alpha = (2)
    assert recs[0].phi.values == (Fraction(2),)


def test_cd_type_c():
    e = corpus_by_name()["sl2_mod_normalizer"]
    table = classify_root_types(e.monoid, e.psi)
    recs = recover_type_cd_divisors(e.monoid, e.psi, table)
    assert len(recs) == 1
    assert recs[0].source == "type_c"
    assert recs[0].phi.values == (Fraction(2),)  # half coroot on basis (4)


def test_cd_merged_pair():
    e = corpus_by_name()["a1a1_pair_root"]
    table = classify_root_types(e.monoid, e.psi)
    recs = recover_type_cd_divisors(e.monoid, e.psi, table)
    assert len(recs) == 1
    assert recs[0].source_roots == (0, 1)


# -- the recursive walk -------------------------------------------------------

def test_prime_so3_x1_two_half_coroots():
    e = corpus_by_name()["so3_x1"]
    recs = recover_prime(e.monoid, e.psi)
    assert len(recs) == 2
    for r in recs:
        assert r.source == "case_2"
        assert r.phi.values == (Fraction(1),)  # half coroot on the basis (2)


def test_prime_torus_coordinates():
    e = corpus_by_name()["toric2"]
    recs = recover_prime(e.monoid, e.psi)
    assert sorted(r.phi.values for r in recs) == [(0, 1), (1, 0)]
    assert all(r.source == "case_1c" for r in recs)


def test_prime_so3_x0_empty():
    e = corpus_by_name()["so3_x0"]
    assert recover_prime(e.monoid, e.psi) == []


def test_prime_slanted_toric():
    e = corpus_by_name()["toric_slanted"]
    recs = recover_prime(e.monoid, e.psi)
    assert sorted(r.phi.values for r in recs) == [(0, 1), (2, -1)]


def test_prime_twisted_torus_b_pair_from_class_divisors():
    e = corpus_by_name()["sl2_torus_twisted"]
    warnings = []
    recs = recover_prime(e.monoid, e.psi, warnings=warnings)
    assert len(recs) == 2
    assert all(r.source == "case_1c" for r in recs)
    alpha = e.rd.simple_root(0)
    assert [r.phi.eval_weight(alpha) for r in recs] == [1, 1]
    total = recs[0].phi + recs[1].phi
    coroot = LatticeFunctional.from_covector(e.rd.simple_coroot(0),
                                             e.monoid.lattice)
    assert total.values == coroot.values
    # the pair is already recovered when the full-Levi node is reached, so
    # the case-2 sign hypothesis fails there by design
    assert warnings


def test_prime_case3_reconstruction():
    e = corpus_by_name()["sl2_torus_case3"]
    warnings = []
    trace = []
    recs = recover_prime(e.monoid, e.psi, trace=trace, warnings=warnings)
    assert sorted(r.source for r in recs) == ["case_1c", "case_1c", "case_3"]
    # the case-2 sign hypothesis fails at the bottom node and case 3 takes
    # over, reconstructing the missing member of the pair from the coroot
    assert warnings
    alpha = e.rd.simple_root(0)
    pair = [r for r in recs if r.phi.eval_weight(alpha) == 1]
    assert len(pair) == 2
    total = pair[0].phi + pair[1].phi
    coroot = LatticeFunctional.from_covector(e.rd.simple_coroot(0),
                                             e.monoid.lattice)
    assert total.values == coroot.values
    stable = [r for r in recs if r.phi.eval_weight(alpha) != 1]
    assert len(stable) == 1 and stable[0].source == "case_1c"
    bottom = next(n for n in trace if n.subset == ())
    assert bottom.case == "3" and len(bottom.minted) == 1


def test_recover_case3_stabilizers():
    e = corpus_by_name()["sl2_torus_case3"]
    datum = recover_entry(e)
    # two pair members moved by alpha, one stable divisor
    moved = [d for d in datum.divisors if 0 not in d.stabilizer.roots]
    stable = [d for d in datum.divisors if 0 in d.stabilizer.roots]
    assert len(moved) == 2 and len(stable) == 1


def test_half_pair_merged_divisor():
    e = corpus_by_name()["a1a1_half_pair"]
    datum = recover_entry(e)
    assert len(datum.divisors) == 1
    d = datum.divisors[0]
    assert d.source == "type_d"
    assert d.source_roots == (0, 1)
    assert datum.type_table.partners == ((0, 1),)


def test_prime_g2_recursion_trace():
    e = corpus_by_name()["g2_hidden"]
    trace = []
    recs = recover_prime(e.monoid, e.psi, trace=trace)
    assert len(recs) == 2
    # minimal generators sort canonically: index 1 is omega2, index 2 omega1.
    # The facet {1} is skipped: its Levi is the type-d root 2, so it is
    # neither a 1c facet nor a face whose Levi holds the type-b root 1
    assert [(n.subset, n.case) for n in trace] == \
        [((1, 2), "1a"), ((2,), "2"), ((), "3")]


# -- stabilizers and full recovery --------------------------------------------

def test_recover_so3_pair():
    e = corpus_by_name()["so3_x1"]
    datum = recover_entry(e)
    assert len(datum.divisors) == 2
    for d in datum.divisors:
        assert d.stabilizer.roots == frozenset()  # G_D = B
        assert d.phi.eval_weight(e.rd.simple_root(0)) == 1


def test_recover_so3_x0():
    e = corpus_by_name()["so3_x0"]
    datum = recover_entry(e)
    assert len(datum.divisors) == 1
    assert datum.divisors[0].stabilizer.roots == frozenset()
    assert datum.divisors[0].phi.values == (Fraction(2),)


def test_recover_toric_stabilizers():
    e = corpus_by_name()["toric2"]
    datum = recover_entry(e)
    assert len(datum.divisors) == 2
    for d in datum.divisors:
        assert d.stabilizer.roots == frozenset()  # the whole (torus) group


def test_recover_twisted_not_stable():
    e = corpus_by_name()["sl2_torus_twisted"]
    datum = recover_entry(e)
    for d in datum.divisors:
        assert d.moved_roots(1) == frozenset({0})  # G_D = B despite case 1c


def test_recover_counts_whole_corpus():
    for e in build_corpus():
        datum = recover_entry(e)
        assert len(datum.divisors) == e.n_divisors, e.name


def test_recover_validates_whole_corpus():
    for e in build_corpus():
        datum = recover_entry(e)
        rep = validate_luna_datum(datum)
        assert rep.passed, (e.name, rep.violations)


def test_recover_deterministic():
    for e in build_corpus()[:6]:
        d1 = recover_entry(e)
        d2 = recover_entry(e)
        assert [(x.divisor_id, x.phi.values, x.stabilizer.roots, x.source)
                for x in d1.divisors] == \
               [(x.divisor_id, x.phi.values, x.stabilizer.roots, x.source)
                for x in d2.divisors]


def test_b_pair_sum_property():
    for e in build_corpus():
        datum = recover_entry(e)
        for i in datum.type_table.roots_of_type("b"):
            moved = datum.divisors_moved_by(i)
            assert len(moved) == 2
            total = moved[0].phi + moved[1].phi
            coroot = LatticeFunctional.from_covector(
                e.rd.simple_coroot(i), e.monoid.lattice)
            assert total.values == coroot.values


def test_intersection_identity():
    # zero sets of the functionals intersect as the zero set of the sum
    for e in build_corpus():
        datum = recover_entry(e)
        mins = e.monoid.minimal_generators
        k = len(mins)
        for r in range(1, min(k, 3) + 1):
            for I in itertools.combinations(range(k), r):
                for J in itertools.combinations(range(k), r):
                    zero = e.rd.weight([0] * e.rd.dim)
                    mu_i = sum((mins[i] for i in I), zero)
                    mu_j = sum((mins[j] for j in J), zero)
                    mu_u = sum((mins[t] for t in set(I) | set(J)), zero)
                    for d in datum.divisors:
                        both = d.phi.eval_weight(mu_i) == 0 and \
                            d.phi.eval_weight(mu_j) == 0
                        assert both == (d.phi.eval_weight(mu_u) == 0)


def test_hidden_divisors_cross_check():
    # hidden = in no localization node with nonempty subset
    for e in build_corpus():
        datum = recover_entry(e)
        mins = e.monoid.minimal_generators
        hid = hidden_divisors(datum)
        for d in datum.divisors:
            in_some_node = any(d.phi.eval_weight(g) == 0 for g in mins)
            assert (d.divisor_id in hid) == (not in_some_node and bool(mins))


def test_hidden_divisor_counts():
    for e in build_corpus():
        if e.hidden_divisor_count is None:
            continue
        datum = recover_entry(e)
        assert len(hidden_divisors(datum)) == e.hidden_divisor_count, e.name


def test_hidden_roots_on_corpus():
    for e in build_corpus():
        datum = recover_entry(e)
        hid = hidden_spherical_roots(datum)
        got = {tuple(int(x) for x in datum.psi[i].coords) for i in hid}
        assert got == e.hidden_root_coords, e.name


def test_no_hidden_divisors_in_toric_data():
    e = corpus_by_name()["toric2"]
    datum = recover_entry(e)
    assert hidden_divisors(datum) == frozenset()


def test_group_stable_divisor_blocks_hiddenness():
    # a group-stable divisor is moved by no simple root, so no spherical
    # root can satisfy the covering condition
    e = corpus_by_name()["a1_torus2_mixed"]
    datum = recover_entry(e)
    assert any(d.stabilizer.roots == datum.levi_roots for d in datum.divisors)
    assert hidden_spherical_roots(datum) == frozenset()


def test_thinned_root_set_regression():
    for e in build_corpus():
        full = recover_prime(e.monoid, e.psi)
        thin = recover_prime(e.monoid, thin_to_elementary(e.psi, e.rd))
        assert [(r.phi.values, r.source) for r in full] == \
            [(r.phi.values, r.source) for r in thin], e.name


def reference_monoid_recovery_identity(datum):
    """The recovery identity as the cone inclusion cut ⊆ cone(M), with
    both cones built in the coordinates of X and compared through their
    intersection."""
    m = datum.monoid
    X = m.lattice
    cut = RationalCone.from_inequalities(
        [d.phi.values for d in datum.divisors], dim=X.rank)
    cone = RationalCone.from_generators(
        [X.coords(g) for g in m.gen_vectors], dim=X.rank)
    return cut.intersection(cone) == cut


def reference_violations(datum):
    """The violations of `validate_luna_datum` with check (i) evaluated in
    rational arithmetic, one `eval_weight` per pair, and the recovery
    identity by the cut cone.  Check (i) comes first in the report."""
    m = datum.monoid
    first = []
    for d in datum.divisors:
        for g in m.generators:
            if d.phi.eval_weight(g) < 0:
                first.append(("phi_nonnegative",
                              f"{d.divisor_id} is negative on a monoid generator"))
                break
        for b in m.invertible_lattice.basis:
            if d.phi.evaluate(b) != 0:
                first.append(("phi_invertible_vanishing",
                              f"{d.divisor_id} does not vanish on the invertible part"))
                break
    with mock.patch.object(recovery_module, "_monoid_recovery_identity",
                           reference_monoid_recovery_identity):
        rest = validate_luna_datum(datum).violations
    return first + [v for v in rest
                    if v[0] not in ("phi_nonnegative", "phi_invertible_vanishing")]


def _with_phi(d, values, divisor_id=None):
    return replace(d, divisor_id=divisor_id or d.divisor_id,
                   phi=LatticeFunctional(d.phi.lattice, tuple(values)))


def tampered_divisor_sets(datum):
    """(kind, divisors) for the divisor set with one divisor negated,
    dropped or doubled, with phi_i replaced by phi_i - phi_(i+1), with
    phi_1 + phi_2 added, and with a functional added that is negative on
    a generator."""
    divs = datum.divisors
    X = datum.monoid.lattice
    out = []
    for i, d in enumerate(divs):
        rest = divs[i + 1:]
        out += [
            ("negate", divs[:i] + (_with_phi(d, [-v for v in d.phi.values]),) + rest),
            ("drop", divs[:i] + rest),
            ("double", divs[:i] + (_with_phi(d, [2 * v for v in d.phi.values]),) + rest),
        ]
        if len(divs) >= 2:
            # phi_i >= phi_j >= 0 on the new cut cone, so it lies in the old
            other = divs[(i + 1) % len(divs)].phi
            out.append(("difference",
                        divs[:i] + (_with_phi(d, (d.phi - other).values),) + rest))
    if len(divs) >= 2:
        total = (divs[0].phi + divs[1].phi).values
        out.append(("sum", divs + (_with_phi(divs[0], total, "D_sum"),)))
    g = next(g for g in datum.monoid.gen_vectors if any(g))
    # paired with the coordinates c of g it gives -|c|^2 < 0
    out.append(("negative",
                divs + (_with_phi(divs[0], [-x for x in X.coords(g)], "D_neg"),)))
    return out


def test_monoid_recovery_identity_on_corpus():
    for e in build_corpus():
        datum = recover_entry(e)
        rep = validate_luna_datum(datum)
        assert rep.passed
        assert not any(c == "monoid_recovery" for c, _ in rep.violations)
        assert reference_monoid_recovery_identity(datum), e.name


def _hilbert_recovery_reference(datum):
    """The recovery identity by its Hilbert-basis form: every unit of the
    cut cone X ∩ {phi_D >= 0} is invertible in M and every element of its
    Hilbert basis lies in M."""
    m = datum.monoid
    X = m.lattice
    cut = RationalCone.from_inequalities(
        [d.phi.values for d in datum.divisors], dim=X.rank)
    units, basis = hilbert_basis_with_units(cut, Lattice.full(X.rank))
    if not all(m.invertible_lattice.contains(X.from_coords(u))
               for u in units.basis):
        return False
    return all(m.contains_vector(tuple(int(x) for x in X.from_coords(h)))[0]
               for h in basis)


def test_recovery_identity_matches_hilbert_reference():
    """The recovery identity agrees with the Hilbert-basis check and with
    the cut-cone inclusion, and the violation list of `validate_luna_datum`
    with `reference_violations`, on every corpus datum and on each of its
    tampered divisor sets."""
    outcomes = set()
    for e in build_corpus():
        datum = recover_entry(e)
        assert e.monoid.is_saturated(), e.name
        assert validate_luna_datum(datum).violations == \
            reference_violations(datum) == [], e.name
        for kind, divisors in [("none", datum.divisors)] + \
                tampered_divisor_sets(datum):
            variant = replace(datum, divisors=divisors)
            got = _monoid_recovery_identity(variant)
            assert got == _hilbert_recovery_reference(variant), (e.name, kind)
            assert got == reference_monoid_recovery_identity(variant), \
                (e.name, kind)
            assert validate_luna_datum(variant).violations == \
                reference_violations(variant), (e.name, kind)
            outcomes.add((kind, got))
    # a dropped or negated facet functional breaks the identity; a
    # difference in its place reaches the cut cone and keeps it
    assert {("none", True), ("drop", False), ("negate", False),
            ("difference", True)} <= outcomes


# -- validator fault injection -------------------------------------------------

def _tamper(datum, **changes):
    divisors = list(datum.divisors)
    idx = changes.pop("index", 0)
    d = divisors[idx]
    if "phi" in changes:
        d = BDivisorRecord(d.divisor_id, changes["phi"], d.stabilizer,
                           d.source, d.source_roots, d.coroot_form)
    if "stabilizer" in changes:
        d = BDivisorRecord(d.divisor_id, d.phi, changes["stabilizer"],
                           d.source, d.source_roots, d.coroot_form)
    divisors[idx] = d
    if changes.get("drop"):
        divisors.pop(idx)
    return LunaDatum(datum.rd, datum.monoid, datum.psi, datum.type_table,
                     tuple(divisors), datum.levi_roots)


def test_fault_wrong_phi_scale():
    e = corpus_by_name()["so3_x1"]
    datum = recover_entry(e)
    X = e.monoid.lattice
    bad = _tamper(datum, phi=LatticeFunctional.from_covector(
        e.rd.simple_coroot(0), X))
    rep = validate_luna_datum(bad)
    codes = {c for c, _ in rep.violations}
    assert not rep.passed
    assert "b_pair_pairing" in codes or "b_pair_sum" in codes


def test_fault_missing_divisor():
    e = corpus_by_name()["toric2"]
    datum = recover_entry(e)
    bad = LunaDatum(datum.rd, datum.monoid, datum.psi, datum.type_table,
                    datum.divisors[:1], datum.levi_roots)
    rep = validate_luna_datum(bad)
    assert not rep.passed
    assert "monoid_recovery" in {c for c, _ in rep.violations}


def test_fault_wrong_stabilizer():
    e = corpus_by_name()["so3_x1"]
    datum = recover_entry(e)
    bad = _tamper(datum, stabilizer=ParabolicSet(frozenset({0})))
    rep = validate_luna_datum(bad)
    assert not rep.passed
    assert "b_pair_count" in {c for c, _ in rep.violations}


def test_fault_broken_pair_sum():
    e = corpus_by_name()["so3_x1"]
    datum = recover_entry(e)
    X = e.monoid.lattice
    bad_phi = LatticeFunctional(X, (Fraction(2),))
    bad = _tamper(datum, phi=bad_phi)
    rep = validate_luna_datum(bad)
    assert not rep.passed
    assert "b_pair_sum" in {c for c, _ in rep.violations} or \
        "b_pair_pairing" in {c for c, _ in rep.violations}


def test_fault_lemma_sign():
    e = corpus_by_name()["c2_hidden_k1"]
    datum = recover_entry(e)
    # the type-d divisor is outside the moved set of the elementary root
    # alpha1; give it a functional pairing positively with alpha1
    X = e.monoid.lattice
    d_index = next(i for i, d in enumerate(datum.divisors)
                   if d.source == "type_d")
    # alpha1 has lattice coordinates (1, -1); this functional pairs +1 with it
    bad_phi = LatticeFunctional(X, (Fraction(1), Fraction(0)))
    bad = _tamper(datum, index=d_index, phi=bad_phi)
    rep = validate_luna_datum(bad)
    assert not rep.passed
    assert "lemma_sign" in {c for c, _ in rep.violations}


def test_fault_invertible_vanishing():
    e = corpus_by_name()["sl2_torus_twisted"]
    # localize so that the monoid has an invertible direction
    datum = recover_entry(e)
    mu = e.rd.weight((2, 0))
    loc = localize_datum(datum, mu)
    assert loc.monoid.invertible_lattice.rank >= 0
    # build a datum with a functional not vanishing on invertibles
    e2 = corpus_by_name()["toric2"]
    m2 = e2.monoid.localize(e2.rd.weight((1, 0)))
    psi2 = make_spherical_roots(e2.rd, ())
    datum2 = recover_divisors(m2, psi2)
    X = m2.lattice
    bad_phi = LatticeFunctional(X, (Fraction(1), Fraction(1)))
    bad = _tamper(datum2, phi=bad_phi)
    rep = validate_luna_datum(bad)
    assert not rep.passed
    assert "phi_invertible_vanishing" in {c for c, _ in rep.violations}


def test_saturation_refusal_becomes_a_warning(monkeypatch):
    datum = recover_entry(corpus_by_name()["toric2"])

    def refuse(self):
        raise MonoidError("saturation check limited")

    monkeypatch.setattr(WeightMonoid, "is_saturated", refuse)
    rep = validate_luna_datum(datum)
    assert rep.passed
    assert "saturation not checked (lattice too large)" in rep.warnings


def test_saturation_internal_error_propagates(monkeypatch):
    datum = recover_entry(corpus_by_name()["toric2"])

    def broken(self):
        raise ZeroDivisionError("internal")

    monkeypatch.setattr(WeightMonoid, "is_saturated", broken)
    with pytest.raises(ZeroDivisionError):
        validate_luna_datum(datum)


# -- localization of data -------------------------------------------------------

def test_localize_datum_sl2_pair():
    e = corpus_by_name()["so3_x1"]
    datum = recover_entry(e)
    loc = localize_datum(datum, e.rd.weight((2,)))
    assert loc.divisors == ()
    assert loc.levi_roots == frozenset()
    assert loc.psi == ()


def test_localize_datum_toric():
    e = corpus_by_name()["toric2"]
    datum = recover_entry(e)
    loc = localize_datum(datum, e.rd.weight((1, 0)))
    assert len(loc.divisors) == 1
    assert loc.divisors[0].phi.eval_weight(e.rd.weight((0, 1))) == 1


def test_localize_datum_orthogonal_direction_keeps_all():
    e = corpus_by_name()["a1a1_trivial_factor"]
    datum = recover_entry(e)
    # localizing at an element pairing zero with every functional keeps all
    zero_pairing = [d for d in datum.divisors]
    mu = e.rd.weight((0, 0))
    loc = localize_datum(datum, mu)
    assert len(loc.divisors) == len(zero_pairing)


def test_localize_datum_requires_membership():
    e = corpus_by_name()["toric2"]
    datum = recover_entry(e)
    with pytest.raises(RecoveryError):
        localize_datum(datum, e.rd.weight((-1, 0)))


def test_localize_datum_asks_the_membership_of_mu_once(monkeypatch):
    rd = build_root_data(GroupSpec((), 2))
    m = torus_monoid(rd, [(1, 0), (1, 1), (1, 2)])
    datum = recover_divisors(m, make_spherical_roots(rd, ()))
    queries = []
    search = monoid_module.monoid_membership

    def counted(v, generators):
        queries.append(tuple(v))
        return search(v, generators)

    monkeypatch.setattr(monoid_module, "monoid_membership", counted)
    localize_datum(datum, rd.weight((1, 0)))
    assert queries.count((1, 0)) == 1


def test_localize_datum_at_invertible_keeps_everything():
    # localizing at an element pairing to zero with every functional keeps
    # the full divisor set while the monoid only gains invertibles
    e = corpus_by_name()["toric2"]
    base = recover_entry(e)
    once = localize_datum(base, e.rd.weight((1, 0)))
    again = localize_datum(once, e.rd.weight((1, 0)))
    assert len(again.divisors) == len(once.divisors) == 1
    assert once.monoid.localize(e.rd.weight((1, 0))).equals(again.monoid)


def _divisor_table(datum):
    return sorted((d.phi.values, tuple(sorted(d.stabilizer.roots)))
                  for d in datum.divisors)


def test_localization_commutes_with_recovery():
    pairs = 0
    for e in build_corpus():
        if e.monoid.lattice.rank > 4:
            continue
        datum = recover_entry(e)
        for mu in e.monoid.minimal_generators:
            loc = localize_datum(datum, mu)
            roots = [g for g in e.psi.roots
                     if support(g, e.rd) <= loc.levi_roots]
            direct = recover_divisors(e.monoid.localize(mu),
                                      make_spherical_roots(e.rd, roots))
            assert direct.monoid.lattice == loc.monoid.lattice
            assert _divisor_table(direct) == _divisor_table(loc), \
                (e.name, mu.coords)
            pairs += 1
    assert pairs == 40


# -- toric cones over lattice polygons -------------------------------------------

def _hull(points):
    """Vertices of the convex hull, counterclockwise (monotone chain)."""
    pts = sorted(set(points))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _inward_facet_normals(points):
    """Primitive inward normals of the cone over the polygon at height 1,
    as functionals (a, b, c) with a x + b y + c >= 0 on the polygon."""
    hull = _hull(points)
    out = set()
    for p, q in zip(hull, hull[1:] + hull[:1]):
        a, b = p[1] - q[1], q[0] - p[0]
        c = -(a * p[0] + b * p[1])
        g = gcd(gcd(a, b), c)
        out.add((a // g, b // g, c // g))
    return sorted(out)


@pytest.mark.parametrize("points", [
    [(x, y) for x in range(3) for y in range(2)],
    [(0, 0), (1, 0), (0, 1), (2, 1), (1, 2), (2, 2)],
    [(x, y) for x in range(4) for y in range(4)],
], ids=["rectangle_2x1", "hexagon", "grid_4x4"])
def test_toric_polygon_cone_divisors_are_facets(points):
    rd = build_root_data(GroupSpec((), 3))
    m = torus_monoid(rd, [(x, y, 1) for x, y in points])
    datum = recover_divisors(m, make_spherical_roots(rd, ()))
    units = [rd.weight(tuple(int(i == j) for j in range(3))) for i in range(3)]
    got = sorted(tuple(int(d.phi.eval_weight(u)) for u in units)
                 for d in datum.divisors)
    assert got == _inward_facet_normals(points)


def test_four_cube_cone_divisors_are_facets():
    # 16 minimal generators in rank 5, and 82 faces
    rd = build_root_data(GroupSpec((), 5))
    m = torus_monoid(rd, [p + (1,) for p in itertools.product((0, 1), repeat=4)])
    assert len(m.minimal_generators) == 16
    datum = recover_divisors(m, make_spherical_roots(rd, ()))
    units = [rd.weight(tuple(int(i == j) for j in range(5))) for i in range(5)]
    got = sorted(tuple(int(d.phi.eval_weight(u)) for u in units)
                 for d in datum.divisors)
    lower = [tuple(int(i == j) for j in range(5)) for i in range(4)]
    upper = [tuple(-x for x in v[:4]) + (1,) for v in lower]
    assert got == sorted(lower + upper)


def _unit_vectors(n, offset=0):
    return [tuple(int(j == i + offset) for j in range(n + offset))
            for i in range(n)]


def test_recovery_face_count_guard():
    # A1 x T^13 with alpha a type-b root: the coroot vanishes on the 13
    # unit vectors, so the walk visits the 2^13 faces of their simplicial
    # cone
    rd = build_root_data(GroupSpec((("A", 1),), 13))
    gens = [(2,) + (0,) * 13] + _unit_vectors(13, offset=1)
    m = WeightMonoid(rd, tuple(rd.weight(g) for g in gens))
    psi = make_spherical_roots(rd, (rd.weight(gens[0]),))
    with pytest.raises(RecoveryError, match="limited to 4096 faces"):
        recover_prime(m, psi)


def test_invalid_roots_are_refused_before_the_face_count():
    # alpha is a type-b root of the monoid but lies outside its lattice,
    # which 6 omega (3 alpha) and the 13 unit vectors span; its face is
    # simplicial on the 13 unit vectors, past the walk's limit of faces
    rd = build_root_data(GroupSpec((("A", 1),), 13))
    gens = [(6,) + (0,) * 13] + _unit_vectors(13, offset=1)
    m = WeightMonoid(rd, tuple(rd.weight(g) for g in gens))
    assert len(m.minimal_generators) == 14
    psi = make_spherical_roots(rd, (rd.simple_root(0),))
    with pytest.raises(SphericalError, match="not in the weight lattice"):
        recover_divisors(m, psi)
    with pytest.raises(RecoveryError, match="limited to 4096 faces"):
        recover_prime(WeightMonoid(rd, tuple(rd.weight(g) for g in gens)), psi)


def test_a_non_root_multiple_of_a_simple_root_is_refused():
    # 3 alpha is primitive in the lattice of 6 omega (3 alpha) and the 13
    # unit vectors and passes the group-level checks, but no simple root
    # has a multiple 3 among spherical roots; the walk needs the root
    # types, so recover_prime refuses it too, before walking any face
    rd = build_root_data(GroupSpec((("A", 1),), 13))
    gens = [(6,) + (0,) * 13] + _unit_vectors(13, offset=1)
    m = WeightMonoid(rd, tuple(rd.weight(g) for g in gens))
    assert len(m.minimal_generators) == 14
    psi = make_spherical_roots(rd, (rd.weight(gens[0]),))
    with pytest.raises(SphericalError, match="non-root multiple"):
        recover_divisors(m, psi)
    trace = []
    with pytest.raises(SphericalError, match="non-root multiple"):
        recover_prime(WeightMonoid(rd, tuple(rd.weight(g) for g in gens)),
                      psi, trace)
    assert trace == []


@pytest.mark.parametrize("limit", [8, 9])
def test_the_face_limit_counts_the_facets_without_type_b_roots(
        monkeypatch, limit):
    # with no type-b root only the whole cone and its facets are walked:
    # the 4-cube cone's 1 + 8 of them pass a limit of 9 and not one of 8
    monkeypatch.setattr(recovery_module, "MAX_FACES", limit)
    rd = build_root_data(GroupSpec((), 5))
    m = torus_monoid(rd, [p + (1,) for p in itertools.product((0, 1), repeat=4)])
    psi = make_spherical_roots(rd, ())
    if limit == 8:
        with pytest.raises(RecoveryError, match="limited to 8 faces"):
            recover_prime(m, psi)
    else:
        trace = []
        assert len(recover_prime(m, psi, trace)) == 8
        assert len(trace) == 9


def test_a_generator_negative_on_a_type_b_root_is_refused():
    # without dominance the faces whose Levi holds alpha are not the faces
    # where the coroot vanishes, so the walk refuses instead of skipping
    rd = build_root_data(GroupSpec((("A", 1),), 1))
    m = torus_monoid(rd, [(-2, 3), (4, 1)])
    psi = make_spherical_roots(rd, (rd.simple_root(0),))
    with pytest.raises(RecoveryError, match="negative on a type-b root"):
        recover_prime(m, psi)


def test_the_a13_full_flag_recovers_as_g_mod_u():
    # 2^13 faces, past the walk's limit, but only the whole cone can mint:
    # every root is type d, and no facet's Levi is the (empty) type-a set.
    # G/U: divisor i is the i-th coordinate and is moved by root i alone
    rd = build_root_data(GroupSpec((("A", 13),)))
    m = WeightMonoid(rd, tuple(rd.fundamental_weight(i) for i in range(rd.n_simple)))
    psi = make_spherical_roots(rd, ())
    trace, warnings = [], []
    datum = recover_divisors(m, psi, trace, warnings)
    assert [(n.subset, n.case) for n in trace] == [(tuple(range(1, 14)), "1a")]
    assert datum.lattice.basis == tuple(_unit_vectors(13))
    got = sorted((d.phi.values,
                  tuple(sorted(datum.levi_roots - d.stabilizer.roots)))
                 for d in datum.divisors)
    assert got == sorted((v, (i,)) for i, v in enumerate(_unit_vectors(13)))
    assert warnings == ["saturation not checked (lattice too large)"]


BENCH_INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs"


def test_the_walk_builds_no_localized_monoid(monkeypatch):
    # every walk node is read off the dual rays of the monoid itself
    calls = []
    real = WeightMonoid.localize

    def counted(self, mu):
        calls.append(mu)
        return real(self, mu)

    monkeypatch.setattr(WeightMonoid, "localize", counted)
    data = [(e.name, e.rd, e.monoid.generators, e.psi) for e in build_corpus()]
    for path in sorted(BENCH_INPUTS.glob("*/*.json")):
        doc = parse_input(path.read_bytes())
        data.append((path.stem, doc.rd, doc.monoid.generators, doc.psi))
    for name, rd, gens, psi in data:
        datum = recover_divisors(WeightMonoid(rd, gens), psi)
        assert datum.divisors, name
        assert calls == [], name


def test_class_monoid_without_a_single_generator_is_refused():
    # <2, 3> in Z: the facet at the origin has class values 2 and 3
    rd = build_root_data(GroupSpec((), 1))
    m = torus_monoid(rd, [(2,), (3,)])
    with pytest.raises(RecoveryError, match="has no single generator"):
        recover_divisors(m, make_spherical_roots(rd, ()))


def test_root_types_are_classified_once_per_recovery(monkeypatch):
    calls = []

    def counted(m, psi):
        calls.append(m)
        return classify_root_types(m, psi)

    monkeypatch.setattr(recovery_module, "classify_root_types", counted)
    for e in build_corpus():
        expected = _divisor_table(recover_entry(e))
        m = WeightMonoid(e.rd, e.monoid.generators)
        calls.clear()
        assert _divisor_table(recover_divisors(m, e.psi)) == expected, e.name
        assert len(calls) == 1 and calls[0] is m, e.name


def _count_cone_builds(monkeypatch):
    builds = []
    for name in ("from_generators", "from_inequalities"):
        real = getattr(RationalCone, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            builds.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(RationalCone, name, staticmethod(counted))
    return builds


@pytest.mark.parametrize("entry", build_corpus(), ids=lambda e: e.name)
def test_a_validated_recovery_builds_one_cone(entry, monkeypatch):
    # cone(M) only: every corpus monoid is pointed and spans its lattice,
    # so the saturation check reads its quotient cone off cone(M), and the
    # recovered functionals contain every dual ray, so the recovery
    # identity builds no cut cone
    builds = _count_cone_builds(monkeypatch)
    m = WeightMonoid(entry.rd, entry.monoid.generators)
    datum = recover_divisors(m, entry.psi)
    assert len(datum.divisors) == entry.n_divisors
    assert builds == ["from_generators"]
    assert m._dual_rays == m.cone.facet_normals


def test_a_validated_recovery_with_units_builds_its_quotient_cone(monkeypatch):
    builds = _count_cone_builds(monkeypatch)
    rd = build_root_data(GroupSpec((), 2))
    m = torus_monoid(rd, [(1, 0), (-1, 0), (0, 1)])
    datum = recover_divisors(m, make_spherical_roots(rd, ()))
    assert m.invertible_lattice.rank == 1
    assert len(datum.divisors) == 1
    assert builds == ["from_generators"] * 2


def test_a_tampered_datum_builds_the_cut_cone(monkeypatch):
    # a negated facet functional leaves its dual ray out of the
    # functionals, so the dual-ray test does not decide the identity
    e = corpus_by_name()["toric2"]
    datum = recover_entry(e)
    d = datum.divisors[0]
    phi = LatticeFunctional(d.phi.lattice, tuple(-v for v in d.phi.values))
    bad = replace(datum, divisors=(replace(d, phi=phi),) + datum.divisors[1:])
    builds = _count_cone_builds(monkeypatch)
    rep = validate_luna_datum(bad)
    assert builds == ["from_inequalities"]
    assert ("monoid_recovery",
            "the monoid is not cut out of its lattice by the divisor "
            "functionals") in rep.violations


def test_recover_passes_on_the_validation_warnings():
    seen = set()
    for e in build_corpus():
        warnings = []
        datum = recover_divisors(e.monoid, e.psi, warnings=warnings)
        report = validate_luna_datum(datum)
        walk = [w for w in warnings if w.startswith("case-2 ")]
        assert warnings == walk + report.warnings, e.name
        seen.update(report.warnings)
    assert any(w.startswith("type-a roots complete") for w in seen)


# -- moment polytopes -----------------------------------------------------------

def test_moment_polytope_queries_share_one_cone(monkeypatch):
    e = corpus_by_name()["toric2"]
    datum = recover_entry(e)
    mp = moment_polytope(datum, e.rd.weight((0, 0)),
                         {d.divisor_id: 1 for d in datum.divisors})
    calls = []
    real = polyhedral._dd

    def counting(dim, inequalities):
        calls.append(dim)
        return real(dim, inequalities)

    monkeypatch.setattr(polyhedral, "_dd", counting)
    mp.vertices_ambient()
    mp.rays_ambient()
    assert mp.is_bounded() is False and mp.is_empty() is False
    assert len(calls) == 2


def test_moment_polytope_ray():
    e = corpus_by_name()["so3_x0"]
    datum = recover_entry(e)
    mp = moment_polytope(datum, e.rd.weight((0,)),
                         {d.divisor_id: 0 for d in datum.divisors})
    assert mp.vertices_ambient() == [(Fraction(0),)]
    assert not mp.is_bounded()
    assert mp.rays_ambient() == [(Fraction(2),)]  # the ray through alpha


def test_moment_polytope_tighter_constraint():
    e = corpus_by_name()["so3_x1"]
    datum = recover_entry(e)
    orders = {datum.divisors[0].divisor_id: 0, datum.divisors[1].divisor_id: 1}
    mp = moment_polytope(datum, e.rd.weight((0,)), orders)
    assert mp.vertices_ambient() == [(Fraction(0),)]
    assert not mp.is_empty()


def test_moment_polytope_shifted_orthant():
    e = corpus_by_name()["toric2"]
    datum = recover_entry(e)
    orders = {d.divisor_id: 1 for d in datum.divisors}
    mp = moment_polytope(datum, e.rd.weight((0, 0)), orders)
    assert mp.vertices_ambient() == [(Fraction(-1), Fraction(-1))]


@pytest.mark.parametrize("factor", [
    ("G", 2), ("A", 2), ("C", 3), ("F", 4), ("D", 4), ("B", 5), ("D", 5),
], ids=lambda f: f"{f[0]}{f[1]}")
def test_full_flag_saturation_checks_one_simplex_and_no_point(factor,
                                                             monkeypatch):
    # the fundamental weights are a basis of the weight lattice, so the
    # normality test triangulates cone(M) as one unimodular simplex, with
    # no parallelepiped point to test, and takes no Hilbert basis
    simplices = []
    hilbert_calls = []
    real_points = polyhedral._parallelepiped_points

    def points(rays):
        simplices.append(real_points(rays))
        return simplices[-1]

    monkeypatch.setattr(polyhedral, "_parallelepiped_points", points)
    for module in (polyhedral, monoid_module, recovery_module):
        monkeypatch.setattr(module, "hilbert_basis_with_units",
                            lambda *args: hilbert_calls.append(args))
    rd = build_root_data(GroupSpec((factor,)))
    m = WeightMonoid(rd, tuple(rd.fundamental_weight(i) for i in range(rd.n_simple)))
    datum = recover_divisors(m, make_spherical_roots(rd, ()))
    assert len(datum.divisors) == rd.n_simple
    assert simplices == [[]]
    assert hilbert_calls == []
    assert m.is_saturated()
