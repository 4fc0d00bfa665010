import itertools
import json
from dataclasses import replace
from fractions import Fraction
from math import gcd
from pathlib import Path
from unittest import mock

import pytest

from builders import (
    coroot,
    from_covector,
    fundamental_weight,
    halfspace_datum,
    localize_datum,
    monoid_of,
    pairing,
    support,
    thin_to_elementary,
)
from corpus import build_corpus, corpus_by_name
from references import reference_half_coroot
from sphervar import monoid as monoid_module
from sphervar import polyhedral
from sphervar import recovery as recovery_module
from sphervar.cli import parse_input
from sphervar.luna import (
    BDivisorRecord,
    LatticeFunctional,
    LunaDatum,
    LunaError,
    RootTypeTable,
)
from sphervar.monoid import MonoidError, WeightMonoid
from sphervar.polyhedral import Lattice, RationalCone, hilbert_basis_with_units
from sphervar.recovery import (
    RecoveryError,
    _monoid_recovery_identity,
    moment_polytope,
    recover_divisors,
    recover_prime,
    recover_type_cd_divisors,
    validate_luna_datum,
)
from sphervar.rootsys import (
    GroupSpec,
    ParabolicSet,
    build_root_data,
)
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


def test_cd_refuses_a_callers_table_that_partners_unequal_columns():
    # classify_root_types partners d-roots only within equal columns, but
    # a caller may pass any table: on the A1 x A1 lattice Z^2 the coroot
    # columns of the two roots differ
    rd = build_root_data(GroupSpec((("A", 1), ("A", 1)), 0))
    m = monoid_of(rd, [(1, 0), (0, 1)])
    psi = make_spherical_roots(rd, ())
    table = RootTypeTable(((0, "d"), (1, "d")), ((0, 1),))
    with pytest.raises(RecoveryError, match="partnered d-roots restrict "
                       "differently to the weight lattice"):
        recover_type_cd_divisors(m, psi, table)


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
    coroot_phi = from_covector(coroot(e.rd, 0), e.monoid.lattice)
    assert total.values == coroot_phi.values
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
    coroot_phi = from_covector(coroot(e.rd, 0), e.monoid.lattice)
    assert total.values == coroot_phi.values
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
    # neither a 1c facet nor the face {2} where the coroot of the type-b
    # root 1 vanishes; the apex inside {2} is skipped too
    assert [(n.subset, n.case) for n in trace] == \
        [((1, 2), "1a"), ((2,), "2")]


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


def test_case2_half_coroots_pair_to_one_with_their_root_alone():
    # a case-2 functional is half the coroot of its root alpha on X; that
    # half coroot, read with the rational `pairing` on every active root,
    # pairs to 1 with alpha alone, the root the divisor is moved by
    seen = 0
    for e in build_corpus():
        datum = recover_entry(e)
        rd = datum.rd
        active = datum.levi_roots
        for d in datum.divisors:
            if d.source != "case_2":
                continue
            (alpha,) = d.source_roots
            half = reference_half_coroot(rd, alpha)
            assert d.phi.values == from_covector(half, datum.lattice).values
            assert {beta for beta in active
                    if pairing(half, rd.simple_root(beta)) == 1} == {alpha}
            assert d.moved_roots(rd.n_simple) & active == {alpha}, e.name
            seen += 1
    assert seen


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
            coroot_phi = from_covector(coroot(e.rd, i), e.monoid.lattice)
            assert total.values == coroot_phi.values


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
        got = {tuple(int(x) for x in datum.psi.roots[i].coords) for i in hid}
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
        thin = recover_prime(e.monoid, thin_to_elementary(e.psi))
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
    return all(m.contains_vector(tuple(int(x) for x in X.from_coords(h)))
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
                           d.source, d.source_roots)
    if "stabilizer" in changes:
        d = BDivisorRecord(d.divisor_id, d.phi, changes["stabilizer"],
                           d.source, d.source_roots)
    divisors[idx] = d
    if changes.get("drop"):
        divisors.pop(idx)
    return LunaDatum(datum.monoid, datum.psi, datum.type_table,
                     tuple(divisors))


def test_fault_wrong_phi_scale():
    e = corpus_by_name()["so3_x1"]
    datum = recover_entry(e)
    X = e.monoid.lattice
    bad = _tamper(datum, phi=from_covector(coroot(e.rd, 0), X))
    rep = validate_luna_datum(bad)
    codes = {c for c, _ in rep.violations}
    assert not rep.passed
    assert "b_pair_pairing" in codes or "b_pair_sum" in codes


def test_fault_missing_divisor():
    e = corpus_by_name()["toric2"]
    datum = recover_entry(e)
    bad = LunaDatum(datum.monoid, datum.psi, datum.type_table,
                    datum.divisors[:1])
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


def test_fault_lemma_sign_under_the_id_of_a_moved_divisor():
    # the same fault, with the tampered divisor renamed after one that
    # alpha1 moves: the check reads its stabilizer, not its id
    e = corpus_by_name()["c2_hidden_k1"]
    datum = recover_entry(e)
    X = e.monoid.lattice
    d_index = next(i for i, d in enumerate(datum.divisors)
                   if d.source == "type_d")
    moved_id = datum.divisors_moved_by(0)[0].divisor_id
    bad = _tamper(datum, index=d_index,
                  phi=LatticeFunctional(X, (Fraction(1), Fraction(0))))
    divisors = list(bad.divisors)
    divisors[d_index] = replace(divisors[d_index], divisor_id=moved_id)
    bad = replace(bad, divisors=tuple(divisors))
    assert 0 in divisors[d_index].stabilizer.roots
    rep = validate_luna_datum(bad)
    assert ("lemma_sign",
            f"divisor {moved_id} outside the moved set of an elementary "
            "root pairs positively with it") in rep.violations


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
    # the normality test runs only when the identity fails, as it does
    # with a facet functional negated; its refusal is a warning and adds
    # no violation of (vi)
    datum = recover_entry(corpus_by_name()["toric2"])
    d = datum.divisors[0]
    datum = replace(datum, divisors=(_with_phi(d, [-v for v in d.phi.values]),)
                    + datum.divisors[1:])
    violations = validate_luna_datum(datum).violations
    assert "monoid_recovery" in {c for c, _ in violations}

    def refuse(self):
        raise MonoidError("saturation check limited")

    monkeypatch.setattr(WeightMonoid, "is_saturated", refuse)
    rep = validate_luna_datum(datum)
    assert rep.violations == [v for v in violations
                              if v[0] != "monoid_recovery"]
    assert "saturation not checked (lattice too large)" in rep.warnings


def test_saturation_internal_error_propagates(monkeypatch):
    # the normality test runs only when the identity fails, as it does
    # with a facet functional negated
    datum = recover_entry(corpus_by_name()["toric2"])
    d = datum.divisors[0]
    datum = replace(datum, divisors=(_with_phi(d, [-v for v in d.phi.values]),)
                    + datum.divisors[1:])

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
    assert loc.psi.roots == ()


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


def test_a_datum_reads_its_group_and_levi_off_its_monoid():
    # the whole variety's Levi is every simple root; the localization at
    # a minimal generator mu keeps the roots whose coroots vanish on mu
    for e in build_corpus():
        datum = recover_entry(e)
        assert datum.rd is e.rd is datum.monoid.rd
        assert datum.levi_roots == frozenset(range(e.rd.n_simple))
        for mu in e.monoid.minimal_generators[:2]:
            loc = localize_datum(datum, mu)
            assert loc.rd is e.rd
            assert loc.levi_roots == frozenset(
                i for i in range(e.rd.n_simple) if mu.coords[i] == 0)


def test_localize_datum_requires_membership():
    e = corpus_by_name()["toric2"]
    datum = recover_entry(e)
    with pytest.raises(RecoveryError):
        localize_datum(datum, e.rd.weight((-1, 0)))


def test_localize_datum_asks_the_membership_of_mu_once(monkeypatch):
    rd = build_root_data(GroupSpec((), 2))
    m = monoid_of(rd, [(1, 0), (1, 1), (1, 2)])
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
    m = monoid_of(rd, [(x, y, 1) for x, y in points])
    datum = recover_divisors(m, make_spherical_roots(rd, ()))
    units = [rd.weight(tuple(int(i == j) for j in range(3))) for i in range(3)]
    got = sorted(tuple(int(d.phi.eval_weight(u)) for u in units)
                 for d in datum.divisors)
    assert got == _inward_facet_normals(points)


def test_four_cube_cone_divisors_are_facets():
    # 16 minimal generators in rank 5, and 82 faces
    rd = build_root_data(GroupSpec((), 5))
    m = monoid_of(rd, [p + (1,) for p in itertools.product((0, 1), repeat=4)])
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


def test_a1_times_t13_walks_only_the_cone_its_facets_and_f_alpha():
    # A1 x T^13 with alpha a type-b root: the coroot vanishes on the 13
    # unit vectors, whose simplicial cone F_alpha has 2^13 faces.  The
    # walk visits the whole cone, the 13 facets through 2 omega, whose
    # Levi is the (empty) type-a set, and F_alpha alone, which mints the
    # type-b pair
    rd = build_root_data(GroupSpec((("A", 1),), 13))
    gens = [(2,) + (0,) * 13] + _unit_vectors(13, offset=1)
    m = WeightMonoid(rd, tuple(rd.weight(g) for g in gens))
    psi = make_spherical_roots(rd, (rd.weight(gens[0]),))
    trace = []
    assert len(recover_prime(m, psi, trace)) == 15
    assert [n.case for n in trace] == ["1a", "2"] + ["1c"] * 13


def _a_root_outside_the_lattice(k):
    # alpha is a type-b root of the monoid but lies outside its lattice,
    # which 6 omega (3 alpha) and the k unit vectors span
    rd = build_root_data(GroupSpec((("A", 1),), k))
    gens = [(6,) + (0,) * k] + _unit_vectors(k, offset=1)
    m = WeightMonoid(rd, tuple(rd.weight(g) for g in gens))
    assert len(m.minimal_generators) == k + 1
    return m, make_spherical_roots(rd, (rd.simple_root(0),))


def test_a_type_b_root_outside_the_lattice_is_refused():
    m, psi = _a_root_outside_the_lattice(13)
    with pytest.raises(SphericalError, match="not in the weight lattice"):
        recover_divisors(m, psi)
    trace = []
    with pytest.raises(SphericalError, match="not in the weight lattice"):
        recover_prime(m, psi, trace)
    assert trace == []


def test_recover_prime_refuses_a_root_outside_the_lattice():
    # over A1 x T the walk alone used to accept this datum, with a case-2
    # pair of functional (3, 0) and a 1c divisor; it refuses it before it
    # visits a node
    m, psi = _a_root_outside_the_lattice(1)
    trace = []
    with pytest.raises(SphericalError, match="not in the weight lattice"):
        recover_prime(m, psi, trace)
    assert trace == []
    with pytest.raises(SphericalError, match="not in the weight lattice"):
        recover_divisors(m, psi)


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


def test_without_type_b_roots_the_walk_visits_the_cone_and_its_facets():
    # with no type-b root only the whole cone and its facets are walked:
    # the 4-cube cone's 1 + 8 of them, one divisor at each facet
    rd = build_root_data(GroupSpec((), 5))
    m = monoid_of(rd, [p + (1,) for p in itertools.product((0, 1), repeat=4)])
    psi = make_spherical_roots(rd, ())
    trace = []
    assert len(recover_prime(m, psi, trace)) == 8
    assert len(trace) == 9
    assert [n.case for n in trace] == ["1a"] + ["1c"] * 8


def test_a_generator_negative_on_a_type_b_root_is_refused():
    # the monoid refuses a generator that is negative on an active root,
    # and every type-b root is active, so no walk ever meets one
    rd = build_root_data(GroupSpec((("A", 1),), 1))
    with pytest.raises(MonoidError, match="not dominant"):
        monoid_of(rd, [(-2, 3), (4, 1)])


def test_the_a13_full_flag_recovers_as_g_mod_u():
    # 2^13 faces, but only the whole cone can mint: every root is type d,
    # and no facet's Levi is the (empty) type-a set.  The monoid is free,
    # so it is saturated at any rank and the recovery identity is checked.
    # G/U: divisor i is the i-th coordinate and is moved by root i alone
    rd = build_root_data(GroupSpec((("A", 13),)))
    m = WeightMonoid(rd, tuple(fundamental_weight(rd, i) for i in range(rd.n_simple)))
    psi = make_spherical_roots(rd, ())
    trace, warnings = [], []
    datum = recover_divisors(m, psi, trace, warnings)
    assert [(n.subset, n.case) for n in trace] == [(tuple(range(1, 14)), "1a")]
    assert datum.lattice.basis == tuple(_unit_vectors(13))
    got = sorted((d.phi.values,
                  tuple(sorted(datum.levi_roots - d.stabilizer.roots)))
                 for d in datum.divisors)
    assert got == sorted((v, (i,)) for i, v in enumerate(_unit_vectors(13)))
    assert warnings == []


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


def test_the_walk_reads_the_facet_table_and_takes_no_dot_product(monkeypatch):
    # the kite cone has four 1c facets; the D5 full flag has none, and the
    # walk still finds each facet's values on the generators in the table
    kite = monoid_of(build_root_data(GroupSpec((), 3)),
                     [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1), (1, 2, 1)])
    d5 = build_root_data(GroupSpec((("D", 5),)))
    flag = WeightMonoid(d5, tuple(fundamental_weight(d5, i) for i in range(5)))
    calls = []
    real = recovery_module._dot

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(recovery_module, "_dot", counted)
    for m, n_classes in ((kite, 4), (flag, 0)):
        recs = recover_prime(m, make_spherical_roots(m.rd, ()))
        assert [r.source for r in recs] == ["case_1c"] * n_classes
        assert calls == []


def _simplex_points(k, d):
    """The lattice points of k·Delta_d at height 1."""
    return [p + (1,) for p in itertools.product(range(k + 1), repeat=d)
            if sum(p) <= k]


def _simplex_facet_normals(k, d):
    """x_i >= 0 for each i, and k - sum x_i >= 0: d + 1 facets."""
    units = _unit_vectors(d + 1)
    return sorted(units[:d] + [(-1,) * d + (k,)])


def _refuse_the_normality_test(monkeypatch):
    def refuse(self):
        raise AssertionError("the normality test ran")

    monkeypatch.setattr(WeightMonoid, "is_saturated", refuse)


def _facets_of_a_recovery(gens):
    rd = build_root_data(GroupSpec((), len(gens[0])))
    datum = recover_divisors(monoid_of(rd, gens), make_spherical_roots(rd, ()))
    units = [rd.weight(u) for u in _unit_vectors(rd.dim)]
    return sorted(tuple(int(d.phi.eval_weight(u)) for u in units)
                  for d in datum.divisors)


@pytest.mark.parametrize("path", sorted((BENCH_INPUTS / "toric-ladder").glob("*.json")),
                         ids=lambda p: p.stem)
def test_a_toric_ladder_recovery_runs_no_normality_test(path, monkeypatch):
    # the recovered functionals are the facets, so the recovery identity
    # holds and validation never asks whether the monoid is saturated
    gens = [tuple(g) for g in json.loads(path.read_text())["monoid_generators"]]
    if len(gens[0]) == 3:
        want = _inward_facet_normals([g[:2] for g in gens])
    else:
        assert sorted(gens) == sorted(_simplex_points(1, 3))
        want = _simplex_facet_normals(1, 3)
    _refuse_the_normality_test(monkeypatch)
    assert _facets_of_a_recovery(gens) == want


@pytest.mark.parametrize("k, d", [(6, 3), (4, 4), (3, 5)])
def test_a_dilated_simplex_cone_recovers_without_the_normality_test(k, d, monkeypatch):
    # 84, 70 and 56 generators; with the normality test a recovery took
    # 0.13, 0.08 and 0.05 s, and without it 0.007 s (one 2-vCPU VM)
    _refuse_the_normality_test(monkeypatch)
    got = _facets_of_a_recovery(_simplex_points(k, d))
    assert len(got) == d + 1
    assert got == _simplex_facet_normals(k, d)


def test_class_monoid_without_a_single_generator_is_refused():
    # <2, 3> in Z: the facet at the origin has class values 2 and 3
    rd = build_root_data(GroupSpec((), 1))
    m = monoid_of(rd, [(2,), (3,)])
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
    # cone(M) only: the recovered functionals contain every dual ray, so
    # the recovery identity builds no cut cone and no normality test runs
    builds = _count_cone_builds(monkeypatch)
    m = WeightMonoid(entry.rd, entry.monoid.generators)
    datum = recover_divisors(m, entry.psi)
    assert len(datum.divisors) == entry.n_divisors
    assert builds == ["from_generators"]


def test_a_validated_recovery_with_units_builds_its_quotient_cone(monkeypatch):
    # the recovery identity holds, so the normality test, which would
    # build the cone modulo the units, does not run
    builds = _count_cone_builds(monkeypatch)
    rd = build_root_data(GroupSpec((), 2))
    m = monoid_of(rd, [(1, 0), (-1, 0), (0, 1)])
    datum = recover_divisors(m, make_spherical_roots(rd, ()))
    assert m.invertible_lattice.rank == 1
    assert len(datum.divisors) == 1
    assert builds == ["from_generators"]


def test_a_tampered_datum_builds_the_cone_over_its_functionals(monkeypatch):
    # a negated facet functional leaves its dual ray out of the
    # functionals, so the dual-ray test does not decide the identity
    e = corpus_by_name()["toric2"]
    datum = recover_entry(e)
    d = datum.divisors[0]
    phi = LatticeFunctional(d.phi.lattice, tuple(-v for v in d.phi.values))
    bad = replace(datum, divisors=(replace(d, phi=phi),) + datum.divisors[1:])
    builds = _count_cone_builds(monkeypatch)
    rep = validate_luna_datum(bad)
    assert builds == ["from_generators"]
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
    builds = _count_cone_builds(monkeypatch)
    mp.vertices_ambient()
    mp.rays_ambient()
    assert mp.is_bounded() is False and mp.is_empty() is False
    assert builds == ["from_inequalities"]


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


def test_moment_polytope_queries_share_one_description(monkeypatch):
    # the strip -1 <= x + y <= 0: its line (1, -1) and its vertices off
    # the line at (-1/2, -1/2) and (0, 0)
    datum = halfspace_datum(2, [(1, 1), (-1, -1)])
    orders = {"D1": 1, "D2": 0}
    base = datum.rd.weight((0, 0))
    fresh = moment_polytope(datum, base, orders)
    expected = (fresh.rays_ambient(), fresh.is_bounded(), fresh.is_empty())
    assert expected == ([(-1, 1), (1, -1)], False, False)
    mp = moment_polytope(datum, base, orders)
    assert mp.vertices_ambient() == [(Fraction(-1, 2), Fraction(-1, 2)), (0, 0)]

    def boom(*args, **kwargs):
        raise AssertionError("a query rebuilt the vertex description")

    monkeypatch.setattr(Lattice, "from_coords", boom)
    monkeypatch.setattr(recovery_module, "exact", boom)
    assert (mp.rays_ambient(), mp.is_bounded(), mp.is_empty()) == expected


def _halfspace_polytope(dim, constraints, base=None):
    """The moment polytope of the half-spaces (n, ord), each
    n.x >= -ord, on the torus of rank dim, moved by base."""
    datum = halfspace_datum(dim, [n for n, _ in constraints])
    orders = {f"D{i + 1}": o for i, (_, o) in enumerate(constraints)}
    return moment_polytope(datum, datum.rd.weight(base or (0,) * dim), orders)


def test_halfspace_polytope_ray():
    mp = _halfspace_polytope(1, [((1,), 0)])
    assert mp.vertices_ambient() == [(0,)]
    assert mp.rays_ambient() == [(1,)]
    assert not mp.is_bounded() and not mp.is_empty()


def test_halfspace_polytope_segment():
    mp = _halfspace_polytope(1, [((1,), 0), ((-1,), 2)])
    assert mp.vertices_ambient() == [(0,), (2,)]
    assert mp.is_bounded()


def test_halfspace_polytope_square():
    mp = _halfspace_polytope(
        2, [((1, 0), 0), ((-1, 0), 1), ((0, 1), 0), ((0, -1), 1)])
    assert len(mp.vertices_ambient()) == 4
    assert mp.is_bounded()


def test_halfspace_polytope_empty():
    mp = _halfspace_polytope(1, [((1,), -1), ((-1,), 0)])
    assert mp.is_empty()
    assert mp.is_bounded()


def test_halfspace_polytope_fractional_normals():
    # x / 2 >= -1
    mp = _halfspace_polytope(1, [((Fraction(1, 2),), 1)])
    assert mp.vertices_ambient() == [(-2,)]


def test_halfspace_polytope_vertices_hold_int_exactly_when_integral():
    # the triangle (0, 0), (1, 0), (0, 1/2), moved by (1/2, 1)
    mp = _halfspace_polytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, -2), 1)],
                             base=(Fraction(1, 2), 1))
    verts = mp.vertices_ambient()
    assert verts == [(Fraction(1, 2), 1), (Fraction(1, 2), Fraction(3, 2)),
                     (Fraction(3, 2), 1)]
    assert [tuple(map(type, v)) for v in verts] == \
        [(Fraction, int), (Fraction, Fraction), (Fraction, int)]


@pytest.mark.parametrize("factor", [
    ("G", 2), ("A", 2), ("C", 3), ("F", 4), ("D", 4), ("B", 5), ("D", 5),
], ids=lambda f: f"{f[0]}{f[1]}")
def test_full_flag_saturation_checks_no_simplex(factor, monkeypatch):
    # the fundamental weights are a basis of the weight lattice, so the
    # monoid is free and saturated: no simplex is tested and no Hilbert
    # basis is taken
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
    m = WeightMonoid(rd, tuple(fundamental_weight(rd, i) for i in range(rd.n_simple)))
    datum = recover_divisors(m, make_spherical_roots(rd, ()))
    assert len(datum.divisors) == rd.n_simple
    assert simplices == []
    assert hilbert_calls == []
    assert m.is_saturated()


# -- per-root work once per monoid ---------------------------------------------

def _pair_datum(k):
    """k partnered A1 x A1 pairs in A1^2k: the monoid and the roots are
    both generated by 2 omega_2i-1 + 2 omega_2i, one type-d divisor a pair."""
    rd = build_root_data(GroupSpec((("A", 1),) * (2 * k)))
    gens = [tuple(2 * (j // 2 == i) for j in range(2 * k)) for i in range(k)]
    return monoid_of(rd, gens), make_spherical_roots(
        rd, [rd.weight(g) for g in gens])


def _count_coords():
    calls = []
    real = Lattice.coords

    def counted(self, v):
        calls.append(tuple(v))
        return real(self, v)

    return calls, mock.patch.object(Lattice, "coords", counted)


def _count_span_vector():
    calls = []
    real = recovery_module.span_vector

    def counted(lattice, v):
        calls.append(tuple(v))
        return real(lattice, v)

    return calls, mock.patch.object(recovery_module, "span_vector", counted)


@pytest.mark.parametrize(
    "path", sorted((BENCH_INPUTS / "flag-ladder").glob("*.json")),
    ids=lambda p: p.stem)
def test_a_flag_recovery_solves_no_covector(path):
    # the coroot functionals are columns of the basis of Z^n
    assert not hasattr(LatticeFunctional, "from_covector")
    doc = parse_input(path.read_bytes())
    datum = recover_divisors(doc.monoid, doc.psi)
    assert validate_luna_datum(datum).passed
    assert {d.source for d in datum.divisors} == {"type_d"}
    assert [d.phi.values for d in datum.divisors] == \
        sorted(doc.monoid.lattice.columns)


def test_validation_checks_each_root_against_the_span_once():
    # 4 pairs: each elementary root is read on the 3 divisors it does not
    # move, one span check for the 3 readings
    m, psi = _pair_datum(4)
    datum = recover_divisors(m, psi)
    assert m.lattice.annihilator
    calls, patch = _count_span_vector()
    with patch:
        assert validate_luna_datum(datum).passed
    assert sorted(calls) == sorted(g.coords for g in psi.roots)


def test_validation_and_stabilizers_check_each_type_b_root_once():
    # so3_x1 x a1a1_pair_root x toric1: a type-b pair, a type-d divisor
    # and a stable one, on a lattice of lower rank; checks (ii) and (v)
    # read alpha once each, and the stabilizers read it once for all
    rd = build_root_data(GroupSpec((("A", 1),) * 3, 1))
    m = monoid_of(rd, [(2, 0, 0, 0), (0, 2, 2, 0), (0, 0, 0, 1)])
    psi = make_spherical_roots(rd, [rd.weight((2, 0, 0, 0)),
                                    rd.weight((0, 2, 2, 0))])
    datum = recover_divisors(m, psi)
    assert sorted(d.source for d in datum.divisors) == \
        ["case_1c", "case_2", "case_2", "type_d"]
    assert m.lattice.annihilator
    alpha = rd.simple_root(0).coords
    calls, patch = _count_span_vector()
    with patch:
        assert validate_luna_datum(datum).passed
    assert sorted(calls) == sorted([alpha, alpha, (0, 2, 2, 0)])
    calls.clear()
    with patch:
        stabilizers = recovery_module.stabilizers_of(
            datum.divisors, datum.type_table, m)
    assert stabilizers == [d.stabilizer for d in datum.divisors]
    assert calls == [alpha]


def test_hidden_divisors_check_each_weight_once():
    # a localization with a unit: the minimal generators and the unit
    # basis are read on the lattice once, into the monoid's tables, so
    # once the first call has read them no vector is read into the lattice
    e = corpus_by_name()["a1_torus2_mixed"]
    datum = localize_datum(recover_entry(e), e.rd.weight((0, 0, 1)))
    m = datum.monoid
    assert m.invertible_lattice.rank and len(datum.divisors) > 1
    hidden = hidden_divisors(datum)
    calls, patch = _count_coords()
    with patch:
        assert hidden_divisors(datum) == hidden
    assert hidden == _reference_hidden_divisors(datum)
    assert calls == []


def _reference_hidden_divisors(datum):
    m = datum.monoid
    return frozenset(
        d.divisor_id for d in datum.divisors
        if all(d.phi.eval_weight(g) > 0 for g in m.minimal_generators)
        and all(d.phi.evaluate(b) == 0 for b in m.invertible_lattice.basis))


def test_a_weight_off_the_span_raises_where_it_is_first_read():
    # a root off the span of X raises LunaError at check (v) once a
    # divisor holds its first simple root, and not while none does
    m, psi = _pair_datum(2)
    datum = recover_divisors(m, psi)
    rd = m.rd
    off = make_spherical_roots(rd, [rd.weight((2, 0, 0, 0))])
    tag_held = LunaDatum(m, off, datum.type_table, datum.divisors)
    with pytest.raises(LunaError, match="outside the lattice span"):
        validate_luna_datum(tag_held)
    unheld = LunaDatum(m, off, datum.type_table, tuple(
        replace(d, stabilizer=ParabolicSet(d.stabilizer.roots - {0}))
        for d in datum.divisors))
    validate_luna_datum(unheld)
