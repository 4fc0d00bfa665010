"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line and enforcing its stated time budget exactly."""

import io
import json
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path


from corpus import build_corpus, corpus_by_name, entry_to_document
from sphervar.cli import cmd_compare, cmd_recover, main, parse_input
from sphervar.luna import BDivisorRecord, LatticeFunctional, LunaDatum
from sphervar.polyhedral import Lattice, RationalCone, hilbert_basis
from sphervar.recovery import (
    recover_divisors,
    recover_prime,
    thin_to_elementary,
    validate_luna_datum,
)
from sphervar.rootsys import GroupSpec, ParabolicSet, build_root_data
from sphervar.spherical import (
    hidden_root_triples,
    hidden_spherical_roots,
    make_spherical_roots,
    match_hidden_root_triple,
    type_a_roots,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def report(n, ok, text, elapsed=None):
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"{status} criterion {n}: {text}{timing}")
    assert ok, f"criterion {n} failed: {text}"


def load_doc(name):
    return parse_input((DATA / name).read_bytes())


def test_criterion_1_quadric_pair():
    t0 = time.perf_counter()
    x0 = load_doc("so3_x0.json")
    x1 = load_doc("so3_x1.json")
    payload, _ = cmd_compare(x0, x1)
    ok = payload["xplus_equivalent"] is True and \
        payload["xpluspsi_equivalent"] is False

    r0, _ = cmd_recover(x0)
    ok = ok and len(r0["divisors"]) == 1 and r0["divisors"][0]["phi"] == [2]

    r1, _ = cmd_recover(x1)
    ok = ok and len(r1["divisors"]) == 2
    alpha = x1.rd.simple_root(0)
    datum = recover_divisors(x1.monoid, x1.psi)
    half = Fraction(1, 2)
    for d in datum.divisors:
        ok = ok and d.phi.eval_weight(alpha) == 1
        ok = ok and d.phi.values == (half * 2,)
    total = datum.divisors[0].phi + datum.divisors[1].phi
    coroot = LatticeFunctional.from_covector(x1.rd.simple_coroot(0),
                                             x1.monoid.lattice)
    ok = ok and total.values == coroot.values
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(1, ok, "quadric cone vs smooth quadric: monoid-equivalent but "
           "not root-equivalent; divisor data exact", elapsed)


def test_criterion_2_monoid_recovery_identity():
    t0 = time.perf_counter()
    corpus = build_corpus()
    names = {e.name for e in corpus}
    ok = len(corpus) >= 10
    ok = ok and {"toric1", "toric2", "toric3", "so3_x0", "so3_x1",
                 "a1a1_pair_root", "g2_hidden", "c2_hidden_k1",
                 "c3_hidden_k1", "b4_hidden"} <= names
    for e in corpus:
        ok = ok and e.monoid.is_saturated()
        datum = recover_divisors(e.monoid, e.psi)
        X = e.monoid.lattice
        rank = X.rank
        rows = [tuple(d.phi.values) for d in datum.divisors]
        cone = RationalCone.from_inequalities(rows, dim=rank)
        if cone.lineality:
            from sphervar.polyhedral import hilbert_basis_with_units
            units, basis = hilbert_basis_with_units(cone, Lattice.full(rank))
            inv = e.monoid.invertible_lattice
            for u in units.basis:
                amb = X.from_coords(u)
                ok = ok and inv.contains(amb)
        else:
            basis = hilbert_basis(cone, Lattice.full(rank))
        for h in basis:
            amb = tuple(int(x) for x in X.from_coords(h))
            ok = ok and e.monoid.contains_vector(amb)[0]
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(2, ok, f"monoid = lattice ∩ divisor half-spaces on "
           f"{len(corpus)} saturated data (Hilbert-basis comparison)", elapsed)


def test_criterion_3_dual_involution():
    t0 = time.perf_counter()
    rng = random.Random(20240817)
    ok = True
    for i in range(500):
        dim = rng.randint(1, 4)
        gens = [tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rng.randint(0, dim + 2))]
        gens = [g for g in gens if any(g)]
        cone = (RationalCone.from_generators(gens, dim=dim) if gens
                else RationalCone.zero(dim))
        if cone.dual().dual() != cone:
            ok = False
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(3, ok, "dual of dual is the identity on 500 random cones, "
           "dims 1-4, exact canonical equality", elapsed)


def _oracle_hilbert(gens, dim, cone):
    member = lambda p: cone.contains(p)
    box = [sum(abs(r[i]) for r in gens) for i in range(dim)]
    import itertools as it
    pts = [c for c in it.product(*(range(-b, b + 1) for b in box))
           if any(c) and member(c)]
    basis = []
    for p in pts:
        reducible = False
        for y in pts:
            if y != p:
                diff = tuple(a - b for a, b in zip(p, y))
                if any(diff) and member(diff):
                    reducible = True
                    break
        if not reducible:
            basis.append(p)
    return sorted(basis)


def test_criterion_4_hilbert_oracle():
    t0 = time.perf_counter()
    rng = random.Random(99)
    ok = True
    done = 0
    while done < 100:
        dim = rng.randint(2, 3)
        count = rng.randint(2, 3)
        bound = 2 if dim == 3 else 3
        gens = [tuple(rng.randint(0, bound) for _ in range(dim))
                for _ in range(count)]
        gens = [g for g in gens if any(g)]
        if len(gens) < 2:
            continue
        cone = RationalCone.from_generators(gens, dim=dim)
        if cone.lineality:
            continue
        got = hilbert_basis(cone, Lattice.full(dim))
        want = _oracle_hilbert(gens, dim, cone)
        if got != want:
            ok = False
            break
        done += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(4, ok, "Hilbert basis equals exhaustive bounded enumeration plus "
           "irreducibility filtering on 100 random 2D/3D cones", elapsed)


def test_criterion_5_validator_completeness():
    corpus = build_corpus()
    ok = all(validate_luna_datum(recover_divisors(e.monoid, e.psi)).passed
             for e in corpus)

    def mutate(datum, index, phi=None, stabilizer=None, drop=False):
        divisors = list(datum.divisors)
        d = divisors[index]
        if phi is not None:
            d = BDivisorRecord(d.divisor_id, phi, d.stabilizer, d.source,
                               d.source_roots, d.coroot_form)
        if stabilizer is not None:
            d = BDivisorRecord(d.divisor_id, d.phi, stabilizer, d.source,
                               d.source_roots, d.coroot_form)
        divisors[index] = d
        if drop:
            divisors.pop(index)
        return LunaDatum(datum.rd, datum.monoid, datum.psi, datum.type_table,
                         tuple(divisors), datum.levi_roots)

    def caught(datum, code):
        rep = validate_luna_datum(datum)
        return (not rep.passed) and code in {c for c, _ in rep.violations}

    by = corpus_by_name()

    # 1. wrong phi scale on the half-coroot divisor
    e = by["sl2_mod_normalizer"]
    d = recover_divisors(e.monoid, e.psi)
    bad = mutate(d, 0, phi=LatticeFunctional(
        e.monoid.lattice, (Fraction(4),)))
    ok = ok and caught(bad, "c_phi")

    # 2. missing divisor
    e = by["toric2"]
    d = recover_divisors(e.monoid, e.psi)
    bad = mutate(d, 0, drop=True)
    ok = ok and caught(bad, "monoid_recovery")

    # 3. wrong stabilizer
    e = by["so3_x1"]
    d = recover_divisors(e.monoid, e.psi)
    bad = mutate(d, 0, stabilizer=ParabolicSet(frozenset({0})))
    ok = ok and caught(bad, "b_pair_count")

    # 4. broken type-b pair sum
    d = recover_divisors(e.monoid, e.psi)
    bad = mutate(d, 0, phi=LatticeFunctional(
        e.monoid.lattice, (Fraction(3),)))
    ok = ok and caught(bad, "b_pair_sum")

    # 5. sign violation against an elementary root
    e = by["c2_hidden_k1"]
    d = recover_divisors(e.monoid, e.psi)
    idx = next(i for i, dv in enumerate(d.divisors) if dv.source == "type_d")
    bad = mutate(d, idx, phi=LatticeFunctional(
        e.monoid.lattice, (Fraction(1), Fraction(0))))
    ok = ok and caught(bad, "lemma_sign")

    # 6. functional not vanishing on the invertible part
    e = by["toric2"]
    loc = e.monoid.localize(e.rd.weight((1, 0)))
    psi = make_spherical_roots(e.rd, ())
    d = recover_divisors(loc, psi)
    bad = mutate(d, 0, phi=LatticeFunctional(
        loc.lattice, (Fraction(1), Fraction(1))))
    ok = ok and caught(bad, "phi_invertible_vanishing")

    report(5, ok, "all recovered data validate; six single-fault mutations "
           "each caught with the correct named violation")


def _decoy_triples():
    out = []

    def add(factors, psi_coords, pia):
        rd = build_root_data(GroupSpec(tuple(factors)))
        psi = make_spherical_roots(rd, tuple(rd.weight(c) for c in psi_coords))
        out.append((rd, psi, frozenset(pia)))

    add([("A", 2)], [(1, 1)], [])
    add([("A", 1)], [(2,)], [])
    add([("A", 1)], [(4,)], [])
    add([("G", 2)], [(-1, 2)], [])
    add([("G", 2)], [(1, -1)], [])
    add([("G", 2)], [(-1, 2), (1, -1)], [0])
    add([("C", 2)], [(2, -1)], [])
    add([("C", 2)], [(2, -1), (0, 1)], [1])
    add([("C", 2)], [(0, 1)], [])
    add([("C", 3)], [(2, -1, 0), (0, 1, 0)], [])
    add([("C", 3)], [(2, -1, 0), (0, 1, 0)], [1, 2])
    add([("C", 3)], [(2, -1, 0)], [2])
    add([("B", 4)], [(-1, 0, 0, 2), (1, 0, 0, 0)], [])
    add([("B", 4)], [(-1, 0, 0, 2), (1, 0, 0, 0)], [1])
    add([("B", 4)], [(-1, 0, 0, 2)], [1, 2])
    add([("B", 3)], [(2, -1, 0)], [])
    add([("C", 2), ("A", 1)], [(2, -1, 2), (0, 1, 0)], [1])
    add([("A", 1), ("A", 1)], [(2, 2)], [])
    add([("D", 4)], [(2, -1, 0, 0)], [])
    add([("F", 4)], [(2, -1, 0, 0)], [])
    return out


def test_criterion_6_triple_matcher():
    ok = True
    # the four families match themselves (C_n counts once for each k)
    families_seen = set()
    for factors in [(("C", 3),), (("G", 2),), (("C", 2), ("A", 1)),
                    (("B", 4),)]:
        rd = build_root_data(GroupSpec(tuple(factors)))
        for t in hidden_root_triples(rd):
            psi = make_spherical_roots(rd, t.psi)
            got = match_hidden_root_triple(rd, psi, t.pi_a)
            ok = ok and got is not None and got.family == t.family
            families_seen.add(t.family)
    ok = ok and families_seen == {1, 2, 3, 4}

    decoys = _decoy_triples()
    ok = ok and len(decoys) == 20
    for rd, psi, pia in decoys:
        ok = ok and match_hidden_root_triple(rd, psi, pia) is None

    # the hidden flag on the G2 datum
    e = corpus_by_name()["g2_hidden"]
    datum = recover_divisors(e.monoid, e.psi)
    hid = hidden_spherical_roots(datum)
    got = {tuple(int(x) for x in datum.psi[i].coords) for i in hid}
    ok = ok and got == {(1, -1)}  # alpha1 + alpha2, the second listed root
    pia = type_a_roots(e.monoid)
    match = match_hidden_root_triple(e.rd, e.psi, pia)
    ok = ok and match is not None and match.family == 2
    report(6, ok, "four exceptional triples match themselves and none of 20 "
           "decoys; the second G2 root is reported hidden")


def test_criterion_7_thinned_root_set_regression():
    ok = True
    for e in build_corpus():
        full = recover_prime(e.monoid, e.psi)
        thin = recover_prime(e.monoid, thin_to_elementary(e.psi, e.rd))
        same = [(r.phi.values, r.source, r.source_roots) for r in full] == \
               [(r.phi.values, r.source, r.source_roots) for r in thin]
        ok = ok and same
    report(7, ok, "recovery unchanged when the root set is thinned to its "
           "elementary-form members, on the full corpus")


def test_criterion_8_determinism(tmp_path):
    ok = True
    docs = []
    for e in build_corpus():
        p = tmp_path / f"{e.name}.json"
        p.write_text(json.dumps(entry_to_document(e)))
        docs.append(p)
    for p in docs:
        outputs = set()
        for _ in range(5):
            buf = io.StringIO()
            with redirect_stdout(buf):
                rc = main(["recover", "--input", str(p), "--format", "machine"])
            ok = ok and rc == 0
            outputs.add(buf.getvalue())
        ok = ok and len(outputs) == 1
    report(8, ok, "byte-identical machine output across 5 runs per corpus "
           "document")
