from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import coroot, fundamental_weight, pairing, support
from references import reference_rational_solve
from sphervar.polyhedral import Lattice, _scaled_inverse, exact
from sphervar.rootsys import (
    MAX_GROUP_DIM,
    GroupSpec,
    RootDataError,
    _cartan_block,
    _cartan_inverse,
    build_root_data,
    root_coefficients,
    symmetric_form,
)


def rd_of(*factors, central=0):
    return build_root_data(GroupSpec(tuple(factors), central))


def test_a2_cartan():
    rd = rd_of(("A", 2))
    assert rd.cartan == ((2, -1), (-1, 2))


def test_a1_simple_root_is_twice_fundamental():
    rd = rd_of(("A", 1))
    assert rd.simple_root(0).coords == (Fraction(2),)


def test_c3_highest_short_root_support():
    rd = rd_of(("C", 3))
    # alpha1 + 2 alpha2 + alpha3 has full support
    gamma = rd.simple_root(0) + rd.simple_root(1).scale(2) + rd.simple_root(2)
    # oracle: multiply the Cartan matrix by the coefficient vector
    coeff = (1, 2, 1)
    expect = tuple(sum(rd.cartan[i][j] * coeff[j] for j in range(3)) for i in range(3))
    assert gamma.coords == tuple(Fraction(x) for x in expect)
    assert support(gamma, rd) == frozenset({0, 1, 2})


def test_cn_cartan_orientation():
    rd = rd_of(("C", 3))
    # last root long: <alpha_{n-1}^vee, alpha_n> = -2
    assert rd.cartan[1][2] == -2
    assert rd.cartan[2][1] == -1


def test_bn_cartan_orientation():
    rd = rd_of(("B", 3))
    assert rd.cartan[1][2] == -1
    assert rd.cartan[2][1] == -2


def test_g2_convention_first_root_long():
    rd = rd_of(("G", 2))
    assert rd.cartan == ((2, -1), (-3, 2))
    assert rd.root_lengths == (Fraction(1), Fraction(1, 3))


def test_invalid_ranks_rejected():
    for t, r in [("D", 2), ("E", 5), ("F", 3), ("G", 3), ("B", 1), ("A", 0)]:
        with pytest.raises(RootDataError):
            rd_of((t, r))
    with pytest.raises(RootDataError):
        rd_of(("X", 2))


def test_groups_past_the_rank_limit_are_refused():
    # simple plus central rank counts; nothing past the limit is built
    assert build_root_data(GroupSpec((), MAX_GROUP_DIM)).dim == MAX_GROUP_DIM
    for spec in [GroupSpec((), MAX_GROUP_DIM + 1),
                 GroupSpec((("A", MAX_GROUP_DIM),), 1),
                 GroupSpec((("A", 100000),))]:
        with pytest.raises(RootDataError, match="exceeds the limit"):
            build_root_data(spec)


def test_pairing_examples():
    rd = rd_of(("A", 2))
    a1 = rd.simple_root(0)
    assert pairing(coroot(rd, 0), rd.simple_root(1)) == -1
    assert pairing(coroot(rd, 0), a1) == 2
    rd1 = rd_of(("A", 1))
    assert pairing(coroot(rd1, 0), rd1.simple_root(0)) == 2


def test_pairing_c3_cartan_row_oracle():
    rd = rd_of(("C", 3))
    gamma = rd.simple_root(0) + rd.simple_root(1).scale(2) + rd.simple_root(2)
    row = rd.cartan[1]
    assert pairing(coroot(rd, 1), gamma) == row[0] * 1 + row[1] * 2 + row[2] * 1


def test_coroot_fundamental_duality():
    for factors in [(("A", 2),), (("B", 2),), (("G", 2),), (("C", 3), ("A", 1))]:
        rd = rd_of(*factors)
        for i in range(rd.n_simple):
            for j in range(rd.n_simple):
                assert pairing(coroot(rd, i), fundamental_weight(rd, j)) == int(i == j)


def test_cartan_equals_coroot_root_pairing():
    for factors in [(("A", 3),), (("C", 2),), (("F", 4),), (("E", 6),),
                    (("D", 4),), (("G", 2), ("A", 1))]:
        rd = rd_of(*factors)
        for i in range(rd.n_simple):
            for j in range(rd.n_simple):
                assert pairing(coroot(rd, i), rd.simple_root(j)) == rd.cartan[i][j]


def test_support_of_simple_roots_and_zero():
    rd = rd_of(("A", 2))
    for i in range(2):
        assert support(rd.simple_root(i), rd) == frozenset({i})
    assert support(rd.weight([0] * rd.dim), rd) == frozenset()


def test_support_cn_exceptional_root():
    for n in (2, 3, 4):
        rd = rd_of(("C", n))
        gamma = rd.simple_root(0) + rd.simple_root(n - 1)
        for i in range(1, n - 1):
            gamma = gamma + rd.simple_root(i).scale(2)
        assert support(gamma, rd) == frozenset(range(n))


def test_support_rejects_central_component():
    rd = rd_of(("A", 1), central=1)
    with pytest.raises(RootDataError):
        support(rd.weight((2, 1)), rd)


def test_root_coefficients_roundtrip():
    rd = rd_of(("B", 3))
    w = rd.simple_root(0).scale(2) + rd.simple_root(2)
    assert root_coefficients(w, rd) == (2, 0, 1)


def test_symmetric_form_normalization():
    rd1 = rd_of(("A", 1))
    a = rd1.simple_root(0)
    assert symmetric_form(rd1, a, a) == 2

    rd2 = rd_of(("A", 2))
    assert symmetric_form(rd2, rd2.simple_root(0), rd2.simple_root(1)) == -1


def test_symmetric_form_g2_sign():
    rd = rd_of(("G", 2))
    a2 = rd.simple_root(1)
    gamma = rd.simple_root(0) + a2
    # short root length and the obtuse angle in our normalization
    assert symmetric_form(rd, a2, a2) == Fraction(2, 3)
    assert symmetric_form(rd, a2, gamma) == Fraction(-1, 3)
    assert symmetric_form(rd, a2, gamma) <= 0


def test_symmetric_form_matches_cartan_scaling():
    for factors in [(("B", 2),), (("C", 3),), (("G", 2),), (("F", 4),)]:
        rd = rd_of(*factors)
        for i in range(rd.n_simple):
            for j in range(rd.n_simple):
                lhs = symmetric_form(rd, rd.simple_root(i), rd.simple_root(j))
                rhs = rd.cartan[i][j] * symmetric_form(
                    rd, rd.simple_root(i), rd.simple_root(i)) / 2
                assert lhs == rhs


def test_symmetric_form_inverts_the_cartan_matrix():
    # (alpha_l, omega_j) = d_j [j == l], with alpha_l = sum_i C[i][l] omega_i
    for factors in [(("A", 1),), (("A", 2),), (("A", 4),), (("B", 2),),
                    (("B", 4),), (("C", 2),), (("C", 3),), (("C", 4),),
                    (("D", 3),), (("D", 5),), (("E", 6),), (("E", 7),),
                    (("E", 8),), (("F", 4),), (("G", 2),),
                    (("C", 2), ("A", 1))]:
        rd = rd_of(*factors, central=1)
        omega = [fundamental_weight(rd, j) for j in range(rd.dim)]
        for l in range(rd.n_simple):
            for j in range(rd.dim):
                lhs = symmetric_form(rd, rd.simple_root(l), omega[j])
                assert lhs == (rd.root_lengths[l] if j == l else 0)
        assert all(symmetric_form(rd, omega[i], omega[j])
                   == symmetric_form(rd, omega[j], omega[i])
                   for i in range(rd.dim) for j in range(rd.dim))


def test_central_block_identity():
    rd = rd_of(("A", 1), central=2)
    e1 = rd.weight((0, 1, 0))
    e2 = rd.weight((0, 0, 1))
    assert symmetric_form(rd, e1, e1) == 1
    assert symmetric_form(rd, e1, e2) == 0


def test_root_names():
    rd = rd_of(("A", 2))
    assert rd.root_name(0) == "alpha1"
    rd2 = rd_of(("C", 2), ("A", 1))
    assert rd2.root_name(0) == "f1.alpha1"
    assert rd2.root_name(2) == "f2.alpha1"


# -- the root-data constants built once per group ------------------------------

SIMPLE_FACTORS = ([("A", n) for n in range(1, 7)] + [("B", n) for n in range(2, 6)]
                  + [("C", n) for n in range(2, 6)] + [("D", n) for n in range(3, 7)]
                  + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


@st.composite
def root_combinations(draw):
    """A group with up to three simple factors and a central torus, and
    w = sum_i (c_i / q) alpha_i for integers c_i and a denominator q."""
    factors = draw(st.lists(st.sampled_from(SIMPLE_FACTORS), min_size=1, max_size=3))
    rd = rd_of(*factors, central=draw(st.integers(0, 2)))
    coeffs = draw(st.lists(st.integers(-6, 6), min_size=rd.n_simple,
                           max_size=rd.n_simple))
    return rd, coeffs, draw(st.integers(1, 4))


def reference_coefficients(w, rd):
    """The simple-root coefficients of w by a `Fraction` solve on the
    columns of the Cartan matrix."""
    n = rd.n_simple
    cols = [[rd.cartan[r][j] for r in range(n)] for j in range(n)]
    return tuple(reference_rational_solve(cols, w.coords[:n]))


@settings(max_examples=150, deadline=None)
@given(root_combinations())
def test_root_data_constants_match_the_cartan_reference(case):
    rd, coeffs, q = case
    n = rd.n_simple
    for i in range(n):
        column = [rd.cartan[r][i] for r in range(n)] + [0] * rd.spec.central_rank
        assert rd.simple_root(i) == rd.weight(column)
        assert Lattice.full(rd.dim).columns[i] == coroot(rd, i)
    w = rd.weight([0] * rd.dim)
    for i, c in enumerate(coeffs):
        w = w + rd.simple_root(i).scale(Fraction(c, q))
    got = root_coefficients(w, rd)
    assert got == reference_coefficients(w, rd) == tuple(Fraction(c, q) for c in coeffs)
    assert [type(x) for x in got] == [type(exact(c, q)) for c in coeffs]
    assert support(w, rd) == frozenset(i for i, c in enumerate(coeffs) if c)
    if rd.spec.central_rank:
        shifted = rd.weight(w.coords[:-1] + (w.coords[-1] + 1,))
        with pytest.raises(RootDataError):
            root_coefficients(shifted, rd)


@pytest.mark.parametrize("factors, p", [
    ((("E", 8),), 1), ((("A", 2), ("G", 2)), 3), ((("A", 1),) * 3, 2),
    ((("A", 2), ("D", 5), ("B", 3)), 12)], ids=["E8", "A2xG2", "A1^3", "A2xD5xB3"])
def test_cartan_inverse_is_held_over_the_determinants(factors, p):
    # p C^-1 is an integer matrix, with p the lcm of the factors'
    # determinants: det A_n = n + 1, det B_n = det C_n = 2, det D_n = 4,
    # det E_8 = det G_2 = 1
    rd = rd_of(*factors, central=1)
    assert rd.cartan_inverse[0] == p
    inv = rd.cartan_inverse[1]
    n = rd.n_simple
    assert all(type(x) is int for row in inv for x in row)
    for i in range(n):
        for j in range(n):
            assert sum(inv[i][k] * rd.cartan[k][j] for k in range(n)) == p * (i == j)


CLASSICAL_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}


def _assert_closed_form_is_the_bareiss_inverse(dynkin, n):
    block = _cartan_block(dynkin, n)
    assert _cartan_inverse(dynkin, n, block) == _scaled_inverse(block), \
        (dynkin, n)


@pytest.mark.parametrize("dynkin", sorted(CLASSICAL_MIN_RANK))
def test_classical_cartan_inverses_in_closed_form_match_bareiss(dynkin):
    # every rank from 1 to 24, and a sample up to the group-size limit;
    # the full sweep to 128 is a minute of Bareiss
    ranks = list(range(CLASSICAL_MIN_RANK[dynkin], 25)) + [31, 50, 64, 97]
    for n in ranks:
        _assert_closed_form_is_the_bareiss_inverse(dynkin, n)


@pytest.mark.parametrize("dynkin, n", [("E", 6), ("E", 7), ("E", 8),
                                       ("F", 4), ("G", 2)])
def test_exceptional_cartan_inverses_are_the_bareiss_inverse(dynkin, n):
    block = _cartan_block(dynkin, n)
    assert _cartan_inverse(dynkin, n, block) == _scaled_inverse(block)


def test_a_classical_root_datum_takes_no_bareiss_inverse(monkeypatch):
    def refuse(rows):
        raise AssertionError("Bareiss inverse of a classical Cartan block")

    monkeypatch.setattr("sphervar.rootsys._scaled_inverse", refuse)
    rd = build_root_data(GroupSpec((("A", 128 - 13), ("B", 3), ("C", 4),
                                    ("D", 6)), 0))
    assert rd.cartan_inverse[0] == lcm(116, 2, 2, 4)
