"""Recovery is equivariant under relabelling the simple roots.

Two moves relabel them and carry the divisor table along: permuting the
simple factors of the group (with their central tori), and the diagram
flip of A_n (i -> n + 1 - i) and of D_n (the two spin nodes swapped).
Each move permutes the weight coordinates and the simple roots, so the
monoid and the roots of the moved datum are the images of the first
one's.  The two tables then agree once a functional is read by its
values on the (moved) monoid generators, which does not depend on the
lattice basis, and a stabilizer is read through the root permutation.
"""

import itertools
from types import SimpleNamespace

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from builders import monoid_of, product
from corpus import build_corpus
from sphervar.monoid import WeightMonoid
from sphervar.recovery import RecoveryError, recover_divisors
from sphervar.rootsys import GroupSpec, build_root_data
from sphervar.spherical import SphericalError, make_spherical_roots


def _table(datum, gens, roots=None):
    """The divisors as a sorted list of (values on gens, stabilizer read
    through `roots`, a map of the simple roots, origin)."""
    roots = roots or {}
    return sorted(
        (tuple(d.phi.eval_weight(g) for g in gens),
         tuple(sorted(roots.get(i, i) for i in d.stabilizer.roots)),
         d.source, tuple(sorted(roots.get(i, i) for i in d.source_roots)))
        for d in datum.divisors)


def _assert_equivariant(m, psi, moved_m, moved_psi, weight_map, root_map,
                        name):
    datum = recover_divisors(m, psi)
    moved = recover_divisors(moved_m, moved_psi)
    rd = moved_m.rd
    images = [rd.weight(weight_map(g.coords)) for g in m.generators]
    assert _table(datum, m.generators, root_map) == _table(moved, images), name


def _factor_swap(s1, s2):
    """The maps of weight coordinates and of simple roots that take the
    product group s1 x s2 to s2 x s1 (simple factors, then central tori,
    as `product` lays them out)."""
    n1, n2, c1 = s1.simple_rank, s2.simple_rank, s1.central_rank

    def weight_map(c):
        return (c[n1:n1 + n2] + c[:n1] + c[n1 + n2 + c1:]
                + c[n1 + n2:n1 + n2 + c1])

    return weight_map, {i: (i + n2 if i < n1 else i - n1)
                        for i in range(n1 + n2)}


def test_swapping_the_factors_of_a1_x_b2_carries_the_table():
    a1 = build_root_data(GroupSpec((("A", 1),), 0))
    b2 = build_root_data(GroupSpec((("B", 2),), 1))
    left = SimpleNamespace(
        monoid=monoid_of(a1, [(2,)]),
        psi=make_spherical_roots(a1, [a1.weight((2,))]))
    right = SimpleNamespace(
        monoid=monoid_of(b2, [(1, 0, 0), (0, 1, 1), (0, 1, -1), (0, 0, 2)]),
        psi=make_spherical_roots(b2, []))
    weight_map, root_map = _factor_swap(a1.spec, b2.spec)
    m, psi = product(left, right)
    assert len(recover_divisors(m, psi).divisors) == 2 + 3
    _assert_equivariant(m, psi, *product(right, left), weight_map, root_map,
                        "A1 x B2")


def test_swapping_the_factors_of_every_corpus_product_carries_the_table():
    # the 276 products, each entry with itself included: its swap is the
    # exchange of two copies
    for e1, e2 in itertools.combinations_with_replacement(build_corpus(), 2):
        weight_map, root_map = _factor_swap(e1.rd.spec, e2.rd.spec)
        _assert_equivariant(*product(e1, e2), *product(e2, e1),
                            weight_map, root_map, (e1.name, e2.name))


def _flip(spec):
    """The diagram flip of a simple group A_n or D_n, as a permutation
    of the simple roots; the central coordinates stay."""
    ((dynkin, n),) = spec.factors
    if dynkin == "A":
        return {i: n - 1 - i for i in range(n)}
    return {i: i for i in range(n - 2)} | {n - 2: n - 1, n - 1: n - 2}


def _flipped(m, psi):
    flip = _flip(m.rd.spec)
    rd = m.rd

    def weight_map(c):
        out = list(c)
        for i, j in flip.items():
            out[j] = c[i]
        return tuple(out)

    moved_m = WeightMonoid(rd, tuple(rd.weight(weight_map(g.coords))
                                     for g in m.generators))
    moved_psi = make_spherical_roots(
        rd, [rd.weight(weight_map(g.coords)) for g in psi.roots])
    return moved_m, moved_psi, weight_map, flip


FLIP_DATA = [
    # (factors, central rank, generators, spherical roots)
    ((("A", 2),), 0, [(1, 1)], [(1, 1)]),
    ((("A", 2),), 0, [(1, 0), (0, 1)], []),
    ((("A", 3),), 0, [(1, 0, 0), (0, 1, 0)], []),
    ((("A", 3),), 1, [(1, 0, 0, 1), (0, 0, 1, 1), (0, 1, 0, 0)], []),
    ((("A", 3),), 0, [(2, 0, 0), (0, 2, 0), (0, 0, 2)],
     [(4, -2, 0), (-2, 4, -2), (0, -2, 4)]),
    ((("A", 3),), 0, [(2, 0, 0), (0, 1, 0)], [(2, -1, 0)]),
    ((("A", 4),), 0, [(2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)],
     [(2, -1, 0, 0)]),
    ((("D", 4),), 0, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                      (0, 0, 0, 1)], []),
    ((("D", 4),), 0, [(0, 0, 1, 0), (0, 1, 0, 0)], []),
    ((("D", 5),), 0, [(1, 0, 0, 0, 0), (0, 0, 0, 1, 0)], []),
]


def test_the_diagram_flip_of_a_and_d_carries_the_table():
    for factors, central, gens, roots in FLIP_DATA:
        rd = build_root_data(GroupSpec(factors, central))
        m = monoid_of(rd, gens)
        psi = make_spherical_roots(rd, [rd.weight(g) for g in roots])
        _assert_equivariant(m, psi, *_flipped(m, psi), (factors, gens))


@st.composite
def flip_data(draw):
    """(m, psi) on A_2 .. A_4 or D_4, D_5: up to 4 dominant generators
    with entries in [0, 2], and a subset of the simple roots, doubled or
    not, as spherical roots."""
    factor = draw(st.sampled_from([("A", 2), ("A", 3), ("A", 4), ("D", 4),
                                   ("D", 5)]))
    rd = build_root_data(GroupSpec((factor,), 0))
    n = rd.n_simple
    gens = draw(st.lists(st.tuples(*[st.integers(0, 2)] * n),
                         min_size=1, max_size=4))
    roots = [rd.simple_root(i).scale(k) for i, k in draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.sampled_from([1, 2])),
        max_size=2, unique_by=lambda t: t[0]))]
    try:
        psi = make_spherical_roots(rd, roots)
    except SphericalError:
        assume(False)
    return monoid_of(rd, gens), psi


@settings(max_examples=120, deadline=None)
@given(flip_data())
def test_the_diagram_flip_carries_the_table_on_drawn_data(data):
    m, psi = data
    try:
        recover_divisors(m, psi)
    except (RecoveryError, SphericalError):
        assume(False)
    _assert_equivariant(m, psi, *_flipped(m, psi), m.generators)
