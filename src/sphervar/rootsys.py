"""Root data for products of simple Dynkin types with a central torus.

Weight coordinates are the fundamental-weight basis per simple factor
followed by the standard basis of the central characters, so a coroot
pairing is a coordinate read: coroot i is e_i in the dual coordinates,
and its values on a lattice's basis are column i of that basis
(`Lattice.columns`).

Numbering is Bourbaki within each factor, except G2 where the first
simple root is the long one (the classical-reference convention used in
the spherical-variety literature); translate to Bourbaki G2 by swapping
the two indices.

`build_root_data` builds one `RootData` per `GroupSpec` and keeps it.
The constants derived from the Cartan matrix C are built with it: the
simple roots and C^-1, held over its determinant as the pair
(p, p C^-1) with p C^-1 an integer matrix.  C is block diagonal, one
block per simple factor, and p is the least common multiple of the
blocks' determinants (|det C| for a simple group).  The inverse of a
classical block (A, B, C, D) is written in closed form, and that of an
exceptional one is a Bareiss inverse.  The simple-root
coefficients of a weight are then an integer matrix-vector product and
one exact division by p per coordinate, and the invariant form is read
off C^-1 and the root lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .polyhedral import _scaled_inverse, cached_property, exact

VALID_TYPES = {"A", "B", "C", "D", "E", "F", "G"}

# The largest weight-lattice rank (simple rank plus central rank) that
# `build_root_data` takes.  Its Cartan matrix and the inverse have
# rank^2 entries, so a one-line document naming A100000 would otherwise
# ask for 10^10 of them before any other check.  Measured with Python
# 3.11 on a 2-vCPU Xeon VM: the A128 root data builds in 0.01 s and the
# A128 full flag G/U recovers through the CLI in 0.3 s (0.27–0.33 s
# over nine runs); A200 takes 0.03–0.04 s for the root data alone.
MAX_GROUP_DIM = 128


class RootDataError(ValueError):
    pass


@dataclass(frozen=True)
class GroupSpec:
    """A reductive group shape: ordered simple factors plus a central torus."""

    factors: tuple[tuple[str, int], ...]
    central_rank: int = 0

    def __post_init__(self):
        object.__setattr__(self, "factors",
                           tuple((str(t), int(r)) for t, r in self.factors))
        if self.central_rank < 0:
            raise RootDataError("central rank must be nonnegative")

    @cached_property
    def simple_rank(self) -> int:
        return sum(r for _, r in self.factors)

    @cached_property
    def dim(self) -> int:
        return self.simple_rank + self.central_rank


def _check_factor(dynkin: str, rank: int) -> None:
    if dynkin not in VALID_TYPES:
        raise RootDataError(f"unknown Dynkin type {dynkin!r}")
    ok = {
        "A": rank >= 1,
        "B": rank >= 2,
        "C": rank >= 2,
        "D": rank >= 3,
        "E": rank in (6, 7, 8),
        "F": rank == 4,
        "G": rank == 2,
    }[dynkin]
    if not ok:
        raise RootDataError(f"invalid rank {rank} for type {dynkin}")


def _cartan_block(dynkin: str, n: int) -> list[list[int]]:
    """Cartan matrix with entries C[i][j] = <coroot_i, root_j>."""
    C = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def edge(i, j, cij=-1, cji=-1):
        C[i][j] = cij
        C[j][i] = cji

    if dynkin in ("A", "B", "C"):
        for i in range(n - 1):
            edge(i, i + 1)
        if dynkin == "B" and n >= 2:
            # last root short
            C[n - 1][n - 2] = -2
        if dynkin == "C" and n >= 2:
            # last root long
            C[n - 2][n - 1] = -2
    elif dynkin == "D":
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 3, n - 1)
    elif dynkin == "E":
        chain = [(0, 2), (2, 3), (3, 4), (4, 5)]
        if n >= 7:
            chain.append((5, 6))
        if n == 8:
            chain.append((6, 7))
        for i, j in chain:
            edge(i, j)
        edge(1, 3)
    elif dynkin == "F":
        edge(0, 1)
        edge(1, 2, -1, -2)
        edge(2, 3)
    elif dynkin == "G":
        # first root long, second short
        edge(0, 1, -1, -3)
    return C


def _cartan_inverse(dynkin: str, n: int,
                    block: list[list[int]]) -> tuple[int, list[list[int]]]:
    """(det C, det C^-1) for the Cartan block of the given type, as
    `_scaled_inverse` gives it.  Entry (i, j) of C^-1 is the coefficient
    of alpha_i in omega_j.  The four classical series are written in
    closed form (Bourbaki, Lie Groups and Lie Algebras, ch. 4-6,
    Planches I-IV), 1-indexed here:
    A_n: det n + 1, entries min(i, j) (n + 1 - max(i, j));
    B_n: det 2, entries 2 min(i, j), and i in column n;
    C_n: det 2, entries 2 min(i, j), and j in row n;
    D_n: det 4, entries 4 min(i, j) off the two spin nodes n - 1 and n,
    2i in their columns, 2j in their rows, and among them n on the
    diagonal and n - 2 off it.
    E, F and G, of rank at most 8, take the Bareiss inverse."""
    rows = range(1, n + 1)
    if dynkin == "A":
        return n + 1, [[min(i, j) * (n + 1 - max(i, j)) for j in rows]
                       for i in rows]
    if dynkin == "B":
        return 2, [[2 * min(i, j) if j < n else i for j in rows] for i in rows]
    if dynkin == "C":
        return 2, [[2 * min(i, j) if i < n else j for j in rows] for i in rows]
    if dynkin == "D":
        def entry(i: int, j: int) -> int:
            if i < n - 1 and j < n - 1:
                return 4 * min(i, j)
            if i < n - 1 or j < n - 1:
                return 2 * min(i, j)
            return n if i == j else n - 2
        return 4, [[entry(i, j) for j in rows] for i in rows]
    return _scaled_inverse(block)


def _length_block(dynkin: str, n: int) -> list[int | Fraction]:
    """Half squared lengths d_i = (a_i, a_i)/2, normalized to 1 on long roots."""
    half = Fraction(1, 2)
    if dynkin == "B":
        return [1] * (n - 1) + [half]
    if dynkin == "C":
        return [half] * (n - 1) + [1]
    if dynkin == "F":
        return [1, 1, half, half]
    if dynkin == "G":
        return [1, Fraction(1, 3)]
    return [1] * n


@dataclass(frozen=True)
class WeightVec:
    """Element of the rational weight space, in fundamental-weight + central
    coordinates; each coordinate is held as `exact` gives it, an `int`
    when integral."""

    spec: GroupSpec
    coords: tuple[int | Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(map(exact, self.coords)))
        if len(self.coords) != self.spec.dim:
            raise RootDataError("weight length does not match the group")

    def __add__(self, other: "WeightVec") -> "WeightVec":
        _same_spec(self, other)
        return WeightVec(self.spec, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "WeightVec") -> "WeightVec":
        _same_spec(self, other)
        return WeightVec(self.spec, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "WeightVec":
        return WeightVec(self.spec, tuple(-a for a in self.coords))

    def scale(self, c) -> "WeightVec":
        c = exact(c)
        return WeightVec(self.spec, tuple(c * a for a in self.coords))

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coords)

    @property
    def is_integral(self) -> bool:
        return all(type(x) is int for x in self.coords)

    def int_coords(self) -> tuple[int, ...]:
        if not self.is_integral:
            raise RootDataError("weight has non-integer coordinates")
        return self.coords


def _same_spec(a, b) -> None:
    if a.spec != b.spec:
        raise RootDataError("mismatched group specs")


@dataclass(frozen=True)
class ParabolicSet:
    """A standard parabolic P_Sigma, named by the simple roots of its Levi."""

    roots: frozenset[int]


@dataclass(frozen=True)
class RootData:
    """The root data of a `GroupSpec`, with the constants every caller
    reads built once by `build_root_data`: the simple roots and their
    names (`f<k>.alpha<i>` in factor k of a product), and the inverse
    Cartan matrix as `cartan_inverse` = (p, p C^-1), with p > 0 the lcm
    of the simple factors' |det C_f| and p C^-1 an integer matrix."""

    spec: GroupSpec
    cartan: tuple[tuple[int, ...], ...]
    root_lengths: tuple[int | Fraction, ...]
    root_names: tuple[str, ...]
    simple_roots: tuple[WeightVec, ...] = field(compare=False, repr=False)
    cartan_inverse: tuple[int, tuple[tuple[int, ...], ...]] = field(
        compare=False, repr=False)

    @property
    def n_simple(self) -> int:
        return len(self.cartan)

    @property
    def dim(self) -> int:
        return self.spec.dim

    def weight(self, coords) -> WeightVec:
        return WeightVec(self.spec, tuple(coords))

    def simple_root(self, i: int) -> WeightVec:
        """alpha_i in fundamental-weight coordinates: the i-th Cartan column."""
        return self.simple_roots[i]

    def root_name(self, i: int) -> str:
        return self.root_names[i]


@lru_cache(maxsize=64)
def build_root_data(spec: GroupSpec) -> RootData:
    """Assemble Cartan matrices, root lengths and the constants derived
    from them.

    A `RootData` is immutable and depends on the spec alone, so it is
    built once per spec and shared by every caller that asks again.  A
    spec of rank above `MAX_GROUP_DIM` is refused before any matrix is
    built."""
    if spec.dim > MAX_GROUP_DIM:
        raise RootDataError(
            f"group rank {spec.dim} (simple plus central) exceeds the limit "
            f"{MAX_GROUP_DIM}")
    for t, r in spec.factors:
        _check_factor(t, r)
    n = spec.simple_rank
    blocks = [_cartan_block(t, r) for t, r in spec.factors]
    inverses = [_cartan_inverse(t, r, blk)
                for (t, r), blk in zip(spec.factors, blocks)]
    # C and C^-1 are block diagonal: each factor gives (det, det C_f^-1)
    # with det = ±det C_f, and C^-1 is held over p, the lcm of the |det|
    p = math.lcm(*(abs(det) for det, _ in inverses))
    lengths: list[int | Fraction] = []
    names: list[str] = []
    cartan = [[0] * n for _ in range(n)]
    inv = [[0] * n for _ in range(n)]
    pos = 0
    for f, ((t, r), blk, (det, adj)) in enumerate(
            zip(spec.factors, blocks, inverses)):
        lengths.extend(_length_block(t, r))
        names.extend(f"alpha{i + 1}" if len(spec.factors) == 1
                     else f"f{f + 1}.alpha{i + 1}" for i in range(r))
        for i in range(r):
            cartan[pos + i][pos:pos + r] = blk[i]
            inv[pos + i][pos:pos + r] = [x * (p // det) for x in adj[i]]
        pos += r
    central = (0,) * spec.central_rank
    return RootData(
        spec=spec,
        cartan=tuple(tuple(row) for row in cartan),
        root_lengths=tuple(lengths),
        root_names=tuple(names),
        simple_roots=tuple(
            WeightVec(spec, tuple(row[i] for row in cartan) + central)
            for i in range(n)),
        cartan_inverse=(p, tuple(tuple(row) for row in inv)),
    )


def root_coefficients(w: WeightVec, rd: RootData) -> tuple[int | Fraction, ...]:
    """Coefficients of w in the simple-root basis (error off the root
    span): C^-1 w on the simple coordinates, one exact division by
    p = |det C| per coefficient."""
    n = rd.n_simple
    if any(w.coords[n:]):
        raise RootDataError("weight is not in the span of the simple roots")
    p, inv = rd.cartan_inverse
    head = w.coords[:n]
    return tuple(exact(sum(a * x for a, x in zip(row, head)), p) for row in inv)


def symmetric_form(rd: RootData, w1: WeightVec, w2: WeightVec) -> int | Fraction:
    """The invariant form (w1, w2), read off C^-1 = inv / p and the root
    lengths d: (omega_i, omega_j) = (C^-1)_ji d_j on the simple
    coordinates, and the central coordinates are orthonormal."""
    _same_spec(w1, w2)
    if w1.spec != rd.spec:
        raise RootDataError("mismatched group specs")
    n = rd.n_simple
    p, inv = rd.cartan_inverse
    head = [(i, a) for i, a in enumerate(w1.coords[:n]) if a]
    total = sum(d * b * sum(inv[j][i] * a for i, a in head)
                for j, (b, d) in enumerate(zip(w2.coords, rd.root_lengths))
                if b)
    return exact(exact(total, p)
                 + sum(a * b for a, b in zip(w1.coords[n:], w2.coords[n:])))
