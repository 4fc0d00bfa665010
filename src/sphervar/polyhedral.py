"""Exact rational lattice and cone algebra.

Everything here is exact; no floating point is used anywhere.  The
kernels (double description, `primitive`, cone membership, the linear
solves and the Hilbert basis) compute on Python integers.  Every vector
that double description carries is an integer vector kept primitive up
to a positive factor: after each projection or combination it is divided
by the gcd of its entries, so it points exactly as the rational vector of
textbook elimination does.  An exact rational is an `int` when it is
integral and a `Fraction` with denominator > 1 otherwise (`exact`); a
`Fraction` is made only at a final division that does not come out even,
such as a solved coordinate of `rational_solve` or `Lattice.coords`, a
point built from fractional coordinates, or a polytope vertex.  Cones
carry a canonical double description (extreme rays modulo lineality,
plus a minimal facet description), which makes equality of cones a tuple
comparison and the dual an involution on the nose.

The Hermite normal form is the one integer normal form.  A lattice is
kept by its HNF basis; the HNF of the rows (v_i | e_i) gives the integer
relations among the v_i and the combination behind each basis row, and
integer kernels and solves, the units of a cone with the quotient by
them, and the unit part of a membership certificate are read off it.

A Hilbert basis is read off one pulling triangulation of the pointed
quotient cone (`PointedQuotient`), built from the facet-ray incidences
alone: the candidates are the extreme rays and the parallelepiped points
of the maximal simplices (`parallelepiped_points`), each point computed
from an integer adjugate.  The same quotient and points serve the
normality test of `WeightMonoid.is_saturated`.

Monoid membership is a depth-first search over the generators, bounded
by the extreme rays of the dual cone: every ray is nonnegative on the
monoid, so a ray r with r.g > 0 caps the coefficient of g at
r.v // r.g, and the generators on which every ray vanishes are units,
whose part of v is one reduction by their Hermite rows.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import ge, mul

Vec = tuple[int, ...]
QVec = tuple[int | Fraction, ...]


class PolyhedralError(ValueError):
    pass


# ---------------------------------------------------------------------------
# integer / rational linear algebra
# ---------------------------------------------------------------------------

def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def _dot(a, b):
    return sum(map(mul, a, b))


def exact(x, den: int = 1) -> int | Fraction:
    """The exact rational x / den: an `int` when it is integral, and
    otherwise a `Fraction` (denominator > 1).  Only an integer quotient
    that does not come out even builds a `Fraction`."""
    if type(x) is int:
        if den == 1:
            return x
        q, r = divmod(x, den)
        return Fraction(x, den) if r else q
    if den != 1:
        x = Fraction(x, den)
    elif not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _clear_denominators(v) -> tuple[int, list[int]]:
    """(d, w) with d > 0 the least common denominator of the rational
    vector v and w = d*v an integer vector."""
    if all(isinstance(x, int) for x in v):
        return 1, list(v)
    fr = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in v]
    den = lcm(*(x.denominator for x in fr))
    return den, [x.numerator * (den // x.denominator) for x in fr]


def _reduced_combination(s: int, u, t: int, w) -> Vec:
    """s*u - t*w divided by the gcd of its entries; zero stays zero."""
    v = [s * x - t * y for x, y in zip(u, w)]
    g = gcd(*v)
    if g > 1:
        return tuple(x // g for x in v)
    return tuple(v)


def primitive(v) -> Vec:
    """Scale a nonzero rational vector to the primitive integer vector on
    the same ray (direction preserved)."""
    ints = _clear_denominators(v)[1]
    g = gcd(*ints)
    if not g:
        raise PolyhedralError("zero vector has no primitive representative")
    return tuple(x // g for x in ints)


def hnf(rows) -> list[Vec]:
    """Row Hermite normal form of an integer matrix.

    Returns the nonzero rows: pivot columns strictly increasing, pivots
    positive, entries above each pivot reduced into [0, pivot).  This is
    the canonical basis of the lattice spanned by the input rows.
    """
    mat = [list(map(int, r)) for r in rows]
    if len({len(r) for r in mat}) > 1:
        raise PolyhedralError("hnf: rows differ in length")
    mat = [r for r in mat if any(r)]
    if not mat:
        return []
    n = len(mat[0])
    result: list[list[int]] = []
    work = mat
    col = 0
    while col < n and work:
        live = [r for r in work if r[col] != 0]
        if not live:
            col += 1
            continue
        piv = live[0]
        for r in live[1:]:
            g, x, y = _xgcd(piv[col], r[col])
            a, b = piv[col] // g, r[col] // g
            piv_new = [x * p + y * q for p, q in zip(piv, r)]
            r_new = [-b * p + a * q for p, q in zip(piv, r)]
            piv[:] = piv_new
            r[:] = r_new
        if piv[col] < 0:
            piv[:] = [-x for x in piv]
        result.append(piv)
        work = [r for r in work if r is not piv and any(r)]
        col += 1
    # reduce entries above each pivot, in increasing pivot order so that a
    # later reduction never dirties an already-normalized earlier column
    for i in range(len(result)):
        p = next(j for j in range(n) if result[i][j] != 0)
        for k in range(i):
            q = result[k][p] // result[i][p]
            if q:
                result[k] = [a - q * b for a, b in zip(result[k], result[i])]
    return [tuple(r) for r in result]


def _relations(vectors) -> tuple[list[tuple[Vec, Vec]], list[Vec]]:
    """The Hermite form of the rows (v_i | e_i) (Cohen, A Course in
    Computational Algebraic Number Theory, §2.4), as (rows, relations):
    the pairs (h, c) of the rows whose first block h is nonzero, where the
    h are the HNF basis of span_Z(vectors) and sum_i c_i v_i = h, and the
    second blocks of the other rows, a basis of {x : sum_i x_i v_i = 0}.
    """
    vectors = [tuple(map(int, v)) for v in vectors]
    k = len(vectors)
    if not k:
        return [], []
    n = len(vectors[0])
    H = hnf(v + tuple(int(i == j) for j in range(k))
            for i, v in enumerate(vectors))
    split = next((i for i, h in enumerate(H) if not any(h[:n])), len(H))
    return [(h[:n], h[n:]) for h in H[:split]], [h[n:] for h in H[split:]]


def _combination(rows, k: int, target) -> list[int] | None:
    """x in Z^k with sum_i x_i v_i = target, for the Hermite rows (h, c)
    of `_relations` over k vectors v_i, or None: the target is reduced by
    the h, as `Lattice.coords` reduces by a basis, and x adds up the same
    multiples of the c.  A pivot that does not divide its entry leaves a
    residue there, as the later rows vanish at that column."""
    res = list(target)
    x = [0] * k
    for h, c in rows:
        p = next(j for j, a in enumerate(h) if a)
        q = res[p] // h[p]
        if q:
            res = [a - q * b for a, b in zip(res, h)]
            x = [a + q * b for a, b in zip(x, c)]
    return None if any(res) else x


def integer_kernel(rows) -> list[Vec]:
    """Basis of the (saturated) lattice {x in Z^n : A x = 0}: the
    relations among the columns of A."""
    A = [tuple(map(int, r)) for r in rows]
    if not A:
        raise PolyhedralError("integer_kernel needs at least one row")
    if len({len(r) for r in A}) > 1:
        raise PolyhedralError("integer_kernel: rows differ in length")
    return _relations(zip(*A))[1]


def integer_solve(cols: list, target) -> list[int] | None:
    """Solve sum_i c_i * cols[i] = target over Z; None if no integer solution."""
    target = [int(x) for x in target]
    if not cols:
        return [] if not any(target) else None
    if any(len(c) != len(target) for c in cols):
        raise PolyhedralError("integer_solve: column and target lengths differ")
    return _combination(_relations(cols)[0], len(cols), target)


def rational_solve(cols: list, target) -> list[int | Fraction] | None:
    """Solve sum_i c_i * cols[i] = target over Q; None if inconsistent.

    Fraction-free Gauss–Jordan: each equation is scaled to integers, and
    every row operation is a cross-multiplication followed by division by
    the row's gcd, so each row stays a nonzero multiple of the row that
    rational elimination would hold.  The free coordinates are zero; each
    pivot coordinate is one `exact(rhs, pivot)`.
    """
    n = len(target)
    if any(len(c) != n for c in cols):
        raise PolyhedralError("rational_solve: column and target lengths differ")
    if not cols:
        return [] if not any(target) else None
    m = len(cols)
    rows = [_clear_denominators([c[i] for c in cols] + [target[i]])[1]
            for i in range(n)]
    piv_cols: list[int] = []
    r = 0
    for c in range(m):
        p = next((i for i in range(r, n) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        prow = rows[r]
        pv = prow[c]
        for i in range(n):
            f = rows[i][c]
            if f and i != r:
                rows[i] = _reduced_combination(pv, rows[i], f, prow)
        piv_cols.append(c)
        r += 1
    if any(rows[i][m] for i in range(r, n)):
        return None
    sol: list[int | Fraction] = [0] * m
    for i, c in enumerate(piv_cols):
        sol[c] = exact(rows[i][m], rows[i][c])
    return sol


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lattice:
    """A sublattice of Z^dim given by its canonical (HNF) basis."""

    dim: int
    basis: tuple[Vec, ...]

    @staticmethod
    def span(vectors, dim: int | None = None) -> "Lattice":
        vectors = [tuple(map(int, v)) for v in vectors]
        if dim is None:
            if not vectors:
                raise PolyhedralError("ambient dimension needed for empty span")
            dim = len(vectors[0])
        for v in vectors:
            if len(v) != dim:
                raise PolyhedralError("mixed dimensions in lattice span")
        return Lattice(dim, tuple(hnf(vectors)))

    @staticmethod
    def full(dim: int) -> "Lattice":
        ident = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
        return Lattice(dim, ident)

    @property
    def rank(self) -> int:
        return len(self.basis)

    @cached_property
    def _pivots(self) -> tuple[int, ...]:
        """The pivot column of each basis row."""
        return tuple(next(j for j, x in enumerate(b) if x) for b in self.basis)

    def coords(self, v) -> QVec | None:
        """Coordinates of v in the lattice basis; None if v is outside the
        rational span.

        The basis is in HNF, so the rows after row i vanish at its pivot
        column and to the left of it: coordinate i is read at that column
        once the earlier rows are subtracted.  The residual and the
        coordinates stay integral over a common denominator, scaled up
        only when a pivot does not divide its entry, and each coordinate
        is one `exact` division at the end.
        """
        if len(v) != self.dim:
            raise PolyhedralError("vector length does not match the lattice")
        den, res = _clear_denominators(v)
        out = []
        for b, p in zip(self.basis, self._pivots):
            x, piv = res[p], b[p]
            if x % piv:
                s = piv // gcd(x, piv)
                res = [s * y for y in res]
                out = [s * y for y in out]
                den *= s
                x *= s
            q = x // piv
            if q:
                res = [y - q * z for y, z in zip(res, b)]
            out.append(q)
        if any(res):
            return None
        if den == 1:
            return tuple(out)
        return tuple(exact(q, den) for q in out)

    def contains(self, v) -> bool:
        c = self.coords(v)
        return c is not None and all(type(x) is int for x in c)

    @cached_property
    def annihilator(self) -> tuple[Vec, ...]:
        """A basis of the integer functionals vanishing on the lattice:
        the relations among the columns of the basis."""
        return tuple(_relations([b[j] for b in self.basis]
                                for j in range(self.dim))[1])

    def in_span(self, v) -> bool:
        """Whether the integer vector v lies in the rational span: every
        annihilator row vanishes on it."""
        if len(v) != self.dim:
            raise PolyhedralError("vector length does not match the lattice")
        return not any(_dot(a, v) for a in self.annihilator)

    def integer_form(self, values) -> tuple[int, Vec]:
        """(d, w) for the functional with the given values on the basis:
        the least d > 0 and an integer covector w, supported on the pivot
        columns, with w.b = d * value for each basis vector b, so that the
        functional is w.v / d on the rational span.  Restricted to its
        pivot columns the HNF basis is upper triangular (a row vanishes
        left of its own pivot), so w is read off by back substitution,
        from the last row up, on the values times their least common
        denominator.  A pivot that does not divide its entry scales the
        whole system by the least factor that makes it divide, so d ends
        as the lcm of the denominators of the solved rationals: least."""
        if len(values) != self.rank:
            raise PolyhedralError("value count does not match the lattice rank")
        piv = self._pivots
        d, rhs = _clear_denominators(values)
        x: list[int] = []
        for i in reversed(range(self.rank)):
            b, p = self.basis[i], piv[i]
            r = rhs[i] - sum(b[q] * y for q, y in zip(piv[i + 1:], x))
            if r % b[p]:
                s = b[p] // gcd(r, b[p])
                d, r = d * s, r * s
                rhs = [s * y for y in rhs]
                x = [s * y for y in x]
            x.insert(0, r // b[p])
        w = [0] * self.dim
        for p, n in zip(piv, x):
            w[p] = n
        return d, tuple(w)

    def from_coords(self, c) -> QVec:
        if len(c) != self.rank:
            raise PolyhedralError("coordinate count does not match the lattice rank")
        den, ints = _clear_denominators(c)
        out = [0] * self.dim
        for x, b in zip(ints, self.basis):
            if x:
                for i in range(self.dim):
                    out[i] += x * b[i]
        if den == 1:
            return tuple(out)
        return tuple(exact(y, den) for y in out)

    def primitive_vector(self, v) -> Vec:
        """The unique primitive lattice element w with v = c*w, c > 0."""
        c = self.coords(v)
        if c is None:
            raise PolyhedralError("vector is not in the rational span of the lattice")
        if all(x == 0 for x in c):
            raise PolyhedralError("zero vector has no primitive representative")
        return self.from_coords(primitive(c))

    def reduce_mod(self, v) -> Vec:
        """Canonical representative of v modulo this lattice (HNF reduction)."""
        if len(v) != self.dim:
            raise PolyhedralError("vector length does not match the lattice")
        out = [int(x) for x in v]
        for b, p in zip(self.basis, self._pivots):
            q = out[p] // b[p]
            if q:
                out = [a - q * c for a, c in zip(out, b)]
        return tuple(out)

    def saturation(self) -> "Lattice":
        """The saturated lattice span_Q(basis) ∩ Z^dim."""
        if not self.annihilator:
            return Lattice.full(self.dim)
        return Lattice.span(integer_kernel(self.annihilator), self.dim)


# ---------------------------------------------------------------------------
# double description
# ---------------------------------------------------------------------------

def _dd(dim: int, inequalities) -> tuple[list[Vec], list[Vec]]:
    """Double description of {x : a.x >= 0 for a in inequalities}.

    Returns (lineality basis, extreme rays).  The lineality basis spans the
    kernel of the constraint matrix; the rays are extreme modulo the
    lineality space.

    Invariants carried through the incremental construction: the lineality
    list always spans the kernel of the processed constraints, the ray set
    is minimal modulo it, and each ray's bit mask records exactly which
    processed constraints vanish on it (needed for the combinatorial
    adjacency test of Fukuda–Prodon).  Every vector is an integer vector,
    divided by the gcd of its entries after each projection or
    combination, so it is primitive and a positive multiple of the vector
    the same steps over Q would give; the output needs no rescaling.
    """
    lin: list[Vec] = [tuple(int(i == j) for j in range(dim))
                      for i in range(dim)]
    rays: list[Vec] = []
    masks: list[int] = []

    seen = set()
    todo: list[Vec] = []
    for a in inequalities:
        if not any(a):
            continue
        ap = primitive(a)
        if ap not in seen:
            seen.add(ap)
            todo.append(ap)

    for k, a in enumerate(todo):
        v0_orig = next((v for v in lin if _dot(a, v)), None)
        if v0_orig is not None:
            # constraint cuts the lineality space: one dimension of it
            # becomes a new extreme ray, everything else is projected into
            # the constraint hyperplane along v0, as pv*v - (a.v)*v0 with
            # pv > 0.  Earlier constraints all vanish on v0, so existing
            # masks stay valid.
            pv = _dot(a, v0_orig)
            v0 = v0_orig
            if pv < 0:
                v0, pv = tuple(-x for x in v0_orig), -pv
            new_lin = []
            for v in lin:
                if v is v0_orig:
                    continue
                w = _reduced_combination(pv, v, _dot(a, v), v0)
                if any(w):
                    new_lin.append(w)
            lin = new_lin
            # every projected ray now lies inside {a = 0}; v0 does not
            rays = [_reduced_combination(pv, r, _dot(a, r), v0) for r in rays]
            masks = [mk | (1 << k) for mk in masks]
            rays.append(v0)
            masks.append((1 << k) - 1)
            continue
        vals = [_dot(a, r) for r in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        if not neg:
            for i in zero:
                masks[i] |= 1 << k
            continue
        new_rays: list[Vec] = []
        new_masks: list[int] = []
        for i in pos:
            new_rays.append(rays[i])
            new_masks.append(masks[i])
        for i in zero:
            new_rays.append(rays[i])
            new_masks.append(masks[i] | (1 << k))
        for i, j in itertools.product(pos, neg):
            common = masks[i] & masks[j]
            adjacent = True
            for t in range(len(rays)):
                if t != i and t != j and (masks[t] & common) == common:
                    adjacent = False
                    break
            if not adjacent:
                continue
            new_rays.append(_reduced_combination(vals[i], rays[j], vals[j], rays[i]))
            new_masks.append(common | (1 << k))
        rays = new_rays
        masks = new_masks

    return lin, [r for r in rays if any(r)]


def _project_off(rays, lin: Lattice) -> list[Vec]:
    """Orthogonal projection of rays off the lineality span, primitivized,
    deduplicated and sorted: the canonical ray list modulo lineality."""
    if lin.rank == 0:
        return sorted(set(primitive(r) for r in rays))
    basis = lin.basis
    gram_cols = [tuple(_dot(bi, bj) for bi in basis) for bj in basis]
    out = set()
    for r in rays:
        sol = rational_solve(gram_cols, [_dot(bi, r) for bi in basis])
        # den * (r - sum c_i b_i), a positive multiple of the projection
        den, ks = _clear_denominators(sol)
        proj = [den * x for x in r]
        for k, bi in zip(ks, basis):
            if k:
                proj = [p - k * b for p, b in zip(proj, bi)]
        if any(proj):
            out.add(primitive(proj))
    return sorted(out)


@dataclass(frozen=True)
class RationalCone:
    """Rational polyhedral cone in canonical form.

    rays: extreme rays modulo lineality, primitive, orthogonal to the
        lineality span, sorted.
    lineality: HNF basis of the lattice spanned by the lineality basis
        of `_dd`, which is the echelon basis of the lineality space and so
        depends on that space alone.
    facet_normals: minimal inequality description, canonical modulo
        span_equations.
    span_equations: primitive functionals cutting out the linear span,
        in the same form as the lineality.

    Each constructor runs double description twice, once for the rays
    and once for the facets.  Its output is minimal modulo its lineality
    (Fukuda–Prodon), so `_canonical` only projects and sorts.
    """

    dim: int
    rays: tuple[Vec, ...]
    lineality: tuple[Vec, ...]
    facet_normals: tuple[Vec, ...]
    span_equations: tuple[Vec, ...]

    @staticmethod
    def from_generators(generators, lines=(), dim: int | None = None) -> "RationalCone":
        gens = [primitive(g) for g in generators if any(g)]
        lns = [primitive(l) for l in lines if any(l)]
        if dim is None:
            probe = gens + lns
            if not probe:
                raise PolyhedralError("ambient dimension needed for the zero cone")
            dim = len(probe[0])
        for v in gens + lns:
            if len(v) != dim:
                raise PolyhedralError("mixed dimensions among cone generators")
        # facets of the cone = extreme rays of {phi : phi.g >= 0, phi.l = 0}
        ann, facets = _dd(dim, gens + lns + [tuple(-x for x in l) for l in lns])
        lin, rays = _dd(dim, facets + ann + [tuple(-x for x in a) for a in ann])
        return RationalCone._canonical(dim, rays, lin, facets, ann)

    @staticmethod
    def from_inequalities(normals, equations=(), dim: int | None = None) -> "RationalCone":
        nrm = [primitive(n) for n in normals if any(n)]
        eqs = [primitive(e) for e in equations if any(e)]
        if dim is None:
            probe = nrm + eqs
            if not probe:
                raise PolyhedralError("ambient dimension needed for the full cone")
            dim = len(probe[0])
        lin, rays = _dd(dim, nrm + eqs + [tuple(-x for x in e) for e in eqs])
        # the facets from the generator side drop redundant input constraints
        ann, facets = _dd(dim, rays + lin + [tuple(-x for x in l) for l in lin])
        return RationalCone._canonical(dim, rays, lin, facets, ann)

    @staticmethod
    def _canonical(dim: int, rays, lin, facets, ann) -> "RationalCone":
        lin_lat = Lattice.span(lin, dim)
        ann_lat = Lattice.span(ann, dim)
        return RationalCone(
            dim,
            tuple(_project_off(rays, lin_lat)),
            lin_lat.basis,
            tuple(_project_off(facets, ann_lat)),
            ann_lat.basis,
        )

    @staticmethod
    def zero(dim: int) -> "RationalCone":
        eqs = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
        return RationalCone.from_inequalities([], eqs, dim=dim)

    def span_rank(self) -> int:
        return self.dim - len(self.span_equations)

    def contains(self, v) -> bool:
        if len(v) != self.dim:
            raise PolyhedralError("vector length does not match the cone")
        return (not any(_dot(e, v) for e in self.span_equations)
                and all(_dot(n, v) >= 0 for n in self.facet_normals))

    def dual(self) -> "RationalCone":
        """The cone {phi : phi.v >= 0 for all v in this cone}."""
        return RationalCone.from_inequalities(
            list(self.rays), list(self.lineality), dim=self.dim)

    def intersection(self, other: "RationalCone") -> "RationalCone":
        if self.dim != other.dim:
            raise PolyhedralError("dimension mismatch")
        return RationalCone.from_inequalities(
            list(self.facet_normals) + list(other.facet_normals),
            list(self.span_equations) + list(other.span_equations),
            dim=self.dim)


# ---------------------------------------------------------------------------
# Hilbert bases
# ---------------------------------------------------------------------------

def _scaled_inverse(rows: list[Vec]) -> tuple[int, list[list[int]]]:
    """(p, p M^-1) with p = ±det M, for a nonsingular square integer
    matrix M with the given rows.

    Fraction-free Gauss–Jordan (Bareiss) on [M | I]: after step k every
    entry is, up to the sign of the row swaps, a minor of order k+1 of
    [M | I], so the division by the previous pivot is exact.  At the end
    every diagonal entry is the last pivot p, with p M^-1 on the right.
    """
    n = len(rows)
    a = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            raise PolyhedralError("internal: singular simplex")
        a[k], a[p] = a[p], a[k]
        pk = a[k]
        piv = pk[k]
        for i in range(n):
            f = a[i][k]
            if i != k:
                a[i] = [(piv * x - f * y) // prev for x, y in zip(a[i], pk)]
        prev = piv
    return prev, [r[n:] for r in a]


def _box_residues(rows: list[Vec]) -> list[Vec]:
    """Canonical coset representatives of Z^n modulo the row lattice of a
    nonsingular n x n integer matrix: the box under the diagonal of its
    HNF."""
    H = hnf(rows)
    if len(H) != len(rows):
        raise PolyhedralError("internal: expected a full-rank residue lattice")
    return list(itertools.product(*(range(h[j]) for j, h in enumerate(H))))


def _parallelepiped_points(rays: list[Vec]) -> list[Vec]:
    """Nonzero lattice points of {sum t_i r_i : 0 <= t_i < 1} for n
    linearly independent rays in Z^n.

    With R the matrix of the rays and (p, A) = (p, p R^-1) from
    `_scaled_inverse`, a residue x of Z^n modulo the rays is t R for
    t = x A / p.  With D = |p|, ((x A) mod D) R / D is frac(t) R when
    p > 0 and frac(-t) R when p < 0: the point of x or of -x, and both
    run over all residues.  It is an integer vector because (x A) R = p x.
    """
    det, inv = _scaled_inverse(rays)
    det = abs(det)
    if det == 1:
        return []
    inv_cols = list(zip(*inv))
    ray_cols = list(zip(*rays))
    out = []
    for x in _box_residues(rays):
        y = [_dot(x, col) % det for col in inv_cols]
        pt = tuple(_dot(y, col) // det for col in ray_cols)
        if any(pt):
            out.append(pt)
    return out


def _pulling_triangulation(face: int, facets: list[int], rank: int) -> list[int]:
    """Maximal simplices of a pulling triangulation of a pointed cone of
    the given rank, each as the bitmask of its extreme rays.

    `face` is the mask of the cone's extreme rays and `facets` the masks
    of its facets.  A simplicial cone is its own triangulation; otherwise
    the first ray is joined to the triangulation of each facet that does
    not contain it.  The facets of a facet F are the maximal sets among
    F ∩ G for the other facets G.  The first ray of a face depends on the
    face alone, so two facets triangulate a common face alike.
    """
    if face.bit_count() == rank:
        return [face]
    apex = face & -face
    out = []
    for f in facets:
        if f & apex:
            continue
        meets = {f & g for g in facets if g != f}
        sub = [m for m in meets if not any(m != o and m & o == m for o in meets)]
        out.extend(s | apex for s in _pulling_triangulation(f, sub, rank - 1))
    return out


def _triangulation(cone: RationalCone) -> list[tuple[int, ...]]:
    """Maximal simplices of the pulling triangulation of a pointed cone,
    each as the indices of its extreme rays in `cone.rays`."""
    rays = cone.rays
    facets = [sum(1 << i for i, r in enumerate(rays) if not _dot(n, r))
              for n in cone.facet_normals]
    return [tuple(i for i in range(len(rays)) if s >> i & 1)
            for s in _pulling_triangulation((1 << len(rays)) - 1, facets,
                                            cone.span_rank())]


class PointedQuotient:
    """cone ∩ lattice modulo its units, in coordinates.

    `units` is the lattice of invertible elements (cone lineality ∩
    lattice), and `pointed` the quotient cone: pointed, in Z^q, or None
    when the quotient has no nonzero point.  The cone is cut down to the
    rational span of the lattice only when it leaves that span; a cone
    whose rays and lineality lie in it, such as the cone over a monoid's
    own generators, is used as it is.

    The units and the quotient by them are read off one Hermite form,
    `_relations` of the constraint values (facet normals and span
    equations) of the lattice basis vectors: the relations are the units
    in lattice coordinates, `project` reads a point's constraint values
    in the basis h of the Hermite rows (h, c), and `lift` takes p to
    sum_i p_i c_i, reduced modulo the units.  When there are no units
    and the cone spans the lattice, the quotient is the cone itself in
    lattice coordinates, so it is read off the cone: its rays are the
    rays' coordinates made primitive, and its facets are the cone's
    facet normals n read on the lattice basis, n.b for each basis vector
    b, made primitive (a full-dimensional cone has one primitive normal
    per facet).  Otherwise it is built from the projected rays.
    """

    def __init__(self, cone: RationalCone, lattice: Lattice):
        dim = cone.dim
        if lattice.dim != dim:
            raise PolyhedralError("dimension mismatch")
        if not all(map(lattice.in_span, cone.rays + cone.lineality)):
            cone = cone.intersection(RationalCone.from_inequalities(
                [], lattice.annihilator, dim=dim))
        self.cone = cone
        self.lattice = lattice
        self._constraints = list(cone.facet_normals) + list(cone.span_equations)
        image, kernel = [], []
        if cone.lineality:
            image, kernel = _relations([_dot(n, b) for n in self._constraints]
                                       for b in lattice.basis)
        self.units = Lattice.span([tuple(int(x) for x in lattice.from_coords(k))
                                   for k in kernel], dim)
        self._image = (Lattice(len(self._constraints), tuple(h for h, _ in image))
                       if self.units.rank else None)
        self._section_cols = list(zip(*(c for _, c in image)))
        self.q = len(image) if self._image is not None else lattice.rank
        self.pointed = self._pointed_cone()

    def project(self, v) -> Vec:
        """The image in Z^q of a point v of the lattice."""
        c = (self._image.coords([_dot(n, v) for n in self._constraints])
             if self._image is not None else self.lattice.coords(v))
        if c is None:
            raise PolyhedralError("internal: point outside lattice span")
        return c

    def lift(self, p) -> Vec:
        """The canonical lattice point modulo the units over p in Z^q:
        any preimage lies in the cone when p does, because the kernel of
        the quotient map spans the cone's lineality."""
        if self._image is None:
            return tuple(int(y) for y in self.lattice.from_coords(p))
        x = [_dot(p, col) for col in self._section_cols]
        return self.units.reduce_mod(
            tuple(int(y) for y in self.lattice.from_coords(x)))

    def _pointed_cone(self) -> RationalCone | None:
        if self.q == 0:
            return None
        rays = {primitive(c) for c in map(self.project, self.cone.rays) if any(c)}
        if not rays:
            return None
        if self._image is None and self.cone.span_rank() == self.q:
            # the cone itself in lattice coordinates: its rays are `rays`
            # and its facets are the cone's, read on the lattice basis
            facets = {primitive([_dot(n, b) for b in self.lattice.basis])
                      for n in self.cone.facet_normals}
            pointed = RationalCone(self.q, tuple(sorted(rays)), (),
                                   tuple(sorted(facets)), ())
        else:
            pointed = RationalCone.from_generators(sorted(rays), dim=self.q)
        if pointed.lineality:
            raise PolyhedralError("internal: quotient cone not pointed")
        return pointed


def parallelepiped_points(cone: RationalCone, rays) -> Iterator[Vec]:
    """The nonzero lattice points of the half-open parallelepipeds
    {sum t_i v_i : 0 <= t_i < 1} of the maximal simplices of the pulling
    triangulation of a pointed cone, simplex by simplex.  `rays` holds a
    lattice vector v_i on each of `cone.rays`, in order.

    When the cone does not span Z^q, the points are taken on integers in
    the saturated lattice of its span (rank `span_rank`), where the rays
    have full rank, and mapped back; the v_i are integral there because
    they lie in that lattice.
    """
    span_cols = None
    if cone.span_rank() < cone.dim:
        sat = Lattice.span(cone.rays, cone.dim).saturation()
        span_cols = list(zip(*sat.basis))
        rays = [tuple(int(x) for x in sat.coords(r)) for r in rays]
    for simplex in _triangulation(cone):
        for p in _parallelepiped_points([rays[i] for i in simplex]):
            yield tuple(_dot(p, col) for col in span_cols) if span_cols else p


def hilbert_basis_with_units(cone: RationalCone, lattice: Lattice
                             ) -> tuple[Lattice, list[Vec]]:
    """Minimal generators of cone ∩ lattice.

    Returns (units, basis): `units` is the lattice of invertible elements
    (cone lineality ∩ lattice) and `basis` is the unique minimal generating
    set of the quotient monoid, lifted to canonical representatives modulo
    the units (`PointedQuotient`).

    One pulling triangulation of the pointed quotient cone gives the
    candidates: its extreme rays and the parallelepiped points of its
    maximal simplices (`parallelepiped_points`).  The simplices cover the
    cone and each simplex's lattice points are generated by its rays and
    parallelepiped points, so the candidates generate the monoid; a
    candidate is kept unless, in order of a positive grading, it is a
    kept one plus an element of the cone.  The candidates are distinct
    and lie in the span of the quotient cone, where its facet normals cut
    it out, so p - k lies in it iff every facet normal is at least as
    large on p as on k: each candidate's facet values are computed once,
    when it comes up, and only the kept ones' are stored.
    """
    quotient = PointedQuotient(cone, lattice)
    qcone = quotient.pointed
    if qcone is None:
        return quotient.units, []
    grading = tuple(sum(n[i] for n in qcone.facet_normals)
                    for i in range(qcone.dim))
    candidates = set(qcone.rays).union(parallelepiped_points(qcone, qcone.rays))
    ordered = sorted(candidates, key=lambda p: (_dot(grading, p), p))
    kept: list[Vec] = []
    kept_values: list[Vec] = []
    for p in ordered:
        vp = tuple(_dot(n, p) for n in qcone.facet_normals)
        if not any(all(map(ge, vp, vk)) for vk in kept_values):
            kept.append(p)
            kept_values.append(vp)
    lifted = [quotient.lift(p) for p in kept]
    if not all(map(quotient.cone.contains, lifted)):
        raise PolyhedralError("internal: lifted generator left the cone")
    return quotient.units, sorted(lifted)


def hilbert_basis(cone: RationalCone, lattice: Lattice) -> list[Vec]:
    """Unique minimal generating set of the pointed monoid cone ∩ lattice."""
    units, basis = hilbert_basis_with_units(cone, lattice)
    if units.rank:
        raise PolyhedralError(
            "cone has invertible directions on the lattice; "
            "use hilbert_basis_with_units")
    return basis


# ---------------------------------------------------------------------------
# monoid membership, bounded by the dual cone's rays
# ---------------------------------------------------------------------------

class MonoidSearch:
    """Everything about membership in M = Z≥0-span(generators) that does
    not depend on the target vector.

    `rays` are the extreme rays of the dual cone {phi : phi.g >= 0 for
    every generator g} modulo its lineality; double description computes
    them when the caller does not pass them.  Every ray is nonnegative
    on every generator.  A generator on which every ray vanishes lies in
    the lineality space of cone(generators); that space is a face, so it
    is the cone over the generators it contains and the negative of such
    a generator is a nonnegative combination of them (Bruns–Gubeladze,
    Polytopes, Rings and K-Theory, ch. 2).  These generators are the
    `units`; every other generator is `free`, with some ray positive on
    it.  Hence M = Z≥0·free + Z·units.

    - `free`: the free generators in depth-first order, with `values`,
      the ray values of every generator;
    - `reach[pos]`: for each ray, whether some free generator from
      position pos on is positive on it;
    - `unit_lattice`: Z·units, the first block of the Hermite rows
      `_relations` gives for the units; the same rows solve for the unit
      coefficients.
    """

    def __init__(self, generators, rays=None):
        gens = [tuple(map(int, g)) for g in generators]
        if len({len(g) for g in gens}) > 1:
            raise PolyhedralError("monoid generators differ in length")
        self.gens = gens
        self.dim = len(gens[0]) if gens else 0
        if rays is None:
            rays = _dd(self.dim, gens)[1]
        self.rays = [tuple(r) for r in rays]
        self.values = [[_dot(r, g) for r in self.rays] for g in gens]
        self.units = [i for i, vals in enumerate(self.values) if not any(vals)]
        self.free = sorted((i for i, vals in enumerate(self.values) if any(vals)),
                           key=lambda i: gens[i], reverse=True)
        self._unit_rows = _relations([gens[i] for i in self.units])[0]
        self.unit_lattice = Lattice(self.dim, tuple(h for h, _ in self._unit_rows))
        reach = [[False] * len(self.rays)]
        for i in reversed(self.free):
            reach.append([a or b > 0 for a, b in zip(reach[-1], self.values[i])])
        self.reach = reach[::-1]

    @cached_property
    def positive_relation(self) -> list[int]:
        """p with every p_i > 0 and sum_i p_i * units[i] = 0: the sum of
        the extreme rays of {l >= 0 : sum_i l_i * units[i] = 0}.  Each
        unit's negative is a nonnegative combination of the units, so
        some ray is positive at each index."""
        k = len(self.units)
        eye = [tuple(int(i == j) for j in range(k)) for i in range(k)]
        rows = [tuple(self.gens[u][d] for u in self.units) for d in range(self.dim)]
        rays = _dd(k, eye + rows + [tuple(-x for x in r) for r in rows])[1]
        return [sum(col) for col in zip(*rays)]

    def unit_coefficients(self, residual) -> list[int] | None:
        """Nonnegative coefficients on the units summing to the residual,
        or None when it is outside `unit_lattice`: the integer solution
        read off the units' Hermite rows, plus the least multiple of
        `positive_relation` that lifts its negative entries to zero."""
        sol = _combination(self._unit_rows, len(self.units), residual)
        if sol is None or min(sol, default=0) >= 0:
            return sol
        p = self.positive_relation
        t = max(-(c // q) for c, q in zip(sol, p))
        return [c + t * q for c, q in zip(sol, p)]


def monoid_membership(v, generators) -> tuple[bool, list[int] | None]:
    """Decide v ∈ Z≥0-span(generators), with a certificate.

    `generators` is a list of integer vectors or a prebuilt `MonoidSearch`
    over them; a caller that asks many questions of one monoid builds the
    search once and passes it each time.

    With M = Z≥0·free + Z·units as in `MonoidSearch`, every ray r of the
    dual cone is nonnegative on M, so v is not in M when some r.v < 0.
    Otherwise a depth-first search picks the coefficient c of each free
    generator g in turn, on an explicit stack, so that no recursion limit
    bounds the number of generators.  The generators still to come are
    nonnegative on every ray and the units vanish on all of them, so a
    solution keeps r.residual >= 0: c <= r.residual // r.g for every ray
    with r.g > 0, and a ray positive on the residual but on no generator
    still to come ends the branch.  Once every ray vanishes on the
    residual, every free coefficient still to come is zero and the
    residual must lie in Z·units.  Every coefficient is bounded, so the
    search is finite and misses no solution.
    """
    table = generators if isinstance(generators, MonoidSearch) \
        else MonoidSearch(generators)
    gens, free, values, reach = table.gens, table.free, table.values, table.reach
    v = tuple(map(int, v))
    if gens and len(v) != table.dim:
        raise PolyhedralError(
            f"vector of length {len(v)} against generators of length {table.dim}")
    if not any(v):
        return True, [0] * len(gens)
    if not gens:
        return False, None
    v_values = [_dot(r, v) for r in table.rays]
    if any(x < 0 for x in v_values):
        return False, None
    coeffs = [0] * len(gens)
    # one frame per free generator on the current branch: its position,
    # the residual before it and the coefficients still to try for it
    stack: list[tuple[int, Vec, list[int], Iterator[int]]] = []
    pos, residual, res_values = 0, v, v_values
    while True:
        if not any(res_values):
            unit_coeffs = table.unit_coefficients(residual)
            if unit_coeffs is not None:
                for i in free[pos:]:
                    coeffs[i] = 0
                for i, c in zip(table.units, unit_coeffs):
                    coeffs[i] = c
                return True, coeffs
        elif not any(x and not ok for x, ok in zip(res_values, reach[pos])):
            g_values = values[free[pos]]
            top = min(x // y for x, y in zip(res_values, g_values) if y)
            if top == 0:  # no frame for a generator whose coefficient is 0
                coeffs[free[pos]], pos = 0, pos + 1
                continue
            stack.append((pos, residual, res_values, iter(range(top + 1))))
        while stack and (c := next(stack[-1][3], None)) is None:
            stack.pop()
        if not stack:
            return False, None
        pos, residual, res_values, _ = stack[-1]
        i = free[pos]
        coeffs[i] = c
        residual = tuple(a - c * b for a, b in zip(residual, gens[i]))
        res_values = [a - c * b for a, b in zip(res_values, values[i])]
        pos += 1


# ---------------------------------------------------------------------------
# polytopes from half-spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Polytope:
    """Polyhedron {x : n.x >= c} in coordinate space.

    Every query reads one cone, the homogenization {(x, t) : n.x >= c t,
    t >= 0}, built on first use and kept on the instance.
    """

    dim: int
    halfspaces: tuple[tuple[Vec, int], ...]

    @staticmethod
    def from_halfspaces(dim: int, constraints) -> "Polytope":
        """The polyhedron in Q^dim of the constraints (n, c), each n.x >= c
        with n and c rational, kept as one integer row: (n, c) times their
        common denominator."""
        hs = []
        for normal, offset in constraints:
            if len(normal) != dim:
                raise PolyhedralError("constraint dimension mismatch")
            row = _clear_denominators(tuple(normal) + (offset,))[1]
            hs.append((tuple(row[:-1]), row[-1]))
        return Polytope(dim, tuple(hs))

    @cached_property
    def _homogenized(self) -> RationalCone:
        ieqs = [nvec + (-c,) for nvec, c in self.halfspaces]
        ieqs.append(tuple([0] * self.dim) + (1,))
        return RationalCone.from_inequalities(ieqs, dim=self.dim + 1)

    def vertex_description(self) -> tuple[list[QVec], list[Vec], list[Vec]]:
        """(vertices, recession rays, lines).  With lines present the
        'vertices' are representatives of the minimal faces."""
        cone = self._homogenized
        verts: list[QVec] = []
        rays: list[Vec] = []
        lines: list[Vec] = []
        for l in cone.lineality:
            if l[-1] != 0:
                raise PolyhedralError("internal: homogenization lineality hits t!=0")
            lines.append(l[:-1])
        for r in cone.rays:
            if r[-1] > 0:
                verts.append(tuple(exact(x, r[-1]) for x in r[:-1]))
            elif r[-1] == 0:
                rays.append(r[:-1])
            else:
                raise PolyhedralError("internal: homogenization ray with t<0")
        return sorted(verts), sorted(rays), sorted(lines)

    def is_empty(self) -> bool:
        return not self.vertices()

    def is_bounded(self) -> bool:
        verts, rays, lines = self.vertex_description()
        return not verts or (not rays and not lines)

    def vertices(self) -> list[QVec]:
        return self.vertex_description()[0]

