"""Exact rational lattice and cone algebra.

Everything here is exact; no floating point is used anywhere.  There is
one kernel per job, each on Python integers: the Hermite normal form for
lattices, the Bareiss inverse `_bareiss_inverse` for rational inverses
(the inverse Cartan matrix, the parallelepiped points of a simplex, the
projection off a lineality space, the facets of a full-dimensional
simplicial cone), and double description for every other cone: one run
at build gives one of its two descriptions, and a second run, over that
one, the other on its first read; a dual swaps the two.  Cone membership
and the Hilbert basis are built on them.  Every vector that double
description carries is an integer vector kept primitive up to a positive
factor: after each projection or combination it is divided by the gcd of
its entries, so it points exactly as the rational vector of textbook
elimination does.  An exact rational is an `int` when it is integral and
a `Fraction` with denominator > 1 otherwise (`exact`); a `Fraction` is
made only at a final division that does not come out even, such as a
coordinate of `Lattice.coords` or a point built from fractional
coordinates.  A cone's two descriptions (extreme rays modulo lineality,
and a minimal facet description, each linear part the HNF basis of its
integer points) are each canonical, which makes equality of cones, which
reads both, a tuple comparison.

The Hermite normal form is the one integer normal form.  A lattice is
kept by its HNF basis; the HNF of the rows (v_i | e_i) gives the integer
relations among the v_i and the combination behind each basis row, and
integer kernels and the units of a cone with the quotient by them
are read off it.  A vector is read into the basis by one triangular
solve against it (`Lattice.coords`): when every pivot is 1, as for Z^n,
the basis is the identity on its pivot columns, and the coordinates are
the entries there, checked against the other columns below full rank.

A Hilbert basis is taken in the pointed quotient of cone ∩ lattice by
its units (`PointedQuotient`), read off the Hermite form of the
constraint values on the lattice basis: its relations are the units,
and its rows with no span-equation part are coordinates in which the
quotient cone is full-dimensional, with the projected rays as rays and
the facet normals read in those coordinates as facets, so no double
description runs.  One pulling triangulation of it, built from the
facet-ray incidences alone, gives the candidates: the extreme rays and
the parallelepiped points of the maximal simplices
(`_parallelepiped_points`), each point computed from an integer
adjugate.  `WeightMonoid.is_saturated` reads saturation off this basis.

Monoid membership reads the target into the lattice of the generators,
which refuses it off their span or off the lattice, and then searches
depth first over the coordinates, bounded by the extreme rays of the
dual cone: every ray is nonnegative on the monoid, so a ray r with
r.g > 0 caps the coefficient of g at r.v // r.g, and the generators on
which every ray vanishes are units: once every ray vanishes on what is
left of v, it is in the monoid iff it is in their lattice.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import ge, mul

Vec = tuple[int, ...]
QVec = tuple[int | Fraction, ...]


class PolyhedralError(ValueError):
    pass


class cached_property(functools.cached_property):
    """`functools.cached_property` without the lock that Python 3.11 takes
    on every first read (3.12 dropped it): the value is computed and
    written to the instance `__dict__`, where later reads find it without
    calling the descriptor.  The package's objects are not shared between
    threads while their properties are first read.  It stays a subclass,
    so that code looking for `functools.cached_property` finds it."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


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
    for x in v:
        if not isinstance(x, int):
            break
    else:
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
    if g == 1:
        return tuple(ints)
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
            f, m = divmod(r[col], piv[col])
            if not m:  # one row operation clears the entry
                r[:] = [q - f * p for p, q in zip(piv, r)]
                continue
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
    H = hnf(v + (0,) * i + (1,) + (0,) * (k - 1 - i)
            for i, v in enumerate(vectors))
    split = next((i for i, h in enumerate(H) if not any(h[:n])), len(H))
    return [(h[:n], h[n:]) for h in H[:split]], [h[n:] for h in H[split:]]


def _bareiss_inverse(rows: list[Vec]) -> tuple[int, list[list[int]]] | None:
    """(p, p M^-1) with p = |det M| for the square integer matrix M with
    the given rows, or None when M is singular.

    Fraction-free Gauss–Jordan (Bareiss) on [M | I]: after step k every
    entry is, up to sign, a minor of order k+1 of [M | I], so the
    division by the previous pivot is exact.  A pivot row is negated
    where its pivot is negative, which only changes signs of minors, so
    every pivot is positive, and a row that is zero in the pivot column
    is left as it is when the pivot equals the previous one, since its
    update (piv*x - 0)//prev is then x.  At the end every diagonal entry
    is the last pivot p, with p M^-1 on the right.
    """
    n = len(rows)
    a = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return None
        a[k], a[p] = a[p], a[k]
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
        pk = a[k]
        piv = pk[k]
        for i in range(n):
            f = a[i][k]
            if i != k and (f or piv != prev):
                a[i] = [(piv * x - f * y) // prev for x, y in zip(a[i], pk)]
        prev = piv
    return prev, [r[n:] for r in a]


def _scaled_inverse(rows: list[Vec]) -> tuple[int, list[list[int]]]:
    """`_bareiss_inverse` of a matrix that is nonsingular by construction."""
    inverse = _bareiss_inverse(rows)
    if inverse is None:
        raise PolyhedralError("internal: singular matrix")
    return inverse


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
        rational span.  Every vector is read into the basis here, and
        none is trusted to lie in the span.

        When every pivot is 1 the basis is the identity on its pivot
        columns, so the coordinates are the entries of v there; below
        full rank the combination they give must be v at the other
        columns.  Otherwise the rows after row i vanish at its pivot
        column and to the left of it: coordinate i is read at that
        column once the earlier rows are subtracted.  The residual and
        the coordinates stay integral over a common denominator, scaled
        up only when a pivot does not divide its entry, and each
        coordinate is one `exact` division at the end.
        """
        if len(v) != self.dim:
            raise PolyhedralError("vector length does not match the lattice")
        den, res = _clear_denominators(v)
        if self._unit_pivots:
            out = [res[p] for p in self._pivots]
            if self.rank < self.dim and \
                    [_dot(out, c) for c in self.columns] != res:
                return None
        else:
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
        the relations among the columns of the basis; none at full rank."""
        if self.rank == self.dim:
            return ()
        return tuple(_relations([b[j] for b in self.basis]
                                for j in range(self.dim))[1])

    def in_span(self, v) -> bool:
        """Whether the integer vector v lies in the rational span: every
        annihilator row vanishes on it."""
        if len(v) != self.dim:
            raise PolyhedralError("vector length does not match the lattice")
        return not any(_dot(a, v) for a in self.annihilator)

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """Column j of the basis for each coordinate j: the values on the
        basis of the functional v -> v[j].  Weights are in fundamental-
        weight coordinates, so column i is the simple coroot of root i
        restricted to the lattice."""
        if not self.basis:
            return ((),) * self.dim
        return tuple(zip(*self.basis))

    @cached_property
    def _unit_pivots(self) -> bool:
        """Whether every pivot of the basis is 1; the entries above a
        pivot are then 0, since each is reduced into [0, 1)."""
        return all(b[p] == 1 for b, p in zip(self.basis, self._pivots))

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
    deduplicated and sorted: the canonical ray list modulo lineality.

    With B the lineality basis and (p, A) = (p, p G^-1) the Bareiss
    inverse of the Gram matrix G = B B^T, p r - B^T A B r is p times the
    projection of r.  G is positive definite, so every pivot is a leading
    principal minor and p = det G > 0 keeps the direction."""
    if lin.rank == 0:
        return sorted(set(primitive(r) for r in rays))
    basis = lin.basis
    det, inv = _scaled_inverse([tuple(_dot(bi, bj) for bj in basis)
                                for bi in basis])
    out = set()
    for r in rays:
        br = [_dot(bi, r) for bi in basis]
        proj = [det * x for x in r]
        for row, bi in zip(inv, basis):
            k = _dot(row, br)
            if k:
                proj = [p - k * b for p, b in zip(proj, bi)]
        if any(proj):
            out.add(primitive(proj))
    return sorted(out)


def _canonical_side(dim: int, vecs, lin) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """One description of a cone in canonical form, from the raw output
    (lin, vecs) of `_dd`: the vectors projected off the span of lin, and
    the HNF basis of its integer points span_Q(lin) ∩ Z^dim, the
    annihilator of the annihilator.  A basis with every pivot 1 spans
    them already: it is the identity on its pivot columns, so an
    integral rational combination of it has integer coefficients."""
    lin_lat = Lattice.span(lin, dim)
    if not lin_lat._unit_pivots:
        lin_lat = Lattice.span(Lattice.span(lin_lat.annihilator, dim).annihilator, dim)
    return tuple(_project_off(vecs, lin_lat)), lin_lat.basis


# the names of a cone's two descriptions, each with its dual's
_DUAL_NAME = {"rays": "facet_normals", "lineality": "span_equations",
              "facet_normals": "rays", "span_equations": "lineality"}


class RationalCone:
    """Rational polyhedral cone in canonical form.

    rays: extreme rays modulo lineality, primitive, orthogonal to the
        lineality span, sorted.
    lineality: HNF basis of the integer points of the lineality space.
    facet_normals: minimal inequality description, canonical modulo
        span_equations.
    span_equations: HNF basis of the integer functionals vanishing on
        the linear span.

    The form does not depend on how the cone is listed: the order of its
    generators, redundant ones, or its inequalities.  `_build` makes the
    cone over vectors and lines.  Over `dim` linearly independent
    vectors and no lines it is simplicial: it is read off one Bareiss
    inverse of their matrix G, with the primitive vectors as rays and
    the primitive columns of p G^-1, p > 0, as facet normals.
    Otherwise one double description gives the facets at build, and a
    second one, over the canonical facets and span equations, gives the
    rays when they are first read (`__getattr__`); its output is minimal
    modulo its lineality (Fukuda–Prodon), so `_canonical_side` only
    saturates, projects and sorts.  `dual` swaps the two descriptions,
    the pending one with them, so {x : n.x >= 0, e.x = 0}, the dual of
    the cone over the normals n and the lines e, has its rays at build
    and its facets on first read.  Equality, hash and repr read both
    descriptions.  A cone is immutable.
    """

    def __init__(self, dim: int, rays, lineality, facet_normals, span_equations):
        self.__dict__.update(dim=dim, rays=rays, lineality=lineality,
                             facet_normals=facet_normals,
                             span_equations=span_equations)

    @staticmethod
    def _of(state) -> "RationalCone":
        """The cone with the given instance state, a description pending
        when its names are missing."""
        cone = object.__new__(RationalCone)
        cone.__dict__.update(state)
        return cone

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getattr__(self, name):
        """The pending description, on its first read: the double
        description of the cone that the known description cuts out."""
        state = self.__dict__
        if name not in _DUAL_NAME or _DUAL_NAME[name] not in state:
            raise AttributeError(name)
        names = (("rays", "lineality") if name in ("rays", "lineality")
                 else ("facet_normals", "span_equations"))
        vecs, lin = (state[_DUAL_NAME[n]] for n in names)
        lin, vecs = _dd(self.dim, [*vecs, *lin, *(tuple(-x for x in v) for v in lin)])
        state.update(zip(names, _canonical_side(self.dim, vecs, lin)))
        return state[name]

    def _fields(self) -> tuple:
        return (self.dim, self.rays, self.lineality, self.facet_normals,
                self.span_equations)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return (f"RationalCone(dim={self.dim!r}, rays={self.rays!r}, "
                f"lineality={self.lineality!r}, "
                f"facet_normals={self.facet_normals!r}, "
                f"span_equations={self.span_equations!r})")

    @staticmethod
    def from_generators(generators, lines=(), dim: int | None = None) -> "RationalCone":
        return RationalCone._build(generators, lines, dim)

    @staticmethod
    def from_inequalities(normals, equations=(), dim: int | None = None) -> "RationalCone":
        return RationalCone._build(normals, equations, dim).dual()

    @staticmethod
    def _build(vectors, lines, dim: int | None) -> "RationalCone":
        vecs, lns = list(vectors), list(lines)
        if dim is None:
            dim = next((len(v) for v in vecs + lns if any(v)), None)
            if dim is None:
                raise PolyhedralError(
                    "ambient dimension needed for an empty cone description")
        if any(len(v) != dim for v in vecs + lns):
            raise PolyhedralError("mixed dimensions in a cone description")
        gens = [primitive(g) for g in vecs if any(g)]
        lns = [primitive(l) for l in lns if any(l)]
        distinct = sorted(set(gens))
        if not lns and len(distinct) == dim:
            inverse = _bareiss_inverse(distinct)
            if inverse is not None:
                # column j of p G^-1 is p times the functional that is 1
                # on generator j and 0 on the others
                facets = sorted(map(primitive, zip(*inverse[1])))
                return RationalCone(dim, tuple(distinct), (), tuple(facets), ())
        # facets of the cone = extreme rays of {phi : phi.g >= 0, phi.l = 0}
        ann, facets = _dd(dim, gens + lns + [tuple(-x for x in l) for l in lns])
        normals, equations = _canonical_side(dim, facets, ann)
        return RationalCone._of(dict(dim=dim, facet_normals=normals,
                                     span_equations=equations))

    @staticmethod
    def _canonical(dim: int, rays, lin, facets, ann) -> "RationalCone":
        return RationalCone(dim, *_canonical_side(dim, rays, lin),
                            *_canonical_side(dim, facets, ann))

    def span_rank(self) -> int:
        return self.dim - len(self.span_equations)

    def contains(self, v) -> bool:
        if len(v) != self.dim:
            raise PolyhedralError("vector length does not match the cone")
        return (not any(_dot(e, v) for e in self.span_equations)
                and all(_dot(n, v) >= 0 for n in self.facet_normals))

    def dual(self) -> "RationalCone":
        """The cone {phi : phi.v >= 0 for all v in this cone}, with the
        two descriptions of this cone swapped, a pending one with them."""
        return RationalCone._of((_DUAL_NAME.get(k, k), v)
                                for k, v in self.__dict__.items())

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
    t = x A / p, and since p > 0, ((x A) mod p) R / p is frac(t) R, the
    point of x.  It is an integer vector because (x A) R = p x.
    """
    det, inv = _scaled_inverse(rays)
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
    lattice), and `pointed` the quotient cone in Z^q, pointed and
    full-dimensional, or None when q = 0 and the quotient has no nonzero
    point.  A cone that leaves the rational span of the lattice is first
    cut down to it.

    Everything is read off one Hermite form, `_relations` of the values
    of the constraints, the span equations first and then the facet
    normals, on the lattice basis vectors.  The constraints vanish
    together exactly on the lineality, so the relations are the units in
    lattice coordinates.  The Hermite rows (h, c) whose equation part is
    zero come last, and their h are a basis of the image of lattice ∩
    span(cone); q is their number.  `project` reads a point's constraint
    values in that basis, and `lift` takes p to the lattice point with
    coordinates sum_i p_i c_i, reduced modulo the units.  In these
    coordinates the cone modulo its lineality is the quotient cone: its
    rays are the projected rays made primitive, and its facet normals
    are the facet columns of those rows, each facet normal read in the
    basis.  So it is built without double description.
    """

    def __init__(self, cone: RationalCone, lattice: Lattice):
        dim = cone.dim
        if lattice.dim != dim:
            raise PolyhedralError("dimension mismatch")
        if not all(map(lattice.in_span, cone.rays + cone.lineality)):
            cone = cone.intersection(RationalCone.from_inequalities(
                [], lattice.annihilator, dim=dim))
        self.cone = cone
        self._constraints = cone.span_equations + cone.facet_normals
        image, kernel = _relations([_dot(n, b) for n in self._constraints]
                                   for b in lattice.basis)
        self.units = Lattice.span([tuple(int(x) for x in lattice.from_coords(k))
                                   for k in kernel], dim)
        eqs = len(cone.span_equations)
        rows = [(h, c) for h, c in image if not any(h[:eqs])]
        self.q = len(rows)
        self._image = Lattice(len(self._constraints), tuple(h for h, _ in rows))
        self._section_cols = list(zip(*(lattice.from_coords(c) for _, c in rows)))
        self.pointed = None
        if self.q:
            self.pointed = RationalCone._canonical(
                self.q, [self.project(r) for r in cone.rays], [],
                list(zip(*(h[eqs:] for h, _ in rows))), [])

    def project(self, v) -> QVec:
        """The image in Q^q of a point v of span(cone), in Z^q when v is
        in the lattice."""
        c = self._image.coords([_dot(n, v) for n in self._constraints])
        if c is None:
            raise PolyhedralError("internal: point outside the cone's span")
        return c

    def lift(self, p) -> Vec:
        """The canonical lattice point modulo the units over p in Z^q:
        any preimage lies in the cone when p does, because the kernel of
        the quotient map spans the cone's lineality."""
        return self.units.reduce_mod([_dot(p, col) for col in self._section_cols])


def hilbert_basis_with_units(cone: RationalCone, lattice: Lattice
                             ) -> tuple[Lattice, list[Vec]]:
    """Minimal generators of cone ∩ lattice.

    Returns (units, basis): `units` is the lattice of invertible elements
    (cone lineality ∩ lattice) and `basis` is the unique minimal generating
    set of the quotient monoid, lifted to canonical representatives modulo
    the units (`PointedQuotient`).

    One pulling triangulation of the pointed quotient cone gives the
    candidates: its extreme rays and the parallelepiped points of its
    maximal simplices (`_parallelepiped_points`).  The simplices cover the
    cone and each simplex's lattice points are generated by its rays and
    parallelepiped points, so the candidates generate the monoid; a
    candidate is kept unless it is a kept one plus a nonzero element of
    the cone.  The grading, the sum of the facet normals, is positive on
    every nonzero point of the cone, so that kept one has a lower degree:
    the candidates are taken degree by degree, each compared only with
    the kept ones of lower degree.  The candidates are distinct and lie
    in Q^q, the span of the quotient cone, where its facet normals cut it
    out, so p - k lies in it iff every facet normal is at least as large
    on p as on k: each candidate's facet values are computed once, and
    only the kept ones' are stored.
    """
    quotient = PointedQuotient(cone, lattice)
    qcone = quotient.pointed
    if qcone is None:
        return quotient.units, []
    grading = tuple(sum(n[i] for n in qcone.facet_normals)
                    for i in range(qcone.dim))
    candidates = set(qcone.rays).union(*(
        _parallelepiped_points([qcone.rays[i] for i in s])
        for s in _triangulation(qcone)))
    by_degree: dict[int, list[Vec]] = {}
    for p in candidates:
        by_degree.setdefault(_dot(grading, p), []).append(p)
    kept: list[Vec] = []
    below: list[Vec] = []  # facet values of the kept ones of lower degree
    for d in sorted(by_degree):
        level = []
        for p in by_degree[d]:
            vp = tuple(_dot(n, p) for n in qcone.facet_normals)
            if not any(all(map(ge, vp, vk)) for vk in below):
                kept.append(p)
                level.append(vp)
        below += level
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
    not depend on the target vector, on the basis of a lattice X that
    the generators span: `gens` are their coordinates there.

    `rays` are the extreme rays of the dual cone {phi : phi.g >= 0 for
    every generator g} modulo its lineality: the facet normals of
    `cone`, the cone over `gens`, built here when the caller does not
    pass it; it is full-dimensional, so it has no span equations.  Every
    ray is nonnegative on every generator.  A generator on which every
    ray vanishes lies in the lineality space of cone(generators); that
    space is a face, so it is the cone over the generators it contains
    and the negative of such a generator is a nonnegative combination of
    them (Bruns–Gubeladze, Polytopes, Rings and K-Theory, ch. 2).  These
    generators are the `units`; every other generator is `free`, with
    some ray positive on it.  Hence M = Z≥0·free + Z·units.

    - `free`: the free generators in depth-first order, with `values`,
      the ray values of every generator;
    - `reach[pos]`: for each ray, whether some free generator from
      position pos on is positive on it;
    - `unit_lattice`: Z·units, the group of units of M, in coordinates.
    """

    def __init__(self, coords, lattice: Lattice, cone: RationalCone | None = None):
        self.gens = gens = list(coords)
        self.lattice = lattice
        if cone is None:
            cone = RationalCone.from_generators(gens, dim=lattice.rank)
        self.rays = [tuple(r) for r in cone.facet_normals]
        self.values = [[_dot(r, g) for r in self.rays] for g in gens]
        self.free = sorted((i for i, vals in enumerate(self.values) if any(vals)),
                           key=lambda i: gens[i], reverse=True)
        self.unit_lattice = Lattice.span(
            [g for g, vals in zip(gens, self.values) if not any(vals)], lattice.rank)
        reach = [[False] * len(self.rays)]
        for i in reversed(self.free):
            reach.append([a or b > 0 for a, b in zip(reach[-1], self.values[i])])
        self.reach = reach[::-1]


def monoid_membership(v, generators) -> bool:
    """Decide v ∈ Z≥0-span(generators).

    `generators` is a list of integer vectors of the length of v, or a
    prebuilt `MonoidSearch` over them; a caller that asks many questions
    of one monoid builds the search once and passes it each time.

    M lies in the lattice X of the table (for a list, the span of the
    generators, read before any table is built), so v is not in M when
    it is off span_Q(X) or its coordinates there are not integral.  With
    M = Z≥0·free + Z·units as in `MonoidSearch`, and since every ray r
    of the dual cone is nonnegative on M, nor when some r.v < 0.
    Otherwise a depth-first search over the coordinates picks the
    coefficient c of each free generator g in turn, on an explicit
    stack, so that no recursion limit bounds the number of generators.
    The generators still to come are nonnegative on every ray and the
    units vanish on all of them, so a solution keeps r.residual >= 0:
    c <= r.residual // r.g for every ray with r.g > 0, and a ray
    positive on the residual but on no generator still to come ends the
    branch.  Once every ray vanishes on the residual, every free
    coefficient still to come is zero and the residual must lie in
    Z·units.  Every coefficient is bounded, so the search is finite and
    misses no solution; it keeps no coefficients.
    """
    table = generators if isinstance(generators, MonoidSearch) else None
    lattice = table.lattice if table is not None else Lattice.span(generators, len(v))
    coords = lattice.coords(v)
    if coords is None or any(type(x) is not int for x in coords):
        return False
    if not any(coords):
        return True
    if table is None:
        table = MonoidSearch(map(lattice.coords, generators), lattice)
    gens, free, values, reach = table.gens, table.free, table.values, table.reach
    v_values = [_dot(r, coords) for r in table.rays]
    if any(x < 0 for x in v_values):
        return False
    # one frame per free generator on the current branch: its position,
    # the residual before it and the coefficients still to try for it
    stack: list[tuple[int, Vec, list[int], Iterator[int]]] = []
    pos, residual, res_values = 0, coords, v_values
    while True:
        if not any(res_values):
            if table.unit_lattice.contains(residual):
                return True
        elif not any(x and not ok for x, ok in zip(res_values, reach[pos])):
            g_values = values[free[pos]]
            top = min(x // y for x, y in zip(res_values, g_values) if y)
            if top == 0:  # no frame for a generator whose coefficient is 0
                pos += 1
                continue
            stack.append((pos, residual, res_values, iter(range(top + 1))))
        while stack and (c := next(stack[-1][3], None)) is None:
            stack.pop()
        if not stack:
            return False
        pos, residual, res_values, _ = stack[-1]
        i = free[pos]
        residual = tuple(a - c * b for a, b in zip(residual, gens[i]))
        res_values = [a - c * b for a, b in zip(res_values, values[i])]
        pos += 1

