"""Rational-arithmetic references shared by the test modules.

They compute on `Fraction` throughout and share no code with the integer
kernels of `sphervar`, so an oracle built on them does not run the code
it judges.
"""

from fractions import Fraction


def reference_rational_solve(cols, target):
    """A solution x of sum_i x_i cols[i] = target over Q, with the free
    coordinates zero, or None if there is none: Gauss–Jordan elimination
    on `Fraction` entries."""
    if not cols:
        return [] if all(Fraction(x) == 0 for x in target) else None
    n = len(cols[0])
    m = len(cols)
    aug = [[Fraction(cols[j][i]) for j in range(m)] + [Fraction(target[i])]
           for i in range(n)]
    piv_cols = []
    r = 0
    for c in range(m):
        p = next((i for i in range(r, n) if aug[i][c] != 0), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        fac = aug[r][c]
        aug[r] = [x / fac for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
    for i in range(r, n):
        if aug[i][m] != 0:
            return None
    sol = [Fraction(0)] * m
    for i, c in enumerate(piv_cols):
        sol[c] = aug[i][m]
    return sol


def reference_det(rows):
    """The determinant of a square matrix by Gaussian elimination on
    `Fraction` entries."""
    a = [[Fraction(x) for x in r] for r in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k] != 0), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det
